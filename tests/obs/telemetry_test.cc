// Mergeable-histogram and fleet-telemetry merge tests.
//
// The property that makes the fleet telemetry plane exact rather than
// approximate: merging per-node Log2Histogram sketches is bucket-identical
// to sketching the concatenated sample streams, so any percentile table
// computed over a merged histogram equals the table a single observer of
// every sample would have produced (at bucket granularity).

#include "src/obs/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/base/log2_histogram.h"
#include "src/base/rng.h"

namespace emeralds {
namespace obs {
namespace {

std::vector<Duration> DrawSamples(uint64_t seed, int n, int64_t lo_us, int64_t hi_us) {
  Rng rng(seed);
  std::vector<Duration> samples;
  samples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    samples.push_back(Microseconds(rng.UniformInt(lo_us, hi_us)));
  }
  return samples;
}

Log2Histogram Sketch(const std::vector<Duration>& samples) {
  Log2Histogram h;
  for (Duration d : samples) {
    h.Add(d);
  }
  return h;
}

void ExpectIdentical(const Log2Histogram& a, const Log2Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.total(), b.total());
  for (int i = 0; i < Log2Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
  }
}

// merge(sketch(A), sketch(B), ...) == sketch(A ++ B ++ ...), bucket-exact.
TEST(HistogramMergeTest, MergeOfSketchesEqualsSketchOfConcatenation) {
  std::vector<std::vector<Duration>> streams;
  streams.push_back(DrawSamples(1, 500, 0, 100000));
  streams.push_back(DrawSamples(2, 37, 1, 50));
  streams.push_back(DrawSamples(3, 1000, 1000000, 500000000));
  streams.push_back({});  // an idle node contributes nothing

  Log2Histogram merged;
  std::vector<Duration> all;
  for (const std::vector<Duration>& s : streams) {
    merged.Merge(Sketch(s));
    all.insert(all.end(), s.begin(), s.end());
  }
  ExpectIdentical(merged, Sketch(all));

  // Merge order must not matter either.
  Log2Histogram reversed;
  for (auto it = streams.rbegin(); it != streams.rend(); ++it) {
    reversed.Merge(Sketch(*it));
  }
  ExpectIdentical(reversed, merged);
}

TEST(HistogramMergeTest, EmptyEdgeCases) {
  Log2Histogram empty;
  Log2Histogram also_empty;
  empty.Merge(also_empty);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.PercentileBound(0.99), Duration());

  // Empty into populated: a no-op, including min (the empty side's
  // zero-initialized min must not clobber a positive minimum).
  Log2Histogram h;
  h.Add(Microseconds(100));
  h.Add(Microseconds(200));
  Log2Histogram before = h;
  h.Merge(empty);
  ExpectIdentical(h, before);
  EXPECT_EQ(h.min(), Microseconds(100));

  // Populated into empty: adopts everything exactly.
  Log2Histogram into_empty;
  into_empty.Merge(h);
  ExpectIdentical(into_empty, h);
}

// The last bucket absorbs everything above its floor; merged overflow
// samples must stay there and the percentile bound must stay clamped by the
// exact max rather than the (infinite) bucket edge.
TEST(HistogramMergeTest, OverflowBucketMergesAndClamps) {
  Duration huge = Seconds(1000000);  // far beyond the last bucket floor
  Log2Histogram a;
  a.Add(huge);
  Log2Histogram b;
  b.Add(huge + Seconds(5));
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.bucket(Log2Histogram::kNumBuckets - 1), 2u);
  EXPECT_EQ(a.max(), huge + Seconds(5));
  EXPECT_EQ(a.PercentileBound(1.0), a.max());
}

// The bound property: for every fraction, the true percentile (from the raw
// sorted samples) never exceeds PercentileBound, and the bound never exceeds
// the exact max — on a merged histogram just as on a directly-built one.
TEST(HistogramMergeTest, PercentileBoundBoundsTheTruePercentile) {
  std::vector<Duration> a = DrawSamples(7, 400, 0, 20000);
  std::vector<Duration> b = DrawSamples(8, 600, 100, 3000000);
  Log2Histogram merged;
  merged.Merge(Sketch(a));
  merged.Merge(Sketch(b));

  std::vector<Duration> all = a;
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());

  for (double fraction : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    size_t rank = static_cast<size_t>(fraction * static_cast<double>(all.size()));
    if (rank < 1) {
      rank = 1;
    }
    Duration truth = all[rank - 1];
    Duration bound = merged.PercentileBound(fraction);
    EXPECT_LE(truth, bound) << "fraction " << fraction;
    EXPECT_LE(bound, merged.max()) << "fraction " << fraction;
  }
}

NodeTelemetry MakeNode(const char* chain_name, int64_t deadline_us, uint64_t overruns,
                       int64_t headroom_us) {
  NodeTelemetry t;
  t.headroom_seen = true;
  t.headroom_min = Microseconds(headroom_us);
  t.response.Add(Microseconds(100));

  ChainTelemetry c;
  c.name = chain_name;
  c.deadline_min = Microseconds(deadline_us);
  c.deadline_max = Microseconds(deadline_us);
  c.completed = 5;
  c.overruns = overruns;
  c.e2e.Add(Microseconds(deadline_us / 2));
  c.hops.resize(1);
  c.hops[0].queue.Add(Microseconds(10));
  c.hops[0].exec.Add(Microseconds(20));
  t.chains.push_back(c);
  return t;
}

TEST(FleetTelemetryMergeTest, MergesChainsByNameAndTracksWorstNodes) {
  FleetTelemetry fleet;
  MergeNodeTelemetry(&fleet, MakeNode("pipe", 3000, 2, 500), 0);
  MergeNodeTelemetry(&fleet, MakeNode("pipe", 5000, 1, 80), 1);
  MergeNodeTelemetry(&fleet, MakeNode("tick", 5000, 0, 900), 2);

  EXPECT_EQ(fleet.response.count(), 3u);

  // Same-name chains merge (deadline range widens, counters add); distinct
  // names stay separate.
  ASSERT_EQ(fleet.chains.size(), 2u);
  const ChainTelemetry& pipe = fleet.chains[0];
  EXPECT_EQ(pipe.name, "pipe");
  EXPECT_EQ(pipe.deadline_min, Microseconds(3000));
  EXPECT_EQ(pipe.deadline_max, Microseconds(5000));
  EXPECT_EQ(pipe.completed, 10u);
  EXPECT_EQ(pipe.overruns, 3u);
  EXPECT_EQ(pipe.e2e.count(), 2u);
  ASSERT_EQ(pipe.hops.size(), 1u);
  EXPECT_EQ(pipe.hops[0].queue.count(), 2u);
  EXPECT_EQ(fleet.chains[1].name, "tick");

  // Worst-node tracking: the minimum headroom carries the node index that
  // produced it.
  EXPECT_TRUE(fleet.headroom_seen);
  EXPECT_EQ(fleet.headroom_min, Microseconds(80));
  EXPECT_EQ(fleet.headroom_min_node, 1);
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
