// Streaming timeseries tests. The load-bearing property is telescoping:
// the per-window histogram deltas and counter deltas, merged over every
// window of a run, must reproduce the whole-run cumulative state
// bit-identically — that is what makes the streaming plane exact rather
// than a sampled approximation. Also: the fixed window grid, the sink seeing
// every window of a long run in index order, explicit gap marking under
// snapshot loss, and the order-invariant fleet merge.

#include "src/obs/timeseries.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/log2_histogram.h"
#include "src/core/stats.h"
#include "src/core/taskset_runner.h"
#include "src/workload/workload.h"
#include "tests/testing/kernel_env.h"

namespace emeralds {
namespace obs {
namespace {

// A collector whose sink appends every closed window to `windows`.
TimeseriesCollector CollectInto(Duration window, std::vector<TelemetryWindow>* windows) {
  return TimeseriesCollector(window,
                             [windows](const TelemetryWindow& w) { windows->push_back(w); });
}

void ExpectIdentical(const Log2Histogram& a, const Log2Histogram& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.total(), b.total()) << what;
  if (a.count() > 0) {
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
  }
  for (int i = 0; i < Log2Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(a.bucket(i), b.bucket(i)) << what << " bucket " << i;
  }
}

// --- Log2Histogram::Delta ---

TEST(HistogramDeltaTest, DeltasTelescopeBackToCumulative) {
  Log2Histogram cumulative;
  Log2Histogram prev;
  Log2Histogram merged_deltas;
  int64_t samples[] = {3, 70, 9000, 12, 500000, 1, 42};
  for (int64_t us : samples) {
    cumulative.Add(Microseconds(us));
    Log2Histogram d = Log2Histogram::Delta(cumulative, prev);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_EQ(d.total(), Microseconds(us));
    merged_deltas.Merge(d);
    prev = cumulative;
  }
  // Every field — including min/max, which per-delta are only conservative
  // cumulative bounds — reproduces the whole-run histogram after the merge.
  ExpectIdentical(merged_deltas, cumulative, "telescoped");
}

TEST(HistogramDeltaTest, EmptyDeltaContributesNothing) {
  Log2Histogram h;
  h.Add(Microseconds(10));
  Log2Histogram d = Log2Histogram::Delta(h, h);
  EXPECT_EQ(d.count(), 0u);
  Log2Histogram acc;
  acc.Add(Microseconds(99));
  Log2Histogram before = acc;
  acc.Merge(d);
  ExpectIdentical(acc, before, "merge of empty delta");
}

// --- Window grid ---

TEST(TimeseriesCollectorTest, IndexOfWindowGrid) {
  TimeseriesCollector c(Milliseconds(10), [](const TelemetryWindow&) {});
  EXPECT_EQ(c.IndexOf(Instant()), 0);
  EXPECT_EQ(c.IndexOf(Instant() + Nanoseconds(1)), 0);
  EXPECT_EQ(c.IndexOf(Instant() + Milliseconds(10)), 0);  // upper edge inclusive
  EXPECT_EQ(c.IndexOf(Instant() + Milliseconds(10) + Nanoseconds(1)), 1);
  EXPECT_EQ(c.IndexOf(Instant() + Milliseconds(25)), 2);
}

// --- Live kernel: the telescoping acceptance property ---

// Runs a real workload with the sampler on, drains the collector on a
// 5 ms host schedule like the fleet runner, and checks the merged window
// series against the kernel's own cumulative state: histograms
// bit-identical, counters exactly summing, every window on the grid.
TEST(TimeseriesCollectorTest, WindowSeriesTelescopesToWholeRun) {
  KernelConfig config = CalibratedConfig();
  config.trace_capacity = 8192;
  SimEnv env(config);
  env.k().EnableStatsSampling(Milliseconds(2), 128);
  TaskSet set = Table2Workload();
  SpawnTaskSet(env.k(), set);
  env.k().Start();

  const Duration width = Milliseconds(10);
  std::vector<TelemetryWindow> windows;
  TimeseriesCollector collector = CollectInto(width, &windows);

  Instant end = Instant() + Milliseconds(100);
  while (env.k().now() < end) {
    env.k().RunUntil(std::min(end, env.k().now() + Milliseconds(5)));
    collector.Collect(env.k());
  }
  collector.Finish(env.k());

  ASSERT_GT(windows.size(), 0u);
  EXPECT_EQ(collector.lost_samples(), 0u);

  const KernelStats& stats = env.k().stats();
  Log2Histogram response;
  Log2Histogram chain_e2e;
  Log2Histogram headroom;
  uint64_t jobs_released = 0;
  uint64_t jobs_completed = 0;
  uint64_t misses = 0;
  uint64_t switches = 0;
  uint64_t timers = 0;
  int64_t last_index = -1;
  for (const TelemetryWindow& w : windows) {
    EXPECT_FALSE(w.gap);
    EXPECT_GT(w.index, last_index);
    last_index = w.index;
    EXPECT_EQ(w.start, Instant() + width * w.index);
    EXPECT_GT(w.end, w.start);
    EXPECT_LE(w.end, w.start + width);
    response.Merge(w.response);
    chain_e2e.Merge(w.chain_e2e);
    headroom.Merge(w.headroom);
    jobs_released += w.jobs_released;
    jobs_completed += w.jobs_completed;
    misses += w.deadline_misses;
    switches += w.context_switches;
    timers += w.timer_dispatches;
  }
  ExpectIdentical(response, stats.response_hist, "response");
  ExpectIdentical(chain_e2e, stats.chain_e2e_hist, "chain_e2e");
  ExpectIdentical(headroom, stats.headroom_hist, "headroom");
  EXPECT_EQ(jobs_released, stats.jobs_released);
  EXPECT_EQ(jobs_completed, stats.jobs_completed);
  EXPECT_EQ(misses, stats.deadline_misses);
  EXPECT_EQ(switches, stats.context_switches);
  EXPECT_EQ(timers, stats.timer_dispatches);
  EXPECT_GT(response.count(), 0u);  // the property must not hold vacuously
}

// The collector keeps only the window it is filling, so a run of any length
// reaches the sink whole: 200 windows of 5 ms, each once, in index order
// from window 0, their counters summing to the kernel's totals.
TEST(TimeseriesCollectorTest, SinkSeesEveryWindowOfALongRun) {
  KernelConfig config = CalibratedConfig();
  SimEnv env(config);
  env.k().EnableStatsSampling(Milliseconds(2), 128);
  TaskSet set = Table2Workload();
  SpawnTaskSet(env.k(), set);
  env.k().Start();

  std::vector<TelemetryWindow> windows;
  TimeseriesCollector collector = CollectInto(Milliseconds(5), &windows);
  Instant end = Instant() + Seconds(1);
  while (env.k().now() < end) {
    env.k().RunUntil(std::min(end, env.k().now() + Milliseconds(5)));
    collector.Collect(env.k());
  }
  collector.Finish(env.k());

  ASSERT_EQ(windows.size(), static_cast<size_t>(collector.IndexOf(env.k().now()) + 1));
  EXPECT_GE(windows.size(), 200u);
  uint64_t jobs = 0;
  uint64_t misses = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].index, static_cast<int64_t>(i));
    jobs += windows[i].jobs_completed;
    misses += windows[i].deadline_misses;
  }
  EXPECT_EQ(jobs, env.k().stats().jobs_completed);
  EXPECT_EQ(misses, env.k().stats().deadline_misses);
  EXPECT_GT(jobs, 0u);
}

// The drain schedule must not matter for the *contents* of closed windows:
// draining every slice and draining only at the horizon yield the same
// series when nothing was lost (the ring was big enough for the whole run).
TEST(TimeseriesCollectorTest, DrainScheduleInvariantWithoutLoss) {
  auto run = [](Duration drain_period) {
    KernelConfig config = CalibratedConfig();
    SimEnv env(config);
    env.k().EnableStatsSampling(Milliseconds(2), 128);
    TaskSet set = Table2Workload();
    SpawnTaskSet(env.k(), set);
    env.k().Start();
    std::vector<TelemetryWindow> windows;
    TimeseriesCollector collector = CollectInto(Milliseconds(10), &windows);
    Instant end = Instant() + Milliseconds(60);
    while (env.k().now() < end) {
      env.k().RunUntil(std::min(end, env.k().now() + drain_period));
      collector.Collect(env.k());
    }
    collector.Finish(env.k());
    return windows;
  };
  std::vector<TelemetryWindow> fine = run(Milliseconds(5));
  std::vector<TelemetryWindow> coarse = run(Milliseconds(60));
  ASSERT_EQ(fine.size(), coarse.size());
  for (size_t i = 0; i < fine.size(); ++i) {
    EXPECT_EQ(fine[i].index, coarse[i].index);
    EXPECT_EQ(fine[i].jobs_completed, coarse[i].jobs_completed);
    EXPECT_EQ(fine[i].deadline_misses, coarse[i].deadline_misses);
    EXPECT_EQ(fine[i].context_switches, coarse[i].context_switches);
    EXPECT_EQ(fine[i].samples, coarse[i].samples);
    ExpectIdentical(fine[i].response, coarse[i].response, "window response");
  }
}

// --- Explicit degradation ---

TEST(TimeseriesCollectorTest, SnapshotLossIsGapMarkedNeverSilent) {
  KernelConfig config = CalibratedConfig();
  SimEnv env(config);
  // A 4-deep ring sampled every 1 ms overflows long before the first drain
  // at 50 ms: the collector must report the loss and gap-mark the windows
  // spanning it.
  env.k().EnableStatsSampling(Milliseconds(1), 4);
  TaskSet set = Table2Workload();
  SpawnTaskSet(env.k(), set);
  env.k().Start();

  std::vector<TelemetryWindow> windows;
  TimeseriesCollector collector = CollectInto(Milliseconds(10), &windows);
  env.k().RunUntil(Instant() + Milliseconds(50));
  collector.Collect(env.k());
  collector.Finish(env.k());

  EXPECT_GT(collector.lost_samples(), 0u);
  bool any_gap = false;
  for (const TelemetryWindow& w : windows) {
    any_gap = any_gap || w.gap;
  }
  EXPECT_TRUE(any_gap);
  // The kernel-side drop counter surfaces the same loss.
  EXPECT_GT(env.k().stats().stats_snapshot_drops, 0u);
}

// --- Fleet merge ---

TelemetryWindow SyntheticWindow(int64_t index, uint64_t jobs, uint64_t misses,
                                int64_t response_us) {
  TelemetryWindow w;
  w.index = index;
  w.start = Instant() + Milliseconds(10) * index;
  w.end = w.start + Milliseconds(10);
  w.samples = 1;
  w.jobs_completed = jobs;
  w.deadline_misses = misses;
  if (response_us > 0) {
    w.response.Add(Microseconds(response_us));
  }
  return w;
}

// Merges each source's windows into one series, visiting the sources'
// windows in the interleaving `order` names (a source index per step, each
// source's windows taken in its own index order).
std::vector<TelemetryWindow> MergeInOrder(const std::vector<std::vector<TelemetryWindow>>& sources,
                                          const std::vector<size_t>& order) {
  std::vector<TelemetryWindow> series;
  std::vector<size_t> next(sources.size(), 0);
  for (size_t source : order) {
    MergeWindowInto(&series, sources[source][next[source]++]);
  }
  return series;
}

TEST(MergeWindowSeriesTest, SumsByIndexAndIsOrderInvariant) {
  std::vector<std::vector<TelemetryWindow>> sources = {
      {SyntheticWindow(0, 10, 0, 100), SyntheticWindow(1, 12, 1, 200)},
      {SyntheticWindow(0, 0, 0, 0), SyntheticWindow(1, 5, 2, 400), SyntheticWindow(2, 0, 0, 0),
       SyntheticWindow(3, 7, 0, 50)}};
  std::vector<TelemetryWindow> merged = MergeInOrder(sources, {0, 0, 1, 1, 1, 1});
  ASSERT_EQ(merged.size(), 4u);  // indexes 0..3
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].index, static_cast<int64_t>(i));
  }
  EXPECT_EQ(merged[0].jobs_completed, 10u);
  EXPECT_EQ(merged[1].jobs_completed, 17u);
  EXPECT_EQ(merged[1].deadline_misses, 3u);
  EXPECT_EQ(merged[1].samples, 2u);
  EXPECT_EQ(merged[1].response.count(), 2u);
  EXPECT_EQ(merged[3].jobs_completed, 7u);

  // Any interleaving that keeps each source in index order, as concurrent
  // nodes produce, gives the same series.
  for (const std::vector<size_t>& order :
       {std::vector<size_t>{1, 1, 1, 1, 0, 0}, std::vector<size_t>{1, 0, 0, 1, 1, 1},
        std::vector<size_t>{0, 1, 1, 0, 1, 1}}) {
    std::vector<TelemetryWindow> other = MergeInOrder(sources, order);
    ASSERT_EQ(other.size(), merged.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(other[i].index, merged[i].index);
      EXPECT_EQ(other[i].jobs_completed, merged[i].jobs_completed);
      EXPECT_EQ(other[i].deadline_misses, merged[i].deadline_misses);
      EXPECT_EQ(other[i].samples, merged[i].samples);
      ExpectIdentical(other[i].response, merged[i].response, "merged response");
    }
  }
}

TEST(MergeWindowSeriesTest, GapIsSticky) {
  TelemetryWindow a = SyntheticWindow(0, 1, 0, 10);
  TelemetryWindow b = SyntheticWindow(0, 1, 0, 10);
  b.gap = true;
  for (bool gap_first : {false, true}) {
    std::vector<TelemetryWindow> merged;
    MergeWindowInto(&merged, gap_first ? b : a);
    MergeWindowInto(&merged, gap_first ? a : b);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_TRUE(merged[0].gap);
  }
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
