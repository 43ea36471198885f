// Differential test of the postmortem engine: the production engine, which
// settles each open job only where its classification can change, against
// the per-event walk it replaced (postmortem_reference.h), every
// PostmortemAnalysis field. Inputs: seeded random streams on 1 to 4 cores,
// native torture windows at 1, 2 and 4 cores with full and tiny trace rings,
// the same windows through a CSV round trip at microsecond resolution, and
// nodes 0 and 6 of the golden overloaded fleet.

#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/kernel.h"
#include "src/core/tcb.h"
#include "src/fleet/fleet.h"
#include "src/fuzz/torture.h"
#include "src/obs/postmortem.h"
#include "src/obs/trace_csv.h"
#include "tests/obs/postmortem_reference.h"
#include "tests/obs/trace_streams.h"

namespace emeralds {
namespace obs {
namespace {

// Returns the production analysis after checking it against the walk.
PostmortemAnalysis ExpectMatchesWalk(std::span<const TraceEvent> events, uint64_t dropped,
                                     const std::string& what) {
  PostmortemAnalysis got = AnalyzePostmortem(events.data(), events.size(), dropped);
  ExpectPostmortemsEqual(
      got, reference::ReferenceAnalyzePostmortem(events.data(), events.size(), dropped), what);
  return got;
}

TEST(PostmortemDifferentialTest, RandomStreamsMatchTheWalk) {
  uint64_t misses = 0;
  uint64_t truncated = 0;
  for (uint64_t seed = 1; seed <= 1200; ++seed) {
    Rng rng(seed);
    const int cores = static_cast<int>(rng.UniformInt(1, 4));
    const std::vector<TraceEvent> events =
        RandomTraceStream(rng, static_cast<size_t>(rng.UniformInt(0, 1500)), cores);
    const uint64_t dropped = rng.Bernoulli(0.3) ? static_cast<uint64_t>(rng.UniformInt(1, 99)) : 0;
    const PostmortemAnalysis got =
        ExpectMatchesWalk(events, dropped,
                          "seed " + std::to_string(seed) + ", " + std::to_string(cores) + " cores");
    misses += got.misses_analyzed;
    truncated += got.window_truncated ? 1 : 0;
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(misses, 1000u);
  EXPECT_GT(truncated, 0u);
}

// A job discarded unfinished is settled first: the walk touched its core's
// runner slot in that epoch, and a slot trusts its runner only in the epoch
// that created it. In both streams thread 1's first job runs on core 2, whose
// slot nothing else touches, until a second release or a sink reset discards
// it; the job that misses after the reset must find core 2's runner unknown
// (unattributed), not an idle core (sched).
TEST(PostmortemDifferentialTest, ADiscardedJobIsSettledFirst) {
  auto at = [](int64_t us, TraceEventType type, int32_t a0, int32_t a1, int32_t a2) {
    return TraceEvent{Instant() + Microseconds(us), type, a0, a1, a2};
  };
  const int32_t sleep = static_cast<int32_t>(BlockReason::kSleep);
  const std::vector<TraceEvent> released_over = {
      at(0, TraceEventType::kMsgSend, 0, 0, 0),
      at(0, TraceEventType::kJobRelease, 1, 1, 100000),
      at(10, TraceEventType::kThreadReady, 1, 0, 2),
      at(20, TraceEventType::kMsgSend, 0, 0, 0),
      at(20, TraceEventType::kJobRelease, 1, 2, 100000),
      at(20, TraceEventType::kThreadBlock, 1, sleep, -1),
      at(25, TraceEventType::kTraceEpoch, 1, 0, 0),
      at(25, TraceEventType::kJobRelease, 1, 3, 50000),
      at(60, TraceEventType::kMsgSend, 0, 0, 0),
      at(200, TraceEventType::kJobComplete, 1, 3, 0),
  };
  const std::vector<TraceEvent> reset_under = {
      at(0, TraceEventType::kMsgSend, 0, 0, 0),
      at(0, TraceEventType::kJobRelease, 1, 1, 100000),
      at(10, TraceEventType::kThreadReady, 1, 0, 2),
      at(20, TraceEventType::kTraceEpoch, 1, 0, 0),
      at(20, TraceEventType::kJobRelease, 1, 2, 50000),
      at(60, TraceEventType::kMsgSend, 0, 0, 0),
      at(200, TraceEventType::kJobComplete, 1, 2, 0),
  };
  for (const auto& [what, events, late_ns] :
       {std::tuple{"released over", released_over, int64_t{175000}},
        std::tuple{"reset under", reset_under, int64_t{180000}}}) {
    const PostmortemAnalysis got = ExpectMatchesWalk(events, 0, what);
    ASSERT_EQ(got.misses.size(), 1u) << what;
    EXPECT_EQ(got.misses[0].ledger.unattributed_ns, late_ns) << what;
    EXPECT_EQ(got.misses[0].ledger.sched_ns, 0) << what;
  }
}

TEST(PostmortemDifferentialTest, TortureWindowsMatchTheWalk) {
  uint64_t misses = 0;
  uint64_t csv_misses = 0;
  for (bool tiny : {false, true}) {
    for (int cores : {1, 2, 4}) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        fuzz::TortureOptions options;
        options.seed = seed;
        options.num_cores = cores;
        options.tiny_trace_ring = tiny;
        const std::string what = fuzz::ReproCommand(options);
        fuzz::InspectTorture(options, [&](const Kernel& kernel) {
          const TraceSink& trace = kernel.trace();
          misses += ExpectMatchesWalk(trace.events(), trace.dropped(), what).misses_analyzed;
          std::FILE* f = std::tmpfile();
          ASSERT_NE(f, nullptr);
          trace.ExportCsv(f);
          std::rewind(f);
          TraceCsvImport import;
          std::string error;
          ASSERT_TRUE(ImportTraceCsv(f, &import, &error)) << error;
          std::fclose(f);
          csv_misses +=
              ExpectMatchesWalk(import.events, import.dropped, what + " via CSV").misses_analyzed;
        });
        if (HasFailure()) {
          return;
        }
      }
    }
  }
  EXPECT_GT(misses, 0u);
  EXPECT_GT(csv_misses, 0u);
}

TEST(PostmortemDifferentialTest, FleetNodesMatchTheWalk) {
  fleet::FleetOptions opt;  // FleetTest.OverloadedFleetMatchesGolden's fleet
  opt.instances = 16;
  opt.seed = 11;
  opt.run_duration = Milliseconds(200);
  opt.overload_node = 6;
  opt.overload_factor = 8;
  int visited = 0;
  for (int index : {0, 6}) {
    fleet::InspectNode(opt, index, [&](const Kernel& kernel, const fleet::NodeResult&) {
      ++visited;
      const TraceSink& trace = kernel.trace();
      const PostmortemAnalysis got =
          ExpectMatchesWalk(trace.events(), trace.dropped(), "fleet node " + std::to_string(index));
      if (index == opt.overload_node) {
        EXPECT_GT(got.misses_analyzed, 0u);
      }
    });
  }
  EXPECT_EQ(visited, 2);
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
