// Causal event-chain analyzer tests: instance reconstruction over synthetic
// emit/consume streams (exact telescoping of the latency breakdown, deadline
// overruns, consumer/carrier matching), token-conservation violations and
// their truncation-aware degradation to orphan-hop counts, and JSON-escaping
// hardening of every surface that renders user-controlled names (chain
// reports, Perfetto export).

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/obs/chains.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/trace_analyzer.h"
#include "src/obs/trace_csv.h"

namespace emeralds {
namespace obs {
namespace {

constexpr int32_t kIrqEp = ChainEndpointPack(ChainEndpointKind::kIrq, 3);
constexpr int32_t kSmsgEp = ChainEndpointPack(ChainEndpointKind::kSmsg, 0);

TraceEvent ChainEv(int64_t us, TraceEventType type, uint32_t origin, int32_t endpoint, int hop,
                   int actor) {
  return TraceEvent{Instant() + Microseconds(us), type, static_cast<int32_t>(origin), endpoint,
                    ChainHopPack(hop, actor)};
}

// irq:3 consumed by thread 1, which republishes on smsg:0 for thread 2.
ResolvedChain TwoStageSpec(Duration deadline = Milliseconds(1)) {
  ResolvedChain c;
  c.name = "pipe";
  c.deadline = deadline;
  c.resolved = true;
  c.stages.push_back(ResolvedChainStage{kIrqEp, 1});
  c.stages.push_back(ResolvedChainStage{kSmsgEp, 2});
  return c;
}

// One complete traversal by `origin`: ISR emit at t0, driver consume at
// t0+10 (queue 10), driver re-emit at t0+25 (exec 15), reader consume at
// t0+40 (queue 15). End-to-end 40us.
std::vector<TraceEvent> OneInstance(uint32_t origin, int64_t t0) {
  return {
      ChainEv(t0, TraceEventType::kChainEmit, origin, kIrqEp, 0, -1),
      ChainEv(t0 + 10, TraceEventType::kChainConsume, origin, kIrqEp, 1, 1),
      ChainEv(t0 + 25, TraceEventType::kChainEmit, origin, kSmsgEp, 1, 1),
      ChainEv(t0 + 40, TraceEventType::kChainConsume, origin, kSmsgEp, 2, 2),
  };
}

TEST(ChainAnalyzerTest, ReconstructsTwoStageInstanceExactly) {
  std::vector<TraceEvent> events = OneInstance(7, 100);
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {TwoStageSpec()});

  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(a.complete_window);
  EXPECT_EQ(a.chain_emits, 2u);
  EXPECT_EQ(a.chain_consumes, 2u);
  EXPECT_EQ(a.origins_minted, 1u);
  EXPECT_EQ(a.orphan_hops, 0u);
  EXPECT_EQ(a.unconsumed_emits, 0u);

  ASSERT_EQ(a.chains.size(), 1u);
  const ChainReport& c = a.chains[0];
  EXPECT_TRUE(c.resolved);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.incomplete, 0u);
  EXPECT_EQ(c.overruns, 0u);
  EXPECT_EQ(c.e2e.total(), Microseconds(40));
  ASSERT_EQ(c.hops.size(), 2u);
  EXPECT_EQ(c.hops[0].queue.total(), Microseconds(10));
  EXPECT_EQ(c.hops[0].exec.total(), Microseconds(15));
  EXPECT_EQ(c.hops[1].queue.total(), Microseconds(15));
  EXPECT_EQ(c.hops[1].exec.count(), 0u);

  // The telescoping identity: e2e == sum of per-hop queue + exec, exactly.
  Duration hop_total;
  for (const ChainHopStats& h : c.hops) {
    hop_total += h.queue.total() + h.exec.total();
  }
  EXPECT_EQ(hop_total, c.e2e.total());
}

TEST(ChainAnalyzerTest, DeadlineOverrunCounted) {
  std::vector<TraceEvent> events = OneInstance(7, 0);
  ChainAnalysis a =
      AnalyzeChains(events.data(), events.size(), 0, {TwoStageSpec(Microseconds(30))});
  ASSERT_EQ(a.chains.size(), 1u);
  EXPECT_EQ(a.chains[0].completed, 1u);
  EXPECT_EQ(a.chains[0].overruns, 1u);  // 40us e2e > 30us SLO
}

TEST(ChainAnalyzerTest, DeclaredConsumerMismatchLeavesInstanceInFlight) {
  // Final consume lands on thread 9, but the spec demands thread 2.
  std::vector<TraceEvent> events = OneInstance(7, 0);
  events[3] = ChainEv(40, TraceEventType::kChainConsume, 7, kSmsgEp, 2, 9);
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {TwoStageSpec()});
  EXPECT_TRUE(a.ok());  // conservation holds; only the spec match fails
  ASSERT_EQ(a.chains.size(), 1u);
  EXPECT_EQ(a.chains[0].completed, 0u);
  EXPECT_EQ(a.chains[0].incomplete, 1u);
}

TEST(ChainAnalyzerTest, MidChainEmitRequiresCarrierContinuity) {
  // The smsg re-emit is by thread 5, not the thread-1 carrier that consumed
  // stage 0 — some unrelated publish reusing the origin's hop arithmetic.
  // The instance must not advance on it.
  std::vector<TraceEvent> events = OneInstance(7, 0);
  events[2] = ChainEv(25, TraceEventType::kChainEmit, 7, kSmsgEp, 1, 5);
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {TwoStageSpec()});
  ASSERT_EQ(a.chains.size(), 1u);
  EXPECT_EQ(a.chains[0].completed, 0u);
  EXPECT_EQ(a.chains[0].incomplete, 1u);
}

TEST(ChainAnalyzerTest, InterleavedInstancesOfDistinctOriginsBothComplete) {
  std::vector<TraceEvent> first = OneInstance(1, 0);
  std::vector<TraceEvent> second = OneInstance(2, 5);
  std::vector<TraceEvent> events;
  for (size_t i = 0; i < first.size(); ++i) {
    events.push_back(first[i]);
    events.push_back(second[i]);
  }
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {TwoStageSpec()});
  EXPECT_TRUE(a.ok());
  ASSERT_EQ(a.chains.size(), 1u);
  EXPECT_EQ(a.chains[0].completed, 2u);
  EXPECT_EQ(a.chains[0].e2e.total(), Microseconds(80));
}

// Satellite: a consume whose emit fell outside the retained window must be a
// counted orphan hop on a truncated ring — never a false violation.
TEST(ChainAnalyzerTest, OrphanConsumeDegradesToCountWhenWindowTruncated) {
  std::vector<TraceEvent> events = {
      ChainEv(10, TraceEventType::kChainConsume, 42, kIrqEp, 1, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), /*dropped_events=*/3, {});
  EXPECT_FALSE(a.complete_window);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(a.violations.empty());
  EXPECT_EQ(a.orphan_hops, 1u);
}

TEST(ChainAnalyzerTest, OrphanConsumeIsViolationInCompleteWindow) {
  std::vector<TraceEvent> events = {
      ChainEv(10, TraceEventType::kChainConsume, 42, kIrqEp, 1, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  EXPECT_TRUE(a.complete_window);
  EXPECT_FALSE(a.ok());
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, ChainViolationKind::kOrphanConsume);
  EXPECT_EQ(a.orphan_hops, 0u);
}

// Satellite: a consume at exactly the hop cap with no visible emit is the
// kernel's saturation path — the producing operation found the token already
// at kMaxChainHops, dropped it, and recorded no emit — so the analyzer must
// count it as a saturated hop, never a conservation violation, even in a
// complete window.
TEST(ChainAnalyzerTest, ConsumeAtHopCapIsSaturationNotViolation) {
  std::vector<TraceEvent> events = {
      ChainEv(10, TraceEventType::kChainConsume, 42, kIrqEp, kMaxChainHops, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  EXPECT_TRUE(a.complete_window);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(a.violations.empty());
  EXPECT_EQ(a.saturated_hops, 1u);
  EXPECT_EQ(a.orphan_hops, 0u);
}

// One hop below the cap the token could not have been dropped by saturation,
// so a missing emit in a complete window is still a real violation.
TEST(ChainAnalyzerTest, ConsumeBelowHopCapStaysOrphanViolation) {
  std::vector<TraceEvent> events = {
      ChainEv(10, TraceEventType::kChainConsume, 42, kIrqEp, kMaxChainHops - 1, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  EXPECT_FALSE(a.ok());
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, ChainViolationKind::kOrphanConsume);
  EXPECT_EQ(a.saturated_hops, 0u);
}

// Above the cap no legitimate token exists at all: still malformed, never
// counted as saturation.
TEST(ChainAnalyzerTest, ConsumeBeyondHopCapStaysMalformed) {
  std::vector<TraceEvent> events = {
      ChainEv(10, TraceEventType::kChainConsume, 42, kIrqEp, kMaxChainHops + 1, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, ChainViolationKind::kMalformedToken);
  EXPECT_EQ(a.saturated_hops, 0u);
}

// Saturation is recognized before the truncation branch: on a truncated ring
// a cap-hop consume is still counted as saturated, not lumped into the
// orphan-hop bucket.
TEST(ChainAnalyzerTest, SaturatedHopCountedOnTruncatedWindowToo) {
  std::vector<TraceEvent> events = {
      ChainEv(10, TraceEventType::kChainConsume, 42, kIrqEp, kMaxChainHops, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), /*dropped_events=*/2, {});
  EXPECT_FALSE(a.complete_window);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.saturated_hops, 1u);
  EXPECT_EQ(a.orphan_hops, 0u);
}

TEST(ChainAnalyzerTest, EpochMarkerForcesIncompleteWindow) {
  // A sink Reset clears dropped() but tokens banked before the reset can
  // surface afterwards: the epoch marker alone must disarm the violation.
  std::vector<TraceEvent> events = {
      TraceEvent{Instant(), TraceEventType::kTraceEpoch, 1, 0, 0},
      ChainEv(10, TraceEventType::kChainConsume, 42, kIrqEp, 1, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  EXPECT_FALSE(a.complete_window);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.orphan_hops, 1u);
}

// Completeness is settled only at the end of the window: an orphan consume
// seen before any marker is one orphan hop once a later marker shows the
// window is a suffix, and a violation at its own index when none follows.
TEST(ChainAnalyzerTest, OrphanBeforeLaterEpochIsOrphanHop) {
  std::vector<TraceEvent> events = {
      ChainEv(0, TraceEventType::kChainEmit, 7, kIrqEp, 0, -1),
      ChainEv(10, TraceEventType::kChainConsume, 42, kIrqEp, 1, 1),
      TraceEvent{Instant() + Microseconds(20), TraceEventType::kTraceEpoch, 1, 0, 0},
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  EXPECT_FALSE(a.complete_window);
  EXPECT_TRUE(a.violations.empty());
  EXPECT_EQ(a.orphan_hops, 1u);

  events.pop_back();
  a = AnalyzeChains(events.data(), events.size(), 0, {});
  EXPECT_TRUE(a.complete_window);
  EXPECT_EQ(a.orphan_hops, 0u);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, ChainViolationKind::kOrphanConsume);
  EXPECT_EQ(a.violations[0].event_index, 1u);
}

TEST(ChainAnalyzerTest, OriginReuseFlagged) {
  std::vector<TraceEvent> events = {
      ChainEv(0, TraceEventType::kChainEmit, 9, kIrqEp, 0, -1),
      ChainEv(5, TraceEventType::kChainEmit, 9, kSmsgEp, 0, 1),  // minted again
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, ChainViolationKind::kOriginReuse);
  EXPECT_EQ(a.origins_minted, 1u);
}

TEST(ChainAnalyzerTest, MalformedTokensFlagged) {
  std::vector<TraceEvent> events = {
      ChainEv(0, TraceEventType::kChainEmit, 0, kIrqEp, 0, -1),    // origin 0
      ChainEv(1, TraceEventType::kChainConsume, 5, kIrqEp, 0, 1),  // consume at hop 0
      ChainEv(2, TraceEventType::kChainEmit, 6, kIrqEp, kMaxChainHops + 1, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  ASSERT_EQ(a.violations.size(), 3u);
  for (const ChainViolation& v : a.violations) {
    EXPECT_EQ(v.kind, ChainViolationKind::kMalformedToken);
  }
}

TEST(ChainAnalyzerTest, MultiConsumeOfOneEmitIsLegitimate) {
  // State-message re-reads and condvar broadcasts consume one emit many
  // times; conservation must accept every one of them.
  std::vector<TraceEvent> events = {
      ChainEv(0, TraceEventType::kChainEmit, 3, kSmsgEp, 0, 1),
      ChainEv(10, TraceEventType::kChainConsume, 3, kSmsgEp, 1, 2),
      ChainEv(20, TraceEventType::kChainConsume, 3, kSmsgEp, 1, 4),
      ChainEv(30, TraceEventType::kChainConsume, 3, kSmsgEp, 1, 5),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.chain_consumes, 3u);
  EXPECT_EQ(a.unconsumed_emits, 0u);
}

TEST(ChainAnalyzerTest, UnconsumedEmitIsInformationalOnly) {
  std::vector<TraceEvent> events = {
      ChainEv(0, TraceEventType::kChainEmit, 3, kSmsgEp, 0, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {});
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.unconsumed_emits, 1u);
}

TEST(ChainAnalyzerTest, UnresolvedSpecStillGetsReportRow) {
  ResolvedChain ghost;
  ghost.name = "ghost";
  ghost.resolved = false;
  std::vector<TraceEvent> events = OneInstance(7, 0);
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {ghost});
  EXPECT_TRUE(a.ok());
  ASSERT_EQ(a.chains.size(), 1u);
  EXPECT_FALSE(a.chains[0].resolved);
  EXPECT_EQ(a.chains[0].completed, 0u);
  EXPECT_EQ(a.chains[0].incomplete, 0u);
}

TEST(ChainAnalyzerTest, ChainEventsSurviveCsvRoundTrip) {
  TraceSink sink(64);
  for (const TraceEvent& e : OneInstance(11, 50)) {
    sink.Record(e.time, e.type, e.arg0, e.arg1, e.arg2);
  }
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  sink.ExportCsv(f);
  std::rewind(f);
  TraceCsvImport import;
  std::string error;
  ASSERT_TRUE(ImportTraceCsv(f, &import, &error)) << error;
  std::fclose(f);

  ChainAnalysis a = AnalyzeChains(import.events.data(), import.events.size(), import.dropped,
                                  {TwoStageSpec()});
  EXPECT_TRUE(a.ok());
  ASSERT_EQ(a.chains.size(), 1u);
  EXPECT_EQ(a.chains[0].completed, 1u);
  EXPECT_EQ(a.chains[0].e2e.total(), Microseconds(40));
}

TEST(ChainAnalyzerTest, TraceAnalyzerDoesNotTreatTokenOriginsAsThreads) {
  // Chain events carry a token origin in arg0; a large origin id must not
  // materialize as a phantom task row in the trace analysis.
  std::vector<TraceEvent> events = OneInstance(4000, 0);
  TraceAnalysis a = AnalyzeTrace(events.data(), events.size(), 0);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.chain_emits, 2u);
  EXPECT_EQ(a.chain_consumes, 2u);
  for (const TaskMetrics& t : a.tasks) {
    EXPECT_FALSE(t.seen) << "phantom task " << t.thread_id;
  }
}

// --- Satellite: JSON escaping of hostile names ---

constexpr const char* kHostileName = "pwn\"ed\\name\nwith\tctl\x01";

TEST(ChainReportTest, HostileChainNamesAndDetailsAreEscaped) {
  ResolvedChain spec;
  spec.name = kHostileName;
  spec.resolved = true;
  spec.stages.push_back(ResolvedChainStage{kIrqEp, -1});
  std::vector<TraceEvent> events = {
      ChainEv(0, TraceEventType::kChainEmit, 1, kIrqEp, 0, -1),
      ChainEv(5, TraceEventType::kChainConsume, 1, kIrqEp, 1, 1),
      // An orphan consume so the report also carries a violation detail.
      ChainEv(9, TraceEventType::kChainConsume, 2, kSmsgEp, 7, 1),
  };
  ChainAnalysis a = AnalyzeChains(events.data(), events.size(), 0, {spec});
  std::string text = BuildChainsReport(kHostileName, a);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(text, &root, &error)) << error << "\n" << text;
  EXPECT_EQ(root.Find("label")->string, kHostileName);
  const JsonValue& chains = *root.Find("report")->Find("chains");
  ASSERT_EQ(chains.array.size(), 1u);
  EXPECT_EQ(chains.array[0].Find("name")->string, kHostileName);
  ASSERT_FALSE(root.Find("report")->Find("violations")->array.empty());
}

TEST(PerfettoExportTest, HostileThreadNamesAreEscaped) {
  std::vector<TraceEvent> events = OneInstance(3, 0);
  events.push_back(TraceEvent{Instant() + Microseconds(50), TraceEventType::kContextSwitch, -1, 1,
                              0});
  PerfettoExportOptions options;
  options.process_name = kHostileName;
  options.thread_names = {std::string(kHostileName), std::string(kHostileName),
                          std::string("ok")};

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  size_t entries = ExportPerfettoJson(events.data(), events.size(), options, f);
  EXPECT_GT(entries, 0u);
  std::rewind(f);
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(text, &root, &error)) << error << "\n" << text;
  // The hostile thread name must round-trip intact through the metadata
  // entry, not just parse.
  bool found = false;
  for (const JsonValue& e : root.Find("traceEvents")->array) {
    const JsonValue* ph = e.Find("ph");
    if (ph != nullptr && ph->string == "M" && e.Find("name")->string == "thread_name" &&
        e.Find("args")->Find("name")->string == kHostileName) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << text;
}

TEST(PerfettoExportTest, ChainFlowPairsShareIdsAndSkipPhantomThreads) {
  std::vector<TraceEvent> events = OneInstance(123456, 0);
  PerfettoExportOptions options;
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ExportPerfettoJson(events.data(), events.size(), options, f);
  std::rewind(f);
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(text, &root, &error)) << error;
  size_t starts = 0;
  size_t finishes = 0;
  for (const JsonValue& e : root.Find("traceEvents")->array) {
    const JsonValue* cat = e.Find("cat");
    const JsonValue* ph = e.Find("ph");
    if (cat != nullptr && cat->string == "chain") {
      if (ph->string == "s") {
        ++starts;
      } else if (ph->string == "f") {
        ++finishes;
      }
    }
    // The token origin (123456) must never appear as a tid: chain events
    // render on their actor's track (or tid 0 for ISR context).
    const JsonValue* tid = e.Find("tid");
    if (tid != nullptr) {
      EXPECT_LT(tid->number, 3.0) << text;
    }
  }
  EXPECT_EQ(starts, 2u);
  EXPECT_EQ(finishes, 2u);
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
