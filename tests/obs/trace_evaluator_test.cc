// Split invariance of the trace evaluation: a window fed to one
// TraceEvaluator in any split, down to one record per Feed, yields the
// TraceEvaluation of a single EvaluateTrace pass, field by field. Inputs are
// seeded random streams (sink-reset epochs, drops ahead of the window,
// malformed chain tokens, time regressions), torture windows at 1, 2 and 4
// cores with full and tiny trace rings, and live fleet nodes.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/kernel.h"
#include "src/fleet/fleet.h"
#include "src/fuzz/torture.h"
#include "src/hal/cycles.h"
#include "src/obs/obs_report.h"
#include "src/obs/trace_csv.h"
#include "src/obs/trace_replay.h"
#include "tests/obs/trace_streams.h"

namespace emeralds {
namespace obs {
namespace {

void ExpectTraceAnalysesEqual(const TraceAnalysis& got, const TraceAnalysis& want,
                              const std::string& what) {
  EXPECT_EQ(got.context_switches, want.context_switches) << what;
  EXPECT_EQ(got.deadline_misses, want.deadline_misses) << what;
  EXPECT_EQ(got.jobs_released, want.jobs_released) << what;
  EXPECT_EQ(got.jobs_completed, want.jobs_completed) << what;
  EXPECT_EQ(got.sem_acquires, want.sem_acquires) << what;
  EXPECT_EQ(got.sem_blocks, want.sem_blocks) << what;
  EXPECT_EQ(got.msg_sends, want.msg_sends) << what;
  EXPECT_EQ(got.msg_recvs, want.msg_recvs) << what;
  EXPECT_EQ(got.cse_early_pi, want.cse_early_pi) << what;
  EXPECT_EQ(got.pi_chain_limit, want.pi_chain_limit) << what;
  EXPECT_EQ(got.headroom_low, want.headroom_low) << what;
  EXPECT_EQ(got.chain_emits, want.chain_emits) << what;
  EXPECT_EQ(got.chain_consumes, want.chain_consumes) << what;
  EXPECT_EQ(got.trace_epochs, want.trace_epochs) << what;
  EXPECT_EQ(got.overhead_spans, want.overhead_spans) << what;
  EXPECT_EQ(got.thread_blocks, want.thread_blocks) << what;
  EXPECT_EQ(got.thread_readies, want.thread_readies) << what;
  EXPECT_EQ(got.max_pi_chain_depth, want.max_pi_chain_depth) << what;
  EXPECT_EQ(got.unresolved_blocks_at_end, want.unresolved_blocks_at_end) << what;
  EXPECT_EQ(got.dropped_events, want.dropped_events) << what;
  ASSERT_EQ(got.violations.size(), want.violations.size()) << what;
  for (size_t i = 0; i < got.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind) << what << " violation " << i;
    EXPECT_EQ(got.violations[i].event_index, want.violations[i].event_index)
        << what << " violation " << i;
    EXPECT_EQ(got.violations[i].detail, want.violations[i].detail) << what << " violation " << i;
  }
  ASSERT_EQ(got.tasks.size(), want.tasks.size()) << what;
  for (size_t t = 0; t < got.tasks.size(); ++t) {
    const TaskMetrics& g = got.tasks[t];
    const TaskMetrics& w = want.tasks[t];
    const std::string task = what + " task " + std::to_string(t);
    EXPECT_EQ(g.thread_id, w.thread_id) << task;
    EXPECT_EQ(g.seen, w.seen) << task;
    EXPECT_EQ(g.releases, w.releases) << task;
    EXPECT_EQ(g.completes, w.completes) << task;
    EXPECT_EQ(g.deadline_misses, w.deadline_misses) << task;
    EXPECT_EQ(g.switches_in, w.switches_in) << task;
    EXPECT_EQ(g.preemptions, w.preemptions) << task;
    EXPECT_EQ(g.sem_acquires, w.sem_acquires) << task;
    EXPECT_EQ(g.sem_blocks, w.sem_blocks) << task;
    EXPECT_EQ(g.cse_early_pi, w.cse_early_pi) << task;
    EXPECT_EQ(g.pi_donated, w.pi_donated) << task;
    EXPECT_EQ(g.pi_received, w.pi_received) << task;
    EXPECT_EQ(g.headroom_low, w.headroom_low) << task;
    EXPECT_EQ(g.max_pi_depth, w.max_pi_depth) << task;
    EXPECT_EQ(g.run_time, w.run_time) << task;
    ExpectHistogramsEqual(g.response, w.response, task + " response");
    ExpectHistogramsEqual(g.blocking, w.blocking, task + " blocking");
  }
}

void ExpectBlameEqual(const BlameTotals& got, const BlameTotals& want, const std::string& what) {
  EXPECT_EQ(got.misses_analyzed, want.misses_analyzed) << what;
  EXPECT_EQ(got.conservation_failures, want.conservation_failures) << what;
  EXPECT_EQ(got.tardiness_ns, want.tardiness_ns) << what;
  EXPECT_EQ(got.unattributed_ns, want.unattributed_ns) << what;
  EXPECT_EQ(got.victim_misses, want.victim_misses) << what;
  EXPECT_EQ(got.victim_tardiness_ns, want.victim_tardiness_ns) << what;
  EXPECT_EQ(got.preemptor_ns, want.preemptor_ns) << what;
  EXPECT_EQ(got.lock_ns, want.lock_ns) << what;
  EXPECT_EQ(got.Digest(), want.Digest()) << what;
}

void ExpectLedgersEqual(const LatenessLedger& got, const LatenessLedger& want,
                        const std::string& what) {
  EXPECT_EQ(got.carry_in_ns, want.carry_in_ns) << what;
  EXPECT_EQ(got.release_latency_ns, want.release_latency_ns) << what;
  EXPECT_EQ(got.preemption_ns, want.preemption_ns) << what;
  EXPECT_EQ(got.lock_blocked_ns, want.lock_blocked_ns) << what;
  EXPECT_EQ(got.self_suspend_ns, want.self_suspend_ns) << what;
  EXPECT_EQ(got.irq_ns, want.irq_ns) << what;
  EXPECT_EQ(got.ipi_ns, want.ipi_ns) << what;
  EXPECT_EQ(got.timer_svc_ns, want.timer_svc_ns) << what;
  EXPECT_EQ(got.sched_ns, want.sched_ns) << what;
  EXPECT_EQ(got.syscall_ns, want.syscall_ns) << what;
  EXPECT_EQ(got.own_expected_ns, want.own_expected_ns) << what;
  EXPECT_EQ(got.own_overrun_ns, want.own_overrun_ns) << what;
  EXPECT_EQ(got.unattributed_ns, want.unattributed_ns) << what;
  EXPECT_EQ(got.preemptor_ns, want.preemptor_ns) << what;
  EXPECT_EQ(got.lock_ns, want.lock_ns) << what;
}

void ExpectPostmortemsEqual(const PostmortemAnalysis& got, const PostmortemAnalysis& want,
                            const std::string& what) {
  EXPECT_EQ(got.window_truncated, want.window_truncated) << what;
  EXPECT_EQ(got.misses_analyzed, want.misses_analyzed) << what;
  EXPECT_EQ(got.records_dropped, want.records_dropped) << what;
  EXPECT_EQ(got.incomplete_misses, want.incomplete_misses) << what;
  EXPECT_EQ(got.unmatched_misses, want.unmatched_misses) << what;
  EXPECT_EQ(got.deadline_unknown, want.deadline_unknown) << what;
  EXPECT_EQ(got.conservation_failures, want.conservation_failures) << what;
  ExpectBlameEqual(got.blame, want.blame, what + " blame");
  ASSERT_EQ(got.misses.size(), want.misses.size()) << what;
  for (size_t m = 0; m < got.misses.size(); ++m) {
    const JobPostmortem& g = got.misses[m];
    const JobPostmortem& w = want.misses[m];
    const std::string miss = what + " miss " + std::to_string(m);
    EXPECT_EQ(g.thread_id, w.thread_id) << miss;
    EXPECT_EQ(g.job_number, w.job_number) << miss;
    EXPECT_EQ(g.release, w.release) << miss;
    EXPECT_EQ(g.completion, w.completion) << miss;
    EXPECT_EQ(g.has_deadline, w.has_deadline) << miss;
    EXPECT_EQ(g.deadline_budget_ns, w.deadline_budget_ns) << miss;
    EXPECT_EQ(g.response_ns, w.response_ns) << miss;
    EXPECT_EQ(g.tardiness_ns, w.tardiness_ns) << miss;
    EXPECT_EQ(g.conserved, w.conserved) << miss;
    EXPECT_EQ(g.top_blame, w.top_blame) << miss;
    ExpectLedgersEqual(g.ledger, w.ledger, miss + " ledger");
  }
}

void ExpectEvaluationsEqual(const TraceEvaluation& got, const TraceEvaluation& want,
                            const std::string& what) {
  EXPECT_EQ(got.window_digest, want.window_digest) << what;
  EXPECT_EQ(got.records_by_type, want.records_by_type) << what;
  ExpectTraceAnalysesEqual(got.trace, want.trace, what + " trace");
  ExpectChainAnalysesEqual(got.chains, want.chains, what + " chains");
  ExpectPostmortemsEqual(got.postmortem, want.postmortem, what + " postmortem");
}

// Feeds `window` to one evaluator in chunks of 0 to `max_chunk` records.
TraceEvaluation EvaluateInChunks(std::span<const TraceEvent> window, uint64_t dropped,
                                 const std::vector<ResolvedChain>& specs, size_t max_chunk,
                                 Rng& rng) {
  TraceEvaluator evaluator(dropped, specs);
  for (size_t at = 0; at < window.size();) {
    const size_t n = std::min(window.size() - at, static_cast<size_t>(rng.UniformInt(
                                                      0, static_cast<int64_t>(max_chunk))));
    evaluator.Feed(window.subspan(at, n));
    at += n;
  }
  return evaluator.Finish();
}

// Chunks of at most one record (empty feeds included), of up to 7 and of up
// to a third of the window, each against one pass.
void ExpectAnySplitMatchesOnePass(std::span<const TraceEvent> window, uint64_t dropped,
                                  const std::vector<ResolvedChain>& specs, Rng& rng,
                                  const std::string& what) {
  const TraceEvaluation want = EvaluateTrace(window, dropped, specs);
  for (size_t max_chunk : {size_t{1}, size_t{7}, window.size() / 3 + 1}) {
    ExpectEvaluationsEqual(EvaluateInChunks(window, dropped, specs, max_chunk, rng), want,
                           what + ", chunks of <= " + std::to_string(max_chunk));
  }
}

// A chain stream with scheduler traffic mixed in: switches, releases with
// and without deadlines, completions (some of the wrong job), misses,
// semaphore and scheduler waits, PI, overhead spans and exits for four
// threads on two cores, plus the chain stream's epochs and malformed tokens
// and occasional time regressions. Every analysis finds violations, misses
// or ledgers in it.
std::vector<TraceEvent> RandomTraceStream(Rng& rng, size_t count) {
  const std::vector<TraceEvent> chain_events = RandomChainStream(rng, count / 3);
  std::vector<TraceEvent> events;
  size_t next_chain = 0;
  int64_t now_ns = 0;
  uint64_t jobs[4] = {};
  auto tid = [&] { return static_cast<int32_t>(rng.UniformInt(0, 3)); };
  auto push = [&](TraceEventType type, int32_t a0, int32_t a1, int32_t a2) {
    now_ns += rng.UniformInt(0, 30000);
    events.push_back(TraceEvent{Instant::FromNanos(now_ns), type, a0, a1, a2});
  };
  while (events.size() < count) {
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 25 && next_chain < chain_events.size()) {
      const TraceEvent& e = chain_events[next_chain++];
      push(e.type, e.arg0, e.arg1, e.arg2);
    } else if (roll < 35) {
      const int32_t in = static_cast<int32_t>(rng.UniformInt(-1, 3));
      push(TraceEventType::kContextSwitch, static_cast<int32_t>(rng.UniformInt(-1, 3)), in,
           static_cast<int32_t>(rng.UniformInt(0, 1)));
    } else if (roll < 45) {
      const int32_t t = tid();
      const int64_t kind = rng.UniformInt(0, 2);
      const int32_t deadline = kind == 0   ? 0
                               : kind == 1 ? static_cast<int32_t>(rng.UniformInt(50, 400)) * 1000
                                           : -static_cast<int32_t>(rng.UniformInt(50, 400));
      push(TraceEventType::kJobRelease, t, static_cast<int32_t>(++jobs[t]), deadline);
    } else if (roll < 55) {
      const int32_t t = tid();
      push(TraceEventType::kJobComplete, t,
           static_cast<int32_t>(jobs[t] - (rng.Bernoulli(0.1) ? 1 : 0)), 0);
    } else if (roll < 58) {
      const int32_t t = tid();
      push(TraceEventType::kDeadlineMiss, t, static_cast<int32_t>(jobs[t]), 0);
    } else if (roll < 66) {
      static constexpr TraceEventType kSem[] = {TraceEventType::kSemAcquire,
                                                TraceEventType::kSemAcquireBlock,
                                                TraceEventType::kSemRelease,
                                                TraceEventType::kSemCseEarlyPi};
      push(kSem[rng.UniformInt(0, 3)], tid(), static_cast<int32_t>(rng.UniformInt(0, 2)), 0);
    } else if (roll < 74) {
      push(rng.Bernoulli(0.5) ? TraceEventType::kThreadBlock : TraceEventType::kThreadReady,
           tid(), static_cast<int32_t>(rng.UniformInt(0, 8)),
           static_cast<int32_t>(rng.UniformInt(-1, 1)));
    } else if (roll < 77) {
      push(rng.Bernoulli(0.5) ? TraceEventType::kPiInherit : TraceEventType::kPiRestore, tid(),
           tid(), 0);
    } else if (roll < 92) {
      push(TraceEventType::kOverheadSpan,
           OverheadSpanPack(static_cast<int>(rng.UniformInt(0, kNumCycleBuckets - 1)),
                            static_cast<int>(rng.UniformInt(0, 1))),
           static_cast<int32_t>(rng.UniformInt(0, 20000)),
           static_cast<int32_t>(rng.UniformInt(0, 4)));
    } else if (roll < 94) {
      push(TraceEventType::kThreadExit, tid(), 0, static_cast<int32_t>(rng.UniformInt(0, 1)));
    } else if (roll < 96) {
      now_ns = std::max<int64_t>(0, now_ns - rng.UniformInt(1000, 90000));
      push(TraceEventType::kMsgSend, tid(), 0, 0);
    } else {
      push(TraceEventType::kHeadroomLow, tid(), static_cast<int32_t>(rng.UniformInt(-50, 50)),
           0);
    }
  }
  return events;
}

TEST(TraceEvaluatorTest, AnySplitMatchesOnePass) {
  // Random streams, with and without records dropped ahead of the window.
  uint64_t violations = 0;
  uint64_t chain_violations = 0;
  uint64_t misses = 0;
  uint64_t epochs = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::vector<TraceEvent> events =
        RandomTraceStream(rng, static_cast<size_t>(rng.UniformInt(0, 3000)));
    const std::vector<ResolvedChain> specs = RandomSpecs(rng);
    const uint64_t dropped = rng.Bernoulli(0.3) ? static_cast<uint64_t>(rng.UniformInt(1, 99)) : 0;
    ExpectAnySplitMatchesOnePass(events, dropped, specs, rng, "seed " + std::to_string(seed));
    const TraceEvaluation one = EvaluateTrace(events, dropped, specs);
    violations += one.trace.violations.size();
    chain_violations += one.chains.violations.size();
    misses += one.postmortem.misses_analyzed;
    epochs += one.trace.trace_epochs;
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(violations, 0u);
  EXPECT_GT(chain_violations, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(epochs, 0u);

  // Torture windows at 1, 2 and 4 cores, whole and through a tiny ring.
  const std::string path = testing::TempDir() + "emeralds_trace_evaluator.csv";
  Rng rng(99);
  for (bool tiny : {false, true}) {
    for (int cores : {1, 2, 4}) {
      fuzz::TortureOptions options;
      options.seed = static_cast<uint64_t>(cores) + (tiny ? 10 : 0);
      options.ops = 2000;
      options.num_cores = cores;
      options.tiny_trace_ring = tiny;
      ASSERT_TRUE(fuzz::ExportTortureTraceCsv(options, path));
      std::FILE* f = std::fopen(path.c_str(), "r");
      ASSERT_NE(f, nullptr);
      TraceCsvImport import;
      std::string error;
      ASSERT_TRUE(ImportTraceCsv(f, &import, &error)) << error;
      std::fclose(f);
      ASSERT_EQ(import.dropped > 0, tiny);
      ExpectAnySplitMatchesOnePass(import.events, import.dropped,
                                   SpecsFromTraffic(import.events), rng,
                                   fuzz::ReproCommand(options));
    }
  }
  std::remove(path.c_str());

  // Live fleet nodes with their declared chains: a healthy one and the
  // overloaded node of the golden fleet, which misses deadlines.
  fleet::FleetOptions opt;
  opt.instances = 16;
  opt.seed = 11;
  opt.run_duration = Milliseconds(200);
  opt.overload_node = 6;
  for (int index : {0, 6}) {
    fleet::InspectNode(opt, index, [&](const Kernel& kernel, const fleet::NodeResult& r) {
      const TraceSink& trace = kernel.trace();
      const TraceEvaluation one = EvaluateTrace(trace, kernel.resolved_chains());
      EXPECT_EQ(FoldKernelCounters(one.window_digest, kernel.stats()), r.trace_digest);
      if (index == opt.overload_node) {
        EXPECT_GT(one.postmortem.misses_analyzed, 0u);
      }
      ExpectAnySplitMatchesOnePass(trace.events(), trace.dropped(), kernel.resolved_chains(), rng,
                                   "fleet node " + std::to_string(index));
    });
  }
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
