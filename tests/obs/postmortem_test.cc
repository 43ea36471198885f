// Postmortem engine tests: exact lateness attribution on synthetic streams
// (known ledgers to the nanosecond), conservation on live overloaded kernel
// runs (single- and multi-core), legacy-trace degradation, and blame-table
// merge/digest determinism.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/tcb.h"
#include "src/hal/cycles.h"
#include "src/obs/postmortem.h"
#include "src/obs/trace_analyzer.h"
#include "src/obs/trace_csv.h"
#include "tests/testing/kernel_env.h"

namespace emeralds {
namespace obs {
namespace {

TraceEvent Ev(int64_t us, TraceEventType type, int32_t a0, int32_t a1, int32_t a2 = 0) {
  return TraceEvent{Instant() + Microseconds(us), type, a0, a1, a2};
}

constexpr int32_t kBudget100us = 100000;  // kJobRelease arg2, ns

// --- Synthetic streams: exact ledgers ---

TEST(PostmortemTest, PreemptionAttributedPerPreemptor) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 1, kBudget100us),
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(50, TraceEventType::kContextSwitch, 1, 2),   // preempted by t2
      Ev(150, TraceEventType::kContextSwitch, 2, 1),
      Ev(180, TraceEventType::kJobComplete, 1, 1),
  };
  PostmortemAnalysis a = AnalyzePostmortem(ev.data(), ev.size(), 0);
  EXPECT_FALSE(a.window_truncated);
  ASSERT_EQ(a.misses_analyzed, 1u);
  EXPECT_EQ(a.conservation_failures, 0u);
  const JobPostmortem& m = a.misses[0];
  EXPECT_EQ(m.thread_id, 1);
  EXPECT_EQ(m.response_ns, 180000);
  EXPECT_EQ(m.tardiness_ns, 80000);
  EXPECT_TRUE(m.conserved);
  EXPECT_EQ(m.ledger.preemption_ns, 100000);
  ASSERT_EQ(m.ledger.preemptor_ns.count(2), 1u);
  EXPECT_EQ(m.ledger.preemptor_ns.at(2), 100000);
  // First job seeds the EWMA, so own execution is all "expected".
  EXPECT_EQ(m.ledger.own_expected_ns, 80000);
  EXPECT_EQ(m.ledger.own_overrun_ns, 0);
  EXPECT_EQ(m.ledger.unattributed_ns, 0);
  EXPECT_EQ(m.top_blame, "preempted_by:t2");
}

TEST(PostmortemTest, LockBlockingAttributedPerSemaphore) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 1, kBudget100us),
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(20, TraceEventType::kThreadBlock, 1, static_cast<int32_t>(BlockReason::kWaitSem), 5),
      Ev(20, TraceEventType::kContextSwitch, 1, 2),
      Ev(90, TraceEventType::kThreadReady, 1, static_cast<int32_t>(BlockReason::kWaitSem), 0),
      Ev(90, TraceEventType::kContextSwitch, 2, 1),
      Ev(110, TraceEventType::kJobComplete, 1, 1),
  };
  PostmortemAnalysis a = AnalyzePostmortem(ev.data(), ev.size(), 0);
  ASSERT_EQ(a.misses_analyzed, 1u);
  const JobPostmortem& m = a.misses[0];
  EXPECT_TRUE(m.conserved);
  EXPECT_EQ(m.tardiness_ns, 10000);
  EXPECT_EQ(m.ledger.lock_blocked_ns, 70000);
  ASSERT_EQ(m.ledger.lock_ns.count(5), 1u);
  EXPECT_EQ(m.ledger.lock_ns.at(5), 70000);
  EXPECT_EQ(m.ledger.own_expected_ns, 40000);
  EXPECT_EQ(m.top_blame, "blocked_on:S5");
  ASSERT_EQ(a.blame.lock_ns.count(5), 1u);
  EXPECT_EQ(a.blame.lock_ns.at(5), 70000);
}

TEST(PostmortemTest, OverheadSpansCarvedOutOfRunningTime) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 1, kBudget100us),
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      // 4us of IRQ handling on core 0 charged while t1 was current.
      Ev(30, TraceEventType::kOverheadSpan,
         OverheadSpanPack(static_cast<int>(CycleBucket::kIrq), 0), 4000, 2),
      Ev(110, TraceEventType::kJobComplete, 1, 1),
  };
  PostmortemAnalysis a = AnalyzePostmortem(ev.data(), ev.size(), 0);
  ASSERT_EQ(a.misses_analyzed, 1u);
  const JobPostmortem& m = a.misses[0];
  EXPECT_TRUE(m.conserved);
  EXPECT_EQ(m.ledger.irq_ns, 4000);
  EXPECT_EQ(m.ledger.own_expected_ns, 106000);
  EXPECT_EQ(m.ledger.sum_ns(), 110000);
}

TEST(PostmortemTest, CarryInFromPreviousOverrun) {
  constexpr int32_t budget60us = 60000;
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 1, budget60us),
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(150, TraceEventType::kJobComplete, 1, 1),
      // Overrun: job 2's nominal release (t=100) predates job 1's completion.
      Ev(100, TraceEventType::kJobRelease, 1, 2, budget60us),
      Ev(180, TraceEventType::kJobComplete, 1, 2),
  };
  PostmortemAnalysis a = AnalyzePostmortem(ev.data(), ev.size(), 0);
  ASSERT_EQ(a.misses_analyzed, 2u);
  EXPECT_EQ(a.conservation_failures, 0u);
  const JobPostmortem& m2 = a.misses[1];
  EXPECT_EQ(m2.job_number, 2u);
  EXPECT_EQ(m2.response_ns, 80000);
  EXPECT_EQ(m2.ledger.carry_in_ns, 50000);
  EXPECT_TRUE(m2.conserved);
  EXPECT_EQ(m2.top_blame, "carry_in");
}

TEST(PostmortemTest, ReleaseLatencyCoversWaitPeriodGap) {
  std::vector<TraceEvent> ev = {
      // t1 blocked on its period grid; release processed 8us late by the
      // timer service (cursor established by the IRQ instant).
      Ev(0, TraceEventType::kThreadBlock, 1, static_cast<int32_t>(BlockReason::kWaitPeriod), -1),
      Ev(108, TraceEventType::kIrq, 0, 0),
      Ev(100, TraceEventType::kJobRelease, 1, 1, kBudget100us),
      Ev(110, TraceEventType::kThreadReady, 1, static_cast<int32_t>(BlockReason::kWaitPeriod), 0),
      Ev(110, TraceEventType::kContextSwitch, -1, 1),
      Ev(210, TraceEventType::kJobComplete, 1, 1),
  };
  PostmortemAnalysis a = AnalyzePostmortem(ev.data(), ev.size(), 0);
  ASSERT_EQ(a.misses_analyzed, 1u);
  const JobPostmortem& m = a.misses[0];
  EXPECT_TRUE(m.conserved);
  EXPECT_EQ(m.response_ns, 110000);
  // 8us cursor lump + 2us blocked-on-grid before the wake landed.
  EXPECT_EQ(m.ledger.release_latency_ns, 10000);
  EXPECT_EQ(m.ledger.own_expected_ns, 100000);
}

TEST(PostmortemTest, LegacyReleaseWithoutDeadlineIsCountedNotAttributed) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 1, 0),  // legacy: no deadline
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(150, TraceEventType::kJobComplete, 1, 1),
      Ev(150, TraceEventType::kDeadlineMiss, 1, 1),
  };
  PostmortemAnalysis a = AnalyzePostmortem(ev.data(), ev.size(), 0);
  EXPECT_EQ(a.misses_analyzed, 0u);
  EXPECT_EQ(a.deadline_unknown, 1u);
  EXPECT_EQ(a.unmatched_misses, 0u);
}

TEST(PostmortemTest, TruncatedWindowDegradesToUnmatched) {
  std::vector<TraceEvent> ev = {
      Ev(100, TraceEventType::kContextSwitch, 7, 1),
      Ev(110, TraceEventType::kJobComplete, 1, 42),  // released pre-window
      Ev(120, TraceEventType::kDeadlineMiss, 1, 41),
  };
  PostmortemAnalysis a = AnalyzePostmortem(ev.data(), ev.size(), /*dropped_events=*/5);
  EXPECT_TRUE(a.window_truncated);
  EXPECT_EQ(a.misses_analyzed, 0u);
  EXPECT_EQ(a.unmatched_misses, 1u);
  EXPECT_EQ(a.conservation_failures, 0u);
}

// A sink reset mid-window: the postmortem engine forgets which thread each
// core ran, so time after the marker is unattributed until a switch shows
// the runner again. The trace analyzer keeps the runner across the marker
// and still checks switch pairing against it.
TEST(PostmortemTest, EpochMarkerForgetsRunnersOnlyForThePostmortem) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(5, TraceEventType::kTraceEpoch, 1, 0),
      Ev(6, TraceEventType::kJobRelease, 1, 2, 1000),
      Ev(12, TraceEventType::kJobComplete, 1, 2),
      Ev(14, TraceEventType::kContextSwitch, 2, -1),  // thread 1 was running
  };
  PostmortemAnalysis pm = AnalyzePostmortem(ev.data(), ev.size(), 0);
  EXPECT_TRUE(pm.window_truncated);
  ASSERT_EQ(pm.misses_analyzed, 1u);
  EXPECT_TRUE(pm.misses[0].conserved);
  EXPECT_EQ(pm.misses[0].ledger.unattributed_ns, 6000);
  EXPECT_EQ(pm.misses[0].ledger.own_expected_ns + pm.misses[0].ledger.own_overrun_ns, 0);

  TraceAnalysis trace = AnalyzeTrace(ev.data(), ev.size(), 0);
  EXPECT_EQ(trace.trace_epochs, 1u);
  ASSERT_EQ(trace.violations.size(), 1u);
  EXPECT_EQ(trace.violations[0].kind, InvariantKind::kSwitchPairing);
  EXPECT_EQ(trace.violations[0].event_index, 4u);
}

// --- Live kernel runs ---

void SpawnOverloaded(Kernel& kernel, int core = 0) {
  ThreadParams hog;
  hog.name = "hog";
  hog.period = Milliseconds(10);
  hog.core = core;
  hog.body = [](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(12));  // > period: every job late
      co_await api.WaitNextPeriod();
    }
  };
  (void)kernel.CreateThread(hog).value();

  ThreadParams light;
  light.name = "light";
  light.period = Milliseconds(5);
  light.core = core;
  light.body = [](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod();
    }
  };
  (void)kernel.CreateThread(light).value();
}

TEST(PostmortemLiveTest, OverloadedRunConservesLateness) {
  KernelConfig config = CalibratedConfig(SchedulerSpec::Rm());
  config.trace_capacity = 1 << 16;
  SimEnv env(config);
  SpawnOverloaded(env.k());
  env.StartAndRunFor(Milliseconds(200));

  ASSERT_EQ(env.k().trace().dropped(), 0u);
  ASSERT_GT(env.k().stats().deadline_misses, 0u);
  PostmortemAnalysis a = AnalyzePostmortem(env.k().trace());
  EXPECT_GT(a.misses_analyzed, 0u);
  EXPECT_EQ(a.conservation_failures, 0u);
  EXPECT_EQ(a.blame.unattributed_ns, 0);
  EXPECT_EQ(a.unmatched_misses, 0u);
  EXPECT_EQ(a.deadline_unknown, 0u);
  for (const JobPostmortem& m : a.misses) {
    EXPECT_TRUE(m.conserved) << "t" << m.thread_id << " job " << m.job_number;
    EXPECT_EQ(m.ledger.sum_ns(), m.response_ns);
    EXPECT_EQ(m.ledger.unattributed_ns, 0);
  }
  // Every kernel-counted miss is either analyzed or visibly incomplete.
  EXPECT_LE(a.misses_analyzed, env.k().stats().deadline_misses);
  EXPECT_GE(a.misses_analyzed + a.incomplete_misses, env.k().stats().deadline_misses);
}

TEST(PostmortemLiveTest, ContendedRunBlamesTheLock) {
  KernelConfig config = CalibratedConfig(SchedulerSpec::Rm());
  config.trace_capacity = 1 << 16;
  SimEnv env(config);
  SemId sem = env.k().CreateSemaphore("S", 1).value();

  ThreadParams hi;
  hi.name = "hi";
  hi.period = Milliseconds(10);
  hi.relative_deadline = Milliseconds(6);
  hi.body = [sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Microseconds(200));
      co_await api.Acquire(sem);
      co_await api.Compute(Microseconds(300));
      co_await api.Release(sem);
      co_await api.WaitNextPeriod();
    }
  };
  (void)env.k().CreateThread(hi).value();

  ThreadParams lo;
  lo.name = "lo";
  lo.period = Milliseconds(25);
  lo.body = [sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Acquire(sem);
      co_await api.Compute(Milliseconds(12));  // holds across hi's releases
      co_await api.Release(sem);
      co_await api.WaitNextPeriod();
    }
  };
  (void)env.k().CreateThread(lo).value();
  env.StartAndRunFor(Milliseconds(200));

  ASSERT_EQ(env.k().trace().dropped(), 0u);
  PostmortemAnalysis a = AnalyzePostmortem(env.k().trace());
  ASSERT_GT(a.misses_analyzed, 0u);
  EXPECT_EQ(a.conservation_failures, 0u);
  EXPECT_EQ(a.blame.unattributed_ns, 0);
  // hi's lateness is dominated by lo's 12ms hold: the lock shows up in the
  // merged blame table.
  EXPECT_FALSE(a.blame.lock_ns.empty());
}

TEST(PostmortemLiveTest, MultiCoreRunConserves) {
  for (int cores : {2, 4}) {
    KernelConfig config = CalibratedConfig(SchedulerSpec::Edf());
    config.num_cores = cores;
    config.trace_capacity = 1 << 17;
    SimEnv env(config);
    for (int c = 0; c < cores; ++c) {
      SpawnOverloaded(env.k(), c);
    }
    env.StartAndRunFor(Milliseconds(100));
    ASSERT_EQ(env.k().trace().dropped(), 0u) << cores << " cores";
    PostmortemAnalysis a = AnalyzePostmortem(env.k().trace());
    EXPECT_GT(a.misses_analyzed, 0u) << cores << " cores";
    EXPECT_EQ(a.conservation_failures, 0u) << cores << " cores";
    EXPECT_EQ(a.blame.unattributed_ns, 0) << cores << " cores";
    EXPECT_EQ(a.unmatched_misses, 0u) << cores << " cores";
  }
}

// Microsecond-truncated CSV replay keeps every ledger telescoping (spans are
// clamped into their gaps), even though in-memory nanosecond precision is
// gone.
TEST(PostmortemLiveTest, CsvRoundTripStaysConserved) {
  KernelConfig config = CalibratedConfig(SchedulerSpec::Rm());
  config.trace_capacity = 1 << 16;
  SimEnv env(config);
  SpawnOverloaded(env.k());
  env.StartAndRunFor(Milliseconds(100));
  ASSERT_EQ(env.k().trace().dropped(), 0u);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  env.k().trace().ExportCsv(f);
  std::rewind(f);
  TraceCsvImport import;
  std::string error;
  ASSERT_TRUE(ImportTraceCsv(f, &import, &error)) << error;
  std::fclose(f);

  PostmortemAnalysis a =
      AnalyzePostmortem(import.events.data(), import.events.size(), import.dropped);
  EXPECT_GT(a.misses_analyzed, 0u);
  EXPECT_EQ(a.conservation_failures, 0u);
  for (const JobPostmortem& m : a.misses) {
    EXPECT_EQ(m.ledger.sum_ns(), m.response_ns);
  }
}

// --- Blame tables ---

TEST(PostmortemTest, BlameMergeIsOrderIndependent) {
  BlameTotals a;
  a.misses_analyzed = 3;
  a.tardiness_ns = 500;
  a.victim_misses[1] = 3;
  a.victim_tardiness_ns[1] = 500;
  a.preemptor_ns[2] = 400;
  a.lock_ns[7] = 100;

  BlameTotals b;
  b.misses_analyzed = 2;
  b.tardiness_ns = 300;
  b.victim_misses[4] = 2;
  b.victim_tardiness_ns[4] = 300;
  b.preemptor_ns[2] = 50;
  b.preemptor_ns[9] = 250;

  BlameTotals ab = a;
  ab.Merge(b);
  BlameTotals ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab.Digest(), ba.Digest());
  EXPECT_EQ(ab.misses_analyzed, 5u);
  EXPECT_EQ(ab.preemptor_ns.at(2), 450);
  EXPECT_NE(ab.Digest(), a.Digest());
}

TEST(PostmortemTest, ReportJsonHasSchemaAndLedgers) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 1, kBudget100us),
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(180, TraceEventType::kJobComplete, 1, 1),
  };
  PostmortemAnalysis a = AnalyzePostmortem(ev.data(), ev.size(), 0);
  std::string doc = BuildPostmortemReport("unit", a, nullptr);
  EXPECT_NE(doc.find("\"schema\":\"emeralds.obs.postmortem/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"misses_analyzed\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"own_expected_ns\""), std::string::npos);
  EXPECT_NE(doc.find("\"conservation_failures\":0"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
