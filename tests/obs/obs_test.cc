// Observability pipeline tests: log2 histograms, trace analyzer metrics and
// invariant checks (including deliberately corrupted traces), CSV round-trip,
// Perfetto export well-formedness, stats snapshots, and the obs run report.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/core/taskset_runner.h"
#include "src/obs/histogram.h"
#include "src/obs/obs_report.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/postmortem.h"
#include "src/obs/trace_analyzer.h"
#include "src/obs/trace_csv.h"
#include "src/workload/workload.h"
#include "tests/testing/kernel_env.h"

namespace emeralds {
namespace obs {
namespace {

// --- Log2Histogram ---

TEST(Log2HistogramTest, BucketIndexIsFloorLog2Micros) {
  EXPECT_EQ(Log2Histogram::BucketIndex(Duration()), 0);
  EXPECT_EQ(Log2Histogram::BucketIndex(Nanoseconds(500)), 0);  // sub-us
  EXPECT_EQ(Log2Histogram::BucketIndex(Microseconds(1)), 0);
  EXPECT_EQ(Log2Histogram::BucketIndex(Microseconds(2)), 1);
  EXPECT_EQ(Log2Histogram::BucketIndex(Microseconds(3)), 1);
  EXPECT_EQ(Log2Histogram::BucketIndex(Microseconds(4)), 2);
  EXPECT_EQ(Log2Histogram::BucketIndex(Milliseconds(1)), 9);    // 1024 us
  EXPECT_EQ(Log2Histogram::BucketIndex(Seconds(1000)),
            Log2Histogram::kNumBuckets - 1);  // clamped
}

TEST(Log2HistogramTest, BucketFloors) {
  EXPECT_EQ(Log2Histogram::BucketFloorUs(0), 0);
  EXPECT_EQ(Log2Histogram::BucketFloorUs(1), 2);
  EXPECT_EQ(Log2Histogram::BucketFloorUs(10), 1024);
}

TEST(Log2HistogramTest, AddTracksCountMinMaxMean) {
  Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.HighestBucket(), -1);
  EXPECT_TRUE(h.mean().is_zero());
  h.Add(Microseconds(10));
  h.Add(Microseconds(30));
  h.Add(Microseconds(200));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), Microseconds(10));
  EXPECT_EQ(h.max(), Microseconds(200));
  EXPECT_EQ(h.mean(), Microseconds(80));
  EXPECT_EQ(h.bucket(3), 1u);  // 10us in [8,16)
  EXPECT_EQ(h.bucket(4), 1u);  // 30us in [16,32)
  EXPECT_EQ(h.bucket(7), 1u);  // 200us in [128,256)
  EXPECT_EQ(h.HighestBucket(), 7);
}

TEST(Log2HistogramTest, ApproxPercentileWalksBuckets) {
  Log2Histogram h;
  for (int i = 0; i < 99; ++i) {
    h.Add(Microseconds(10));  // bucket [8,16)
  }
  h.Add(Milliseconds(5));  // one outlier
  // p50 falls in the 10us bucket: upper edge 16us.
  EXPECT_EQ(h.ApproxPercentile(0.50), Microseconds(16));
  // p100 reaches the outlier bucket; capped at the observed max.
  EXPECT_EQ(h.ApproxPercentile(1.0), Milliseconds(5));
}

// --- Analyzer: synthetic streams ---

TraceEvent Ev(int64_t us, TraceEventType type, int32_t a0, int32_t a1) {
  return TraceEvent{Instant() + Microseconds(us), type, a0, a1};
}

TEST(TraceAnalyzerTest, CleanStreamDerivesMetrics) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 0),
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(10, TraceEventType::kSemAcquire, 1, 0),
      Ev(20, TraceEventType::kSemRelease, 1, 0),
      Ev(30, TraceEventType::kJobComplete, 1, 0),
      Ev(30, TraceEventType::kContextSwitch, 1, -1),
      Ev(100, TraceEventType::kJobRelease, 1, 1),
      Ev(100, TraceEventType::kContextSwitch, -1, 1),
      Ev(140, TraceEventType::kJobComplete, 1, 1),
      Ev(140, TraceEventType::kContextSwitch, 1, -1),
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.context_switches, 4u);
  EXPECT_EQ(a.jobs_released, 2u);
  EXPECT_EQ(a.jobs_completed, 2u);
  ASSERT_NE(a.task(1), nullptr);
  const TaskMetrics& t = *a.task(1);
  EXPECT_EQ(t.releases, 2u);
  EXPECT_EQ(t.completes, 2u);
  EXPECT_EQ(t.preemptions, 0u);
  EXPECT_EQ(t.sem_acquires, 1u);
  EXPECT_EQ(t.response.count(), 2u);
  EXPECT_EQ(t.response.min(), Microseconds(30));
  EXPECT_EQ(t.response.max(), Microseconds(40));
  EXPECT_EQ(t.run_time, Microseconds(70));
  EXPECT_EQ(a.task(7), nullptr);
}

TEST(TraceAnalyzerTest, PreemptionIsSwitchOutWithOpenJob) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 0),
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(10, TraceEventType::kContextSwitch, 1, 2),  // preempted mid-job
      Ev(20, TraceEventType::kContextSwitch, 2, 1),
      Ev(30, TraceEventType::kJobComplete, 1, 0),
      Ev(30, TraceEventType::kContextSwitch, 1, -1),
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.task(1)->preemptions, 1u);
  EXPECT_EQ(a.task(2)->preemptions, 0u);  // no open job
}

TEST(TraceAnalyzerTest, BlockingTimeSpansBlockToResolvingAcquire) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(5, TraceEventType::kSemAcquireBlock, 1, 3),
      Ev(5, TraceEventType::kContextSwitch, 1, 2),
      Ev(40, TraceEventType::kSemAcquire, 1, 3),  // handoff resolves the block
      Ev(41, TraceEventType::kContextSwitch, 2, 1),
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.sem_blocks, 1u);
  EXPECT_EQ(a.unresolved_blocks_at_end, 0u);
  ASSERT_EQ(a.task(1)->blocking.count(), 1u);
  EXPECT_EQ(a.task(1)->blocking.min(), Microseconds(35));
}

TEST(TraceAnalyzerTest, PiChainDepthFollowsDonorDepth) {
  // 3 blocks on 2 (depth 1), then 2 blocks on 1: 1's depth becomes 2.
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kPiInherit, 2, 3),
      Ev(1, TraceEventType::kPiInherit, 1, 2),
      Ev(9, TraceEventType::kPiRestore, 1, 0),
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  EXPECT_EQ(a.max_pi_chain_depth, 2);
  EXPECT_EQ(a.task(2)->max_pi_depth, 1);
  EXPECT_EQ(a.task(1)->max_pi_depth, 2);
  EXPECT_EQ(a.task(3)->pi_donated, 1u);
  EXPECT_EQ(a.task(1)->pi_received, 1u);
}

TEST(TraceAnalyzerTest, FlagsNonMonotoneTime) {
  std::vector<TraceEvent> ev = {
      Ev(100, TraceEventType::kContextSwitch, -1, 1),
      Ev(50, TraceEventType::kSemAcquire, 1, 0),  // time went back
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, InvariantKind::kNonMonotoneTime);
  EXPECT_EQ(a.violations[0].event_index, 1u);
}

TEST(TraceAnalyzerTest, JobReleaseIsExemptFromMonotoneTime) {
  // The kernel records kJobRelease with the *nominal* release instant, which
  // lies in the past when a job starts late after an overrun.
  std::vector<TraceEvent> ev = {
      Ev(100, TraceEventType::kContextSwitch, -1, 1),
      Ev(60, TraceEventType::kJobRelease, 1, 0),  // retroactive: allowed
      Ev(120, TraceEventType::kJobComplete, 1, 0),
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.task(1)->response.min(), Microseconds(60));
}

TEST(TraceAnalyzerTest, FlagsBrokenSwitchPairing) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(10, TraceEventType::kContextSwitch, 2, 3),  // but 1 was running
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, InvariantKind::kSwitchPairing);
}

TEST(TraceAnalyzerTest, FlagsBlockedThreadSwitchedIn) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(5, TraceEventType::kSemAcquireBlock, 1, 0),
      Ev(5, TraceEventType::kContextSwitch, 1, 2),
      Ev(10, TraceEventType::kContextSwitch, 2, 1),  // 1 still blocked
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, InvariantKind::kBlockedThreadRan);
  EXPECT_EQ(a.violations[0].event_index, 3u);
}

TEST(TraceAnalyzerTest, FlagsCompleteWithoutRelease) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobComplete, 1, 0),
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, InvariantKind::kCompleteWithoutRelease);
}

TEST(TraceAnalyzerTest, FlagsJobNumberRegression) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 2),
      Ev(5, TraceEventType::kJobComplete, 1, 2),
      Ev(10, TraceEventType::kJobRelease, 1, 1),  // job numbers went back
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), 0);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, InvariantKind::kJobNumberRegression);
}

TEST(TraceAnalyzerTest, TruncatedWindowSuppressesPreWindowChecks) {
  // A suffix window (dropped > 0) may open mid-stream: the first switch's
  // outgoing thread and a complete for a pre-window release are not
  // violations, and an unresolved trailing block is informational.
  std::vector<TraceEvent> ev = {
      Ev(100, TraceEventType::kContextSwitch, 7, 1),   // unknown prior state
      Ev(110, TraceEventType::kJobComplete, 1, 42),    // released pre-window
      Ev(120, TraceEventType::kSemAcquireBlock, 1, 0),
  };
  TraceAnalysis a = AnalyzeTrace(ev.data(), ev.size(), /*dropped_events=*/5);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.dropped_events, 5u);
  EXPECT_EQ(a.unresolved_blocks_at_end, 1u);
  // The same stream with dropped == 0 is corrupt on both counts.
  TraceAnalysis strict = AnalyzeTrace(ev.data(), ev.size(), 0);
  EXPECT_EQ(strict.violations.size(), 2u);
}

// --- Live kernel runs: analyzer vs the kernel's own counters ---

void SpawnContending(Kernel& kernel, SemId sem, std::vector<ThreadId>* ids) {
  ThreadParams hi;
  hi.name = "hi";
  hi.period = Milliseconds(10);
  hi.body = [sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Microseconds(200));
      co_await api.Acquire(sem);
      co_await api.Compute(Microseconds(300));
      co_await api.Release(sem);
      co_await api.WaitNextPeriod();
    }
  };
  ids->push_back(kernel.CreateThread(hi).value());

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
  ids->push_back(kernel.CreateThread(lo).value());
}

TEST(TraceAnalyzerLiveTest, ContendedRunReconcilesWithKernelStats) {
  KernelConfig config = ZeroCostConfig(SchedulerSpec::Rm());
  config.trace_capacity = 4096;
  SimEnv env(config);
  SemId sem = env.k().CreateSemaphore("S", 1).value();
  std::vector<ThreadId> ids;
  SpawnContending(env.k(), sem, &ids);
  env.StartAndRunFor(Milliseconds(200));

  const TraceSink& trace = env.k().trace();
  ASSERT_EQ(trace.dropped(), 0u);
  TraceAnalysis a = AnalyzeTrace(trace);
  EXPECT_TRUE(a.ok()) << (a.violations.empty() ? "" : a.violations[0].detail);

  const KernelStats& s = env.k().stats();
  EXPECT_EQ(a.context_switches, s.context_switches);
  EXPECT_EQ(a.deadline_misses, s.deadline_misses);
  EXPECT_EQ(a.jobs_released, s.jobs_released);
  EXPECT_EQ(a.jobs_completed, s.jobs_completed);
  EXPECT_EQ(a.cse_early_pi, s.cse_early_pi);
  // hi contends against lo's 12ms hold: real blocking time was observed.
  EXPECT_GT(s.sem_contended, 0u);
  ASSERT_NE(a.task(ids[0].value), nullptr);
  EXPECT_GT(a.task(ids[0].value)->blocking.count(), 0u);
  EXPECT_GT(a.task(ids[0].value)->blocking.min(), Duration());
  EXPECT_GT(a.task(ids[0].value)->pi_donated, 0u);
}

TEST(TraceAnalyzerLiveTest, SeedTasksetsPassInvariants) {
  struct Scenario {
    SchedulerSpec spec;
    const char* name;
  };
  for (const Scenario& sc : {Scenario{SchedulerSpec::Rm(), "rm"},
                             Scenario{SchedulerSpec::Edf(), "edf"},
                             Scenario{SchedulerSpec::Csd(2), "csd2"}}) {
    KernelConfig config = ZeroCostConfig(sc.spec);
    config.trace_capacity = 8192;
    SimEnv env(config);
    TaskSet set = Table2Workload();
    std::vector<ThreadId> ids = SpawnTaskSet(env.k(), set);
    env.StartAndRunFor(Milliseconds(40));
    TraceAnalysis a = AnalyzeTrace(env.k().trace());
    EXPECT_TRUE(a.ok()) << sc.name << ": "
                        << (a.violations.empty() ? "" : a.violations[0].detail);
    EXPECT_EQ(a.context_switches, env.k().stats().context_switches) << sc.name;
    EXPECT_EQ(a.deadline_misses, env.k().stats().deadline_misses) << sc.name;
  }
}

// --- CSV round-trip ---

TEST(TraceCsvTest, ExportImportRoundTrip) {
  TraceSink sink(8);
  sink.Record(Instant() + Microseconds(1), TraceEventType::kContextSwitch, -1, 0);
  sink.Record(Instant() + Microseconds(2), TraceEventType::kJobRelease, 0, 3);
  sink.Record(Instant() + Microseconds(9), TraceEventType::kSemAcquireBlock, 0, 2);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  sink.ExportCsv(f);
  std::rewind(f);
  TraceCsvImport import;
  std::string error;
  ASSERT_TRUE(ImportTraceCsv(f, &import, &error)) << error;
  std::fclose(f);

  ASSERT_EQ(import.events.size(), sink.size());
  EXPECT_EQ(import.dropped, 0u);
  for (size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(import.events[i].time, sink.at(i).time) << i;
    EXPECT_EQ(import.events[i].type, sink.at(i).type) << i;
    EXPECT_EQ(import.events[i].arg0, sink.at(i).arg0) << i;
    EXPECT_EQ(import.events[i].arg1, sink.at(i).arg1) << i;
  }
}

TEST(TraceCsvTest, RoundTripPreservesDroppedTrailer) {
  TraceSink sink(2);
  for (int i = 0; i < 6; ++i) {
    sink.Record(Instant() + Microseconds(i), TraceEventType::kIrq, i, 0);
  }
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  sink.ExportCsv(f);
  std::rewind(f);
  TraceCsvImport import;
  std::string error;
  ASSERT_TRUE(ImportTraceCsv(f, &import, &error)) << error;
  std::fclose(f);
  EXPECT_EQ(import.events.size(), 2u);
  EXPECT_EQ(import.dropped, 4u);
}

TEST(TraceCsvTest, LegacyFourColumnImportReExportsAsPerfetto) {
  // The pre-arg2 CSV dialect: 4-column header, releases without encoded
  // deadlines. It must import with arg2 = 0 and survive the exact pipeline
  // trace_inspect --perfetto runs on it: analyzer, postmortem (which may
  // only count the legacy miss, never attribute it), and the Chrome JSON
  // re-export.
  std::string csv =
      "# emeralds trace export\n"
      "time_us,event,arg0,arg1\n"
      "0,job_release,1,0\n"
      "0,context_switch,-1,1\n"
      "40,deadline_miss,1,0\n"
      "50,job_complete,1,0\n"
      "50,context_switch,1,-1\n"
      "# dropped=3\n";
  TraceCsvImport import;
  std::string error;
  ASSERT_TRUE(ImportTraceCsv(csv, &import, &error)) << error;
  ASSERT_EQ(import.events.size(), 5u);
  EXPECT_EQ(import.dropped, 3u);
  for (const TraceEvent& e : import.events) {
    EXPECT_EQ(e.arg2, 0);
  }

  TraceAnalysis a = AnalyzeTrace(import.events.data(), import.events.size(), import.dropped);
  EXPECT_TRUE(a.ok());
  PostmortemAnalysis pm =
      AnalyzePostmortem(import.events.data(), import.events.size(), import.dropped);
  EXPECT_EQ(pm.conservation_failures, 0u);
  EXPECT_EQ(pm.misses_analyzed, 0u);  // no deadline on a legacy release
  EXPECT_EQ(pm.deadline_unknown, 1u);

  PerfettoExportOptions options;
  options.dropped_events = import.dropped;
  options.annotations = PostmortemAnnotations(pm);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  size_t entries = ExportPerfettoJson(import.events.data(), import.events.size(), options, f);
  EXPECT_GT(entries, import.events.size());
  std::rewind(f);
  std::string text;
  char buf[1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  JsonValue root;
  ASSERT_TRUE(JsonParse(text, &root, &error)) << error << "\n" << text;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  EXPECT_EQ(events->array.size(), entries);
  bool saw_running_slice = false;
  bool saw_miss_marker = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      saw_running_slice = true;
    }
    const JsonValue* name = e.Find("name");
    if (ph->string == "i" && name != nullptr &&
        name->string.find("MISS") != std::string::npos) {
      saw_miss_marker = true;
    }
  }
  EXPECT_TRUE(saw_running_slice);
  EXPECT_TRUE(saw_miss_marker);
}

TEST(TraceCsvTest, RejectsMalformedInput) {
  TraceCsvImport import;
  std::string error;
  EXPECT_FALSE(ImportTraceCsv(std::string("nonsense\n"), &import, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(ImportTraceCsv(std::string("time_us,event,arg0,arg1\n1,not_a_type,0,0\n"),
                              &import, &error));
  EXPECT_NE(error.find("unknown event type"), std::string::npos) << error;
  EXPECT_FALSE(ImportTraceCsv(std::string("time_us,event,arg0,arg1\nx,irq,0,0\n"), &import,
                              &error));
  EXPECT_FALSE(ImportTraceCsv(std::string(""), &import, &error));
  // Values the trace cannot represent: a time whose nanoseconds overflow
  // int64, a time strtoll saturates, an arg past int32.
  EXPECT_FALSE(ImportTraceCsv(
      std::string("time_us,event,arg0,arg1,arg2\n99999999999999999,job_release,1,1,0\n"),
      &import, &error));
  EXPECT_EQ(error, "line 2: time_us out of range");
  EXPECT_FALSE(ImportTraceCsv(
      std::string("time_us,event,arg0,arg1,arg2\n0,irq,0,0,0\n12345678901234567890,irq,0,0,0\n"),
      &import, &error));
  EXPECT_EQ(error, "line 3: time_us out of range");
  EXPECT_FALSE(ImportTraceCsv(std::string("time_us,event,arg0,arg1\n1,irq,0,4294967297\n"),
                              &import, &error));
  EXPECT_EQ(error, "line 2: arg out of range");
  // A NUL byte inside a row, and a drop trailer that is not a plain count:
  // once accepted, as one event and as 2^64 - 1 or 5 dropped.
  EXPECT_FALSE(ImportTraceCsv(
      std::string("time_us,event,arg0,arg1,arg2\n0,irq,1,2,3\0junk,,,\n", 49), &import, &error));
  EXPECT_EQ(error, "line 2: NUL byte");
  for (const char* trailer : {"# dropped=-1\n", "# dropped=5x\n", "# dropped=\n",
                              "# dropped=99999999999999999999\n"}) {
    EXPECT_FALSE(ImportTraceCsv(std::string("time_us,event,arg0,arg1,arg2\n0,irq,1,2,3\n") +
                                    trailer,
                                &import, &error))
        << trailer;
    EXPECT_EQ(error, "line 3: bad dropped count") << trailer;
  }
  ASSERT_TRUE(ImportTraceCsv(std::string("time_us,event,arg0,arg1,arg2\n0,irq,1,2,3\n"
                                         "# dropped=18446744073709551615\n"),
                             &import, &error))
      << error;
  EXPECT_EQ(import.dropped, std::numeric_limits<uint64_t>::max());
  // The extremes that do fit still import.
  ASSERT_TRUE(ImportTraceCsv(std::string("time_us,event,arg0,arg1,arg2\n"
                                         "-9223372036854775,irq,-2147483648,2147483647,0\n"),
                             &import, &error))
      << error;
  EXPECT_EQ(import.events[0].time.nanos(), -9223372036854775000LL);
  EXPECT_EQ(import.events[0].arg0, std::numeric_limits<int32_t>::min());
}

TEST(TraceCsvTest, ImportedCorruptionIsFlaggedByAnalyzer) {
  // The full offline path trace_inspect uses: a CSV whose switch pairing was
  // hand-corrupted must come back as a structured violation.
  std::string csv =
      "time_us,event,arg0,arg1\n"
      "0,context_switch,-1,1\n"
      "10,context_switch,2,3\n";  // corrupt: thread 1 was running
  TraceCsvImport import;
  std::string error;
  ASSERT_TRUE(ImportTraceCsv(csv, &import, &error)) << error;
  TraceAnalysis a = AnalyzeTrace(import.events.data(), import.events.size(), import.dropped);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].kind, InvariantKind::kSwitchPairing);
}

// --- Perfetto export ---

TEST(PerfettoExportTest, EmitsParsableJsonWithExpectedEntries) {
  std::vector<TraceEvent> ev = {
      Ev(0, TraceEventType::kJobRelease, 1, 0),
      Ev(0, TraceEventType::kContextSwitch, -1, 1),
      Ev(5, TraceEventType::kSemAcquire, 1, 2),
      Ev(8, TraceEventType::kSemRelease, 1, 2),
      Ev(9, TraceEventType::kDeadlineMiss, 1, 0),
      Ev(10, TraceEventType::kJobComplete, 1, 0),
      Ev(10, TraceEventType::kContextSwitch, 1, -1),
      Ev(11, TraceEventType::kPiInherit, 2, 1),
  };
  PerfettoExportOptions options;
  options.thread_names = {"idle", "tau_1", "tau_2"};
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  size_t entries = ExportPerfettoJson(ev.data(), ev.size(), options, f);
  EXPECT_GT(entries, ev.size());  // metadata + spans + instants

  std::rewind(f);
  std::string text;
  char buf[1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(text, &root, &error)) << error << "\n" << text;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  EXPECT_EQ(events->array.size(), entries);
  // Thread-name metadata and the running slice are present.
  bool saw_thread_name = false;
  bool saw_running_slice = false;
  bool saw_flow_start = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M" && e.Find("args") != nullptr) {
      saw_thread_name = true;
    }
    if (ph->string == "X") {
      saw_running_slice = true;
      EXPECT_NE(e.Find("dur"), nullptr);
    }
    if (ph->string == "s") {
      saw_flow_start = true;
    }
  }
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_running_slice);
  EXPECT_TRUE(saw_flow_start);
}

TEST(PerfettoExportTest, KernelOverloadUsesThreadNames) {
  KernelConfig config = ZeroCostConfig(SchedulerSpec::Rm());
  config.trace_capacity = 1024;
  SimEnv env(config);
  TaskSet set = Table2Workload();
  SpawnTaskSet(env.k(), set);
  env.StartAndRunFor(Milliseconds(10));

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ASSERT_GT(ExportPerfettoJson(env.k(), f), 0u);
  std::rewind(f);
  std::string text;
  char buf[1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(text, &root, &error)) << error;
  // SpawnTaskSet names every thread "task"; KernelThreadNames appends the id.
  EXPECT_NE(text.find("task/0"), std::string::npos);
}

// --- Stats snapshots ---

TEST(StatsSamplerTest, SamplesAreDeltas) {
  StatsSampler sampler(4);
  KernelStats s;
  s.context_switches = 10;
  s.jobs_completed = 3;
  s.compute_time = Milliseconds(5);
  sampler.Sample(Instant() + Milliseconds(10), s);
  s.context_switches = 25;
  s.jobs_completed = 4;
  s.compute_time = Milliseconds(8);
  sampler.Sample(Instant() + Milliseconds(20), s);

  ASSERT_EQ(sampler.size(), 2u);
  EXPECT_EQ(sampler.at(0).context_switches, 10u);
  EXPECT_EQ(sampler.at(0).compute_time, Milliseconds(5));
  EXPECT_EQ(sampler.at(1).context_switches, 15u);
  EXPECT_EQ(sampler.at(1).jobs_completed, 1u);
  EXPECT_EQ(sampler.at(1).compute_time, Milliseconds(3));
  EXPECT_EQ(sampler.at(1).time, Instant() + Milliseconds(20));
}

TEST(StatsSamplerTest, RebaseAbsorbsCounterReset) {
  StatsSampler sampler(4);
  KernelStats s;
  s.compute_time = Milliseconds(5);
  sampler.Sample(Instant() + Milliseconds(10), s);
  s.compute_time = Duration();  // external reset (ResetChargeAccounting)
  sampler.Rebase(s);
  s.compute_time = Milliseconds(2);
  sampler.Sample(Instant() + Milliseconds(20), s);
  EXPECT_EQ(sampler.at(1).compute_time, Milliseconds(2));  // not 2ms - 5ms
}

TEST(StatsSamplerTest, RingEvictsOldestAndCountsDrops) {
  StatsSampler sampler(2);
  KernelStats s;
  for (int i = 1; i <= 5; ++i) {
    s.context_switches = static_cast<uint64_t>(10 * i);
    sampler.Sample(Instant() + Milliseconds(i), s);
  }
  EXPECT_EQ(sampler.size(), 2u);
  EXPECT_EQ(sampler.dropped(), 3u);
  EXPECT_EQ(sampler.at(0).time, Instant() + Milliseconds(4));
  EXPECT_EQ(sampler.at(1).context_switches, 10u);  // still a per-interval delta
}

TEST(StatsSamplerLiveTest, KernelDrivesPeriodicSampling) {
  KernelConfig config = ZeroCostConfig(SchedulerSpec::Rm());
  config.trace_capacity = 1024;
  SimEnv env(config);
  env.k().EnableStatsSampling(Milliseconds(10), 16);
  TaskSet set = Table2Workload();
  SpawnTaskSet(env.k(), set);
  env.StartAndRunFor(Milliseconds(95));

  const StatsSampler* sampler = env.k().stats_sampler();
  ASSERT_NE(sampler, nullptr);
  // Samples at 10, 20, ..., 90 ms.
  ASSERT_EQ(sampler->size(), 9u);
  uint64_t sum = 0;
  for (size_t i = 0; i < sampler->size(); ++i) {
    EXPECT_EQ(sampler->at(i).time, Instant() + Milliseconds(10 * (i + 1)));
    sum += sampler->at(i).context_switches;
  }
  // Delta sum over [0, 90ms] cannot exceed the final cumulative counter and
  // must account for everything before the last sample point.
  EXPECT_LE(sum, env.k().stats().context_switches);
  EXPECT_GT(sum, 0u);
}

// --- PrintKernelStats stream parameter (satellite of the Dump change) ---

TEST(PrintKernelStatsTest, WritesToGivenStream) {
  KernelStats s;
  s.context_switches = 7;
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  PrintKernelStats(s, f);
  std::rewind(f);
  std::string text;
  char buf[1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  EXPECT_NE(text.find("context switches"), std::string::npos) << text;
}

// --- Obs run report ---

TEST(ObsReportTest, BuildsValidatedSchemaWithReconciliation) {
  KernelConfig config = ZeroCostConfig(SchedulerSpec::Rm());
  config.trace_capacity = 8192;
  SimEnv env(config);
  env.k().EnableStatsSampling(Milliseconds(10), 16);
  TaskSet set = Table2Workload();
  std::vector<ThreadId> ids = SpawnTaskSet(env.k(), set);
  env.StartAndRunFor(Milliseconds(40));

  ObsRunInfo info;
  info.label = "unit";
  info.scheduler = "RM";
  info.run_duration = Milliseconds(40);
  std::string text = BuildObsRunReport(info, env.k(), ids);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(text, &root, &error)) << error << "\n" << text.substr(0, 400);
  ASSERT_NE(root.Find("schema"), nullptr);
  EXPECT_EQ(root.Find("schema")->string, kObsRunSchema);
  ASSERT_NE(root.Find("tasks"), nullptr);
  EXPECT_EQ(root.Find("tasks")->array.size(), ids.size());

  const JsonValue* recon = root.Find("reconciliation");
  ASSERT_NE(recon, nullptr);
  EXPECT_TRUE(recon->Find("checked")->boolean);
  EXPECT_TRUE(recon->Find("context_switches_match")->boolean);
  EXPECT_TRUE(recon->Find("deadline_misses_match")->boolean);
  EXPECT_TRUE(recon->Find("jobs_completed_match")->boolean);

  const JsonValue* analysis = root.Find("analysis");
  ASSERT_NE(analysis, nullptr);
  EXPECT_TRUE(analysis->Find("violations")->array.empty());
  EXPECT_EQ(analysis->Find("context_switches")->number,
            root.Find("kernel_stats")->Find("context_switches")->number);

  const JsonValue* snapshots = root.Find("snapshots");
  ASSERT_NE(snapshots, nullptr);
  EXPECT_TRUE(snapshots->Find("enabled")->boolean);
  EXPECT_EQ(snapshots->Find("samples")->array.size(), 4u);  // 10, 20, 30, 40 ms
}

TEST(ObsReportTest, SnapshotsSectionDisabledWithoutSampler) {
  KernelConfig config = ZeroCostConfig(SchedulerSpec::Rm());
  config.trace_capacity = 256;
  SimEnv env(config);
  TaskSet set = Table2Workload();
  std::vector<ThreadId> ids = SpawnTaskSet(env.k(), set);
  env.StartAndRunFor(Milliseconds(5));
  ObsRunInfo info;
  info.label = "nosampler";
  info.scheduler = "RM";
  info.run_duration = Milliseconds(5);
  std::string text = BuildObsRunReport(info, env.k(), ids);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(text, &root, &error)) << error;
  EXPECT_FALSE(root.Find("snapshots")->Find("enabled")->boolean);
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
