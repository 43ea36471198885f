// Report validator tests: every committed BENCH_*.json baseline passes, a
// fleet report longer than 64 windows passes, torture and fleet-node reports
// of every other schema pass, and a mutant of a passing report that breaks
// one gate fails with that gate's FAIL line. Each schema has at least one
// substantive gate here: the timeseries grid and telescoping sums, the alert
// stream's order and fired count, telemetry that covers every node, cycle
// conservation over one entry per bucket, the fleet's failed nodes, torture
// trace drops outside --tiny-ring,
// reconciliation and violation lists, lateness conservation (outside black
// boxes), the SMP floor, residuals, core ledgers, ratios and admission, and
// reference mismatches.
// Each schema also has a mutant with one member deleted, and the counts the
// checker compares with lengths must be non-negative integers.

#include "bench/bench_json_check.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/core/kernel.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_report.h"
#include "src/fuzz/torture.h"
#include "src/obs/blackbox.h"
#include "src/obs/chains.h"
#include "src/obs/obs_report.h"
#include "src/obs/postmortem.h"
#include "src/obs/trace_replay.h"
#include "tests/bench/report_fixtures.h"

namespace emeralds {
namespace bench {
namespace {

// Checks `mutant` and expects it to fail with a log containing `fail_line`.
void ExpectRejected(const JsonValue& mutant, const std::string& fail_line) {
  JsonCheckResult result = CheckReport("mutant.json", mutant);
  EXPECT_FALSE(result.ok) << result.log;
  EXPECT_NE(result.log.find("FAIL: " + fail_line), std::string::npos) << result.log;
}

// Deletes the member at `path` from a passing report and expects the check
// to fail naming that member.
void ExpectDeletionRejected(JsonValue report, const std::string& path) {
  const size_t dot = path.rfind('.');
  JsonValue& parent = dot == std::string::npos ? report : AtPath(report, path.substr(0, dot));
  const std::string key = path.substr(dot == std::string::npos ? 0 : dot + 1);
  size_t erased = std::erase_if(parent.object, [&](const auto& m) { return m.first == key; });
  ASSERT_EQ(erased, 1u) << path;
  JsonCheckResult result = CheckReport("mutant.json", report);
  EXPECT_FALSE(result.ok) << path << ": " << result.log;
  EXPECT_EQ(result.log.rfind("FAIL: ", 0), 0u) << result.log;
  EXPECT_NE(result.log.find(key), std::string::npos) << result.log;
}

// A violation entry as the obs reports write one.
JsonValue Violation() {
  return Parse(R"({"kind": "mutant_kind", "event_index": 7, "detail": "injected"})");
}

TEST(BenchJsonCheckTest, CommittedBaselinesPass) {
  for (const char* name :
       {"BENCH_breakdown.json", "BENCH_cycles.json", "BENCH_fleet.json", "BENCH_smp.json"}) {
    JsonCheckResult result = CheckReportFile(SourcePath(name));
    EXPECT_TRUE(result.ok) << name << ": " << result.log;
    EXPECT_EQ(result.log.rfind("OK: ", 0), 0u) << result.log;
  }
}

TEST(BenchJsonCheckTest, UnreadableOrUnparsableFilesFail) {
  JsonCheckResult missing = CheckReportFile(SourcePath("no_such_report.json"));
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.log.find("FAIL: cannot open"), std::string::npos) << missing.log;
  JsonCheckResult unparsable = CheckReportFile(SourcePath("CMakeLists.txt"));
  EXPECT_FALSE(unparsable.ok);
  EXPECT_NE(unparsable.log.find("does not parse"), std::string::npos) << unparsable.log;
}

// --- timeseries (BENCH_fleet.json) ---

TEST(BenchJsonCheckTest, WindowJobsThatDoNotSumToTheRunFail) {
  JsonValue report = Load("BENCH_fleet.json");
  At(At(At(report, "timeseries"), "series").array[3], "jobs_completed").number += 1;
  ExpectRejected(report, "timeseries window jobs sum to");
}

TEST(BenchJsonCheckTest, WindowOffTheGridFails) {
  JsonValue report = Load("BENCH_fleet.json");
  At(At(At(report, "timeseries"), "series").array[2], "start_us").number += 1;
  ExpectRejected(report, "timeseries window off the grid (index 2");
}

TEST(BenchJsonCheckTest, WindowCountThatIsNotTheSeriesLengthFails) {
  JsonValue report = Load("BENCH_fleet.json");
  At(At(report, "timeseries"), "windows").number += 1;
  ExpectRejected(report, "timeseries windows=12 but series has 11 entries");
}

TEST(BenchJsonCheckTest, GapCountThatIsNotTheMarkedWindowsFails) {
  JsonValue report = Load("BENCH_fleet.json");
  At(At(report, "timeseries"), "gap_windows").number = 1;
  ExpectRejected(report, "timeseries gap_windows=1 but 0 windows are marked");
}

// A count is compared with a length as an integer, so a fractional count
// must fail rather than truncate into a match: 11.5 windows over a series of
// 11, 0.9 events over an empty alert stream.
TEST(BenchJsonCheckTest, FractionalCountsFail) {
  JsonValue report = Load("BENCH_fleet.json");
  ASSERT_EQ(AtPath(report, "timeseries.windows").number, 11.0);
  AtPath(report, "timeseries.windows").number = 11.5;
  ExpectRejected(report, "timeseries.windows is not a non-negative integer count");

  report = Load("BENCH_fleet.json");
  ASSERT_EQ(AtPath(report, "alerts.events").number, 0.0);
  AtPath(report, "alerts.events").number = 0.9;
  ExpectRejected(report, "alerts.events is not a non-negative integer count");
}

// --- telemetry and fleet (BENCH_fleet.json) ---

TEST(BenchJsonCheckTest, TelemetryJobsThatAreNotTheReportTotalFail) {
  JsonValue report = Load("BENCH_fleet.json");
  AtPath(report, "telemetry.response.count").number += 1;
  ExpectRejected(report, "telemetry response count=5672 but the report's jobs_completed is 5671");

  report = Load("BENCH_fleet.json");
  AtPath(report, "telemetry.chains[0].completed").number += 1;
  ExpectRejected(report, "telemetry chains sum to 12517 completed, 1428 overruns but the "
                         "report's totals are 12516, 1428");
}

TEST(BenchJsonCheckTest, FailedNodesFail) {
  JsonValue report = Load("BENCH_fleet.json");
  At(report, "nodes_failed").number = 1;
  ExpectRejected(report, "1 fleet node(s) failed their oracles");
}

// --- cycles (BENCH_cycles.json) ---

TEST(BenchJsonCheckTest, UnconservedLedgerFails) {
  JsonValue report = Load("BENCH_cycles.json");
  At(At(report, "cycles"), "conserved").boolean = false;
  ExpectRejected(report, "cycles conserved is false");
}

// Exactly one ledger entry per cycle bucket: a zero bucket may not go
// missing, and no other key may join the sum.
TEST(BenchJsonCheckTest, BucketsThatAreNotOnePerCycleBucketFail) {
  JsonValue report = Load("BENCH_cycles.json");
  ASSERT_EQ(AtPath(report, "cycles.buckets_ns.ipi").number, 0.0);
  ExpectDeletionRejected(report, "cycles.buckets_ns.ipi");
  JsonValue zero;
  zero.type = JsonValue::Type::kNumber;
  AtPath(report, "cycles.buckets_ns").object.emplace_back("extra", zero);
  ExpectRejected(report, "cycles buckets_ns has 17 keys, want one per cycle bucket (16)");
}

TEST(BenchJsonCheckTest, NonzeroResidualFails) {
  JsonValue report = Load("BENCH_cycles.json");
  At(At(report, "cycles"), "residual_ns").number = 5;
  ExpectRejected(report, "cycles residual_ns=5 clock_unattributed_ns=0 (must be 0)");
}

TEST(BenchJsonCheckTest, DeletedMembersOfTheBaselinesFail) {
  ExpectDeletionRejected(Load("BENCH_breakdown.json"), "points[3].eval_reduction");
  ExpectDeletionRejected(Load("BENCH_breakdown.json"), "points[3].avg_breakdown_pct");
  ExpectDeletionRejected(Load("BENCH_cycles.json"), "tasks[0].headroom_min_ns");
  ExpectDeletionRejected(Load("BENCH_cycles.json"), "cycles.cores");
  ExpectDeletionRejected(Load("BENCH_cycles.json"), "cycles.cores[0].ledger_total_ns");
  ExpectDeletionRejected(Load("BENCH_cycles.json"), "cycles.sched_bands[0].select_ns");
  ExpectDeletionRejected(Load("BENCH_fleet.json"), "telemetry.chains[0].hops[0].queue.p99_us");
  ExpectDeletionRejected(Load("BENCH_fleet.json"), "telemetry.chains[1].e2e.p50_us");
  ExpectDeletionRejected(Load("BENCH_fleet.json"), "telemetry.chains[1].e2e.p90_us");
  ExpectDeletionRejected(Load("BENCH_smp.json"), "throughput[1].cores[1].ledger_total_ns");
}

// --- breakdown (BENCH_breakdown.json) ---

TEST(BenchJsonCheckTest, ReferenceMismatchFails) {
  JsonValue report = Load("BENCH_breakdown.json");
  AtPath(report, "points[0].reference_mismatches").number = 1;
  ExpectRejected(report, "reference_mismatches = 1 at n = 5");
}

// --- SMP (BENCH_smp.json) ---

TEST(BenchJsonCheckTest, AdmissionThatFallsWithMoreCoresFails) {
  JsonValue report = Load("BENCH_smp.json");
  JsonValue& point = AtPath(report, "admission.points[2]");
  ASSERT_EQ(At(point, "admitted_2core").number, 16.0);
  At(point, "admitted_4core").number = 15;
  ExpectRejected(report, "admission not monotone in cores at U=1.2 (1:0 2:16 4:15)");
}

TEST(BenchJsonCheckTest, TwoCoreThroughputBelowTheFloorFails) {
  JsonValue report = Load("BENCH_smp.json");
  ASSERT_EQ(AtPath(report, "throughput[1].num_cores").number, 2.0);
  AtPath(report, "throughput[1].user_ns").number =
      1.6 * AtPath(report, "throughput[0].user_ns").number;
  ExpectRejected(report, "2-core user-cycle throughput is 1.600x 1-core (floor 1.7x)");
}

TEST(BenchJsonCheckTest, NonzeroPerCoreResidualFails) {
  JsonValue report = Load("BENCH_smp.json");
  AtPath(report, "throughput[1].cores[0].residual_ns").number = 5;
  ExpectRejected(report, "smp 2-core run, core 0: residual 5 ns (must be 0)");
}

TEST(BenchJsonCheckTest, PerCoreLedgerThatIsNotElapsedTimeFails) {
  JsonValue report = Load("BENCH_smp.json");
  AtPath(report, "throughput[1].cores[0].ledger_total_ns").number *= 1.05;
  ExpectRejected(report,
                 "smp 2-core run, core 0: ledger_total_ns 2100000000 is not elapsed_ns 2000000000");
}

// The reported ratios are printed from the rows' user times, so they must
// print exactly as the user times give them.
TEST(BenchJsonCheckTest, ReportedRatioThatIsNotTheUserTimeRatioFails) {
  JsonValue two = Load("BENCH_smp.json");
  At(two, "ratio_2core").number *= 1.05;
  ExpectRejected(two, "ratio_2core 2.098635447 is not the 2-core/1-core user-time ratio "
                      "1.998700426");
  JsonValue four = Load("BENCH_smp.json");
  At(four, "ratio_4core").number *= 1.05;
  ExpectRejected(four, "ratio_4core 2.531636795 is not the 4-core/1-core user-time ratio "
                       "2.411082662");
}

// --- torture (a report built here) ---

// One default run and one --tiny-ring run of the same seed; only the tiny
// ring's window evicts.
JsonValue TortureReport() {
  fuzz::TortureOptions normal;
  normal.seed = 1;
  normal.ops = 300;
  fuzz::TortureOptions tiny = normal;
  tiny.tiny_trace_ring = true;
  return Parse(fuzz::BuildTortureReport({normal, tiny},
                                        {fuzz::RunTorture(normal), fuzz::RunTorture(tiny)}));
}

TEST(BenchJsonCheckTest, TortureRunsPassWithDropsOnlyOnTheTinyRing) {
  JsonValue report = TortureReport();
  auto& runs = At(report, "runs").array;
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(At(At(runs[0], "trace"), "dropped").number, 0.0);
  EXPECT_GT(At(At(runs[1], "trace"), "dropped").number, 0.0);
  JsonCheckResult result = CheckReport("torture.json", report);
  EXPECT_TRUE(result.ok) << result.log;
}

TEST(BenchJsonCheckTest, TortureDropWithoutTinyRingFails) {
  JsonValue report = TortureReport();
  At(At(At(report, "runs").array[0], "trace"), "dropped").number = 5;
  ExpectRejected(report, "seed 1 dropped 5 trace records without --tiny-ring");
}

TEST(BenchJsonCheckTest, TortureDeletedMemberFails) {
  ExpectDeletionRejected(TortureReport(), "runs[1].postmortem.unmatched");
}

// A negative count, or one of 2^64 or more, has no integer to cast to.
TEST(BenchJsonCheckTest, NegativeOrOversizedCountsFail) {
  JsonValue smp = Load("BENCH_smp.json");
  AtPath(smp, "throughput[0].num_cores").number = -1;
  ExpectRejected(smp, "throughput[0].num_cores is not a non-negative integer count");

  JsonValue torture = TortureReport();
  AtPath(torture, "runs[0].ops_executed").number = -300;
  ExpectRejected(torture, "runs[0].ops_executed is not a non-negative integer count");
  AtPath(torture, "runs[0].ops_executed").number = 18446744073709551616.0;
  ExpectRejected(torture, "runs[0].ops_executed is not a non-negative integer count");
}

// --- reports of one fleet node (built here) ---

// Node 6 of an 8-node fleet (seed 1) overloaded 8x, so it misses deadlines:
// its obs run, chains, postmortem and black-box reports, built once for the
// suite from one InspectNode visit.
class BenchJsonCheckNodeTest : public testing::Test {
 protected:
  struct Reports {
    JsonValue run;
    JsonValue chains;
    JsonValue postmortem;
    JsonValue blackbox;
  };

  static void SetUpTestSuite() {
    fleet::FleetOptions opt;
    opt.instances = 8;
    opt.seed = 1;
    opt.overload_node = 6;
    opt.overload_factor = 8;
    reports_ = new Reports;
    fleet::InspectNode(opt, 6, [&](const Kernel& kernel, const fleet::NodeResult& node) {
      std::vector<ThreadId> ids;
      for (size_t i = 0; i < kernel.thread_count(); ++i) {
        ids.push_back(ThreadId(static_cast<int>(i)));
      }
      obs::ObsRunInfo info;
      info.label = "node-6";
      info.scheduler = node.scheduler;
      info.run_duration = kernel.now() - Instant();
      reports_->run = Parse(obs::BuildObsRunReport(info, kernel, ids));
      obs::TraceEvaluation eval = obs::EvaluateTrace(kernel.trace(), kernel.resolved_chains());
      reports_->chains = Parse(obs::BuildChainsReport("node-6", eval.chains));
      reports_->postmortem =
          Parse(obs::BuildPostmortemReport("node-6", eval.postmortem, &eval.chains));
      reports_->blackbox = Parse(obs::BuildBlackBoxReport(obs::CaptureBlackBox(
          kernel, "node-6", "overloaded", fleet::NodeReproCommand(opt, 6))));
    });
  }
  static void TearDownTestSuite() {
    delete reports_;
    reports_ = nullptr;
  }

  static Reports* reports_;
};

BenchJsonCheckNodeTest::Reports* BenchJsonCheckNodeTest::reports_ = nullptr;

TEST_F(BenchJsonCheckNodeTest, ReportsPass) {
  for (const JsonValue* report :
       {&reports_->run, &reports_->chains, &reports_->postmortem, &reports_->blackbox}) {
    JsonCheckResult result = CheckReport("node.json", *report);
    EXPECT_TRUE(result.ok) << result.log;
  }
}

TEST_F(BenchJsonCheckNodeTest, ReconciliationMismatchFails) {
  JsonValue report = reports_->run;
  At(At(report, "reconciliation"), "jobs_completed_match").boolean = false;
  ExpectRejected(report, "reconciliation jobs_completed_match is false");
}

TEST_F(BenchJsonCheckNodeTest, TraceInvariantViolationFails) {
  JsonValue report = reports_->run;
  AtPath(report, "analysis.violations").array.push_back(Violation());
  ExpectRejected(report, "1 trace invariant violation(s), first kind: mutant_kind");
}

TEST_F(BenchJsonCheckNodeTest, ChainViolationFails) {
  JsonValue report = reports_->chains;
  AtPath(report, "report.violations").array.push_back(Violation());
  ExpectRejected(report, "report has 1 chain violation(s), first kind: mutant_kind");
}

// A miss whose lateness ledger did not telescope fails a postmortem report,
// but not a black box: black boxes record sick runs on purpose.
TEST_F(BenchJsonCheckNodeTest, UnconservedMissFailsOutsideTheBlackBox) {
  JsonValue report = reports_->postmortem;
  auto& misses = AtPath(report, "report.misses").array;
  ASSERT_FALSE(misses.empty());
  At(misses[0], "conserved").boolean = false;
  ExpectRejected(report, "postmortem report miss ledger did not telescope");

  JsonValue box = reports_->blackbox;
  auto& box_misses = AtPath(box, "postmortem.misses").array;
  ASSERT_FALSE(box_misses.empty());
  At(box_misses[0], "conserved").boolean = false;
  JsonCheckResult result = CheckReport("blackbox.json", box);
  EXPECT_TRUE(result.ok) << result.log;
}

TEST_F(BenchJsonCheckNodeTest, EmptyReproFails) {
  JsonValue box = reports_->blackbox;
  At(box, "repro").string.clear();
  JsonCheckResult result = CheckReport("blackbox.json", box);
  EXPECT_FALSE(result.ok) << result.log;
  EXPECT_NE(result.log.find("repro"), std::string::npos) << result.log;
}

TEST_F(BenchJsonCheckNodeTest, DeletedMembersFail) {
  ExpectDeletionRejected(reports_->run, "kernel_stats.cse_switches_saved");
  ExpectDeletionRejected(reports_->chains, "report.chains[0].hops[0].exec.total_us");
  ExpectDeletionRejected(reports_->postmortem, "report.misses[0].tardiness_ns");
  ExpectDeletionRejected(reports_->blackbox, "snapshots.dropped");
}

// --- a fleet longer than 64 windows, with alerts ---

// 8 nodes for 1 s (101 windows) with node 6 overloaded 8x, so the alert
// stream has events. Built once for the suite.
class BenchJsonCheckLongFleetTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    fleet::FleetOptions opt;
    opt.instances = 8;
    opt.workers = 4;
    opt.seed = 1;
    opt.run_duration = Seconds(1);
    opt.overload_node = 6;
    opt.overload_factor = 8;
    fleet::FleetResult result = fleet::RunFleet(opt);
    fleet::FleetRunInfo info;
    info.label = "long_fleet";
    info.run_duration = opt.run_duration;
    info.slice = opt.slice;
    report_ = new JsonValue(Parse(fleet::BuildFleetRunReport(info, result)));
  }
  static void TearDownTestSuite() {
    delete report_;
    report_ = nullptr;
  }

  static JsonValue* report_;
};

JsonValue* BenchJsonCheckLongFleetTest::report_ = nullptr;

TEST_F(BenchJsonCheckLongFleetTest, ReportPasses) {
  EXPECT_EQ(At(At(*report_, "timeseries"), "windows").number, 101.0);
  JsonCheckResult result = CheckReport("long_fleet.json", *report_);
  EXPECT_TRUE(result.ok) << result.log;
}

TEST_F(BenchJsonCheckLongFleetTest, StreamOutOfWindowOrderFails) {
  JsonValue report = *report_;
  auto& stream = At(At(report, "alerts"), "stream").array;
  ASSERT_GE(stream.size(), 2u);
  ASSERT_LT(At(stream.front(), "window").number, At(stream.back(), "window").number);
  std::swap(stream.front(), stream.back());
  ExpectRejected(report, "alerts stream not ordered by window");
}

TEST_F(BenchJsonCheckLongFleetTest, FiredCountThatIsNotTheFiringEventsFails) {
  JsonValue report = *report_;
  double& fired = At(At(report, "alerts"), "fired").number;
  ASSERT_GT(fired, 0.0);
  fired += 1;
  ExpectRejected(report, "alerts fired=");
}

}  // namespace
}  // namespace bench
}  // namespace emeralds
