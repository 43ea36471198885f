// Report validator tests: every committed BENCH_*.json baseline passes, a
// fleet report longer than 64 windows passes, a torture report passes, and a
// mutant of a passing report that breaks one gate fails with that gate's
// FAIL line. Each section has at least one substantive gate here: the
// timeseries grid and telescoping sums, the alert stream's order and fired
// count, the telemetry totals, cycle conservation, the fleet's failed nodes,
// and torture trace drops outside --tiny-ring.

#include "bench/bench_json_check.h"

#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_report.h"
#include "src/fuzz/torture.h"

namespace emeralds {
namespace bench {
namespace {

std::string SourcePath(const std::string& relative) {
  return std::string(EMERALDS_SOURCE_DIR) + "/" + relative;
}

JsonValue Parse(const std::string& text) {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(JsonParse(text, &root, &error)) << error;
  return root;
}

JsonValue Load(const std::string& relative) {
  std::FILE* f = std::fopen(SourcePath(relative).c_str(), "rb");
  EXPECT_NE(f, nullptr) << relative;
  std::string text;
  if (f != nullptr) {
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, got);
    }
    std::fclose(f);
  }
  return Parse(text);
}

// Mutable member lookup; fails the test when the member is missing.
JsonValue& At(JsonValue& obj, const std::string& key) {
  for (auto& [name, value] : obj.object) {
    if (name == key) {
      return value;
    }
  }
  ADD_FAILURE() << "no member \"" << key << "\"";
  static JsonValue missing;
  return missing;
}

// Checks `mutant` and expects it to fail with a log containing `fail_line`.
void ExpectRejected(const JsonValue& mutant, const std::string& fail_line) {
  JsonCheckResult result = CheckReport("mutant.json", mutant);
  EXPECT_FALSE(result.ok) << result.log;
  EXPECT_NE(result.log.find("FAIL: " + fail_line), std::string::npos) << result.log;
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

// --- telemetry and fleet (BENCH_fleet.json) ---

TEST(BenchJsonCheckTest, TelemetryJobsThatAreNotTheReportTotalFail) {
  JsonValue report = Load("BENCH_fleet.json");
  At(At(report, "telemetry"), "jobs_completed").number += 1;
  ExpectRejected(report, "telemetry jobs_completed=");
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

TEST(BenchJsonCheckTest, NonzeroResidualFails) {
  JsonValue report = Load("BENCH_cycles.json");
  At(At(report, "cycles"), "residual_ns").number = 5;
  ExpectRejected(report, "cycles residual_ns=5 clock_unattributed_ns=0 (must be 0)");
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
