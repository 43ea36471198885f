#include "src/fleet/fleet.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "src/fleet/fleet_report.h"
#include "src/fleet/openmetrics.h"

namespace emeralds {
namespace fleet {
namespace {

FleetOptions SmallFleet() {
  FleetOptions opt;
  opt.instances = 8;
  opt.workers = 4;
  opt.seed = 42;
  opt.run_duration = Milliseconds(50);
  opt.slice = Milliseconds(5);
  return opt;
}

TEST(FleetTest, AllNodesPassOracles) {
  FleetResult result = RunFleet(SmallFleet());
  ASSERT_EQ(result.nodes.size(), 8u);
  for (const NodeResult& node : result.nodes) {
    EXPECT_TRUE(node.ok()) << node.scheduler << ": " << node.failure;
    EXPECT_GT(node.events, 0u);
    EXPECT_GT(node.jobs_completed, 0u);
    EXPECT_GT(node.timer_dispatches, 0u);
    // RunUntil overshoots the horizon by the in-flight charge granularity.
    EXPECT_GE(node.virtual_time, Milliseconds(50));
    EXPECT_LT(node.virtual_time, Milliseconds(51));
  }
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.nodes_failed, 0);
  EXPECT_EQ(result.workers, 4);
}

TEST(FleetTest, AggregatesSumTheNodes) {
  FleetResult result = RunFleet(SmallFleet());
  uint64_t events = 0;
  uint64_t jobs = 0;
  Duration virtual_time;
  for (const NodeResult& node : result.nodes) {
    events += node.events;
    jobs += node.jobs_completed;
    virtual_time = virtual_time + node.virtual_time;
  }
  EXPECT_EQ(result.events_total, events);
  EXPECT_EQ(result.jobs_completed, jobs);
  EXPECT_EQ(result.virtual_time_total, virtual_time);
  EXPECT_GT(result.events_per_virtual_sec, 0.0);
  EXPECT_GT(result.arena_high_water, 0u);
}

TEST(FleetTest, CoversAllFourSchedulerVariants) {
  FleetResult result = RunFleet(SmallFleet());
  int edf = 0;
  int rm = 0;
  int csd2 = 0;
  int csd3 = 0;
  for (const NodeResult& node : result.nodes) {
    edf += node.scheduler == "EDF" ? 1 : 0;
    rm += node.scheduler == "RM" ? 1 : 0;
    csd2 += node.scheduler == "CSD-2" ? 1 : 0;
    csd3 += node.scheduler == "CSD-3" ? 1 : 0;
  }
  EXPECT_EQ(edf, 2);
  EXPECT_EQ(rm, 2);
  EXPECT_EQ(csd2, 2);
  EXPECT_EQ(csd3, 2);
}

// The determinism contract: host scheduling must not leak into simulated
// outcomes, so the digest is identical across repeated runs AND across
// worker counts (1 worker serializes everything; 8 maximizes stealing).
TEST(FleetTest, DigestIsStableAcrossRunsAndWorkerCounts) {
  FleetOptions opt = SmallFleet();
  FleetResult first = RunFleet(opt);
  FleetResult second = RunFleet(opt);
  EXPECT_EQ(first.fleet_digest, second.fleet_digest);
  EXPECT_EQ(first.events_total, second.events_total);

  opt.workers = 1;
  FleetResult serial = RunFleet(opt);
  opt.workers = 8;
  FleetResult wide = RunFleet(opt);
  EXPECT_EQ(serial.fleet_digest, first.fleet_digest);
  EXPECT_EQ(wide.fleet_digest, first.fleet_digest);
  for (size_t i = 0; i < first.nodes.size(); ++i) {
    EXPECT_EQ(serial.nodes[i].trace_digest, first.nodes[i].trace_digest) << "node " << i;
  }
  // The merged blame ledger carries the same contract: node ledgers merge
  // in node-index order, so the digest is bit-identical across worker
  // counts and repeated runs.
  EXPECT_EQ(serial.blame_digest, first.blame_digest);
  EXPECT_EQ(wide.blame_digest, first.blame_digest);
  EXPECT_EQ(second.blame_digest, first.blame_digest);
  EXPECT_EQ(serial.blame.misses_analyzed, wide.blame.misses_analyzed);
  EXPECT_EQ(serial.blame.tardiness_ns, wide.blame.tardiness_ns);
}

// Telemetry collection is a pure host-side read after each node's virtual
// horizon: digests must be bit-identical with it on or off, and — with it
// on — across worker counts. This is the zero-virtual-cost guarantee the
// telemetry plane is built on.
TEST(FleetTest, TelemetryCollectionNeverPerturbsTheDigest) {
  FleetOptions opt = SmallFleet();
  opt.telemetry = false;
  FleetResult off = RunFleet(opt);
  EXPECT_EQ(off.telemetry.nodes_collected, 0);

  opt.telemetry = true;
  for (int workers : {1, 2, 8}) {
    opt.workers = workers;
    FleetResult on = RunFleet(opt);
    EXPECT_EQ(on.fleet_digest, off.fleet_digest) << workers << " workers";
    EXPECT_EQ(on.events_total, off.events_total) << workers << " workers";
    EXPECT_EQ(on.telemetry.nodes_collected, opt.instances) << workers << " workers";
    EXPECT_EQ(on.telemetry.jobs_completed, on.jobs_completed) << workers << " workers";
    EXPECT_GT(on.telemetry.response.count(), 0u) << workers << " workers";
    // The merged percentile tables are themselves deterministic.
    EXPECT_EQ(on.telemetry.response.PercentileBound(0.99),
              RunFleet(opt).telemetry.response.PercentileBound(0.99))
        << workers << " workers";
  }
}

// Different seeds must actually change the workloads.
TEST(FleetTest, SeedChangesTheFleet) {
  FleetOptions opt = SmallFleet();
  FleetResult a = RunFleet(opt);
  opt.seed = 43;
  FleetResult b = RunFleet(opt);
  EXPECT_NE(a.fleet_digest, b.fleet_digest);
}

// The acceptance bar: >= 1000 concurrent kernel instances in one process.
// A small trace ring bounds memory; the oracles are truncation-aware.
TEST(FleetTest, SustainsAThousandInstances) {
  FleetOptions opt;
  opt.instances = 1000;
  opt.workers = 8;
  opt.seed = 7;
  opt.run_duration = Milliseconds(5);
  opt.slice = Milliseconds(1);
  opt.trace_capacity = 2048;
  FleetResult result = RunFleet(opt);
  ASSERT_EQ(result.nodes.size(), 1000u);
  EXPECT_EQ(result.nodes_failed, 0) << [&] {
    for (const NodeResult& node : result.nodes) {
      if (!node.ok()) {
        return node.failure;
      }
    }
    return std::string();
  }();
  EXPECT_GT(result.events_total, 0u);
  for (const NodeResult& node : result.nodes) {
    EXPECT_GE(node.virtual_time, Milliseconds(5));
  }
}

// --- Streaming timeseries + alerting plane ---

void ExpectWindowsEqual(const std::vector<obs::TelemetryWindow>& a,
                        const std::vector<obs::TelemetryWindow>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << what << " window " << i;
    EXPECT_EQ(a[i].start, b[i].start) << what << " window " << i;
    EXPECT_EQ(a[i].end, b[i].end) << what << " window " << i;
    EXPECT_EQ(a[i].gap, b[i].gap) << what << " window " << i;
    EXPECT_EQ(a[i].samples, b[i].samples) << what << " window " << i;
    EXPECT_EQ(a[i].jobs_completed, b[i].jobs_completed) << what << " window " << i;
    EXPECT_EQ(a[i].deadline_misses, b[i].deadline_misses) << what << " window " << i;
    EXPECT_EQ(a[i].context_switches, b[i].context_switches) << what << " window " << i;
    EXPECT_EQ(a[i].chain_e2e_completed, b[i].chain_e2e_completed) << what << " window " << i;
    EXPECT_EQ(a[i].chain_e2e_overruns, b[i].chain_e2e_overruns) << what << " window " << i;
    EXPECT_EQ(a[i].response.count(), b[i].response.count()) << what << " window " << i;
    EXPECT_EQ(a[i].response.total(), b[i].response.total()) << what << " window " << i;
  }
}

void ExpectAlertsEqual(const std::vector<obs::AlertEvent>& a,
                       const std::vector<obs::AlertEvent>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << what << " event " << i;
  }
}

// The streaming plane drains snapshot rings at slice boundaries while the
// fleet runs — still a pure host-side read, so the digest must be
// bit-identical with it on or off, at any worker count.
TEST(FleetTest, StreamingCollectionNeverPerturbsTheDigest) {
  FleetOptions opt = SmallFleet();
  opt.timeseries = false;
  opt.alerts = false;
  FleetResult off = RunFleet(opt);
  EXPECT_TRUE(off.windows.empty());
  EXPECT_TRUE(off.alerts.empty());

  opt.timeseries = true;
  opt.alerts = true;
  for (int workers : {1, 2, 8}) {
    opt.workers = workers;
    FleetResult on = RunFleet(opt);
    EXPECT_EQ(on.fleet_digest, off.fleet_digest) << workers << " workers";
    EXPECT_EQ(on.events_total, off.events_total) << workers << " workers";
    ASSERT_FALSE(on.windows.empty()) << workers << " workers";
    EXPECT_EQ(on.timeseries_lost_samples, 0u) << workers << " workers";
    // Fleet-level telescoping: the merged window deltas reproduce the run
    // totals exactly.
    uint64_t jobs = 0;
    uint64_t misses = 0;
    for (const obs::TelemetryWindow& w : on.windows) {
      jobs += w.jobs_completed;
      misses += w.deadline_misses;
    }
    EXPECT_EQ(jobs, on.jobs_completed) << workers << " workers";
    EXPECT_EQ(misses, on.deadline_misses) << workers << " workers";
  }
}

// The alert stream and window series are exact functions of the simulated
// outcome: bit-identical across worker counts and repeat runs.
TEST(FleetTest, WindowSeriesAndAlertStreamAreBitIdentical) {
  FleetOptions opt = SmallFleet();
  opt.overload_node = 3;  // give the stream something to say
  opt.overload_factor = 8;
  FleetResult first = RunFleet(opt);
  FleetResult repeat = RunFleet(opt);
  ExpectWindowsEqual(first.windows, repeat.windows, "repeat");
  ExpectAlertsEqual(first.alerts, repeat.alerts, "repeat");

  for (int workers : {1, 8}) {
    opt.workers = workers;
    FleetResult other = RunFleet(opt);
    ExpectWindowsEqual(first.windows, other.windows, "workers");
    ExpectAlertsEqual(first.alerts, other.alerts, "workers");
    for (size_t i = 0; i < first.nodes.size(); ++i) {
      ExpectAlertsEqual(first.nodes[i].alerts, other.nodes[i].alerts, "node alerts");
    }
  }
}

// A healthy fleet fires nothing: zero deadline misses means the miss-burn
// rule (the sensitive one) has no fuel, and the chain-burn budget is set
// wide of the normal overrun share.
TEST(FleetTest, QuietFleetFiresNoAlerts) {
  FleetResult result = RunFleet(SmallFleet());
  EXPECT_EQ(result.deadline_misses, 0u);
  EXPECT_EQ(result.alerts_fired, 0u);
  EXPECT_TRUE(result.alerts.empty());
}

// The acceptance scenario: one overloaded node must push the miss-burn rule
// over within a bounded number of windows, be flagged anomalous for it, and
// get a black-box bundle.
TEST(FleetTest, OverloadedNodeFiresMissBurnAndGetsBlackBoxed) {
  std::string dir = testing::TempDir() + "emeralds_alerts_test";
  std::filesystem::remove_all(dir);
  FleetOptions opt = SmallFleet();
  opt.overload_node = 3;
  opt.overload_factor = 8;
  opt.artifacts_dir = dir;
  opt.max_blackboxes = 2;
  FleetResult result = RunFleet(opt);

  bool miss_burn_fired = false;
  int64_t first_window = -1;
  for (const obs::AlertEvent& e : result.alerts) {
    if (e.rule == obs::AlertRuleKind::kDeadlineMissBurn && e.firing) {
      EXPECT_EQ(e.node, 3);  // only the sick node burns
      if (!miss_burn_fired) {
        first_window = e.window;
      }
      miss_burn_fired = true;
    }
  }
  ASSERT_TRUE(miss_burn_fired);
  // Bounded detection latency: the burn must be caught within the first
  // fast+slow history, not eventually. 50 ms run / 10 ms windows = 5.
  EXPECT_LE(first_window, 4);
  EXPECT_GT(result.alerts_fired, 0u);

  // Alert -> anomaly -> black box: the firing alert marks the node
  // anomalous, which routes it into the flight recorder.
  EXPECT_TRUE(result.nodes[3].anomalous());
  bool boxed = false;
  for (int node : result.blackbox_nodes) {
    boxed = boxed || node == 3;
  }
  EXPECT_TRUE(boxed);
  std::filesystem::remove_all(dir);
}

// Drill-down must reproduce the streaming plane exactly: InspectNode
// replays the slice schedule, so its windows and node-local alerts are
// bit-identical to what the fleet run recorded for that node.
TEST(FleetTest, InspectNodeReproducesWindowsAndAlerts) {
  FleetOptions opt = SmallFleet();
  opt.overload_node = 5;
  opt.overload_factor = 8;
  FleetResult fleet = RunFleet(opt);
  for (int index : {0, 5}) {
    NodeResult replay = InspectNode(opt, index, nullptr);
    ExpectWindowsEqual(fleet.nodes[index].windows, replay.windows, "inspect windows");
    ExpectAlertsEqual(fleet.nodes[index].alerts, replay.alerts, "inspect alerts");
  }
}

// --- OpenMetrics exposition ---

TEST(OpenMetricsTest, ExpositionRoundTripsTheValidator) {
  FleetOptions opt = SmallFleet();
  opt.overload_node = 3;  // non-trivial alert state in the exposition
  opt.overload_factor = 8;
  FleetResult result = RunFleet(opt);
  std::string text = BuildOpenMetricsExposition(result);
  std::string error;
  int families = 0;
  EXPECT_TRUE(ValidateOpenMetrics(text, &error, &families)) << error;
  EXPECT_GT(families, 10);
  EXPECT_NE(text.find("# TYPE emeralds_jobs_completed counter"), std::string::npos);
  EXPECT_NE(text.find("emeralds_response_us_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(text.find("emeralds_alert_events_total{rule=\"deadline_miss_burn\"}"),
            std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST(OpenMetricsTest, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(ValidateOpenMetrics("emeralds_x 1\n# EOF\n", &error));  // no TYPE
  EXPECT_NE(error.find("no TYPE"), std::string::npos);
  EXPECT_FALSE(ValidateOpenMetrics("# TYPE a gauge\na 1\n", &error));  // no EOF
  EXPECT_NE(error.find("EOF"), std::string::npos);
  EXPECT_FALSE(ValidateOpenMetrics("# TYPE a gauge\na 1\n# EOF\nx 2\n", &error));
  EXPECT_FALSE(ValidateOpenMetrics(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n# EOF\n", &error));
  EXPECT_NE(error.find("+Inf"), std::string::npos);
  EXPECT_TRUE(ValidateOpenMetrics(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 4\n# EOF\n", &error))
      << error;
}

TEST(FleetReportTest, ReportCarriesSchemaAndGatedFields) {
  FleetOptions opt = SmallFleet();
  FleetResult result = RunFleet(opt);
  FleetRunInfo info;
  info.label = "fleet_test";
  info.run_duration = opt.run_duration;
  info.slice = opt.slice;
  std::string report = BuildFleetRunReport(info, result);
  EXPECT_NE(report.find("\"schema\":\"emeralds.fleet.run/1\""), std::string::npos);
  EXPECT_NE(report.find("\"events_per_virtual_sec\":"), std::string::npos);
  EXPECT_NE(report.find("\"fleet_digest\":\"0x"), std::string::npos);
  EXPECT_NE(report.find("\"nodes_failed\":0"), std::string::npos);
  EXPECT_NE(report.find("\"schedulers\":{"), std::string::npos);
  EXPECT_NE(report.find("\"timeseries\":{"), std::string::npos);
  EXPECT_NE(report.find("\"schema\":\"emeralds.obs.timeseries/1\""), std::string::npos);
  EXPECT_NE(report.find("\"alerts\":{"), std::string::npos);
  EXPECT_EQ(report.find("\"first_failure\""), std::string::npos);
  EXPECT_EQ(report.find("\"timers\""), std::string::npos);
}

// The three-argument form, whose third argument once carried an optional
// timer microbenchmark section, still builds with `{}` and renders exactly
// the two-argument report: no timers section.
TEST(FleetReportTest, TimersSectionIsOptional) {
  FleetOptions opt = SmallFleet();
  opt.instances = 4;
  FleetResult result = RunFleet(opt);
  FleetRunInfo info;
  info.label = "no_timers";
  info.run_duration = opt.run_duration;
  info.slice = opt.slice;
  std::string report = BuildFleetRunReport(info, result, {});
  EXPECT_EQ(report.find("\"timers\""), std::string::npos);
  EXPECT_EQ(report, BuildFleetRunReport(info, result));
}

}  // namespace
}  // namespace fleet
}  // namespace emeralds
