#include "src/fleet/fleet.h"

#include <algorithm>
#include <array>
#include <filesystem>

#include <gtest/gtest.h>

#include "src/core/kernel.h"
#include "src/fleet/fleet_report.h"
#include "src/fleet/openmetrics.h"
#include "src/hal/trace.h"

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
// Every run carries the telemetry and streaming planes, so this also pins
// them: the merged telemetry covers every node and job with deterministic
// percentile tables, and the merged window series loses no samples and
// telescopes exactly to the run totals.
TEST(FleetTest, DigestIsStableAcrossRunsAndWorkerCounts) {
  FleetOptions opt = SmallFleet();
  FleetResult first = RunFleet(opt);
  FleetResult second = RunFleet(opt);
  EXPECT_EQ(first.fleet_digest, second.fleet_digest);
  EXPECT_EQ(first.events_total, second.events_total);
  EXPECT_EQ(second.blame_digest, first.blame_digest);

  for (int workers : {1, 2, 8}) {
    opt.workers = workers;
    FleetResult r = RunFleet(opt);
    EXPECT_EQ(r.fleet_digest, first.fleet_digest) << workers << " workers";
    EXPECT_EQ(r.events_total, first.events_total) << workers << " workers";
    for (size_t i = 0; i < first.nodes.size(); ++i) {
      EXPECT_EQ(r.nodes[i].trace_digest, first.nodes[i].trace_digest)
          << workers << " workers, node " << i;
    }
    // The merged blame ledger carries the same contract: node ledgers merge
    // in node-index order.
    EXPECT_EQ(r.blame_digest, first.blame_digest) << workers << " workers";
    EXPECT_EQ(r.blame.misses_analyzed, first.blame.misses_analyzed) << workers << " workers";
    EXPECT_EQ(r.blame.tardiness_ns, first.blame.tardiness_ns) << workers << " workers";

    EXPECT_EQ(r.telemetry.nodes_collected, opt.instances) << workers << " workers";
    EXPECT_EQ(r.telemetry.jobs_completed, r.jobs_completed) << workers << " workers";
    EXPECT_GT(r.telemetry.response.count(), 0u) << workers << " workers";
    EXPECT_EQ(r.telemetry.response.PercentileBound(0.99),
              first.telemetry.response.PercentileBound(0.99))
        << workers << " workers";

    ASSERT_FALSE(r.windows.empty()) << workers << " workers";
    EXPECT_EQ(r.timeseries_lost_samples, 0u) << workers << " workers";
    uint64_t jobs = 0;
    uint64_t misses = 0;
    for (const obs::TelemetryWindow& w : r.windows) {
      jobs += w.jobs_completed;
      misses += w.deadline_misses;
    }
    EXPECT_EQ(jobs, r.jobs_completed) << workers << " workers";
    EXPECT_EQ(misses, r.deadline_misses) << workers << " workers";
  }
}

// Pins an overloaded fleet's outcome: the fleet digest and a non-empty
// blame ledger. A host-side rewrite of the trace replays must leave every
// value unchanged. A change of the digest's encoding (FoldTraceEvent,
// FoldKernelCounters, the fleet combine) moves fleet_digest alone; re-pin
// it only after showing, with old and new folds computed side by side,
// that the old -> new map of node digests is one-to-one. blame_digest
// stays on FNV-1a and must never move.
TEST(FleetTest, OverloadedFleetMatchesGolden) {
  FleetOptions opt;
  opt.instances = 16;
  opt.workers = 4;
  opt.seed = 11;
  opt.run_duration = Milliseconds(200);
  opt.overload_node = 6;
  opt.overload_factor = 8;
  FleetResult result = RunFleet(opt);
  EXPECT_EQ(result.nodes_failed, 0);
  EXPECT_GT(result.blame.misses_analyzed, 0u);
  EXPECT_EQ(result.fleet_digest, 0x0085744b71739dc2ULL);
  EXPECT_EQ(result.blame_digest, 0xb823deafe9c443d9ULL);
  EXPECT_EQ(result.deadline_misses, 86u);
  EXPECT_EQ(result.chain_completed, 6161u);
  EXPECT_EQ(result.chain_overruns, 564u);
}

// Evaluation cost is the one host-side measurement in a node's result: it is
// filled for every node, summed for the fleet and reported, and no digest
// sees it.
TEST(FleetTest, EvaluationCostIsMeasuredButNeverDigested) {
  FleetOptions opt = SmallFleet();
  FleetResult a = RunFleet(opt);
  int64_t total = 0;
  int64_t max = 0;
  for (const NodeResult& node : a.nodes) {
    EXPECT_GT(node.host_evaluate_ns, 0);
    total += node.host_evaluate_ns;
    max = std::max(max, node.host_evaluate_ns);
  }
  EXPECT_EQ(a.host_evaluate_ns_total, total);
  EXPECT_EQ(a.host_evaluate_ns_max, max);
  ASSERT_GE(a.host_evaluate_slowest_node, 0);
  EXPECT_EQ(a.nodes[static_cast<size_t>(a.host_evaluate_slowest_node)].host_evaluate_ns, max);
  FleetRunInfo info;
  info.label = "evaluate_cost";
  std::string report = BuildFleetRunReport(info, a);
  char field[64];
  std::snprintf(field, sizeof(field), "\"host_evaluate\":{\"cpu_ns_total\":%lld,",
                static_cast<long long>(total));
  EXPECT_NE(report.find(field), std::string::npos) << field;

  // The same fleet on other host timings: bit-identical digests.
  opt.workers = 1;
  FleetResult b = RunFleet(opt);
  EXPECT_EQ(b.fleet_digest, a.fleet_digest);
  EXPECT_EQ(b.blame_digest, a.blame_digest);
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
// Each node holds one slice of trace at a time, and every oracle checks its
// whole run.
TEST(FleetTest, SustainsAThousandInstances) {
  FleetOptions opt;
  opt.instances = 1000;
  opt.workers = 8;
  opt.seed = 7;
  opt.run_duration = Milliseconds(5);
  opt.slice = Milliseconds(1);
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

// A fleet node streams its trace: it holds one slice of records at a time
// and drops none. A 50 ms node of ten 5 ms slices keeps under a quarter of
// the storage its whole run needs, which InspectNode still holds.
TEST(FleetTest, NodesKeepOneSliceOfTraceAndDropNothing) {
  FleetOptions opt = SmallFleet();
  FleetResult result = RunFleet(opt);
  size_t largest = 0;
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    const NodeResult& node = result.nodes[i];
    EXPECT_EQ(node.trace_dropped, 0u) << "node " << i;
    EXPECT_GT(node.trace_storage_bytes, 0u) << "node " << i;
    NodeResult inspected =
        InspectNode(opt, static_cast<int>(i), [&](const Kernel& kernel, const NodeResult&) {
          EXPECT_EQ(kernel.trace().dropped(), 0u) << "node " << i;
          EXPECT_EQ(kernel.trace().size(), kernel.trace().total_recorded()) << "node " << i;
        });
    EXPECT_EQ(inspected.trace_digest, node.trace_digest) << "node " << i;
    EXPECT_LE(node.trace_storage_bytes * 4, inspected.trace_storage_bytes) << "node " << i;
    largest = std::max(largest, node.trace_storage_bytes);
  }
  EXPECT_EQ(result.trace_storage_bytes_max, largest);
  ASSERT_GE(result.trace_storage_bytes_worst_node, 0);
  EXPECT_EQ(result.nodes[static_cast<size_t>(result.trace_storage_bytes_worst_node)]
                .trace_storage_bytes,
            largest);
}

// A node's record mix counts every record it made by type: the fleet's
// slice-by-slice count equals a direct count over InspectNode's whole
// window, and the fleet's mix is the sum of its nodes'.
TEST(FleetTest, RecordMixCountsEveryRecordOfTheNode) {
  FleetOptions opt = SmallFleet();
  FleetResult result = RunFleet(opt);
  std::array<uint64_t, kNumTraceEventTypes> sum{};
  for (const NodeResult& node : result.nodes) {
    for (size_t t = 0; t < sum.size(); ++t) {
      sum[t] += node.records_by_type[t];
    }
  }
  EXPECT_EQ(result.records_by_type, sum);
  for (int index : {0, 3}) {
    const NodeResult& streamed = result.nodes[static_cast<size_t>(index)];
    InspectNode(opt, index, [&](const Kernel& kernel, const NodeResult& inspected) {
      std::array<uint64_t, kNumTraceEventTypes> direct{};
      for (const TraceEvent& e : kernel.trace().events()) {
        ++direct[static_cast<size_t>(e.type)];
      }
      EXPECT_EQ(streamed.records_by_type, direct) << "node " << index;
      EXPECT_EQ(inspected.records_by_type, direct) << "node " << index;
      uint64_t total = 0;
      for (uint64_t count : direct) {
        total += count;
      }
      EXPECT_EQ(total, kernel.trace().total_recorded()) << "node " << index;
      EXPECT_GT(direct[static_cast<size_t>(TraceEventType::kOverheadSpan)], 0u);
    });
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
  char storage[96];
  std::snprintf(storage, sizeof(storage),
                "\"storage_bytes_max\":%zu,\"storage_bytes_worst_node\":%d",
                result.trace_storage_bytes_max, result.trace_storage_bytes_worst_node);
  EXPECT_NE(report.find(storage), std::string::npos) << storage;
  char mix[96];
  std::snprintf(mix, sizeof(mix), "\"records_by_type\":{\"context_switch\":%llu,",
                static_cast<unsigned long long>(result.records_by_type[0]));
  EXPECT_NE(report.find(mix), std::string::npos) << mix;
  EXPECT_NE(report.find("\"thread_ready\":"), std::string::npos);
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
