// The fleet benchmark behind BENCH_fleet.json.
//
// Runs the standard fleet configuration (64 nodes, 100 ms of virtual time
// each) across the host thread pool in three configurations: everything
// off, telemetry-only, and telemetry + the streaming timeseries / alert
// plane. All digests must be bit-identical
// (observation that perturbs the run would poison every baseline after
// it); each configuration is timed best-of-3 and the wall-rate pairs price
// telemetry overhead and streaming overhead. Both ratios are informational:
// the runs last a few tens of milliseconds, so the ratios mostly measure
// host noise.
// Then one emeralds.fleet.run/1 report. With $EMERALDS_FLEET_ARTIFACTS set,
// anomalous nodes additionally drop black-box bundles there; with
// $EMERALDS_OPENMETRICS set, the validated OpenMetrics text exposition of
// the final run is written there. CI (the fleet_smoke label) validates the
// report with bench_json_check and gates it against the committed
// BENCH_fleet.json baseline with bench_compare: the deterministic aggregate
// rates are held to 3%, the largest node's trace storage may grow at most
// 3%, and the fleet digest must match exactly. Wall-clock throughput is
// reported but never gated.
//
// Output: $EMERALDS_BENCH_JSON (default BENCH_fleet.json in the working
// directory). Exit status is nonzero when a node fails its oracles, so the
// bench is its own first gate.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/fleet/fleet.h"
#include "src/fleet/fleet_report.h"
#include "src/fleet/openmetrics.h"

namespace emeralds {
namespace {

int Run() {
  fleet::FleetOptions opt;
  opt.instances = 64;
  opt.workers = 0;  // one per host core
  opt.seed = 1;
  opt.run_duration = Milliseconds(100);
  opt.slice = Milliseconds(5);

  std::printf("fleet: %d nodes x %lld ms\n", opt.instances,
              static_cast<long long>(opt.run_duration.millis()));

  // Three configurations, most instrumented last: (A) everything off prices
  // raw simulation, (B) telemetry-only prices snapshot collection, (C)
  // telemetry plus the streaming timeseries/alert plane is the run the
  // report describes. The A==B==C digest equality is a hard gate, not a
  // report note — observation that perturbs the run would poison every
  // baseline after it. Each configuration runs kReps times and the overhead
  // ratios use the best wall rate per side: a short parallel run's wall
  // clock is dominated by scheduler/frequency noise, and best-of-N is the
  // standard way to price the code instead of the host's mood. Repeat runs
  // must also agree on the digest (free determinism coverage).
  constexpr int kReps = 3;
  bool digests_stable = true;
  auto measure = [&digests_stable](const fleet::FleetOptions& o, double* best_rate) {
    fleet::FleetResult last;
    for (int i = 0; i < kReps; ++i) {
      fleet::FleetResult r = fleet::RunFleet(o);
      if (i > 0 && r.fleet_digest != last.fleet_digest) {
        digests_stable = false;
      }
      if (r.events_per_wall_sec > *best_rate) {
        *best_rate = r.events_per_wall_sec;
      }
      last = std::move(r);
    }
    return last;
  };

  fleet::FleetOptions off = opt;
  off.telemetry = false;
  off.timeseries = false;
  off.alerts = false;
  double control_rate = 0.0;
  fleet::FleetResult control = measure(off, &control_rate);

  fleet::FleetOptions telemetry_only = opt;
  telemetry_only.timeseries = false;
  telemetry_only.alerts = false;
  double midpoint_rate = 0.0;
  fleet::FleetResult midpoint = measure(telemetry_only, &midpoint_rate);

  if (const char* artifacts = std::getenv("EMERALDS_FLEET_ARTIFACTS")) {
    opt.artifacts_dir = artifacts;
  }
  double result_rate = 0.0;
  fleet::FleetResult result = measure(opt, &result_rate);
  std::printf("fleet: %llu events in %.3f s wall (%.0f events/s wall, %.0f events/s virtual), "
              "%d/%d nodes failed\n",
              static_cast<unsigned long long>(result.events_total), result.wall_seconds,
              result.events_per_wall_sec, result.events_per_virtual_sec, result.nodes_failed,
              result.instances);
  std::printf("telemetry overhead: on %.0f events/s wall vs off %.0f (ratio %.3f, best of %d)\n",
              midpoint_rate, control_rate,
              control_rate > 0 ? midpoint_rate / control_rate : 0.0, kReps);
  std::printf("streaming overhead: on %.0f events/s wall vs off %.0f (ratio %.3f, best of %d)\n",
              result_rate, midpoint_rate,
              midpoint_rate > 0 ? result_rate / midpoint_rate : 0.0, kReps);
  std::printf("alerts: %llu events, %llu fired\n",
              static_cast<unsigned long long>(result.alerts.size()),
              static_cast<unsigned long long>(result.alerts_fired));
  if (control.fleet_digest != result.fleet_digest ||
      midpoint.fleet_digest != result.fleet_digest || !digests_stable) {
    std::fprintf(stderr,
                 "FAIL: observation changed the fleet digest "
                 "(off 0x%016llx, telemetry 0x%016llx, streaming 0x%016llx, repeats %s)\n",
                 static_cast<unsigned long long>(control.fleet_digest),
                 static_cast<unsigned long long>(midpoint.fleet_digest),
                 static_cast<unsigned long long>(result.fleet_digest),
                 digests_stable ? "stable" : "UNSTABLE");
    return 1;
  }
  for (const fleet::NodeResult& node : result.nodes) {
    if (!node.ok()) {
      std::fprintf(stderr, "FAIL: node (%s) %s\n", node.scheduler.c_str(),
                   node.failure.c_str());
    }
  }
  if (!result.blackbox_nodes.empty()) {
    std::printf("black boxes: %zu bundle(s) under %s\n", result.blackbox_nodes.size(),
                result.artifacts_dir.c_str());
  }

  fleet::FleetRunInfo info;
  info.label = "fleet_baseline";
  info.run_duration = opt.run_duration;
  info.slice = opt.slice;
  info.trace_capacity = opt.trace_capacity;
  info.telemetry_on_events_per_wall_sec = midpoint_rate;
  info.telemetry_off_events_per_wall_sec = control_rate;
  info.streaming_on_events_per_wall_sec = result_rate;
  info.streaming_off_events_per_wall_sec = midpoint_rate;
  const char* env = std::getenv("EMERALDS_BENCH_JSON");
  std::string path = env != nullptr ? env : "BENCH_fleet.json";
  if (!fleet::WriteFleetRunReportFile(path, info, result)) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());

  if (const char* om_path = std::getenv("EMERALDS_OPENMETRICS")) {
    std::string exposition = fleet::BuildOpenMetricsExposition(result);
    std::string om_error;
    if (!fleet::ValidateOpenMetrics(exposition, &om_error)) {
      std::fprintf(stderr, "FAIL: OpenMetrics exposition invalid: %s\n", om_error.c_str());
      return 1;
    }
    std::FILE* om = std::fopen(om_path, "w");
    if (om == nullptr) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", om_path);
      return 1;
    }
    std::fwrite(exposition.data(), 1, exposition.size(), om);
    std::fclose(om);
    std::printf("wrote %s (OpenMetrics)\n", om_path);
  }

  return result.nodes_failed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace emeralds

int main() { return emeralds::Run(); }
