// The fleet benchmark behind BENCH_fleet.json.
//
// Runs the standard fleet configuration (64 nodes, 100 ms of virtual time
// each) across the host thread pool twice. Both runs must produce the same
// fleet digest: a run that changes with host scheduling would poison every
// baseline after it. Then one emeralds.fleet.run/1 report of the second
// run. With $EMERALDS_FLEET_ARTIFACTS set, anomalous nodes additionally
// drop black-box bundles there; with $EMERALDS_OPENMETRICS set, the
// validated OpenMetrics text exposition of the final run is written there.
// CI (the fleet_smoke label) validates the report with bench_json_check and
// gates it against the committed BENCH_fleet.json baseline with
// bench_compare: the deterministic aggregate rates are held to 3%, the
// largest node's trace storage may grow at most 3%, and the fleet digest
// and the trace record mix by event type must match exactly. Wall-clock
// throughput is reported but never gated.
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

  fleet::FleetResult first = fleet::RunFleet(opt);
  if (const char* artifacts = std::getenv("EMERALDS_FLEET_ARTIFACTS")) {
    opt.artifacts_dir = artifacts;
  }
  fleet::FleetResult result = fleet::RunFleet(opt);
  std::printf("fleet: %llu events in %.3f s wall (%.0f events/s wall, %.0f events/s virtual), "
              "%d/%d nodes failed\n",
              static_cast<unsigned long long>(result.events_total), result.wall_seconds,
              result.events_per_wall_sec, result.events_per_virtual_sec, result.nodes_failed,
              result.instances);
  std::printf("alerts: %llu events, %llu fired\n",
              static_cast<unsigned long long>(result.alerts.size()),
              static_cast<unsigned long long>(result.alerts_fired));
  if (first.fleet_digest != result.fleet_digest) {
    std::fprintf(stderr, "FAIL: repeat run changed the fleet digest (0x%016llx vs 0x%016llx)\n",
                 static_cast<unsigned long long>(first.fleet_digest),
                 static_cast<unsigned long long>(result.fleet_digest));
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
