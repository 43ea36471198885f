// The fleet run report: schema "emeralds.fleet.run/1".
//
// One JSON document per fleet run: the configuration (instances, workers,
// seed), the deterministic aggregates (events, jobs, misses, chain SLO
// outcomes, the fleet digest), the machine-independent throughput rate
// (events per simulated second — the number bench_compare gates) and the
// informational wall-clock rate (never gated). bench_json_check validates
// the schema; BENCH_fleet.json is the committed baseline.

#ifndef SRC_FLEET_FLEET_REPORT_H_
#define SRC_FLEET_FLEET_REPORT_H_

#include <string>

#include "src/fleet/fleet.h"

namespace emeralds {
namespace fleet {

inline constexpr const char* kFleetRunSchema = "emeralds.fleet.run/1";

struct FleetRunInfo {
  std::string label;  // e.g. "fleet_baseline"
  Duration run_duration;
  Duration slice;
  // Echoed so fleet_inspect can rebuild the exact FleetOptions from the
  // report alone (0 = the kernel's retain-everything default).
  size_t trace_capacity = 0;
  // Host-side telemetry-collection overhead, measured by bench_fleet as the
  // events/wall-sec rate with collection on vs off. Informational (wall
  // clock is never gated); the section is omitted when either is zero.
  double telemetry_on_events_per_wall_sec = 0.0;
  double telemetry_off_events_per_wall_sec = 0.0;
  // Streaming-collection overhead: rate with the streaming timeseries +
  // alert plane on vs telemetry-only. bench_compare gates the *ratio*
  // against the committed baseline (a ratio is host-speed-independent);
  // the section is omitted when either is zero.
  double streaming_on_events_per_wall_sec = 0.0;
  double streaming_off_events_per_wall_sec = 0.0;
};

// Renders the full report.
std::string BuildFleetRunReport(const FleetRunInfo& info, const FleetResult& result);

// The report once took a third argument carrying a timer microbenchmark
// section; that section is gone. Callers still passing `{}` build against
// this overload, which ignores it and renders the same report.
struct NoTimerSection {};
inline std::string BuildFleetRunReport(const FleetRunInfo& info, const FleetResult& result,
                                       NoTimerSection) {
  return BuildFleetRunReport(info, result);
}

bool WriteFleetRunReportFile(const std::string& path, const FleetRunInfo& info,
                             const FleetResult& result);

}  // namespace fleet
}  // namespace emeralds

#endif  // SRC_FLEET_FLEET_REPORT_H_
