// The fleet run report: schema "emeralds.fleet.run/1".
//
// One JSON document per fleet run: the configuration (instances, workers,
// seed), the deterministic aggregates (events, jobs, misses, chain SLO
// outcomes, the fleet digest), the machine-independent throughput rate
// (events per simulated second — the number bench_compare gates), the
// informational wall-clock rate and host evaluation cost (never gated), and
// the telemetry, timeseries, alerts, postmortem and triage sections.
// bench_json_check validates the schema; BENCH_fleet.json is the committed
// baseline.

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
