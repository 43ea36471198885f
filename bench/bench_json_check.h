// Validates the JSON reports the repo's CI gates on, dispatching on the
// schema tag (the bench_json_check CLI is a thin wrapper over this library):
//   emeralds.bench.breakdown/1 — perf trajectory (bench_smoke label)
//   emeralds.obs.run/1         — observability run report (obs_smoke label)
//   emeralds.obs.cycles/1      — cycle-attribution ledger report
//   emeralds.obs.chains/1      — causal event-chain report (chains_smoke label)
//   emeralds.fuzz.torture/1    — torture-harness sweep report
//   emeralds.fleet.run/1       — fleet simulation report (fleet_smoke label)
//   emeralds.obs.timeseries/1  — streaming telemetry window series (also
//                                embedded in fleet.run as "timeseries")
//   emeralds.obs.blackbox/1    — black-box flight-recorder bundle report
//   emeralds.bench.smp/1       — partitioned-SMP throughput/admission report
//   emeralds.obs.postmortem/1  — deadline-miss lateness-attribution report
//                                (postmortem_smoke label; also embedded in
//                                obs.run and fleet.run as "postmortem")
// For the obs, fuzz, and fleet schemas the check is substantive, not just
// structural: invariant-violation lists must be empty, reconciliation flags
// true, every torture run ok and, unless it ran --tiny-ring, evaluated over a
// trace that dropped nothing, and the cycle ledger conserved (bucket sum ==
// elapsed, residual exactly zero) — so a kernel whose trace disagrees with
// its own counters, whose ledger leaks time, or a failing fuzz seed fails CI.

#ifndef BENCH_BENCH_JSON_CHECK_H_
#define BENCH_BENCH_JSON_CHECK_H_

#include <string>

#include "src/base/json.h"

namespace emeralds {
namespace bench {

struct JsonCheckResult {
  bool ok = false;
  // The "OK: ..." line when every gate passed; otherwise the "FAIL: ..."
  // line(s) of the gate that rejected. Every line ends in a newline.
  std::string log;
};

// Checks one parsed report. `path` only names the report in the OK line.
JsonCheckResult CheckReport(const std::string& path, const JsonValue& root);

// File variant: reads and parses `path`, then checks it. A file that cannot
// be read or parsed fails.
JsonCheckResult CheckReportFile(const std::string& path);

}  // namespace bench
}  // namespace emeralds

#endif  // BENCH_BENCH_JSON_CHECK_H_
