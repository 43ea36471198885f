// Validates the JSON reports the repo's CI gates on, dispatching on the
// schema tag (the bench_json_check CLI is a thin wrapper over this library):
//   emeralds.bench.breakdown/1 — perf trajectory (bench_smoke label)
//   emeralds.obs.run/1         — observability run report (obs_smoke label)
//   emeralds.obs.cycles/1      — cycle-attribution ledger report
//   emeralds.obs.chains/1      — causal event-chain report (chains_smoke label)
//   emeralds.fuzz.torture/1    — torture-harness sweep report
//   emeralds.fleet.run/1       — fleet simulation report (fleet_smoke label),
//                                embedding emeralds.fleet.telemetry/1 as
//                                "telemetry" and emeralds.obs.timeseries/1 as
//                                "timeseries" (no program writes either alone)
//   emeralds.obs.blackbox/1    — black-box flight-recorder bundle report
//   emeralds.bench.smp/1       — partitioned-SMP throughput/admission report
//   emeralds.obs.postmortem/1  — deadline-miss lateness-attribution report
//                                (postmortem_smoke label; also embedded in
//                                obs.run and the black box as "postmortem")
//
// One shape table lists, per schema, the members a report must carry and
// their kinds: numbers, non-negative integer counts, bools, strings (exact
// for a schema tag), digests, objects, arrays (non-empty where required) and
// six-key latency histograms. The sections several schemas embed (cycles,
// chains, postmortem, telemetry, timeseries, alerts) are written once and
// mounted where they appear. One walker enforces the table and names the
// first failing path ("telemetry.chains[0].hops[0].queue.p99_us is
// missing").
//
// The semantic gates then run on members the table guarantees: conserved
// flags with zero residual and zero unattributed time, bucket sums equal to
// elapsed time, empty violation lists, no orphan hops and no unattributed
// lateness on a complete window, torture's per-run oracles and its rule that
// only --tiny-ring runs may drop trace records, telemetry totals equal to
// the report totals, the window grid, telescoping sums and gap count, alert
// order and fired count, zero failed fleet nodes, exactly one record count
// per event type, the SMP 1.7x floor with zero per-core residuals and
// admission that never falls with more cores, and zero reference
// mismatches. A black box is forensic, so it is checked for shape only.

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
