// The cycle-attribution report: schema "emeralds.obs.cycles/1".
//
// JSON export of the kernel's virtual-cycle ledger: per-bucket totals,
// per-band scheduler splits (the runtime Figure 3-5 breakdown), per-task
// ledgers with the deadline-headroom monitor's outputs, the conservation
// check (bucket sum == elapsed virtual time, exact to the tick), and the
// run's digest (trace window digest folded with the kernel counters, which
// bench_compare requires to match exactly). All cycle
// values are emitted as integer nanoseconds so exactness survives the JSON
// round trip — this is the document bench_compare gates CI on
// (BENCH_cycles.json), and the same section is embedded in the
// emeralds.obs.run/1 report.

#ifndef SRC_OBS_CYCLES_REPORT_H_
#define SRC_OBS_CYCLES_REPORT_H_

#include <string>
#include <vector>

#include "src/core/ids.h"

namespace emeralds {

class Kernel;

namespace obs {

class Json;

inline constexpr const char* kObsCyclesSchema = "emeralds.obs.cycles/1";

// Emits `"cycles": { ... }` into an open object: buckets_ns, sched_bands,
// the stats-window conservation verdict, and the clock's own cumulative
// cross-check (conservation by construction).
void AppendCyclesSection(Json& j, const Kernel& kernel);

// Standalone document. `task_ids` selects the per-task ledger rows (pass {}
// to skip them).
std::string BuildCyclesReport(const std::string& label, const std::string& scheduler,
                              const Kernel& kernel, const std::vector<ThreadId>& task_ids);

bool WriteCyclesReportFile(const std::string& path, const std::string& label,
                           const std::string& scheduler, const Kernel& kernel,
                           const std::vector<ThreadId>& task_ids);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_CYCLES_REPORT_H_
