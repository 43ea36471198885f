// The observability run report: schema "emeralds.obs.run/1".
//
// One JSON document per run tying the three observability sources together:
// the kernel's own KernelStats counters, the per-task rows from
// CollectPerTaskStats, the trace-derived TraceAnalysis (histograms, invariant
// violations), the periodic StatsSampler time series, and a reconciliation
// block stating whether the analyzer's replay agrees with the kernel's
// counters. bench_json_check validates the schema; trace_inspect consumes the
// report to cross-check an exported trace against it.

#ifndef SRC_OBS_OBS_REPORT_H_
#define SRC_OBS_OBS_REPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/taskset_runner.h"
#include "src/obs/trace_analyzer.h"

namespace emeralds {

class Kernel;

namespace obs {

inline constexpr const char* kObsRunSchema = "emeralds.obs.run/1";

struct ObsRunInfo {
  std::string label;      // e.g. "fig2_rm"
  std::string scheduler;  // e.g. "RM", "EDF", "CSD"
  Duration run_duration;  // simulated time covered by the run
};

// Replay-vs-kernel agreement: does the analyzer's replay of the trace arrive
// at the same counters the kernel incremented live? Only meaningful for an
// untruncated trace — a suffix window legitimately undercounts — so `checked`
// records whether the equalities were actually enforced. The torture harness
// uses this as its second oracle (the first is zero invariant violations).
struct Reconciliation {
  bool checked = false;
  bool context_switches_match = true;
  bool deadline_misses_match = true;
  bool jobs_completed_match = true;
  bool cse_early_pi_match = true;
  bool msg_sends_match = true;
  bool msg_recvs_match = true;
  bool pi_chain_limit_match = true;
  bool headroom_low_match = true;
  bool chain_events_match = true;  // analyzer's chain emit/consume counts vs kernel's

  bool ok() const {
    return context_switches_match && deadline_misses_match && jobs_completed_match &&
           cse_early_pi_match && msg_sends_match && msg_recvs_match && pi_chain_limit_match &&
           headroom_low_match && chain_events_match;
  }
};

Reconciliation ComputeReconciliation(const TraceAnalysis& analysis, const KernelStats& stats);

// Folds the run's kernel counters onto `window_digest`, the digest of its
// trace (TraceEvaluation::window_digest), one FoldWord step per counter.
// Equal results mean bit-identical runs. It is the one counter fold: a
// fleet node's digest, a torture run's, and the digest the cycle and SMP
// benches report per run.
uint64_t FoldKernelCounters(uint64_t window_digest, const KernelStats& stats);

// Renders the full report as a JSON string. `task_ids` selects the taskset
// threads for the per-task rows (pass {} to skip them). The trace analysis is
// recomputed here from the kernel's retained trace window.
std::string BuildObsRunReport(const ObsRunInfo& info, const Kernel& kernel,
                              const std::vector<ThreadId>& task_ids);

// Same, written to an open stream / a path. The path variant returns false
// when the file cannot be created.
void WriteObsRunReport(std::FILE* out, const ObsRunInfo& info, const Kernel& kernel,
                       const std::vector<ThreadId>& task_ids);
bool WriteObsRunReportFile(const std::string& path, const ObsRunInfo& info,
                           const Kernel& kernel, const std::vector<ThreadId>& task_ids);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_OBS_REPORT_H_
