// Perf-regression gate over the committed bench baselines.
//
//   bench_compare <baseline.json> <candidate.json>
//
// Compares a freshly produced report against the baseline committed at the
// repo root, dispatching on the schema tag. The tolerance is fixed: a gated
// metric may move at most 3%, and a cycle bucket at most 3% plus 20,000 ns.
//   emeralds.obs.cycles/1      — per-bucket cycle-attribution ledger
//     (BENCH_cycles.json). The run is pure virtual time, so its digest and
//     elapsed_ns must match exactly and every kernel-overhead bucket may
//     grow at most the tolerance (the absolute slack keeps near-zero
//     buckets from tripping on one extra operation).
//     The user and idle buckets are excluded: user time is the workload's,
//     and idle is the complement that *shrinks* when the kernel regresses.
//   emeralds.bench.breakdown/1 — CSD partition-search perf trajectory
//     (BENCH_breakdown.json). Each point's avg_breakdown_pct must match
//     exactly, policy by policy (the search is deterministic); work
//     counters (full_evals) may grow at most 3% and eval_reduction may
//     shrink at most 3%; wall-clock fields (wall_seconds,
//     workloads_per_sec) are machine-dependent and deliberately not gated.
//   emeralds.fleet.run/1       — fleet simulation throughput
//     (BENCH_fleet.json). The run configuration must match; the
//     deterministic aggregates (events_total, events_per_virtual_sec) are
//     held to 3% in both directions; the fleet digest and the trace record
//     mix (trace.records_by_type, one count per event type) must match
//     exactly, and a digest failure says when the mix is unchanged; the
//     largest node's trace storage (trace.storage_bytes_max) may grow at
//     most 3%; wall-clock events/sec is informational only.
//   emeralds.bench.smp/1       — partitioned-SMP throughput and admission
//     (BENCH_smp.json). Each core count's run digest must match exactly;
//     its throughput integers are held to 3%, the 2-core scaling floor is
//     absolute, and admission counts must match exactly.
// Every comparison also re-requires the candidate's own invariants
// (conservation, zero reference mismatches) so a report that fails its own
// contract never passes the gate.

#ifndef BENCH_BENCH_COMPARE_H_
#define BENCH_BENCH_COMPARE_H_

#include <string>
#include <vector>

#include "src/base/json.h"

namespace emeralds {
namespace bench {

struct CompareResult {
  bool ok = false;
  std::vector<std::string> failures;  // gate-failing metric verdicts
  std::vector<std::string> notes;     // informational diffs (not gated)
};

// Compares two parsed reports with matching schema tags. Unknown or
// mismatched schemas fail with a diagnostic in `failures`.
CompareResult CompareReports(const JsonValue& baseline, const JsonValue& candidate);

// File variant: parses both paths, then compares. I/O and parse errors are
// reported as failures.
CompareResult CompareReportFiles(const std::string& baseline_path,
                                 const std::string& candidate_path);

}  // namespace bench
}  // namespace emeralds

#endif  // BENCH_BENCH_COMPARE_H_
