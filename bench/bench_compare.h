// Perf-regression gate over the committed bench baselines.
//
// Compares a freshly produced report against the baseline committed at the
// repo root, dispatching on the schema tag:
//   emeralds.obs.cycles/1      — per-bucket cycle-attribution ledger
//     (BENCH_cycles.json). The run is pure virtual time, so its digest and
//     elapsed_ns must match exactly and every kernel-overhead bucket may
//     grow at most rel_tolerance (plus a small absolute slack for near-zero
//     buckets).
//     The user and idle buckets are excluded: user time is the workload's,
//     and idle is the complement that *shrinks* when the kernel regresses.
//   emeralds.bench.breakdown/1 — CSD partition-search perf trajectory
//     (BENCH_breakdown.json). Work counters (full_evals) may grow at most
//     rel_tolerance and eval_reduction may shrink at most rel_tolerance;
//     wall-clock fields (wall_seconds, workloads_per_sec) are machine-
//     dependent and deliberately not gated.
//   emeralds.fleet.run/1       — fleet simulation throughput
//     (BENCH_fleet.json). The run configuration must match; the
//     deterministic aggregates (events_total, events_per_virtual_sec) are
//     held to rel_tolerance in both directions; the fleet digest and the
//     trace record mix (trace.records_by_type, one count per event type)
//     must match exactly, and a digest failure says when the mix is
//     unchanged; the largest node's trace storage (trace.storage_bytes_max)
//     may grow at most rel_tolerance; wall-clock events/sec is
//     informational only.
//   emeralds.bench.smp/1       — partitioned-SMP throughput and admission
//     (BENCH_smp.json). Each core count's run digest must match exactly;
//     its throughput integers are held to rel_tolerance, the 2-core scaling
//     floor is absolute, and admission counts must match exactly.
// Every comparison also re-requires the candidate's own invariants
// (conservation, zero reference mismatches) so a report that fails its own
// contract never passes the gate.

#ifndef BENCH_BENCH_COMPARE_H_
#define BENCH_BENCH_COMPARE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"

namespace emeralds {
namespace bench {

struct CompareOptions {
  // Maximum relative growth of a gated metric before the gate fails. 3% by
  // default, so an injected 5% scheduler-bucket regression reliably fails.
  double rel_tolerance = 0.03;
  // Absolute per-metric slack in nanoseconds for cycle buckets: keeps
  // near-zero buckets (a few charges total) from tripping on one extra
  // operation. Small against any real bucket.
  int64_t abs_slack_ns = 20000;
};

struct CompareResult {
  bool ok = false;
  std::vector<std::string> failures;  // gate-failing metric verdicts
  std::vector<std::string> notes;     // informational diffs (not gated)
};

// Compares two parsed reports with matching schema tags. Unknown or
// mismatched schemas fail with a diagnostic in `failures`.
CompareResult CompareReports(const JsonValue& baseline, const JsonValue& candidate,
                             const CompareOptions& options);

// File variant: parses both paths, then compares. I/O and parse errors are
// reported as failures.
CompareResult CompareReportFiles(const std::string& baseline_path,
                                 const std::string& candidate_path,
                                 const CompareOptions& options);

}  // namespace bench
}  // namespace emeralds

#endif  // BENCH_BENCH_COMPARE_H_
