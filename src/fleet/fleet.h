// Fleet-scale simulation: many independent kernel instances on one host.
//
// RunFleet() instantiates `instances` fully independent simulated nodes —
// each its own Hardware + Kernel + seeded workload, arena-backed so a node's
// top-level state lives in one contiguous block (cache-isolated from its
// neighbors, torn down with a single Reset) — and drives them across a
// work-stealing host thread pool. A node executes in virtual-time slices:
// each slice is one pool task that advances the kernel by `slice` and
// re-enqueues itself, so long-running nodes migrate freely between workers
// and the pool stays balanced without any static partitioning.
//
// Determinism contract: a node's simulation depends only on (fleet seed,
// node index). Host scheduling — worker count, steal
// order, slice interleaving — must not influence any simulated outcome, so
// the whole FleetResult (per-node digests included) is bit-identical across
// runs, worker counts, and machines. Tests enforce this.
//
// Every node is observed the same way: a telemetry block, a streaming
// window series drained at each slice boundary, and the alert engine over
// that series. Observers take the kernel as `const Kernel&`, so none can
// change a run; the golden digests would catch one that did.
//
// A node is evaluated slice by slice. At each slice boundary its new trace
// records go to its obs::TraceEvaluator (digest, invariants, chains,
// postmortem), and then the trace window is drained. The node keeps no
// whole-run trace: its trace storage follows its largest slice, and since
// the window never evicts, every oracle sees the complete run. InspectNode
// keeps the whole window for its visitor and evaluates it in one pass.
//
// Per-node oracles, mirroring the torture harness (the syscall fault oracle
// is torture-specific; the fleet adds a progress oracle in its place):
//   1. obs::AnalyzeTrace reports zero structural invariant violations;
//   2. obs::ComputeReconciliation agrees with the kernel's counters on an
//      untruncated trace, and refuses to check a truncated one;
//   3. the cycle-attribution ledger conserves exactly (bucket sum == elapsed
//      virtual time; no unattributed clock advance);
//   4. causal-token conservation over the declared chains (zero chain
//      violations; zero orphan hops when the window is complete);
//   5. progress: the node completed jobs, dispatched timers, and consumed
//      mailbox traffic — a silently wedged node is a failure, not a fast run;
//   6. lateness conservation: every analyzed deadline miss carries a blame
//      ledger that telescopes exactly to completion - release, and a complete
//      window leaves zero nanoseconds unattributed.

#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/hal/trace.h"
#include "src/obs/alerts.h"
#include "src/obs/postmortem.h"
#include "src/obs/telemetry.h"
#include "src/obs/timeseries.h"

namespace emeralds {

class Kernel;

namespace fleet {

// The streaming window grid and the alert rules every fleet node runs.
inline constexpr obs::TimeseriesOptions kTimeseriesOptions{};
inline constexpr obs::AlertConfig kAlertConfig{};

struct FleetOptions {
  int instances = 16;
  // Host pool width; <= 0 uses std::thread::hardware_concurrency().
  int workers = 0;
  uint64_t seed = 1;
  // Virtual time each node simulates, and the re-enqueue granularity. A
  // slice is also the unit of trace evaluation: a node holds one slice's
  // trace records at a time.
  Duration run_duration = Milliseconds(100);
  Duration slice = Milliseconds(5);
  // Black-box flight recorder: when non-empty, the worst `max_blackboxes`
  // anomalous nodes (by anomaly_score, worst first) are re-run serially
  // after the fleet drains — a node is a pure function of (seed, index), so
  // the re-run is bit-identical — and their forensic bundles are written
  // under <artifacts_dir>/node-<index>/.
  std::string artifacts_dir;
  int max_blackboxes = 8;
  // Overload injection for triage tests and demos: multiplies the producer
  // and consumer compute costs of one node (after its topology draws, so
  // every other node is untouched). -1 = none.
  int overload_node = -1;
  int overload_factor = 8;
};

// One simulated node's outcome. Everything here except host_evaluate_ns is
// deterministic in (fleet seed, node index). The node's evaluation reads
// every trace record once: the digest and the trace-invariant, chain and
// postmortem analyses share one obs::TraceEvaluator, fed at each slice
// boundary.
struct NodeResult {
  uint64_t seed = 0;
  std::string scheduler;  // "EDF", "RM", "CSD-2", "CSD-3"
  // context_switches + syscalls + interrupts + timer_dispatches: the unit
  // the fleet benchmark rates in events/sec.
  uint64_t events = 0;
  uint64_t jobs_completed = 0;
  uint64_t deadline_misses = 0;
  uint64_t timer_dispatches = 0;
  uint64_t chain_completed = 0;
  uint64_t chain_overruns = 0;  // completed chain instances past their SLO
  // FoldTraceEvent over every trace record, then the kernel counters
  // (obs::FoldKernelCounters).
  uint64_t trace_digest = 0;
  // Every trace record the node made, counted by TraceEventType.
  std::array<uint64_t, kNumTraceEventTypes> records_by_type{};
  uint64_t trace_dropped = 0;  // always 0: the window never evicts
  // Trace window storage at the horizon. In the fleet it is the largest
  // slice's, since the window is drained at every slice boundary; from
  // InspectNode it is the whole run's.
  size_t trace_storage_bytes = 0;
  uint64_t headroom_low_events = 0;
  Duration virtual_time;
  size_t arena_high_water = 0;
  // First failing oracle in human-readable form; empty when all six pass.
  std::string failure;
  // Deadline-miss postmortem: this node's blame ledger totals (mergeable,
  // keyed by thread/semaphore ids) plus the misses still open at the horizon.
  obs::BlameTotals blame;
  uint64_t postmortem_incomplete = 0;
  // Anomaly triage: why the node is suspect (empty = healthy) and a
  // deterministic badness score — oracle failures dominate, then deadline
  // misses, chain SLO overruns, and headroom-low events.
  std::string anomaly;
  uint64_t anomaly_score = 0;
  // Telemetry block, merged into FleetResult::telemetry.
  obs::NodeTelemetry telemetry;
  // Streaming telemetry: the retained window series (folded from the
  // snapshot ring at every slice boundary) plus explicit-degradation
  // counters, and the node-local alert events.
  std::vector<obs::TelemetryWindow> windows;
  uint64_t timeseries_lost_samples = 0;
  uint64_t timeseries_windows_dropped = 0;
  std::vector<obs::AlertEvent> alerts;
  // Host thread CPU time the node's evaluation took (every slice's trace
  // feed, then the oracles, telemetry and streaming close at the horizon),
  // from CLOCK_THREAD_CPUTIME_ID. The one host-side field: not
  // deterministic, never digested or compared.
  int64_t host_evaluate_ns = 0;

  bool ok() const { return failure.empty(); }
  bool anomalous() const { return !anomaly.empty(); }
};

struct FleetResult {
  int instances = 0;
  int workers = 0;  // resolved pool width actually used
  uint64_t seed = 0;

  // Aggregates over all nodes (deterministic).
  uint64_t events_total = 0;
  uint64_t jobs_completed = 0;
  uint64_t deadline_misses = 0;
  uint64_t timer_dispatches = 0;
  uint64_t chain_completed = 0;
  uint64_t chain_overruns = 0;
  int nodes_failed = 0;
  Duration virtual_time_total;  // sum of per-node simulated time
  // events_total / virtual seconds: the gated, machine-independent rate.
  double events_per_virtual_sec = 0.0;
  // The per-node digests folded in index order (FoldWord, from
  // kFnv1aOffsetBasis): one number that equals iff every node's run was
  // bit-identical.
  uint64_t fleet_digest = 0;
  size_t arena_high_water = 0;  // max across nodes

  // Fleet telemetry plane (merged per-node blocks).
  obs::FleetTelemetry telemetry;
  // Trace drops, totals plus the worst offender. Fleet windows never evict,
  // so these stay 0; the report, OpenMetrics and triage keep their fields.
  uint64_t trace_dropped_total = 0;
  int trace_dropped_worst_node = -1;
  uint64_t trace_dropped_worst = 0;
  // Trace memory per node (a deterministic work counter): the largest
  // window storage any node held, i.e. its largest slice's, and which node
  // held it.
  size_t trace_storage_bytes_max = 0;
  int trace_storage_bytes_worst_node = -1;
  // The nodes' records_by_type summed: the fleet's trace record mix, gated
  // exactly against the baseline.
  std::array<uint64_t, kNumTraceEventTypes> records_by_type{};
  uint64_t headroom_low_total = 0;
  int nodes_anomalous = 0;
  // Fleet-merged blame tables (associative integer merge in node-index
  // order) and their digest — bit-identical across worker counts, gated by
  // the determinism tests alongside fleet_digest.
  obs::BlameTotals blame;
  uint64_t blame_digest = 0;
  uint64_t postmortem_incomplete_total = 0;
  // Streaming plane, fleet-merged: same-index windows from every node merged
  // via the lossless histogram Merge (order-invariant), and the full alert
  // stream (node-local rules + the cross-node outlier rule) in canonical
  // (window, rule, node) order with exact virtual timestamps.
  std::vector<obs::TelemetryWindow> windows;
  std::vector<obs::AlertEvent> alerts;
  uint64_t timeseries_lost_samples = 0;
  uint64_t timeseries_windows_dropped = 0;
  uint64_t alerts_fired = 0;  // firing events in `alerts`
  // Nodes whose black-box bundles were written (worst first), and where.
  std::vector<int> blackbox_nodes;
  std::string artifacts_dir;

  // Host-side throughput (informational; never gated — wall time is noise).
  double wall_seconds = 0.0;
  double events_per_wall_sec = 0.0;
  // Host CPU spent evaluating nodes (NodeResult::host_evaluate_ns): summed,
  // the largest, and the node that took it. Informational, never gated.
  int64_t host_evaluate_ns_total = 0;
  int64_t host_evaluate_ns_max = 0;
  int host_evaluate_slowest_node = -1;

  std::vector<NodeResult> nodes;  // index order

  bool ok() const { return nodes_failed == 0; }
};

// Runs the fleet to completion. Blocks until every node has finished and
// been evaluated; must not be called from a fleet/ThreadPool worker.
FleetResult RunFleet(const FleetOptions& options);

// Deterministically re-runs node `index` of the fleet described by
// `options` and visits the live kernel (with the filled NodeResult) before
// the node's arena is torn down. This is the drill-down primitive behind
// fleet_inspect --node and the black-box recorder: because a node is a
// pure function of (fleet seed, node index), the revisited
// state is bit-identical to what the fleet run saw. The kernel keeps the
// node's whole trace window, evaluated in one pass, so the result's
// trace_digest equals the fleet's streamed one.
NodeResult InspectNode(const FleetOptions& options, int index,
                       const std::function<void(const Kernel&, const NodeResult&)>& visit);

// One-line command that re-opens this node with the fleet_inspect CLI.
std::string NodeReproCommand(const FleetOptions& options, int index);

}  // namespace fleet
}  // namespace emeralds

#endif  // SRC_FLEET_FLEET_H_
