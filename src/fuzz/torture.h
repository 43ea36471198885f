// Deterministic kernel torture harness.
//
// One RunTorture() call is one fully reproducible stress run: a seed drives
// every choice — topology (threads across DP/FP bands, nested semaphore
// chains, condvars, mailboxes, state messages with deliberately lapped
// readers, a user timer, an IRQ-driven driver thread), the per-thread
// operation schedules, the syscall-boundary fault plan (bad handles,
// permission denials, oversized payloads, short receive buffers), and the
// host-side injections between executive slices (IRQ storms, timer toggles,
// mid-run charge-accounting resets). Because the simulation itself is
// deterministic, the same (seed, op budget) always produces bit-identical
// traces; TortureResult::trace_digest makes that checkable in one compare.
//
// Six oracles run after every run:
//   1. obs::AnalyzeTrace over the retained trace must report zero structural
//      invariant violations (truncation-aware, so a deliberately tiny ring is
//      a fault case, not a false positive);
//   2. obs::ComputeReconciliation must agree with the kernel's own counters
//      whenever the trace was not truncated — and must *refuse* to check
//      (checked == false) when it was;
//   3. every injected fault must come back with exactly the status the
//      syscall contract promises (kBadHandle, kPermissionDenied, ...);
//   4. the cycle-attribution ledger must conserve: bucket sum == elapsed
//      virtual time since the charge epoch, exact to the tick, and no clock
//      advance may bypass the kernel's charging paths. Unlike oracle 2 this
//      is trace-independent, so it is enforced even on a truncated ring;
//   5. causal-token conservation: obs::AnalyzeChains over the declared chain
//      topology must report zero chain violations — every consumed token was
//      emitted, hop counts advance by exactly one, origins are minted once.
//      On a truncated ring orphan hops are tolerated (the emit predates the
//      window) but malformed tokens still fail;
//   6. conservation of lateness: obs::AnalyzePostmortem over every deadline
//      miss must produce a blame ledger that telescopes exactly to
//      completion - release, and on an untruncated ring nothing may land in
//      the unattributed bucket and no miss may go unmatched.
//
// A failing seed is shrunk by bisecting the global operation budget
// (BisectFailingOpLimit) and reported as a one-line repro command.

#ifndef SRC_FUZZ_TORTURE_H_
#define SRC_FUZZ_TORTURE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/core/stats.h"
#include "src/obs/obs_report.h"
#include "src/obs/trace_analyzer.h"

namespace emeralds {
namespace fuzz {

inline constexpr const char* kTortureSchema = "emeralds.fuzz.torture/1";

// Operation kinds the generated thread bodies draw from. The order is part
// of the replay contract: reordering changes every seed's schedule.
enum class OpKind : int {
  kCompute = 0,      // preemptible CPU burn
  kSleep,            // timed block
  kYield,            // reschedule without blocking
  kLockChain,        // acquire an ascending semaphore chain, compute, release
  kCondWait,         // mutex-protected condvar wait
  kCondSignal,       // signal or broadcast
  kMboxSend,         // mailbox send / try-send with random payload
  kMboxRecv,         // receive with random (often short) buffer and timeout
  kStateWrite,       // state-message publish (designated writer only)
  kStateRead,        // state-message snapshot (lapped readers expected)
  kTimerWait,        // pace on the user timer's counting semaphore
  kIrqWait,          // bound driver thread waits for its IRQ line
  kFaultBadHandle,   // syscall on a handle that was never created
  kFaultPermission,  // syscall on an object another process locked down
  kFaultOversized,   // state write larger than the buffer
};
inline constexpr int kNumOpKinds = static_cast<int>(OpKind::kFaultOversized) + 1;

const char* OpKindToString(OpKind kind);

struct TortureOptions {
  uint64_t seed = 1;
  // Global operation budget, consumed across all threads in executive order.
  int ops = 2000;
  // Replay cap for shrinking: execute only the first `op_limit` operations
  // of the schedule (< 0 means `ops`). Same seed + same limit => same run.
  int op_limit = -1;
  bool tiny_trace_ring = false; // force ring overflow (truncation fault case)
  // Virtual cores. Generated threads are pinned round-robin (thread i on
  // core i % num_cores — no extra RNG draws, so 1-core schedules and digests
  // are bit-identical to the pre-SMP harness); the IRQ driver and the
  // shepherd stay on the boot core. All five oracles run core-aware, and
  // oracle 4 additionally holds each core's own ledger to wall time.
  int num_cores = 1;
};

// Per-run coverage: which operations actually executed and which statuses
// came back. Statuses are indexed by -(int)status (0 == kOk).
struct TortureCoverage {
  uint64_t op_counts[kNumOpKinds] = {};
  uint64_t status_counts[32] = {};
  uint64_t irq_storms = 0;
  uint64_t charge_resets = 0;
  uint64_t timer_toggles = 0;
};

struct TortureResult {
  bool ok = false;
  uint64_t seed = 0;
  int ops_executed = 0;
  // First failure in human-readable form; empty when ok.
  std::string failure;
  // Oracle outcomes.
  size_t violations = 0;
  obs::Reconciliation reconciliation;
  uint64_t fault_mismatches = 0;
  // Fourth oracle: ledger sum == elapsed since the charge epoch (exact) AND
  // every clock advance went through a charging path (no unattributed time).
  bool cycles_conserved = false;
  int64_t cycle_residual_ns = 0;
  int64_t cycle_unattributed_ns = 0;
  // Fifth oracle: causal-token conservation over the chain event stream.
  size_t chain_violations = 0;
  uint64_t chain_orphan_hops = 0;   // nonzero only on a truncated ring
  uint64_t chain_completed = 0;     // declared-chain instances completed
  uint64_t chain_origins = 0;       // origins minted in-window
  // Sixth oracle: conservation of lateness. Every analyzed miss's ledger must
  // sum to its response time exactly; on a complete window unattributed and
  // unmatched must both be zero (a truncated ring only degrades coverage).
  uint64_t postmortem_misses = 0;
  uint64_t postmortem_conservation_failures = 0;
  int64_t postmortem_unattributed_ns = 0;
  uint64_t postmortem_unmatched = 0;
  uint64_t postmortem_incomplete = 0;
  // The retained trace window's digest (FoldTraceEvent per record) with the
  // kernel counters folded on (obs::FoldKernelCounters): equal digests ==
  // bit-identical runs.
  uint64_t trace_digest = 0;
  uint64_t trace_retained = 0;
  uint64_t trace_dropped = 0;
  Duration virtual_time;
  KernelStats stats;
  TortureCoverage coverage;
};

// Runs one seeded torture run to completion and applies the oracles.
TortureResult RunTorture(const TortureOptions& options);

// Writes the trace CSV of one run to `path` (re-runs the seed; cheap and
// deterministic). Returns false when the file cannot be created.
bool ExportTortureTraceCsv(const TortureOptions& options, const std::string& path);

// Writes the standard black-box forensic bundle for one run under `dir`
// (repro.txt, trace.csv, blackbox.json — the same layout the fleet's flight
// recorder emits, so fleet_inspect/trace_inspect tooling reads both).
// Re-runs the seed deterministically; `result` supplies the failure text.
// `extra_repro` (e.g. the shrunk repro line) is appended to repro.txt when
// non-empty. Returns false when the bundle cannot be written.
bool ExportTortureBlackBox(const TortureOptions& options, const TortureResult& result,
                           const std::string& dir, const std::string& extra_repro = "");

// Smallest op budget in [1, hi] for which `fails` still holds, assuming
// monotonicity (best effort otherwise); the workhorse behind shrinking.
int BisectSmallestFailing(int hi, const std::function<bool(int)>& fails);

// Shrinks a failing run by bisecting the operation budget. Returns options
// with op_limit set to the smallest still-failing budget.
TortureOptions ShrinkFailingRun(const TortureOptions& options);

// One-line command that reproduces this exact run with the torture CLI.
std::string ReproCommand(const TortureOptions& options);

// Appends one run's JSON object (schema fragment) to `out`.
void AppendTortureRunJson(std::string* out, const TortureOptions& options,
                          const TortureResult& result);

// Full report: {"schema": "emeralds.fuzz.torture/1", "runs": [...], totals}.
std::string BuildTortureReport(const std::vector<TortureOptions>& options,
                               const std::vector<TortureResult>& results);

}  // namespace fuzz
}  // namespace emeralds

#endif  // SRC_FUZZ_TORTURE_H_
