// Deadline-miss postmortem: exact lateness attribution per late job.
//
// For every job that missed its deadline inside the trace window, the engine
// replays the event stream once and decomposes the job's response time into
// an exactly-telescoping lateness ledger: carry-in from the previous job's
// overrun, timer-service release latency, preemption (attributed per
// preemptor thread), priority-inversion blocking (per lock), IRQ / IPI /
// timer-service / scheduler / syscall overhead (from kOverheadSpan events),
// voluntary self-suspension, and the job's own scheduled execution split
// against the headroom monitor's EWMA cost into expected vs. overrun.
//
// The hard invariant mirrors CheckCycleConservation: on a complete window
// the ledger components sum to `completion - release` to the tick, so
// `sum - deadline_budget == completion - deadline` exactly. Truncated
// windows (ring overflow, mid-run sink Reset, legacy imports) degrade to a
// counted `unattributed_ns` — never to a silently wrong ledger.
//
// Attribution is gap-based: every open job's elapsed time is classified by
// the victim's scheduler state (running / ready / blocked-and-why), with
// kOverheadSpan events carving the kernel's charged advances on the victim's
// core out of each gap between records. The kernel records a span for every
// charged advance; on a trace without spans (one imported from an older
// build) the ledger still telescopes but overhead lands in own-execution /
// preemption. A job is settled only at the records that can change its
// classification: those naming its thread, switches and exits on its core
// while it is runnable, and sink resets. Per-core running sums of what the
// spans carved, snapshotted at each settle, bill the overhead in between, so
// the replay costs O(1) per record however many jobs are open. A job
// released ahead of the stream cursor is walked record by record until the
// cursor reaches it.

#ifndef SRC_OBS_POSTMORTEM_H_
#define SRC_OBS_POSTMORTEM_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/hal/trace.h"
#include "src/obs/chains.h"

namespace emeralds {

class TraceSink;

namespace obs {

class Json;

inline constexpr const char* kObsPostmortemSchema = "emeralds.obs.postmortem/1";

// Where a late job's response time went. All fields are non-negative and
// partition the response exactly: sum_ns() == completion - release on a
// complete window (unattributed_ns absorbs truncation residue otherwise).
struct LatenessLedger {
  int64_t carry_in_ns = 0;         // previous job of this task overran past the release
  int64_t release_latency_ns = 0;  // release grid -> job actually begins being serviced
  int64_t preemption_ns = 0;       // ready, but another thread held the core
  int64_t lock_blocked_ns = 0;     // blocked on a semaphore (PI blocking)
  int64_t self_suspend_ns = 0;     // voluntary waits: sleep, mailbox, condvar, IRQ wait
  int64_t irq_ns = 0;              // interrupt prologue/epilogue on the victim's core
  int64_t ipi_ns = 0;              // cross-core wake IPIs on the victim's core
  int64_t timer_svc_ns = 0;        // software-timer dispatch on the victim's core
  int64_t sched_ns = 0;            // queue ops, CSD parsing, context switches
  int64_t syscall_ns = 0;          // traps, semaphore/PI/IPC bookkeeping, stats
  int64_t own_expected_ns = 0;     // scheduled execution within the EWMA cost
  int64_t own_overrun_ns = 0;      // scheduled execution past the EWMA cost
  int64_t unattributed_ns = 0;     // truncated-window residue (0 on complete windows)

  std::map<int32_t, int64_t> preemptor_ns;  // thread id -> share of preemption_ns
  std::map<int32_t, int64_t> lock_ns;       // semaphore id -> share of lock_blocked_ns

  int64_t sum_ns() const {
    return carry_in_ns + release_latency_ns + preemption_ns + lock_blocked_ns +
           self_suspend_ns + irq_ns + ipi_ns + timer_svc_ns + sched_ns + syscall_ns +
           own_expected_ns + own_overrun_ns + unattributed_ns;
  }
};

// One missed deadline, fully attributed.
struct JobPostmortem {
  int thread_id = -1;
  uint64_t job_number = 0;
  Instant release;     // nominal (grid) release
  Instant completion;
  bool has_deadline = true;       // false only on legacy traces (arg2 == 0)
  int64_t deadline_budget_ns = 0; // relative deadline (deadline - release)
  int64_t response_ns = 0;        // completion - release
  int64_t tardiness_ns = 0;       // completion - deadline (when has_deadline)
  bool conserved = false;         // ledger.sum_ns() == response_ns exactly
  std::string top_blame;          // largest ledger component, human-readable
  LatenessLedger ledger;
};

// Retained-record cap; ledgers past it still feed the blame totals and the
// conservation check, only the verbatim per-job record is dropped.
inline constexpr size_t kMaxJobPostmortems = 64;

// Mergeable per-node blame summary: integer sums keyed by stable kernel ids,
// so fleet merges are associative and bit-identical across worker counts.
struct BlameTotals {
  uint64_t misses_analyzed = 0;        // finalized missed jobs (complete ledgers)
  uint64_t conservation_failures = 0;  // ledgers that failed to telescope
  int64_t tardiness_ns = 0;            // summed over analyzed misses with deadlines
  int64_t unattributed_ns = 0;         // summed truncation residue
  std::map<int32_t, uint64_t> victim_misses;      // thread id -> analyzed misses
  std::map<int32_t, int64_t> victim_tardiness_ns; // thread id -> summed tardiness
  std::map<int32_t, int64_t> preemptor_ns;        // thread id -> blamed preemption
  std::map<int32_t, int64_t> lock_ns;             // semaphore id -> blamed blocking

  void Merge(const BlameTotals& other);
  // FNV-1a over every counter and table entry in key order.
  uint64_t Digest() const;
  bool empty() const { return misses_analyzed == 0 && conservation_failures == 0; }
};

struct PostmortemAnalysis {
  // True when the ledger invariant cannot be exact: ring overflow ahead of
  // the window or a mid-run sink Reset (epoch marker).
  bool window_truncated = false;
  uint64_t misses_analyzed = 0;    // == blame.misses_analyzed
  uint64_t records_dropped = 0;    // misses past kMaxJobPostmortems
  uint64_t incomplete_misses = 0;  // missed jobs still open at the horizon
  uint64_t unmatched_misses = 0;   // kDeadlineMiss with no visible job (truncation)
  uint64_t deadline_unknown = 0;   // misses on legacy releases without a deadline
  uint64_t conservation_failures = 0;

  std::vector<JobPostmortem> misses;  // first kMaxJobPostmortems, stream order
  BlameTotals blame;

  bool ok() const { return conservation_failures == 0; }
};

// Replays `events[0..count)` (oldest first) on the shared trace replay
// (src/obs/trace_replay.h). `dropped_events` is TraceSink::dropped().
PostmortemAnalysis AnalyzePostmortem(const TraceEvent* events, size_t count,
                                     uint64_t dropped_events);

// Convenience overload over a live sink's retained window.
PostmortemAnalysis AnalyzePostmortem(const TraceSink& sink);

// Renders the analysis as a JSON object body (no surrounding document):
// embedded as the "postmortem" section of emeralds.obs.run/1 and of the
// standalone report below. `chains` (optional) contributes the chain-SLO
// overrun records with their per-hop telescoping breakdowns.
void AppendPostmortemSection(Json& j, const PostmortemAnalysis& analysis,
                             const ChainAnalysis* chains);

// Renders merged fleet blame tables (the BlameTotals alone, no per-job
// records) as a JSON object body.
void AppendBlameTotals(Json& j, const BlameTotals& blame);

// Standalone report document with schema "emeralds.obs.postmortem/1".
std::string BuildPostmortemReport(const std::string& label, const PostmortemAnalysis& analysis,
                                  const ChainAnalysis* chains);

// Human-readable rendering (trace_inspect --postmortem, fleet_inspect
// --postmortem=N drill-down).
void PrintPostmortem(std::FILE* out, const PostmortemAnalysis& analysis,
                     const ChainAnalysis* chains);

// One Perfetto annotation slice per recorded miss, spanning release ->
// completion on the victim's track and named with the top blame component.
struct PerfettoAnnotationSlice;
std::vector<PerfettoAnnotationSlice> PostmortemAnnotations(
    const PostmortemAnalysis& analysis);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_POSTMORTEM_H_
