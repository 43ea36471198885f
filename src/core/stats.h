// Kernel accounting: where virtual time went and what the kernel did.

#ifndef SRC_CORE_STATS_H_
#define SRC_CORE_STATS_H_

#include <cstdint>
#include <cstdio>

#include "src/base/log2_histogram.h"
#include "src/base/ring_buffer.h"
#include "src/base/time.h"
#include "src/hal/cost_model.h"

namespace emeralds {

// Reporting roll-up of the kernel's cycle buckets (charged_us,
// total_charged(), PrintKernelStats). Charges are stored by CycleBucket
// only; a category's time is the sum of the buckets that roll up into it.
// Semaphore-path time (sem_path_time) is kept separately: it accumulates
// every charge made while the kernel is on a semaphore-induced path
// (acquire, release, PI, CSE checks, and the context switches they trigger)
// — the quantity Figure 11 plots.
enum class ChargeCategory : int {
  kScheduling = 0,    // queue t_b / t_u / t_s and CSD queue parsing
  kContextSwitch = 1,
  kSyscall = 2,       // user/kernel transitions
  kSemaphore = 3,     // semaphore bookkeeping incl. CSE checks
  kPi = 4,            // priority-inheritance work
  kIpc = 5,           // mailbox + state-message fixed costs and copies
  kInterrupt = 6,     // interrupt entry/exit and virtual IPIs
  kTimerSvc = 7,      // software-timer dispatch
  kStatsObs = 8,      // stats sampling / observability overhead
};
inline constexpr int kNumChargeCategories = 9;

const char* ChargeCategoryToString(ChargeCategory category);

// Time in `ledger` that rolls up into `category`. kUser, kIdle and
// kUnattributed are not kernel charges and roll up into no category.
Duration ChargedIn(const CycleLedger& ledger, ChargeCategory category);

// Mirror of config.h's kMaxBands for the per-band scheduler-cycle table
// (stats.h sits below config.h in the include order; kernel.cc
// static_asserts the two stay equal).
inline constexpr int kMaxStatBands = 8;

// Mirror of config.h's kMaxCores for the per-core cycle ledgers (same
// layering reason; kernel.cc static_asserts the two stay equal).
inline constexpr int kMaxStatCores = 8;

struct KernelStats {
  Duration sem_path_time;  // see ChargeCategory comment

  // Cycle-attribution ledgers, one per core: every clock advance the kernel
  // makes lands in exactly one bucket of each core's ledger, so each core's
  // buckets sum to the elapsed window (now - cycles_epoch). They are the
  // kernel's one stored time account; every other time figure is a view of
  // them. Windowed — ResetChargeAccounting zeroes them and re-bases
  // cycles_epoch.
  Instant cycles_epoch;  // set at kernel construction and on charge resets
  int num_cores = 1;
  CycleLedger core_cycles[kMaxStatCores];
  // Scheduler queue time split per CSD band (DP1/DP2/.../FP) and QueueOp —
  // the runtime form of the paper's Figure 3-5 breakdowns.
  Duration sched_band_cycles[kMaxStatBands][kNumQueueOps] = {};

  // Scheduler activity.
  uint64_t context_switches = 0;
  uint64_t selections = 0;
  uint64_t queue_op_count[kNumQueueKinds][kNumQueueOps] = {};
  uint64_t queue_op_units[kNumQueueKinds][kNumQueueOps] = {};

  // Thread / job activity.
  uint64_t jobs_released = 0;
  uint64_t jobs_completed = 0;
  uint64_t deadline_misses = 0;
  uint64_t syscalls = 0;

  // Semaphores.
  uint64_t sem_acquires = 0;
  uint64_t sem_contended = 0;
  uint64_t sem_handoffs = 0;
  uint64_t pi_inherits = 0;
  uint64_t pi_swaps = 0;       // optimized place-holder swaps
  uint64_t pi_reinserts = 0;   // un-optimized sorted re-inserts
  uint64_t cse_early_pi = 0;   // unblocks converted to early PI (Fig. 8)
  uint64_t cse_grants = 0;     // locks handed over before acquire_sem() ran
  uint64_t cse_switches_saved = 0;
  uint64_t cse_hint_misses = 0;  // hint named a semaphore never acquired
  uint64_t preacquire_freezes = 0;
  uint64_t pi_chain_limit_hits = 0;  // acquires refused / walks cut at the depth cap

  // IPC.
  uint64_t mailbox_sends = 0;
  uint64_t mailbox_receives = 0;
  uint64_t mailbox_truncations = 0;  // receives that cut the payload (kTruncated)
  uint64_t smsg_writes = 0;
  uint64_t smsg_reads = 0;
  uint64_t smsg_read_retries = 0;

  // Interrupts / timers.
  uint64_t interrupts = 0;
  uint64_t timer_dispatches = 0;

  // SMP: cross-core wakes that paid the virtual-IPI cost, and chain tokens
  // dropped at the hop cap (degraded to counted orphans, not violations).
  uint64_t ipis = 0;
  uint64_t chain_hop_saturations = 0;

  // Causal chain tracing: kChainEmit / kChainConsume events recorded, and
  // origin tokens minted. Reconciled against the trace by obs_report.
  uint64_t chain_emits = 0;
  uint64_t chain_consumes = 0;
  uint64_t chain_origins = 0;

  // Deadline-headroom monitor: jobs whose predicted completion (release time
  // + per-job cost EWMA) left less slack than the configured margin.
  uint64_t headroom_low_events = 0;

  // Streaming-telemetry instrumentation (zero virtual cost: updated inline
  // at events the kernel already pays for, never traced, and kept out of the
  // fleet digest's explicit counter list).
  //
  // chain_e2e_hist records kernel-observed end-to-end chain latency: the
  // final-stage consume instant minus the token's mint instant, for every
  // consume that lands on the last stage of a resolved chain spec. It can
  // differ slightly from the offline analyzer's reconstruction (hop-cap
  // saturation, trace truncation) — the analyzer stays the oracle; this is
  // the always-on streaming view. chain_e2e_overruns counts those e2e
  // latencies that exceeded the chain's deadline.
  uint64_t chain_e2e_overruns = 0;
  // Snapshot ring overwrites of unread samples: sampling outpaced the
  // reader and a StatsDelta it never read was evicted. With no reader
  // (StatsSampler::MarkRead never called), every overwrite.
  uint64_t stats_snapshot_drops = 0;
  Log2Histogram response_hist;   // job response times (completion - release)
  Log2Histogram headroom_hist;   // per-job deadline headroom at completion
  Log2Histogram chain_e2e_hist;  // kernel-observed chain end-to-end latency

  // Node-wide ledger: the per-core ledgers summed bucket by bucket, so
  //   cycle_total() == (now - cycles_epoch) * num_cores, exact to the tick.
  CycleLedger cycles() const;
  Duration cycle_total() const { return cycles().total(); }
  // Kernel time over every category (the ledger less user and idle time).
  Duration total_charged() const;
};

// Writes a human-readable summary (charge breakdown, cycle ledger, scheduler
// and semaphore activity) to `out` (default stdout); examples, debugging
// sessions, and tests that capture the output use it.
void PrintKernelStats(const KernelStats& stats, std::FILE* out = stdout);

// --- Conservation invariant ---

// The hard invariant behind the ledger: between cycles_epoch and `now`, every
// virtual tick the kernel spent is in exactly one bucket, so the bucket sum
// equals elapsed time with zero residual. Checked by obs_report, the trace
// analyzer cross-check in trace_inspect, and the torture harness's fourth
// oracle.
struct CycleConservation {
  Duration elapsed;       // now - cycles_epoch
  Duration ledger_total;  // sum over all buckets
  Duration residual;      // elapsed - ledger_total; zero when conserved
  bool exact() const { return residual.nanos() == 0; }
};

// Fleet-summed form: with num_cores cores each accumulating wall time in
// parallel, total capacity over the window is elapsed * num_cores and the
// global ledger must account for every core-tick of it.
CycleConservation CheckCycleConservation(const KernelStats& stats, Instant now);

// Per-core form: core `core`'s own ledger must cover the elapsed window
// exactly (each core is always doing *something* — user, kernel, ipi, idle).
CycleConservation CheckCoreCycleConservation(const KernelStats& stats, int core, Instant now);

// --- Periodic snapshots (the time-series half of the observability layer) ---

// One sampling interval's worth of kernel activity: every field is the
// *delta* since the previous snapshot, so a ring of these is a time series of
// charge-category rates without storing full KernelStats copies (the
// small-memory trade: ~1/3 the size, and rates are what the consumer wants).
struct StatsDelta {
  Instant time;  // sample instant (virtual clock); interval is (prev, time]
  Duration sem_path_time;
  // Per-bucket deltas of the node-wide ledger. Conservation holds per
  // interval too: absent a charge reset inside it, the bucket sum equals
  // (time - prev.time) * num_cores.
  CycleLedger cycles;
  uint64_t context_switches = 0;
  uint64_t jobs_released = 0;
  uint64_t jobs_completed = 0;
  uint64_t deadline_misses = 0;
  uint64_t sem_acquires = 0;
  uint64_t sem_contended = 0;
  uint64_t pi_inherits = 0;
  uint64_t cse_switches_saved = 0;
  uint64_t interrupts = 0;
  uint64_t timer_dispatches = 0;
  uint64_t headroom_low_events = 0;
  uint64_t ipis = 0;
  uint64_t chain_e2e_overruns = 0;
  uint64_t chain_origins = 0;
  uint64_t stats_snapshot_drops = 0;
  // Per-interval histogram deltas (Log2Histogram::Delta of the cumulative
  // kernel histograms): merging every interval of a run reproduces the
  // whole-run histogram bit-identically.
  Log2Histogram response_hist;
  Log2Histogram headroom_hist;
  Log2Histogram chain_e2e_hist;
};

// Field-by-field delta of two cumulative snapshots over (base, now] —
// the StatsSampler interval encoding, exposed so the streaming timeseries
// layer can synthesize the tail interval at the horizon.
StatsDelta MakeStatsDelta(Instant now, const KernelStats& current, const KernelStats& base);

// Bounded ring of periodic StatsDelta samples. The kernel drives Sample()
// from a software timer when EnableStatsSampling() was called; storage is
// allocated once at construction, and when the ring fills the oldest interval
// is evicted (dropped() counts evictions, mirroring TraceSink). A sample's
// global index is its position in the run: the retained ring holds indices
// [dropped(), dropped() + size()).
class StatsSampler {
 public:
  explicit StatsSampler(size_t capacity) : samples_(capacity > 0 ? capacity : 1) {}

  // Records the interval (last sample, now] as a delta of `current` against
  // the previous cumulative snapshot. Returns true when the push evicted an
  // unread sample (the caller should count a stats_snapshot_drop): one at or
  // past the read mark, so with no reader every eviction.
  bool Sample(Instant now, const KernelStats& current);

  size_t size() const { return samples_.size(); }
  const StatsDelta& at(size_t index) const { return samples_.at(index); }
  uint64_t dropped() const { return dropped_; }

  // A reader has read every sample whose global index is below `through`;
  // evicting one of those loses nothing.
  void MarkRead(uint64_t through) { read_through_ = through; }

  // Cumulative counters at the previous sample: the base the *next* delta
  // will subtract from. The streaming timeseries layer uses it to synthesize
  // the tail interval (last sample, horizon] at collection time.
  const KernelStats& last_sample_base() const { return last_; }

  // Re-baselines the cumulative reference so the next delta starts from
  // `current` (Kernel::ResetChargeAccounting zeroes the cycle ledgers,
  // which would otherwise make the next interval's deltas negative).
  void Rebase(const KernelStats& current) { last_ = current; }

 private:
  RingBuffer<StatsDelta> samples_;
  KernelStats last_;  // cumulative counters at the previous sample
  uint64_t dropped_ = 0;
  uint64_t read_through_ = 0;
};

}  // namespace emeralds

#endif  // SRC_CORE_STATS_H_
