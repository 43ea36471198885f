// Kernel configuration.

#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/static_vector.h"
#include "src/base/time.h"
#include "src/core/api.h"
#include "src/core/ids.h"
#include "src/core/thread_body.h"
#include "src/hal/cost_model.h"

namespace emeralds {

// Maximum number of scheduler bands (CSD queues). The paper finds diminishing
// returns past three queues (Section 5.6); eight leaves room for the CSD-x
// sweep ablation.
inline constexpr int kMaxBands = 8;

// Maximum number of virtual cores. Partitioned SMP: each thread is pinned to
// one core at creation and never migrates; cross-core wakes are priced as
// virtual IPIs (CycleBucket::kIpi).
inline constexpr int kMaxCores = 8;

// Fixed-priority rank assignment for threads that ask for automatic ranking
// (Section 5.3: "or any fixed-priority scheduler such as deadline-monotonic
// [18], but for simplicity, we assume RM").
enum class FpRankPolicy {
  kRateMonotonic,      // shorter period = higher priority
  kDeadlineMonotonic,  // shorter relative deadline = higher priority
};

// Semaphore operating mode (Section 6): the conventional implementation
// versus EMERALDS's context-switch-eliminating scheme with optimized priority
// inheritance. Both are first-class so benches can compare them.
enum class SemMode {
  kStandard,
  kCse,
};

// Scheduler construction shorthand.
struct SchedulerSpec {
  // Band queue kinds, highest-priority band first. CSD requires every DP band
  // to be kEdfList and the final band to be kRmList (or kRmHeap).
  StaticVector<QueueKind, kMaxBands> bands;

  static SchedulerSpec Edf() {
    SchedulerSpec s;
    s.bands.push_back(QueueKind::kEdfList);
    return s;
  }
  static SchedulerSpec Rm() {
    SchedulerSpec s;
    s.bands.push_back(QueueKind::kRmList);
    return s;
  }
  static SchedulerSpec RmHeap() {
    SchedulerSpec s;
    s.bands.push_back(QueueKind::kRmHeap);
    return s;
  }
  // CSD-x: (x-1) dynamic-priority EDF queues over one fixed-priority queue.
  static SchedulerSpec Csd(int num_queues) {
    EM_ASSERT_MSG(num_queues >= 1 && num_queues <= kMaxBands, "CSD-%d unsupported", num_queues);
    SchedulerSpec s;
    for (int i = 0; i + 1 < num_queues; ++i) {
      s.bands.push_back(QueueKind::kEdfList);
    }
    s.bands.push_back(QueueKind::kRmList);
    return s;
  }
};

// --- Causal event chains -------------------------------------------------
//
// A chain names the dataflow path whose end-to-end latency is the real
// schedulability deliverable for sensor→compute→actuate pipelines: an origin
// channel, then alternating (channel consumed, consuming task) stages. The
// channel string is "<kind>:<name>" where kind is one of irq / release /
// sem / cv / mbox / smsg; irq channels name the line number ("irq:3"),
// release channels name the periodic task whose job release starts the
// chain, and the rest name the kernel object. Specs are declared up front in
// KernelConfig and resolved to object ids at Kernel::Start(); a spec whose
// names don't resolve is reported unresolved in the chains report rather
// than failing the boot.
struct ChainStageSpec {
  std::string channel;  // "<kind>:<name>", e.g. "smsg:pose"
  std::string task;     // consuming thread's name, e.g. "actuator"
};

struct ChainSpec {
  std::string name;
  // End-to-end deadline for one chain instance (origin emit to final
  // consume). Zero disables overrun checking for this chain.
  Duration deadline;
  std::vector<ChainStageSpec> stages;
};

// A spec after name resolution: each stage holds the packed trace endpoint
// (ChainEndpointPack) and the consuming thread's id (-1 = any consumer).
struct ResolvedChainStage {
  int32_t endpoint = 0;
  int consumer_tid = -1;
};

struct ResolvedChain {
  std::string name;
  Duration deadline;
  bool resolved = false;  // false: some channel/task name didn't resolve
  std::vector<ResolvedChainStage> stages;
};

struct KernelConfig {
  SchedulerSpec scheduler = SchedulerSpec::Edf();

  // Number of virtual cores (partitioned scheduling, no migration). Each core
  // gets its own scheduler state block built from `scheduler`; threads are
  // pinned via ThreadParams::core. 1 = the paper's single-CPU EMERALDS.
  int num_cores = 1;
  CostModel cost_model = CostModel::MC68040_25MHz();
  SemMode default_sem_mode = SemMode::kCse;
  FpRankPolicy fp_rank_policy = FpRankPolicy::kRateMonotonic;

  // Object-pool capacities (allocated once at kernel construction).
  size_t max_threads = 128;
  size_t max_processes = 16;
  size_t max_semaphores = 64;
  size_t max_condvars = 32;
  size_t max_mailboxes = 32;
  size_t max_state_messages = 64;
  size_t max_regions = 16;

  // Trace ring capacity (0 disables event retention; counters still work).
  size_t trace_capacity = 4096;

  // Record a kOverheadSpan trace event at the end of every non-user,
  // non-idle clock advance. Costs ring space (roughly 3-4x event volume) but
  // lets the deadline-miss postmortem engine attribute kernel overhead
  // (IRQ / timer service / scheduler / syscall) exactly; without spans the
  // lateness ledger still telescopes but lumps overhead into own-execution.
  bool trace_overhead_spans = true;

  // Declared causal event chains (resolved against object/thread names at
  // Start(); see ChainSpec above). Token propagation itself is always on —
  // the specs only drive the chain-latency reports and SLO checks.
  std::vector<ChainSpec> chains;

  // Deadline-headroom monitor: a job whose predicted completion (release +
  // per-job cost EWMA) leaves less slack than this margin raises a
  // kHeadroomLow trace instant and bumps the headroom counters. Zero flags
  // only predicted misses (negative slack).
  Duration headroom_low_margin;

  // Run the scheduler's structural invariant checks after every reschedule
  // (panics on violation). For tests; costs host time, no virtual time.
  bool debug_validate = false;
};

using ThreadBodyFactory = std::function<ThreadBody(ThreadApi)>;

struct ThreadParams {
  const char* name = "thread";
  ProcessId process = kKernelProcess;
  ThreadBodyFactory body;

  // Zero period => aperiodic (released once at Start(), never re-released).
  Duration period;
  // Zero => relative deadline equals the period (the paper's assumption).
  Duration relative_deadline;
  // First release offset from Start(); aperiodic threads ignore it.
  Duration first_release;

  // Scheduler band (CSD queue) this thread is assigned to; -1 places it in
  // the lowest-priority (fixed-priority) band. The CSD partition search in
  // src/analysis/ produces these assignments.
  int band = -1;

  // Core this thread is pinned to for its whole lifetime (partitioned SMP,
  // no migration). Must be in [0, KernelConfig::num_cores).
  int core = 0;

  // Fixed-priority rank; -1 lets the kernel assign rate-monotonic ranks
  // (shorter period = higher priority) at Start().
  int rm_rank = -1;

  // Informational worst-case execution time (used by traces/examples only).
  Duration wcet;
};

}  // namespace emeralds

#endif  // SRC_CORE_CONFIG_H_
