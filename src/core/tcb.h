// Thread control block.
//
// One TCB per thread, allocated from the kernel pool at creation. The paper's
// scheduler design hinges on TCBs living *inside* the scheduler queues whether
// ready or blocked (Section 5.1), and on cheap state flips: blocking and
// unblocking are "changing one entry in the task control block".

#ifndef SRC_CORE_TCB_H_
#define SRC_CORE_TCB_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <span>

#include "src/base/intrusive_list.h"
#include "src/base/status.h"
#include "src/base/time.h"
#include "src/core/api.h"
#include "src/core/ids.h"
#include "src/core/timer.h"
#include "src/hal/cycles.h"
#include "src/hal/trace.h"

namespace emeralds {

struct Semaphore;

enum class ThreadState : uint8_t {
  kNew,       // created, not yet released
  kReady,     // runnable (possibly mid-compute or resume-pending)
  kRunning,   // the thread the CPU is executing
  kBlocked,   // waiting; see block_reason
  kFinished,  // body returned
};

enum class BlockReason : uint8_t {
  kNone,
  kWaitPeriod,      // between jobs
  kWaitSem,         // on a semaphore wait queue
  kPreAcquire,      // frozen in a semaphore's pre-acquire queue (Section 6.3.1)
  kWaitCondvar,
  kWaitMailboxRecv,
  kWaitMailboxSend,
  kWaitIrq,
  kSleep,
};

const char* ThreadStateToString(ThreadState state);
const char* BlockReasonToString(BlockReason reason);

// Deferred user-level operation completed when the staged compute drains
// (state-message copies happen in user time and are preemptible).
enum class PendingOpKind : uint8_t {
  kNone,
  kStateWriteCommit,
  kStateReadValidate,
};

struct Tcb {
  // --- Identity / static parameters ---
  ThreadId id;
  ProcessId process;
  char name[24] = {};
  Duration period;             // zero => aperiodic
  Duration relative_deadline;  // == period unless overridden
  Duration first_release_offset;
  bool periodic = false;
  Duration wcet;  // informational
  int core = 0;   // pinned core (partitioned SMP; never changes after create)

  // --- Scheduling (base and effective priority) ---
  int base_band = 0;
  int effective_band = 0;
  int base_rm_rank = 0;       // lower = higher fixed priority
  int effective_rm_rank = 0;  // tracks queue position in the FP band
  Instant effective_deadline = Instant::Max();  // EDF key (may be inherited)
  bool ready = false;         // the "one entry in the TCB" the queues flip

  // Queue membership nodes.
  ListNode<Tcb> band_node;   // band task list / FP sorted queue
  ListNode<Tcb> boost_node;  // temporary PI boost into a higher band
  int boosted_into_band = -1;
  ListNode<Tcb> wait_node;     // semaphore / condvar / mailbox wait queues
  ListNode<Tcb> preacq_node;   // semaphore pre-acquire queue
  size_t heap_index = SIZE_MAX;  // position in RmHeap (ready tasks only)

  // --- Job state ---
  ThreadState state = ThreadState::kNew;
  BlockReason block_reason = BlockReason::kNone;
  uint64_t job_number = 0;
  Instant job_release;
  Instant job_deadline = Instant::Max();
  uint32_t pending_releases = 0;  // releases that arrived while still busy
  bool miss_recorded = false;     // current job's miss already counted
  uint64_t jobs_completed = 0;
  uint64_t deadline_misses = 0;
  Duration max_response;    // worst job response time (completion - release)
  Duration total_response;  // sum over completed jobs (for averages)

  // --- Cycle attribution / headroom monitor ---
  // Per-task ledger: charges made while this thread was current (kUser is
  // its own compute time; the rest is kernel work billed to the thread that
  // triggered it). Cumulative since boot — ResetChargeAccounting leaves it
  // alone.
  CycleLedger cycles;
  // EWMA (alpha = 1/4, integer) of per-job attributed cycles; the first
  // completed job seeds it.
  Duration job_cost_ewma;
  bool job_cost_seeded = false;
  Duration job_cost_baseline;  // per-task ledger total at job start
  // Worst observed slack at completion (deadline - completion; negative on a
  // miss), and jobs flagged low-headroom at release by the predictor.
  Duration headroom_min;
  bool headroom_seen = false;
  uint64_t headroom_low_events = 0;

  // --- Synchronization state ---
  Semaphore* blocked_on = nullptr;  // semaphore this thread waits on
  // Non-null while this thread occupies a borrowed FP-queue slot via the
  // place-holder swap; identifies which held semaphore the swap belongs to.
  Semaphore* pi_swap_sem = nullptr;
  // Semaphores currently held (intrusive list lives in Semaphore::held_node).
  // Head pointer only; see Semaphore for linkage.
  Semaphore* held_head = nullptr;
  // CSE: hint set by the blocking call preceding an acquire, the semaphore
  // whose pre-acquire queue we sit in, and whether the lock was already
  // handed to us while blocked.
  SemId wakeup_hint = kNoSem;
  Semaphore* preacq_sem = nullptr;
  bool cse_waiter = false;   // queued on the semaphore by the early-PI path
  bool cse_granted = false;  // lock handed over before acquire_sem() ran

  // --- Execution ---
  // The body factory is kept alive here for the thread's lifetime: when the
  // body is a capturing lambda, the coroutine references the closure object,
  // so the closure must outlive the coroutine (a classic C++20 coroutine
  // hazard). The kernel invokes this stored copy, never the caller's.
  std::function<class ThreadBody(class ThreadApi)> body_factory;
  std::coroutine_handle<> coroutine;
  bool started = false;
  bool resume_pending = false;     // suspended at a completed syscall
  Duration remaining_compute;      // outstanding Compute() budget

  // Deferred user-level op (state messages).
  PendingOpKind pending_op = PendingOpKind::kNone;
  SmsgId pending_smsg;
  std::span<const uint8_t> pending_write_data;
  std::span<uint8_t> pending_read_buffer;
  int pending_slot = -1;
  uint64_t pending_seq = 0;
  int pending_retries = 0;

  // --- Syscall results (read by await_resume) ---
  Status syscall_status = Status::kOk;
  size_t syscall_length = 0;
  uint64_t syscall_sequence = 0;
  int syscall_retries = 0;

  // --- Blocked-operation staging ---
  std::span<uint8_t> recv_buffer;          // destination for a blocked Recv
  std::span<const uint8_t> send_data;      // payload of a blocked Send
  MailboxId waiting_mailbox;
  CondvarId waiting_condvar;
  SemId condvar_mutex;                     // mutex to re-acquire after Wait
  int waiting_irq_line = -1;
  uint32_t irq_pending_count = 0;          // IRQs that fired while not waiting

  // --- Causal chain tracing ---
  // Token the thread currently carries: set by the most recent consuming
  // operation (or the job release), stamped into whatever the thread
  // produces next, cleared at job completion.
  CausalToken chain_token;
  // Token latched alongside irq_pending_count when the IRQ fired while the
  // driver was not waiting; consumed when SysWaitIrq drains the latch.
  CausalToken irq_latched_token;

  // --- Timers ---
  SoftTimer period_timer;
  SoftTimer timeout_timer;

  bool is_blocked() const { return state == ThreadState::kBlocked; }
  bool runnable() const { return state == ThreadState::kReady || state == ThreadState::kRunning; }
};

}  // namespace emeralds

#endif  // SRC_CORE_TCB_H_
