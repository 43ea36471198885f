// The EMERALDS kernel.
//
// One Kernel instance is one node: it owns the thread/semaphore/IPC object
// pools, the CSD scheduler, the software-timer service, the interrupt
// handlers, and the executive that runs application coroutines on the virtual
// CPU. Construction allocates every pool ("kernel init"); nothing allocates
// on kernel fast paths afterwards.
//
// Paper mapping:
//   Section 5  -> Scheduler/Band (src/core/band.h, scheduler.h), executive
//   Section 6  -> SysAcquire/SysRelease/WakeThread (semaphore.cc) with
//                 context-switch elimination, early PI, the pre-acquire
//                 queue, and place-holder PI swaps
//   Section 7  -> mailboxes and state messages (ipc.cc)
//   Figure 1   -> condition variables, timers/clock services, interrupt
//                 handling and user-level device-driver support, processes
//                 with memory protection

#ifndef SRC_CORE_KERNEL_H_
#define SRC_CORE_KERNEL_H_

#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/base/time.h"
#include "src/core/band.h"
#include "src/core/config.h"
#include "src/core/objects.h"
#include "src/core/scheduler.h"
#include "src/core/stats.h"
#include "src/core/tcb.h"
#include "src/core/timer_queue.h"
#include "src/hal/hardware.h"
#include "src/hal/trace.h"

namespace emeralds {

// Recv() timeout sentinel: fail with kWouldBlock instead of blocking.
inline constexpr Duration kNoWait = Nanoseconds(-1);

// Longest blocking chain (holder -> semaphore the holder waits on -> its
// holder -> ...) the priority-inheritance walk will traverse. An acquire that
// would extend a chain to this depth fails with kResourceExhausted and a
// kPiChainLimit trace instant instead of panicking the node.
inline constexpr int kMaxPiChainDepth = 16;

class Kernel {
 public:
  Kernel(Hardware& hw, const KernelConfig& config);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Configuration phase (before Start) ---

  Result<ProcessId> CreateProcess(const char* name);
  Result<ThreadId> CreateThread(const ThreadParams& params);
  Result<SemId> CreateSemaphore(const char* name, int initial_count = 1,
                                AccessPolicy access = {});
  // Overrides the kernel-wide default semaphore mode for one semaphore.
  Result<SemId> CreateSemaphoreWithMode(const char* name, int initial_count, SemMode mode,
                                        AccessPolicy access = {});
  Result<CondvarId> CreateCondvar(const char* name, AccessPolicy access = {});
  Result<MailboxId> CreateMailbox(const char* name, size_t depth, AccessPolicy access = {});
  Result<SmsgId> CreateStateMessage(const char* name, size_t size_bytes, int num_slots,
                                    AccessPolicy access = {});
  Result<RegionId> CreateRegion(const char* name, size_t size_bytes);
  Status MapRegion(ProcessId process, RegionId region, bool read, bool write);

  // Application timers (Figure 1's clock services): each expiry releases the
  // counting semaphore `signal_target` (create it with initial_count 0); a
  // thread paces itself by acquiring it. Start/Stop may be called at any
  // time, including from the host between RunUntil calls.
  Result<TimerId> CreateTimer(const char* name, SemId signal_target);
  Status StartTimer(TimerId timer, Duration initial_delay, Duration period = Duration());
  Status StopTimer(TimerId timer);
  const UserTimer& user_timer(TimerId id) const;
  // Routes `line` to `thread`: the kernel ISR stub wakes the (user-level)
  // driver thread on each interrupt.
  Status BindIrqThread(ThreadId thread, int line);

  // Observability: samples KernelStats into a delta-encoded ring every
  // `period` of virtual time, driven by a kernel software timer (charged as
  // timer-service work like any other expiry). Call before Start(); the ring
  // (`capacity` samples) is allocated here, never on the sampling path.
  void EnableStatsSampling(Duration period, size_t capacity);

  // Releases periodic threads (at their first_release offsets) and readies
  // aperiodic ones. Assigns rate-monotonic ranks to threads that asked for
  // automatic ranking.
  void Start();

  // --- Execution ---

  // Runs the node until the virtual clock reaches `t` (work stamped exactly
  // `t` is processed; thread code at `t` is not started).
  void RunUntil(Instant t);
  void RunFor(Duration d) { RunUntil(hw_.now() + d); }

  // --- Introspection ---

  Instant now() const { return hw_.now(); }
  bool started() const { return started_; }
  const KernelStats& stats() const { return stats_; }
  // Snapshot ring; nullptr unless EnableStatsSampling() was called.
  const StatsSampler* stats_sampler() const { return stats_sampler_.get(); }
  TraceSink& trace() { return trace_; }
  const TraceSink& trace() const { return trace_; }
  // Core 0's scheduler (the only core at num_cores=1); per-core overloads
  // below for SMP introspection.
  Scheduler& scheduler() { return cores_[0]->sched; }
  const Scheduler& scheduler() const { return cores_[0]->sched; }
  Scheduler& scheduler(int core) { return cores_[core]->sched; }
  const Scheduler& scheduler(int core) const { return cores_[core]->sched; }
  int num_cores() const { return config_.num_cores; }
  const CostModel& cost_model() const { return cost_; }
  Hardware& hardware() { return hw_; }
  const Hardware& hardware() const { return hw_; }

  size_t thread_count() const { return threads_.size(); }
  const Tcb& thread(ThreadId id) const;
  ThreadId current_thread() const { return current_thread(0); }
  ThreadId current_thread(int core) const {
    return cores_[core]->current != nullptr ? cores_[core]->current->id : ThreadId();
  }
  const Semaphore& semaphore(SemId id) const;
  const Mailbox& mailbox(MailboxId id) const;
  const StateMessageBuffer& state_message(SmsgId id) const;
  const Condvar& condvar(CondvarId id) const;

  // Resets the per-category charge accounting (not the object state); benches
  // use this to measure windows.
  void ResetChargeAccounting();

  // Prints a per-thread status table (state, band, jobs, misses, response
  // times, CPU time) to stdout. Debugging/CLI aid.
  void DumpThreads() const;

  // Shared-memory access check: returns the region bytes when `process`
  // mapped the region with sufficient rights, else an empty span.
  std::span<uint8_t> RegionDataFor(ProcessId process, RegionId region, bool write);

  // Declared chains after Start()-time name resolution (empty before Start
  // or when the config declared none). The chain analyzer and report builder
  // consume these.
  const std::vector<ResolvedChain>& resolved_chains() const { return resolved_chains_; }

 private:
  friend class ThreadApi;
  friend struct internal::ComputeAwait;
  friend struct internal::WaitPeriodAwait;
  friend struct internal::AcquireAwait;
  friend struct internal::ReleaseAwait;
  friend struct internal::CondWaitAwait;
  friend struct internal::CondWakeAwait;
  friend struct internal::SendAwait;
  friend struct internal::RecvAwait;
  friend struct internal::StateWriteAwait;
  friend struct internal::StateReadAwait;
  friend struct internal::SleepAwait;
  friend struct internal::WaitIrqAwait;
  friend struct internal::YieldAwait;

  struct SyscallOutcome {
    bool suspend;
  };

  // Per-core scheduler state block (partitioned SMP). Every core owns a full
  // band set built from the same SchedulerSpec, its own current thread, and
  // its own reschedule flags; threads are pinned to one core at creation and
  // never migrate. At num_cores=1 this is exactly the paper's single CPU.
  struct CoreState {
    explicit CoreState(const SchedulerSpec& spec) : sched(spec) {}
    Scheduler sched;
    Tcb* current = nullptr;
    bool need_resched = false;
    // Attribution for the next context switch: true when a semaphore
    // operation triggered the pending reschedule.
    bool resched_from_sem = false;
    // The current thread's compute drained to zero inside a clock advance;
    // the executive finishes the drain (ServiceDrains) before anything else.
    bool drain_pending = false;
  };

  // RAII: marks which core the kernel is acting on behalf of, so charges land
  // in that core's ledger and bill that core's current thread. ISR and host
  // context always run as core 0 (the boot core owns the hardware timer).
  class ScopedActiveCore {
   public:
    ScopedActiveCore(Kernel& kernel, int core) : kernel_(kernel), prev_(kernel.active_core_) {
      kernel_.active_core_ = core;
    }
    ~ScopedActiveCore() { kernel_.active_core_ = prev_; }

   private:
    Kernel& kernel_;
    int prev_;
  };

  // RAII scope marking charges as semaphore-path time (Figure 11's metric).
  class ScopedSemPath {
   public:
    explicit ScopedSemPath(Kernel& kernel) : kernel_(kernel), prev_(kernel.sem_path_) {
      kernel_.sem_path_ = true;
    }
    ~ScopedSemPath() { kernel_.sem_path_ = prev_; }

   private:
    Kernel& kernel_;
    bool prev_;
  };

  // Hardware one-shot timer: expiry raises the timer IRQ line.
  class OneShotTimer : public HardwareTimer {
   public:
    void OnExpire(Hardware& hw) override { hw.irq().Raise(kIrqTimer); }
  };

  // --- Syscall implementations (called from awaitables; `t` == current) ---
  SyscallOutcome SysCompute(Tcb& t, Duration amount);
  SyscallOutcome SysWaitPeriod(Tcb& t, SemId next_sem);
  SyscallOutcome SysAcquire(Tcb& t, SemId sem);
  SyscallOutcome SysRelease(Tcb& t, SemId sem);
  SyscallOutcome SysCondWait(Tcb& t, CondvarId condvar, SemId mutex);
  SyscallOutcome SysCondWake(Tcb& t, CondvarId condvar, bool broadcast);
  SyscallOutcome SysSend(Tcb& t, MailboxId mailbox, std::span<const uint8_t> data, bool wait);
  SyscallOutcome SysRecv(Tcb& t, MailboxId mailbox, std::span<uint8_t> buffer, Duration timeout,
                         SemId next_sem);
  SyscallOutcome SysStateWrite(Tcb& t, SmsgId smsg, std::span<const uint8_t> data);
  SyscallOutcome SysStateRead(Tcb& t, SmsgId smsg, std::span<uint8_t> buffer);
  SyscallOutcome SysSleep(Tcb& t, Duration amount, SemId next_sem);
  SyscallOutcome SysWaitIrq(Tcb& t, int line, SemId next_sem);
  SyscallOutcome SysYield(Tcb& t);

  // --- Executive ---
  void Reschedule(int core);
  void ContextSwitch(int core, Tcb* next);
  void ResumeThread(Tcb& t);
  void FinishComputeDrain(Tcb& t);
  bool ServiceDrains();
  // Advances every core in lockstep by `amount`: cores whose current thread
  // is mid-compute burn user time, the rest burn idle time.
  void AdvanceWorld(Duration amount);
  // Called under a Charge advance: while the active core does kernel
  // work for `amount`, every *other* core keeps running its own current
  // thread's compute (or idles). Empty at num_cores=1.
  void MirrorAdvance(Duration amount);
  void AdvanceIdleTo(Instant target);
  void DispatchDueWork();
  void Watchdog();
  // Requests a reschedule on `core`; a cross-core request prices one virtual
  // IPI (CycleBucket::kIpi) against the active core.
  void NotifyCore(int core, bool from_sem);

  // Scheduler that owns thread `t` (its pinned core's band set).
  Scheduler& sched_of(const Tcb& t) { return cores_[t.core]->sched; }
  bool need_resched() const { return cores_[active_core_]->need_resched; }
  // Priority comparison is config-derived and identical on every core, so
  // core 0's scheduler answers for cross-core pairs too (wait queues are
  // shared between cores; band sets are not).
  bool HigherPriority(const Tcb& a, const Tcb& b) const {
    return cores_[0]->sched.HigherPriority(a, b);
  }

  // --- Charging ---
  // Every path that advances the virtual clock funnels through Charge,
  // AdvanceWorld, or AdvanceIdleTo, each of which records the advance once
  // per core in that core's ledger (and in the current thread's) — that is
  // what makes the cycle-conservation invariant hold to the tick.
  void Charge(CycleBucket bucket, Duration amount);
  void ChargeQueueOps(const ChargeList& charges);

  // --- Thread state transitions ---
  void BlockThread(Tcb& t, BlockReason reason);
  void MakeReady(Tcb& t);
  // The unblock path with the CSE hook (Section 6.2): may convert the wake
  // into early PI (thread stays blocked) or a pre-acquire enqueue.
  void WakeThread(Tcb& t);
  void ExitThread(Tcb& t);

  // --- Timers / clock service ---
  void ArmSoftTimer(SoftTimer& timer, Instant expiry);
  void CancelSoftTimer(SoftTimer& timer);
  void ProgramHardwareTimer();
  void TimerIsr();
  void HandlePeriodRelease(Tcb& t);
  void HandleTimeout(Tcb& t);
  void HandleUserTimer(UserTimer& timer);
  void StartJob(Tcb& t);
  // Headroom monitor halves: predict slack at release, record the observed
  // cost EWMA and worst slack at completion.
  void PredictHeadroom(Tcb& t);
  void RecordJobCost(Tcb& t);
  // ISR-context counting-semaphore signal (no owner, no PI).
  void SignalCountingSem(Semaphore& sem, uint64_t* overruns);

  // --- Semaphore internals (semaphore.cc) ---
  Semaphore* SemPtr(SemId id);
  void EnqueueWaiter(Semaphore& sem, Tcb& waiter);
  Tcb* HighestWaiter(Semaphore& sem, int* visits);
  bool PiChainTooDeep(const Semaphore& sem) const;
  void DoInheritance(Semaphore& sem, Tcb& donor);
  void InheritOne(Semaphore& sem, Tcb& holder, Tcb& donor);
  void DissolveSwap(Tcb& holder);
  void UndoInheritance(Tcb& holder, Semaphore& released);
  void RecomputeEffective(Tcb& t);
  void ReleaseLocked(Tcb& owner, Semaphore& sem);
  void GrantTo(Semaphore& sem, Tcb& waiter);
  void JoinPreAcquire(Semaphore& sem, Tcb& t);
  void LeavePreAcquire(Tcb& t);
  void FreezePreAcquirers(Semaphore& sem, Tcb& except);
  void ThawPreAcquirers(Semaphore& sem);
  void HeldAdd(Tcb& t, Semaphore& sem);
  void HeldRemove(Tcb& t, Semaphore& sem);

  // --- Condvar internals (condvar.cc) ---
  Condvar* CondvarPtr(CondvarId id);
  void WakeCondWaiter(Condvar& cv, Tcb& waiter);

  // --- Mailbox / state-message internals (ipc.cc) ---
  Mailbox* MailboxPtr(MailboxId id);
  StateMessageBuffer* SmsgPtr(SmsgId id);
  Duration CopyCost(size_t bytes) const;
  Status RecvCopyStatus(size_t copied, size_t message_size);
  void FinishMailboxRecvWait(Tcb& receiver);
  void DeliverToWaiter(Mailbox& mbox, MboxMessage&& message);
  void AdmitBlockedSender(Mailbox& mbox);
  void FinishStateWrite(Tcb& t);
  void FinishStateRead(Tcb& t);

  // --- Interrupts (irq.cc) ---
  static void IrqTrampoline(void* context, int line);
  void HandleIrq(int line);

  // --- Causal chain tracing ---
  // Emit at a producing endpoint: propagates `carrier`'s token (nullptr or
  // an invalid token mints a fresh origin), records kChainEmit, and returns
  // the token to stamp into the channel. Costs zero virtual time, like any
  // trace record.
  CausalToken ChainEmit(int32_t endpoint, const Tcb* carrier);
  // Consume at the matching endpoint: records kChainConsume with the hop
  // bumped and `consumer` named explicitly (handoffs run in producer or ISR
  // context), then parks the bumped token on the consumer's TCB. Invalid or
  // hop-capped tokens are dropped silently.
  void ChainConsume(int32_t endpoint, CausalToken token, Tcb& consumer);
  // Start()-time resolution of config_.chains name strings to object ids.
  void ResolveChainSpecs();

  Hardware& hw_;
  KernelConfig config_;
  CostModel cost_;
  TraceSink trace_;
  KernelStats stats_;

  // One state block per virtual core; cores_[active_core_] is the core the
  // kernel is currently acting for (0 in ISR/host context).
  std::vector<std::unique_ptr<CoreState>> cores_;
  int active_core_ = 0;

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<Tcb>> threads_;
  std::vector<std::unique_ptr<Semaphore>> semaphores_;
  std::vector<std::unique_ptr<Condvar>> condvars_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<StateMessageBuffer>> smsgs_;
  std::vector<std::unique_ptr<SharedRegion>> regions_;
  std::vector<std::unique_ptr<UserTimer>> user_timers_;

  TimerQueue soft_timers_;
  uint64_t timer_seq_ = 0;
  OneShotTimer oneshot_;

  // Observability sampler (EnableStatsSampling).
  std::unique_ptr<StatsSampler> stats_sampler_;
  SoftTimer stats_sample_timer_;
  Duration stats_sample_period_;

  bool started_ = false;
  bool sem_path_ = false;

  Tcb* irq_threads_[kNumIrqLines] = {};

  // Causal chain tracing: next origin id to mint (0 is the invalid token)
  // and the Start()-resolved chain declarations.
  uint32_t next_chain_origin_ = 1;
  std::vector<ResolvedChain> resolved_chains_;

  // Livelock watchdog.
  Instant watchdog_time_;
  uint64_t watchdog_resumes_ = 0;
};

}  // namespace emeralds

#endif  // SRC_CORE_KERNEL_H_
