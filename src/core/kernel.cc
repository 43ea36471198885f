// Kernel construction, object creation, the executive, timers, and the
// scheduling-related system calls. Semaphores, condition variables, IPC, and
// interrupts live in their own translation units.

#include "src/core/kernel.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/base/log.h"

namespace emeralds {
namespace {

void CopyName(char* dest, size_t dest_size, const char* src) {
  std::snprintf(dest, dest_size, "%s", src != nullptr ? src : "");
}

}  // namespace

Kernel::Kernel(Hardware& hw, const KernelConfig& config)
    : hw_(hw),
      config_(config),
      cost_(config.cost_model),
      trace_(config.trace_capacity) {
  EM_ASSERT_MSG(config_.num_cores >= 1 && config_.num_cores <= kMaxCores,
                "num_cores %d outside [1, %d]", config_.num_cores, kMaxCores);
  cores_.reserve(static_cast<size_t>(config_.num_cores));
  for (int c = 0; c < config_.num_cores; ++c) {
    cores_.push_back(std::make_unique<CoreState>(config_.scheduler));
  }
  stats_.num_cores = config_.num_cores;
  processes_.reserve(config_.max_processes);
  threads_.reserve(config_.max_threads);
  semaphores_.reserve(config_.max_semaphores);
  condvars_.reserve(config_.max_condvars);
  mailboxes_.reserve(config_.max_mailboxes);
  smsgs_.reserve(config_.max_state_messages);
  regions_.reserve(config_.max_regions);

  Result<ProcessId> kernel_process = CreateProcess("kernel");
  EM_ASSERT(kernel_process.ok() && kernel_process.value() == kKernelProcess);

  static_assert(kMaxBands == kMaxStatBands,
                "per-band cycle table must cover every CSD band");
  static_assert(kMaxCores == kMaxStatCores,
                "per-core cycle ledgers must cover every core");
  stats_.cycles_epoch = hw_.now();

  hw_.irq().Attach(kIrqTimer, &Kernel::IrqTrampoline, this);
}

Kernel::~Kernel() {
  // Unwind intrusive structures before the pools are destroyed.
  soft_timers_.Clear();
  hw_.DisarmTimer(oneshot_);
  for (int line = 0; line < kNumIrqLines; ++line) {
    if (line == kIrqTimer || irq_threads_[line] != nullptr) {
      hw_.irq().Detach(line);
    }
  }
  for (auto& sem : semaphores_) {
    sem->waiters.clear();
    sem->pre_acquire.clear();
  }
  for (auto& cv : condvars_) {
    cv->waiters.clear();
  }
  for (auto& mbox : mailboxes_) {
    mbox->recv_waiters.clear();
    mbox->send_waiters.clear();
  }
  for (auto& t : threads_) {
    if (t->boosted_into_band >= 0) {
      sched_of(*t).RemoveBoost(*t);
    }
  }
  for (auto& t : threads_) {
    // kNew threads were never handed to the scheduler (Start() not reached);
    // kFinished threads were removed at exit.
    if (t->state != ThreadState::kFinished && t->state != ThreadState::kNew) {
      sched_of(*t).RemoveThread(*t);
    }
    if (t->coroutine) {
      t->coroutine.destroy();
    }
  }
}

// --- Object creation ---

Result<ProcessId> Kernel::CreateProcess(const char* name) {
  if (processes_.size() >= config_.max_processes) {
    return Status::kResourceExhausted;
  }
  auto process = std::make_unique<Process>();
  process->id = ProcessId(static_cast<int>(processes_.size()));
  CopyName(process->name, sizeof(process->name), name);
  ProcessId id = process->id;
  processes_.push_back(std::move(process));
  return id;
}

Result<ThreadId> Kernel::CreateThread(const ThreadParams& params) {
  EM_ASSERT_MSG(!started_, "threads must be created before Start()");
  if (threads_.size() >= config_.max_threads) {
    return Status::kResourceExhausted;
  }
  if (!params.body) {
    return Status::kInvalidArgument;
  }
  if (!params.process.valid() ||
      static_cast<size_t>(params.process.value) >= processes_.size()) {
    return Status::kBadHandle;
  }
  if (params.period.is_negative() || params.relative_deadline.is_negative() ||
      params.first_release.is_negative()) {
    return Status::kInvalidArgument;
  }
  if (params.core < 0 || params.core >= config_.num_cores) {
    return Status::kInvalidArgument;
  }
  auto tcb = std::make_unique<Tcb>();
  tcb->id = ThreadId(static_cast<int>(threads_.size()));
  tcb->process = params.process;
  CopyName(tcb->name, sizeof(tcb->name), params.name);
  tcb->period = params.period;
  tcb->periodic = params.period.is_positive();
  tcb->relative_deadline =
      params.relative_deadline.is_positive() ? params.relative_deadline : params.period;
  tcb->first_release_offset = params.first_release;
  tcb->base_band = params.band;
  tcb->base_rm_rank = params.rm_rank;
  tcb->core = params.core;
  tcb->wcet = params.wcet;
  tcb->period_timer.kind = TimerKind::kPeriodRelease;
  tcb->period_timer.owner = tcb.get();
  tcb->timeout_timer.kind = TimerKind::kTimeout;
  tcb->timeout_timer.owner = tcb.get();

  // Invoke the TCB's own copy of the factory: the coroutine references the
  // closure object, which must stay alive as long as the thread.
  tcb->body_factory = params.body;
  ThreadBody body = tcb->body_factory(ThreadApi(this, tcb.get()));
  tcb->coroutine = body.release();
  EM_ASSERT_MSG(static_cast<bool>(tcb->coroutine), "thread body factory returned no coroutine");

  ThreadId id = tcb->id;
  threads_.push_back(std::move(tcb));
  return id;
}

Result<SemId> Kernel::CreateSemaphore(const char* name, int initial_count, AccessPolicy access) {
  return CreateSemaphoreWithMode(name, initial_count, config_.default_sem_mode, access);
}

Result<SemId> Kernel::CreateSemaphoreWithMode(const char* name, int initial_count, SemMode mode,
                                              AccessPolicy access) {
  if (semaphores_.size() >= config_.max_semaphores) {
    return Status::kResourceExhausted;
  }
  if (initial_count < 0) {
    return Status::kInvalidArgument;
  }
  auto sem = std::make_unique<Semaphore>();
  sem->id = SemId(static_cast<int>(semaphores_.size()));
  CopyName(sem->name, sizeof(sem->name), name);
  sem->mode = mode;
  sem->initial_count = initial_count;
  sem->count = initial_count;
  sem->binary = initial_count == 1;
  sem->access = access;
  SemId id = sem->id;
  semaphores_.push_back(std::move(sem));
  return id;
}

Result<CondvarId> Kernel::CreateCondvar(const char* name, AccessPolicy access) {
  if (condvars_.size() >= config_.max_condvars) {
    return Status::kResourceExhausted;
  }
  auto cv = std::make_unique<Condvar>();
  cv->id = CondvarId(static_cast<int>(condvars_.size()));
  CopyName(cv->name, sizeof(cv->name), name);
  cv->access = access;
  CondvarId id = cv->id;
  condvars_.push_back(std::move(cv));
  return id;
}

Result<MailboxId> Kernel::CreateMailbox(const char* name, size_t depth, AccessPolicy access) {
  if (mailboxes_.size() >= config_.max_mailboxes) {
    return Status::kResourceExhausted;
  }
  if (depth == 0) {
    return Status::kInvalidArgument;
  }
  auto mbox = std::make_unique<Mailbox>();
  mbox->id = MailboxId(static_cast<int>(mailboxes_.size()));
  CopyName(mbox->name, sizeof(mbox->name), name);
  mbox->queue = std::make_unique<RingBuffer<MboxMessage>>(depth);
  mbox->access = access;
  MailboxId id = mbox->id;
  mailboxes_.push_back(std::move(mbox));
  return id;
}

Result<SmsgId> Kernel::CreateStateMessage(const char* name, size_t size_bytes, int num_slots,
                                          AccessPolicy access) {
  if (smsgs_.size() >= config_.max_state_messages) {
    return Status::kResourceExhausted;
  }
  if (size_bytes == 0 || num_slots < 1) {
    return Status::kInvalidArgument;
  }
  auto smsg = std::make_unique<StateMessageBuffer>();
  smsg->id = SmsgId(static_cast<int>(smsgs_.size()));
  CopyName(smsg->name, sizeof(smsg->name), name);
  smsg->size = size_bytes;
  smsg->num_slots = num_slots;
  smsg->data = std::make_unique<uint8_t[]>(size_bytes * static_cast<size_t>(num_slots));
  smsg->slot_seq = std::make_unique<uint64_t[]>(static_cast<size_t>(num_slots));
  smsg->slot_token = std::make_unique<CausalToken[]>(static_cast<size_t>(num_slots));
  for (int i = 0; i < num_slots; ++i) {
    smsg->slot_seq[i] = 0;
  }
  smsg->access = access;
  SmsgId id = smsg->id;
  smsgs_.push_back(std::move(smsg));
  return id;
}

Result<RegionId> Kernel::CreateRegion(const char* name, size_t size_bytes) {
  if (regions_.size() >= config_.max_regions || regions_.size() >= 64) {
    return Status::kResourceExhausted;
  }
  if (size_bytes == 0) {
    return Status::kInvalidArgument;
  }
  auto region = std::make_unique<SharedRegion>();
  region->id = RegionId(static_cast<int>(regions_.size()));
  CopyName(region->name, sizeof(region->name), name);
  region->size = size_bytes;
  region->data = std::make_unique<uint8_t[]>(size_bytes);
  std::memset(region->data.get(), 0, size_bytes);
  RegionId id = region->id;
  regions_.push_back(std::move(region));
  return id;
}

Status Kernel::MapRegion(ProcessId process, RegionId region, bool read, bool write) {
  if (!process.valid() || static_cast<size_t>(process.value) >= processes_.size()) {
    return Status::kBadHandle;
  }
  if (!region.valid() || static_cast<size_t>(region.value) >= regions_.size()) {
    return Status::kBadHandle;
  }
  uint64_t bit = 1ull << region.value;
  Process& p = *processes_[process.value];
  if (read || write) {
    p.map_read |= bit;
  } else {
    p.map_read &= ~bit;
  }
  if (write) {
    p.map_write |= bit;
  } else {
    p.map_write &= ~bit;
  }
  return Status::kOk;
}

Result<TimerId> Kernel::CreateTimer(const char* name, SemId signal_target) {
  Semaphore* sem = SemPtr(signal_target);
  if (sem == nullptr) {
    return Status::kBadHandle;
  }
  if (sem->binary) {
    return Status::kInvalidArgument;  // timers need a counting semaphore
  }
  auto timer = std::make_unique<UserTimer>();
  timer->id = TimerId(static_cast<int>(user_timers_.size()));
  CopyName(timer->name, sizeof(timer->name), name);
  timer->signal_target = signal_target;
  timer->soft.kind = TimerKind::kUserTimer;
  timer->soft.user = timer.get();
  TimerId id = timer->id;
  user_timers_.push_back(std::move(timer));
  return id;
}

Status Kernel::StartTimer(TimerId id, Duration initial_delay, Duration period) {
  if (!id.valid() || static_cast<size_t>(id.value) >= user_timers_.size()) {
    return Status::kBadHandle;
  }
  if (initial_delay.is_negative() || period.is_negative()) {
    return Status::kInvalidArgument;
  }
  UserTimer& timer = *user_timers_[id.value];
  timer.period = period;
  ArmSoftTimer(timer.soft, hw_.now() + initial_delay);
  return Status::kOk;
}

Status Kernel::StopTimer(TimerId id) {
  if (!id.valid() || static_cast<size_t>(id.value) >= user_timers_.size()) {
    return Status::kBadHandle;
  }
  CancelSoftTimer(user_timers_[id.value]->soft);
  return Status::kOk;
}

const UserTimer& Kernel::user_timer(TimerId id) const {
  EM_ASSERT(id.valid() && static_cast<size_t>(id.value) < user_timers_.size());
  return *user_timers_[id.value];
}

void Kernel::HandleUserTimer(UserTimer& timer) {
  ++timer.fires;
  if (timer.period.is_positive()) {
    ArmSoftTimer(timer.soft, timer.soft.expiry + timer.period);
  }
  Semaphore* sem = SemPtr(timer.signal_target);
  EM_ASSERT(sem != nullptr);
  SignalCountingSem(*sem, &timer.overruns);
}

void Kernel::SignalCountingSem(Semaphore& sem, uint64_t* overruns) {
  EM_ASSERT(!sem.binary);
  Charge(CycleBucket::kSemaphore, cost_.sem_fixed);
  // Timer expiries are chain origins ("timer release" producing op): the
  // signal runs in ISR context, so the emit always mints a fresh token.
  int32_t endpoint = ChainEndpointPack(ChainEndpointKind::kSem, sem.id.value);
  CausalToken token = ChainEmit(endpoint, nullptr);
  int visits = 0;
  Tcb* waiter = HighestWaiter(sem, &visits);
  Charge(CycleBucket::kSemaphore, cost_.waitq_visit * visits);
  if (waiter != nullptr) {
    sem.waiters.erase(*waiter);
    waiter->blocked_on = nullptr;
    waiter->syscall_status = Status::kOk;
    ++sem.handoffs;
    ++stats_.sem_handoffs;
    // As in SysRelease: the handoff is where the blocked acquire completes,
    // and the trace analyzer pairs it with the kSemAcquireBlock.
    trace_.Record(hw_.now(), TraceEventType::kSemAcquire, waiter->id.value, sem.id.value);
    ChainConsume(endpoint, token, *waiter);
    MakeReady(*waiter);
    return;
  }
  sem.token = token;
  if (sem.count > 0 && overruns != nullptr) {
    ++*overruns;  // the previous expiry was never consumed
  }
  if (sem.count < (1 << 30)) {
    ++sem.count;
  }
}

// --- Causal chain tracing ---

CausalToken Kernel::ChainEmit(int32_t endpoint, const Tcb* carrier) {
  CausalToken token;
  if (carrier != nullptr && carrier->chain_token.valid()) {
    token = carrier->chain_token;
  } else {
    token.origin = next_chain_origin_++;
    if (next_chain_origin_ == 0) {
      next_chain_origin_ = 1;  // 0 stays the invalid token after wraparound
    }
    token.hop = 0;
    token.mint = hw_.now();
    ++stats_.chain_origins;
  }
  ++stats_.chain_emits;
  trace_.Record(hw_.now(), TraceEventType::kChainEmit, static_cast<int32_t>(token.origin),
                endpoint,
                ChainHopPack(token.hop, carrier != nullptr ? carrier->id.value : -1));
  return token;
}

void Kernel::ChainConsume(int32_t endpoint, CausalToken token, Tcb& consumer) {
  if (!token.valid()) {
    return;
  }
  if (token.hop >= kMaxChainHops) {
    // Cyclic pipeline: stop the token instead of growing the hop count
    // without bound. The consumer starts token-free; the analyzer counts the
    // dropped token as a saturated hop, never a conservation violation.
    ++stats_.chain_hop_saturations;
    consumer.chain_token.clear();
    return;
  }
  token.hop = static_cast<uint16_t>(token.hop + 1);
  ++stats_.chain_consumes;
  trace_.Record(hw_.now(), TraceEventType::kChainConsume, static_cast<int32_t>(token.origin),
                endpoint, ChainHopPack(token.hop, consumer.id.value));
  consumer.chain_token = token;
  // Streaming chain e2e: a consume landing on the final stage of a resolved
  // chain spec closes one chain instance — record final-consume minus mint,
  // and count an overrun when it blew the chain's deadline. The offline
  // analyzer remains the reconciliation oracle; this is the always-on view.
  for (const ResolvedChain& chain : resolved_chains_) {
    if (!chain.resolved || chain.stages.empty()) {
      continue;
    }
    const ResolvedChainStage& last = chain.stages.back();
    if (last.endpoint != endpoint ||
        (last.consumer_tid >= 0 && last.consumer_tid != consumer.id.value)) {
      continue;
    }
    Duration e2e = hw_.now() - token.mint;
    stats_.chain_e2e_hist.Add(e2e);
    if (chain.deadline.is_positive() && e2e > chain.deadline) {
      ++stats_.chain_e2e_overruns;
    }
  }
}

void Kernel::ResolveChainSpecs() {
  resolved_chains_.clear();
  resolved_chains_.reserve(config_.chains.size());
  auto find_thread = [this](const std::string& name) -> int {
    for (const auto& t : threads_) {
      if (name == t->name) {
        return t->id.value;
      }
    }
    return -1;
  };
  auto resolve_channel = [&](const std::string& channel, int32_t* endpoint) -> bool {
    size_t colon = channel.find(':');
    if (colon == std::string::npos) {
      return false;
    }
    std::string kind = channel.substr(0, colon);
    std::string rest = channel.substr(colon + 1);
    if (kind == "irq") {
      char* end = nullptr;
      long line = std::strtol(rest.c_str(), &end, 10);
      if (end == rest.c_str() || *end != '\0' || line < 0 || line >= kNumIrqLines) {
        return false;
      }
      *endpoint = ChainEndpointPack(ChainEndpointKind::kIrq, static_cast<int>(line));
      return true;
    }
    if (kind == "release") {
      int tid = find_thread(rest);
      if (tid < 0) {
        return false;
      }
      *endpoint = ChainEndpointPack(ChainEndpointKind::kRelease, tid);
      return true;
    }
    if (kind == "sem") {
      for (const auto& s : semaphores_) {
        if (rest == s->name) {
          *endpoint = ChainEndpointPack(ChainEndpointKind::kSem, s->id.value);
          return true;
        }
      }
      return false;
    }
    if (kind == "cv") {
      for (const auto& c : condvars_) {
        if (rest == c->name) {
          *endpoint = ChainEndpointPack(ChainEndpointKind::kCondvar, c->id.value);
          return true;
        }
      }
      return false;
    }
    if (kind == "mbox") {
      for (const auto& m : mailboxes_) {
        if (rest == m->name) {
          *endpoint = ChainEndpointPack(ChainEndpointKind::kMailbox, m->id.value);
          return true;
        }
      }
      return false;
    }
    if (kind == "smsg") {
      for (const auto& s : smsgs_) {
        if (rest == s->name) {
          *endpoint = ChainEndpointPack(ChainEndpointKind::kSmsg, s->id.value);
          return true;
        }
      }
      return false;
    }
    return false;
  };
  for (const ChainSpec& spec : config_.chains) {
    ResolvedChain resolved;
    resolved.name = spec.name;
    resolved.deadline = spec.deadline;
    resolved.resolved = !spec.stages.empty();
    for (const ChainStageSpec& stage : spec.stages) {
      ResolvedChainStage out;
      if (!resolve_channel(stage.channel, &out.endpoint)) {
        resolved.resolved = false;
      }
      if (!stage.task.empty()) {
        out.consumer_tid = find_thread(stage.task);
        if (out.consumer_tid < 0) {
          resolved.resolved = false;
        }
      }
      resolved.stages.push_back(out);
    }
    resolved_chains_.push_back(std::move(resolved));
  }
}

void Kernel::EnableStatsSampling(Duration period, size_t capacity) {
  EM_ASSERT_MSG(!started_, "EnableStatsSampling after Start()");
  EM_ASSERT_MSG(period.is_positive(), "stats sampling period must be positive");
  stats_sample_period_ = period;
  stats_sampler_ = std::make_unique<StatsSampler>(capacity);
  stats_sample_timer_.kind = TimerKind::kStatsSample;
}

// --- Start / rank assignment ---

void Kernel::Start() {
  EM_ASSERT_MSG(!started_, "Start() called twice");
  started_ = true;
  ResolveChainSpecs();

  // Rate-monotonic rank assignment: either every thread carries an explicit
  // rank (produced by the analysis tooling) or none does and the kernel ranks
  // by period, shortest first (ties by creation order).
  size_t explicit_ranks = 0;
  for (const auto& t : threads_) {
    if (t->base_rm_rank >= 0) {
      ++explicit_ranks;
    }
  }
  EM_ASSERT_MSG(explicit_ranks == 0 || explicit_ranks == threads_.size(),
                "either all threads or no threads may carry explicit rm_rank");
  if (explicit_ranks == 0) {
    std::vector<Tcb*> order;
    order.reserve(threads_.size());
    for (auto& t : threads_) {
      order.push_back(t.get());
    }
    bool by_deadline = config_.fp_rank_policy == FpRankPolicy::kDeadlineMonotonic;
    std::stable_sort(order.begin(), order.end(), [by_deadline](const Tcb* a, const Tcb* b) {
      auto key = [by_deadline](const Tcb* t) {
        if (!t->periodic) {
          return Duration::FromNanos(INT64_MAX);
        }
        return by_deadline ? t->relative_deadline : t->period;
      };
      return key(a) < key(b);
    });
    for (size_t i = 0; i < order.size(); ++i) {
      order[i]->base_rm_rank = static_cast<int>(i);
    }
  }

  Instant start = hw_.now();
  for (auto& owned : threads_) {
    Tcb& t = *owned;
    t.effective_rm_rank = t.base_rm_rank;
    sched_of(t).AddThread(t);
    if (t.periodic) {
      t.state = ThreadState::kBlocked;
      t.block_reason = BlockReason::kWaitPeriod;
      ArmSoftTimer(t.period_timer, start + t.first_release_offset);
    } else {
      // Aperiodic threads are released immediately (boot-time, uncharged).
      t.job_deadline = Instant::Max();
      t.effective_deadline = Instant::Max();
      t.state = ThreadState::kBlocked;
      ChargeList charges;
      sched_of(t).Unblock(t, charges);
      t.state = ThreadState::kReady;
      t.resume_pending = true;
    }
  }
  if (stats_sampler_ != nullptr) {
    ArmSoftTimer(stats_sample_timer_, start + stats_sample_period_);
  }
  for (auto& cs : cores_) {
    cs->need_resched = true;
  }
}

// --- Executive ---

void Kernel::RunUntil(Instant end) {
  EM_ASSERT_MSG(started_, "RunUntil before Start()");
  for (;;) {
    DispatchDueWork();
    if (ServiceDrains()) {
      continue;  // a drained compute may unblock more work
    }
    bool rescheduled = false;
    for (int c = 0; c < config_.num_cores; ++c) {
      if (cores_[c]->need_resched) {
        Reschedule(c);
        rescheduled = true;
      }
    }
    if (rescheduled) {
      continue;  // charges may have made hardware work due
    }
    // Classify every core: the lowest core whose current thread finished its
    // compute gets resumed first (deterministic order); otherwise all
    // mid-compute cores advance together to the nearest compute horizon.
    // A core whose current thread was blocked cross-core (state != kRunning)
    // counts as idle until its pending reschedule runs.
    Tcb* to_resume = nullptr;
    bool any_compute = false;
    Instant horizon = Instant::Max();
    for (int c = 0; c < config_.num_cores; ++c) {
      Tcb* t = cores_[c]->current;
      if (t == nullptr || t->state != ThreadState::kRunning) {
        continue;
      }
      if (t->remaining_compute.is_positive()) {
        any_compute = true;
        horizon = std::min(horizon, hw_.now() + t->remaining_compute);
      } else if (to_resume == nullptr) {
        to_resume = t;
      }
    }
    if (to_resume != nullptr) {
      if (hw_.now() >= end) {
        return;  // thread code at exactly `end` runs on the next RunUntil
      }
      ResumeThread(*to_resume);
      continue;
    }
    if (!any_compute) {
      Instant next = hw_.NextTimerExpiry();
      Instant target = std::min(next, end);
      if (target > hw_.now()) {
        AdvanceIdleTo(target);
      }
      if (next <= end) {
        continue;
      }
      return;  // idle through `end`
    }
    Instant target = std::min(horizon, std::min(hw_.NextTimerExpiry(), end));
    if (target > hw_.now()) {
      AdvanceWorld(target - hw_.now());
    }
    if (ServiceDrains()) {
      continue;
    }
    if (hw_.now() >= end) {
      return;  // mid-compute at the horizon
    }
  }
}

void Kernel::DispatchDueWork() {
  for (;;) {
    int fired = hw_.FireDueTimers();
    int dispatched = hw_.irq().AnyDeliverable() ? hw_.irq().DispatchPending() : 0;
    if (fired == 0 && dispatched == 0) {
      return;
    }
  }
}

void Kernel::Reschedule(int core) {
  CoreState& cs = *cores_[core];
  ScopedActiveCore active(*this, core);
  cs.need_resched = false;
  bool sem_attr = cs.resched_from_sem;
  cs.resched_from_sem = false;
  ScopedSemPath path_guard(*this);
  sem_path_ = sem_attr;  // scope restores the previous value on exit

  ChargeList charges;
  int parsed = 0;
  Tcb* next = cs.sched.Select(charges, &parsed);
  ++stats_.selections;
  ChargeQueueOps(charges);
  if (cs.sched.num_bands() > 1) {
    Charge(CycleBucket::kSchedParse, cost_.csd_queue_parse * parsed);
  }
  if (next != cs.current) {
    ContextSwitch(core, next);
  } else if (next != nullptr && next->state == ThreadState::kReady) {
    // The current thread blocked and was rewoken within one dispatch window
    // (e.g. WaitNextPeriod at an instant its release timer was already due
    // but not yet dispatched: charges advance time without dispatching).
    // Selecting it again means no context switch ever happened; restore
    // kRunning without charging for a switch. This holds per band set: Select
    // compares TCB identity, so a thread rewoken into a *different* band
    // (PI boost, new deadline) than the one it blocked from still restores
    // kRunning here — band membership never leaves it stranded kReady.
    next->state = ThreadState::kRunning;
  }
  if (config_.debug_validate) {
    cs.sched.Validate();
  }
}

void Kernel::ContextSwitch(int core, Tcb* next) {
  CoreState& cs = *cores_[core];
  Charge(CycleBucket::kContextSwitch, cost_.context_switch);
  ++stats_.context_switches;
  trace_.Record(hw_.now(), TraceEventType::kContextSwitch,
                cs.current != nullptr ? cs.current->id.value : -1,
                next != nullptr ? next->id.value : -1, core);
  if (cs.current != nullptr && cs.current->state == ThreadState::kRunning) {
    cs.current->state = ThreadState::kReady;
  }
  cs.current = next;
  if (next != nullptr) {
    next->state = ThreadState::kRunning;
  }
}

void Kernel::ResumeThread(Tcb& t) {
  ScopedActiveCore active(*this, t.core);
  EM_ASSERT(&t == cores_[t.core]->current && t.state == ThreadState::kRunning);
  EM_ASSERT(t.remaining_compute.is_zero());
  Watchdog();
  t.resume_pending = false;
  t.started = true;
  t.coroutine.resume();
  if (t.coroutine.done()) {
    ExitThread(t);
  }
}

void Kernel::FinishComputeDrain(Tcb& t) {
  switch (t.pending_op) {
    case PendingOpKind::kNone:
      t.resume_pending = true;
      return;
    case PendingOpKind::kStateWriteCommit:
      FinishStateWrite(t);
      return;
    case PendingOpKind::kStateReadValidate:
      FinishStateRead(t);
      return;
  }
}

bool Kernel::ServiceDrains() {
  bool serviced = false;
  for (int c = 0; c < config_.num_cores; ++c) {
    CoreState& cs = *cores_[c];
    if (!cs.drain_pending) {
      continue;
    }
    cs.drain_pending = false;
    Tcb* t = cs.current;
    if (t != nullptr && t->remaining_compute.is_zero()) {
      ScopedActiveCore active(*this, c);
      FinishComputeDrain(*t);
      serviced = true;
    }
  }
  return serviced;
}

void Kernel::AdvanceWorld(Duration amount) {
  EM_ASSERT(amount.is_positive());
  bool any_user = false;
  for (int c = 0; c < config_.num_cores; ++c) {
    CoreState& cs = *cores_[c];
    Tcb* t = cs.current;
    if (t != nullptr && t->state == ThreadState::kRunning &&
        t->remaining_compute.is_positive()) {
      EM_ASSERT(amount <= t->remaining_compute);
      t->remaining_compute -= amount;
      t->cycles.Add(CycleBucket::kUser, amount);
      stats_.core_cycles[c].Add(CycleBucket::kUser, amount);
      any_user = true;
      if (t->remaining_compute.is_zero()) {
        cs.drain_pending = true;
      }
    } else {
      stats_.core_cycles[c].Add(CycleBucket::kIdle, amount);
    }
  }
  hw_.clock().AdvanceBy(amount, any_user ? CycleBucket::kUser : CycleBucket::kIdle);
}

void Kernel::MirrorAdvance(Duration amount) {
  for (int c = 0; c < config_.num_cores; ++c) {
    if (c == active_core_) {
      continue;
    }
    CoreState& cs = *cores_[c];
    Tcb* t = cs.current;
    Duration overlap;
    if (t != nullptr && t->state == ThreadState::kRunning &&
        t->remaining_compute.is_positive()) {
      overlap = std::min(amount, t->remaining_compute);
      t->remaining_compute -= overlap;
      t->cycles.Add(CycleBucket::kUser, overlap);
      stats_.core_cycles[c].Add(CycleBucket::kUser, overlap);
      if (t->remaining_compute.is_zero()) {
        // Never finish the drain inline: MirrorAdvance runs under a charge
        // mid-syscall (FinishState{Write,Read} recursion hazard); the
        // executive services the flag at a safe point.
        cs.drain_pending = true;
      }
    }
    Duration idle = amount - overlap;
    if (idle.is_positive()) {
      stats_.core_cycles[c].Add(CycleBucket::kIdle, idle);
    }
  }
}

void Kernel::AdvanceIdleTo(Instant target) {
  Duration idle = target - hw_.now();
  for (int c = 0; c < config_.num_cores; ++c) {
    stats_.core_cycles[c].Add(CycleBucket::kIdle, idle);
  }
  hw_.clock().AdvanceTo(target, CycleBucket::kIdle);
}

void Kernel::NotifyCore(int core, bool from_sem) {
  CoreState& cs = *cores_[core];
  cs.need_resched = true;
  cs.resched_from_sem = cs.resched_from_sem || from_sem;
  if (core != active_core_) {
    // Cross-core wake: the active core pays for posting a virtual IPI (the
    // target core's entry/exit is folded into the same constant).
    ++stats_.ipis;
    Charge(CycleBucket::kIpi, cost_.ipi);
  }
}

void Kernel::Watchdog() {
  if (hw_.now() != watchdog_time_) {
    watchdog_time_ = hw_.now();
    watchdog_resumes_ = 0;
    return;
  }
  if (++watchdog_resumes_ > 1000000) {
    Tcb* cur = cores_[active_core_]->current;
    EM_PANIC("executive livelock: thread %d resumed 1M times at t=%lld ns without progress",
             cur != nullptr ? cur->id.value : -1,
             static_cast<long long>(hw_.now().nanos()));
  }
}

// --- Charging ---

void Kernel::Charge(CycleBucket bucket, Duration amount) {
  if (!amount.is_positive()) {
    return;
  }
  hw_.clock().AdvanceBy(amount, bucket);
  stats_.core_cycles[active_core_].Add(bucket, amount);
  Tcb* cur = cores_[active_core_]->current;
  if (cur != nullptr) {
    // Kernel work is billed to the thread that triggered it (the running
    // thread — interference from ISRs included, as on real hardware).
    cur->cycles.Add(bucket, amount);
  }
  if (sem_path_) {
    stats_.sem_path_time += amount;
  }
  if (config_.num_cores > 1) {
    // While this core does kernel work, the other cores keep running.
    MirrorAdvance(amount);
  }
  // Span event at the *end* of the advance: [now - amount, now] on this
  // core was `bucket` work. The postmortem engine subtracts these spans from
  // inter-event gaps to attribute kernel overhead exactly. Spans are roughly
  // two thirds of all trace records.
  int64_t ns = amount.nanos();
  trace_.Record(hw_.now(), TraceEventType::kOverheadSpan,
                OverheadSpanPack(static_cast<int>(bucket), active_core_),
                ns > INT32_MAX ? INT32_MAX : static_cast<int32_t>(ns),
                cur != nullptr ? cur->id.value + 1 : 0);
}

void Kernel::ChargeQueueOps(const ChargeList& charges) {
  for (const QueueCharge& qc : charges) {
    Duration amount = cost_.QueueCost(qc.kind, qc.op, qc.units);
    Charge(CycleBucketForQueueOp(qc.op), amount);
    if (qc.band >= 0 && qc.band < kMaxStatBands) {
      stats_.sched_band_cycles[qc.band][static_cast<int>(qc.op)] += amount;
    }
    ++stats_.queue_op_count[static_cast<int>(qc.kind)][static_cast<int>(qc.op)];
    stats_.queue_op_units[static_cast<int>(qc.kind)][static_cast<int>(qc.op)] +=
        static_cast<uint64_t>(qc.units);
  }
}

// --- Thread state transitions ---

void Kernel::BlockThread(Tcb& t, BlockReason reason) {
  EM_ASSERT_MSG(t.runnable(), "blocking a non-runnable thread");
  if (t.preacq_sem != nullptr && reason != BlockReason::kPreAcquire) {
    // The thread blocked on something other than the hinted acquire: the
    // parser hint was wrong (or the code path diverged). Tolerate and count.
    ++stats_.cse_hint_misses;
    LeavePreAcquire(t);
  }
  ChargeList charges;
  sched_of(t).Block(t, charges);
  ChargeQueueOps(charges);
  t.state = ThreadState::kBlocked;
  t.block_reason = reason;
  // Blocked-interval edge for the postmortem engine. arg2 names the
  // semaphore for lock waits so lateness can be blamed per lock; other
  // reasons are self-suspension and carry -1.
  int32_t blocked_obj = -1;
  if (reason == BlockReason::kWaitSem && t.blocked_on != nullptr) {
    blocked_obj = t.blocked_on->id.value;
  } else if (reason == BlockReason::kPreAcquire && t.preacq_sem != nullptr) {
    blocked_obj = t.preacq_sem->id.value;
  }
  trace_.Record(hw_.now(), TraceEventType::kThreadBlock, t.id.value,
                static_cast<int32_t>(reason), blocked_obj);
  if (&t == cores_[t.core]->current) {
    NotifyCore(t.core, sem_path_);
  }
}

void Kernel::MakeReady(Tcb& t) {
  EM_ASSERT_MSG(t.is_blocked(), "MakeReady on non-blocked thread");
  ChargeList charges;
  sched_of(t).Unblock(t, charges);
  ChargeQueueOps(charges);
  BlockReason was_blocked = t.block_reason;
  t.state = ThreadState::kReady;
  t.block_reason = BlockReason::kNone;
  trace_.Record(hw_.now(), TraceEventType::kThreadReady, t.id.value,
                static_cast<int32_t>(was_blocked), t.core);
  if (t.remaining_compute.is_zero() && t.pending_op == PendingOpKind::kNone) {
    t.resume_pending = true;
  }
  NotifyCore(t.core, sem_path_);
}

void Kernel::ExitThread(Tcb& t) {
  EM_ASSERT_MSG(t.held_head == nullptr, "thread '%s' exited while holding a semaphore", t.name);
  trace_.Record(hw_.now(), TraceEventType::kThreadExit, t.id.value, 0, t.core);
  if (t.preacq_sem != nullptr) {
    LeavePreAcquire(t);
  }
  CancelSoftTimer(t.period_timer);
  CancelSoftTimer(t.timeout_timer);
  sched_of(t).RemoveThread(t);
  t.state = ThreadState::kFinished;
  cores_[t.core]->current = nullptr;
  NotifyCore(t.core, false);
}

// --- Timers ---

void Kernel::ArmSoftTimer(SoftTimer& timer, Instant expiry) {
  if (timer.armed()) {
    soft_timers_.Remove(timer);
  }
  timer.expiry = expiry;
  timer.arm_seq = timer_seq_++;
  soft_timers_.Insert(timer);
  ProgramHardwareTimer();
}

void Kernel::CancelSoftTimer(SoftTimer& timer) {
  if (!timer.armed()) {
    return;
  }
  soft_timers_.Remove(timer);
  ProgramHardwareTimer();
}

void Kernel::ProgramHardwareTimer() {
  SoftTimer* first = soft_timers_.Min();
  if (first == nullptr) {
    hw_.DisarmTimer(oneshot_);
    return;
  }
  Instant when = std::max(first->expiry, hw_.now());
  hw_.ArmTimer(oneshot_, when);
}

void Kernel::TimerIsr() {
  Charge(CycleBucket::kIrq, cost_.interrupt_entry);
  ++stats_.interrupts;
  for (;;) {
    SoftTimer* first = soft_timers_.Min();
    if (first == nullptr || first->expiry > hw_.now()) {
      break;
    }
    soft_timers_.Remove(*first);
    Charge(CycleBucket::kTimerSvc, cost_.timer_dispatch);
    ++stats_.timer_dispatches;
    switch (first->kind) {
      case TimerKind::kPeriodRelease:
        HandlePeriodRelease(*first->owner);
        break;
      case TimerKind::kTimeout:
        HandleTimeout(*first->owner);
        break;
      case TimerKind::kUserTimer:
        HandleUserTimer(*first->user);
        break;
      case TimerKind::kStatsSample:
        // The sampler's own cost lands in the ledger like any other work,
        // and is charged before Sample() so it falls inside the interval it
        // closes.
        Charge(CycleBucket::kStatsObs, cost_.stats_sample);
        if (stats_sampler_->Sample(hw_.now(), stats_)) {
          // The ring evicted an interval nobody had read — make the loss
          // visible instead of silently splicing across it. The delta was
          // taken before the bump, so the *next* interval carries the count.
          ++stats_.stats_snapshot_drops;
        }
        ArmSoftTimer(stats_sample_timer_, first->expiry + stats_sample_period_);
        break;
    }
  }
  ProgramHardwareTimer();
  Charge(CycleBucket::kIrq, cost_.interrupt_exit);
  // The timer ISR runs on the boot core; wakes for other cores went through
  // NotifyCore (priced IPIs) as they happened.
  cores_[active_core_]->need_resched = true;
}

void Kernel::HandlePeriodRelease(Tcb& t) {
  // Re-arm on the period grid (the timer's expiry, not `now`, avoids drift).
  Instant this_release = t.period_timer.expiry;
  ArmSoftTimer(t.period_timer, this_release + t.period);
  if (t.state == ThreadState::kBlocked && t.block_reason == BlockReason::kWaitPeriod) {
    StartJob(t);
    WakeThread(t);
  } else {
    // Still busy with the previous job: remember the release (Section 5's
    // periodic model).
    ++t.pending_releases;
    ++stats_.jobs_released;
    // The previous job's deadline has passed without completion: record the
    // miss now rather than waiting for the (possibly distant) completion.
    if (hw_.now() > t.job_deadline && !t.miss_recorded) {
      t.miss_recorded = true;
      ++t.deadline_misses;
      ++stats_.deadline_misses;
      trace_.Record(hw_.now(), TraceEventType::kDeadlineMiss, t.id.value,
                    static_cast<int32_t>(t.job_number));
    }
  }
}

void Kernel::StartJob(Tcb& t) {
  EM_ASSERT(t.periodic);
  ++t.job_number;
  if (t.job_number == 1) {
    t.job_release = Instant() + t.first_release_offset;
  } else {
    t.job_release += t.period;
  }
  t.job_deadline = t.job_release + t.relative_deadline;
  ++stats_.jobs_released;
  // arg2 carries the relative deadline so an offline postmortem can recover
  // the absolute deadline from the release event alone: positive = ns,
  // negative = -us (for deadlines past ~2.1s), 0 = not encoded (legacy).
  int64_t rel_dl_ns = t.relative_deadline.nanos();
  int32_t dl_arg = 0;
  if (rel_dl_ns <= INT32_MAX) {
    dl_arg = static_cast<int32_t>(rel_dl_ns);
  } else if (t.relative_deadline.micros() <= INT32_MAX) {
    dl_arg = -static_cast<int32_t>(t.relative_deadline.micros());
  }
  trace_.Record(t.job_release, TraceEventType::kJobRelease, t.id.value,
                static_cast<int32_t>(t.job_number), dl_arg);
  // Each periodic release is a chain origin: mint a fresh token and hand it
  // straight to the released job (emit + consume pair at the release
  // endpoint). Recorded at the processing instant, not the nominal release —
  // chain events have no monotone-time exemption.
  t.chain_token.clear();
  int32_t release_ep = ChainEndpointPack(ChainEndpointKind::kRelease, t.id.value);
  ChainConsume(release_ep, ChainEmit(release_ep, nullptr), t);
  PredictHeadroom(t);
  t.job_cost_baseline = t.cycles.total();
  RecomputeEffective(t);
}

void Kernel::PredictHeadroom(Tcb& t) {
  if (!t.job_cost_seeded) {
    return;  // no observed cost yet — the first job seeds the EWMA
  }
  // Slack if the new job costs what jobs of this task have been costing.
  // Predicting from `now` (not the nominal release) folds in any lateness the
  // release already accumulated.
  Instant predicted = hw_.now() + t.job_cost_ewma;
  Duration slack = t.job_deadline - predicted;
  if (slack < config_.headroom_low_margin) {
    ++t.headroom_low_events;
    ++stats_.headroom_low_events;
    int64_t slack_us = slack.micros();
    if (slack_us > INT32_MAX) slack_us = INT32_MAX;
    if (slack_us < INT32_MIN) slack_us = INT32_MIN;
    trace_.Record(hw_.now(), TraceEventType::kHeadroomLow, t.id.value,
                  static_cast<int32_t>(slack_us));
  }
}

void Kernel::RecordJobCost(Tcb& t) {
  Duration job_cost = t.cycles.total() - t.job_cost_baseline;
  if (!t.job_cost_seeded) {
    t.job_cost_ewma = job_cost;
    t.job_cost_seeded = true;
  } else {
    // Integer EWMA, alpha = 1/4: cheap, monotone-stable, good enough for a
    // slack predictor.
    t.job_cost_ewma += (job_cost - t.job_cost_ewma) / 4;
  }
  Duration headroom = t.job_deadline - hw_.now();  // negative on a miss
  stats_.headroom_hist.Add(headroom);
  if (!t.headroom_seen || headroom < t.headroom_min) {
    t.headroom_min = headroom;
    t.headroom_seen = true;
  }
}

void Kernel::HandleTimeout(Tcb& t) {
  switch (t.block_reason) {
    case BlockReason::kSleep:
      WakeThread(t);
      return;
    case BlockReason::kWaitMailboxRecv: {
      Mailbox* mbox = MailboxPtr(t.waiting_mailbox);
      EM_ASSERT(mbox != nullptr);
      mbox->recv_waiters.erase(t);
      ++mbox->recv_timeouts;
      t.syscall_status = Status::kTimedOut;
      t.syscall_length = 0;
      FinishMailboxRecvWait(t);
      WakeThread(t);
      return;
    }
    default:
      EM_PANIC("timeout fired for thread '%s' in unexpected state %d", t.name,
               static_cast<int>(t.block_reason));
  }
}

// --- Scheduling syscalls ---

Kernel::SyscallOutcome Kernel::SysCompute(Tcb& t, Duration amount) {
  EM_ASSERT(&t == cores_[t.core]->current);
  if (!amount.is_positive()) {
    return {false};
  }
  t.remaining_compute = amount;
  return {true};
}

Kernel::SyscallOutcome Kernel::SysWaitPeriod(Tcb& t, SemId next_sem) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  Charge(CycleBucket::kSyscall, cost_.syscall);
  EM_ASSERT_MSG(t.periodic, "WaitNextPeriod on aperiodic thread '%s'", t.name);

  // Complete the current job.
  ++t.jobs_completed;
  ++stats_.jobs_completed;
  Duration response = hw_.now() - t.job_release;
  t.total_response += response;
  stats_.response_hist.Add(response);
  if (response > t.max_response) {
    t.max_response = response;
  }
  trace_.Record(hw_.now(), TraceEventType::kJobComplete, t.id.value,
                static_cast<int32_t>(t.job_number));
  RecordJobCost(t);
  if (hw_.now() > t.job_deadline && !t.miss_recorded) {
    ++t.deadline_misses;
    ++stats_.deadline_misses;
    trace_.Record(hw_.now(), TraceEventType::kDeadlineMiss, t.id.value,
                  static_cast<int32_t>(t.job_number));
  }
  t.miss_recorded = false;
  // The token is per-job dataflow; the next job starts token-free (StartJob
  // mints its release origin).
  t.chain_token.clear();

  t.wakeup_hint = next_sem;
  if (t.pending_releases > 0) {
    // The next release already arrived (overrun): start the new job without
    // blocking. Section 6.2.2's first concern — the context switch the CSE
    // scheme would have saved simply never existed here.
    --t.pending_releases;
    --stats_.jobs_released;  // StartJob will re-count it
    StartJob(t);
    t.wakeup_hint = kNoSem;
    if (next_sem.valid()) {
      Semaphore* sem = SemPtr(next_sem);
      EM_ASSERT(sem != nullptr);
      if (sem->mode == SemMode::kCse) {
        ScopedSemPath path(*this);
        Charge(CycleBucket::kSemaphore, cost_.sem_cse_check);
        if (sem->owner == nullptr) {
          JoinPreAcquire(*sem, t);
        }
      }
    }
    // The new deadline may demote this thread; let the scheduler re-evaluate.
    cores_[t.core]->need_resched = true;
    t.resume_pending = true;
    return {true};
  }
  BlockThread(t, BlockReason::kWaitPeriod);
  return {true};
}

Kernel::SyscallOutcome Kernel::SysSleep(Tcb& t, Duration amount, SemId next_sem) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  Charge(CycleBucket::kSyscall, cost_.syscall);
  if (!amount.is_positive()) {
    if (need_resched()) {
      t.resume_pending = true;
      return {true};
    }
    return {false};
  }
  t.wakeup_hint = next_sem;
  ArmSoftTimer(t.timeout_timer, hw_.now() + amount);
  BlockThread(t, BlockReason::kSleep);
  return {true};
}

Kernel::SyscallOutcome Kernel::SysYield(Tcb& t) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  Charge(CycleBucket::kSyscall, cost_.syscall);
  cores_[t.core]->need_resched = true;
  t.resume_pending = true;
  return {true};
}

// The CSE unblock path (Section 6.2, Figure 8): before making a woken thread
// ready, check the semaphore it is about to acquire. If the semaphore is
// held, perform priority inheritance *now* and leave the thread blocked on
// the semaphore — eliminating context switch C2. If it is free, park the
// thread in the pre-acquire queue (Section 6.3.1).
void Kernel::WakeThread(Tcb& t) {
  EM_ASSERT(t.is_blocked());
  SemId hint = t.wakeup_hint;
  t.wakeup_hint = kNoSem;
  if (hint.valid()) {
    Semaphore* sem = SemPtr(hint);
    EM_ASSERT_MSG(sem != nullptr, "CSE hint names unknown semaphore %d", hint.value);
    if (sem->mode == SemMode::kCse) {
      ScopedSemPath path(*this);
      Charge(CycleBucket::kSemaphore, cost_.sem_cse_check);
      if (sem->owner != nullptr && sem->owner != &t && !PiChainTooDeep(*sem)) {
        ++stats_.cse_early_pi;
        t.blocked_on = sem;
        t.block_reason = BlockReason::kWaitSem;
        t.cse_waiter = true;
        EnqueueWaiter(*sem, t);
        DoInheritance(*sem, t);
        trace_.Record(hw_.now(), TraceEventType::kSemCseEarlyPi, t.id.value, sem->id.value);
        return;  // remains blocked; woken by the holder's release
      }
      if (sem->owner == nullptr) {
        JoinPreAcquire(*sem, t);
      }
    }
  }
  MakeReady(t);
}

// --- Accessors ---

const Tcb& Kernel::thread(ThreadId id) const {
  EM_ASSERT(id.valid() && static_cast<size_t>(id.value) < threads_.size());
  return *threads_[id.value];
}

const Semaphore& Kernel::semaphore(SemId id) const {
  EM_ASSERT(id.valid() && static_cast<size_t>(id.value) < semaphores_.size());
  return *semaphores_[id.value];
}

const Mailbox& Kernel::mailbox(MailboxId id) const {
  EM_ASSERT(id.valid() && static_cast<size_t>(id.value) < mailboxes_.size());
  return *mailboxes_[id.value];
}

const StateMessageBuffer& Kernel::state_message(SmsgId id) const {
  EM_ASSERT(id.valid() && static_cast<size_t>(id.value) < smsgs_.size());
  return *smsgs_[id.value];
}

const Condvar& Kernel::condvar(CondvarId id) const {
  EM_ASSERT(id.valid() && static_cast<size_t>(id.value) < condvars_.size());
  return *condvars_[id.value];
}

std::span<uint8_t> Kernel::RegionDataFor(ProcessId process, RegionId region, bool write) {
  if (!process.valid() || static_cast<size_t>(process.value) >= processes_.size() ||
      !region.valid() || static_cast<size_t>(region.value) >= regions_.size()) {
    return {};
  }
  const Process& p = *processes_[process.value];
  uint64_t bit = 1ull << region.value;
  if ((p.map_read & bit) == 0) {
    return {};
  }
  if (write && (p.map_write & bit) == 0) {
    return {};
  }
  SharedRegion& r = *regions_[region.value];
  return std::span<uint8_t>(r.data.get(), r.size);
}

void Kernel::ResetChargeAccounting() {
  stats_.sem_path_time = Duration();
  // Re-base the cycle ledgers: conservation is windowed against cycles_epoch,
  // so a mid-run reset keeps the invariant exact. Per-task ledgers are
  // cumulative and are left alone.
  for (CycleLedger& ledger : stats_.core_cycles) {
    ledger = CycleLedger();
  }
  for (auto& per_band : stats_.sched_band_cycles) {
    for (Duration& d : per_band) {
      d = Duration();
    }
  }
  stats_.cycles_epoch = hw_.now();
  if (stats_sampler_ != nullptr) {
    stats_sampler_->Rebase(stats_);
  }
}

void Kernel::DumpThreads() const {
  std::printf("%3s %-14s %-9s %4s %4s %9s %7s %7s %10s %10s\n", "id", "name", "state", "band",
              "rank", "period", "jobs", "misses", "worst-resp", "cpu");
  for (const auto& t : threads_) {
    char period[24];
    char response[24];
    char cpu[24];
    FormatDuration(t->period, period, sizeof(period));
    FormatDuration(t->max_response, response, sizeof(response));
    FormatDuration(t->cycles.at(CycleBucket::kUser), cpu, sizeof(cpu));
    std::printf("%3d %-14s %-9s %4d %4d %9s %7llu %7llu %10s %10s\n", t->id.value, t->name,
                ThreadStateToString(t->state), t->base_band, t->base_rm_rank,
                t->periodic ? period : "-", static_cast<unsigned long long>(t->jobs_completed),
                static_cast<unsigned long long>(t->deadline_misses), response, cpu);
  }
}

}  // namespace emeralds
