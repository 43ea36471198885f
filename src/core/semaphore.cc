// Semaphores with priority inheritance (Section 6).
//
// Two operating modes coexist:
//  * SemMode::kStandard — the conventional implementation of Section 6.1:
//    contended acquire does PI (O(n) sorted re-insert for FP tasks), blocks,
//    and costs two context switches per acquire/release pair.
//  * SemMode::kCse — EMERALDS's scheme (Sections 6.2-6.3): the blocking call
//    preceding acquire_sem carries the semaphore id; the unblock path performs
//    PI early and keeps the thread blocked (saving context switch C2), FP
//    priority inheritance uses the O(1) place-holder position swap, and a
//    per-semaphore pre-acquire queue freezes would-be acquirers while the
//    lock is held by a thread that blocks (Section 6.3.1).

#include "src/core/kernel.h"

namespace emeralds {

Semaphore* Kernel::SemPtr(SemId id) {
  if (!id.valid() || static_cast<size_t>(id.value) >= semaphores_.size()) {
    return nullptr;
  }
  return semaphores_[id.value].get();
}

void Kernel::HeldAdd(Tcb& t, Semaphore& sem) {
  EM_ASSERT(sem.next_held == nullptr);
  sem.next_held = t.held_head;
  t.held_head = &sem;
}

void Kernel::HeldRemove(Tcb& t, Semaphore& sem) {
  Semaphore** link = &t.held_head;
  while (*link != nullptr) {
    if (*link == &sem) {
      *link = sem.next_held;
      sem.next_held = nullptr;
      return;
    }
    link = &(*link)->next_held;
  }
  EM_PANIC("semaphore '%s' not on holder '%s' held list", sem.name, t.name);
}

void Kernel::EnqueueWaiter(Semaphore& sem, Tcb& waiter) {
  int visits = 0;
  for (Tcb& other : sem.waiters) {
    ++visits;
    if (HigherPriority(waiter, other)) {
      sem.waiters.insert_before(other, waiter);
      Charge(CycleBucket::kSemaphore, cost_.waitq_visit * visits);
      return;
    }
  }
  sem.waiters.push_back(waiter);
  Charge(CycleBucket::kSemaphore, cost_.waitq_visit * visits);
}

Tcb* Kernel::HighestWaiter(Semaphore& sem, int* visits) {
  // Waiters are insert-sorted, but nested PI can change priorities after
  // enqueue, so the handoff rescans (visits are charged by the caller).
  *visits = 0;
  Tcb* best = nullptr;
  for (Tcb& w : sem.waiters) {
    ++*visits;
    if (best == nullptr || HigherPriority(w, *best)) {
      best = &w;
    }
  }
  return best;
}

// --- Priority inheritance ---

// Depth of the blocking chain hanging off `sem`: its holder, the semaphore
// that holder waits on, that semaphore's holder, and so on. Blocking on `sem`
// would make the chain one longer than the walk counts here. The walk stops
// at the cap, so a deadlock cycle (which has no end) also reports "too deep"
// instead of looping forever.
bool Kernel::PiChainTooDeep(const Semaphore& sem) const {
  int depth = 0;
  const Semaphore* s = &sem;
  while (s->owner != nullptr) {
    if (++depth >= kMaxPiChainDepth) {
      return true;
    }
    if (s->owner->blocked_on == nullptr) {
      return false;
    }
    s = s->owner->blocked_on;
  }
  return false;
}

void Kernel::DoInheritance(Semaphore& sem, Tcb& donor) {
  Semaphore* s = &sem;
  Tcb* d = &donor;
  int depth = 0;
  while (s->owner != nullptr) {
    if (++depth >= kMaxPiChainDepth) {
      // SysAcquire refuses chains this deep up front, but condvar wakes and
      // CSE early PI can still extend one concurrently; truncating the
      // propagation is safe (inheritance is a latency bound, not a safety
      // invariant), and panicking the node is not.
      ++stats_.pi_chain_limit_hits;
      trace_.Record(hw_.now(), TraceEventType::kPiChainLimit, d->id.value, s->id.value);
      break;
    }
    Tcb* holder = s->owner;
    if (!HigherPriority(*d, *holder)) {
      break;
    }
    InheritOne(*s, *holder, *d);
    if (holder->blocked_on == nullptr) {
      break;  // chain ends at a runnable holder
    }
    d = holder;
    s = holder->blocked_on;
  }
}

void Kernel::InheritOne(Semaphore& sem, Tcb& holder, Tcb& donor) {
  ++stats_.pi_inherits;
  trace_.Record(hw_.now(), TraceEventType::kPiInherit, holder.id.value, donor.id.value);
  Charge(CycleBucket::kPi, cost_.pi_fixed);
  if (holder.core != active_core_) {
    // The holder's priority is about to rise on another core: that core must
    // re-evaluate its selection (priced cross-core kick; never fires at
    // num_cores=1, where every holder shares the active core).
    NotifyCore(holder.core, true);
  }

  if (donor.effective_band < holder.effective_band) {
    // Cross-band: the holder becomes selectable in the donor's (higher,
    // always EDF) band and adopts its deadline if earlier.
    sched_of(holder).BoostInto(holder, donor.effective_band);
    if (donor.effective_deadline < holder.effective_deadline) {
      holder.effective_deadline = donor.effective_deadline;
    }
    return;
  }

  Band& band = sched_of(holder).band(holder.effective_band);
  if (band.kind() == QueueKind::kEdfList) {
    // DP tasks: deadline inheritance is one TCB field — O(1) (Section 6.1).
    if (donor.effective_deadline < holder.effective_deadline) {
      holder.effective_deadline = donor.effective_deadline;
    }
    return;
  }

  // FP tasks.
  if (donor.effective_rm_rank >= holder.effective_rm_rank) {
    return;
  }
  RmBand* rm = sched_of(holder).FpBandOf(holder);
  // A place-holder swap exchanges two queue positions, so both threads must
  // live in the *same core's* FP band; cross-core donors take the standard
  // re-insert path below.
  bool can_swap = sem.mode == SemMode::kCse && rm != nullptr &&
                  holder.core == donor.core &&
                  sched_of(holder).CanSwapFp(holder, donor) &&
                  (holder.pi_swap_sem == nullptr || holder.pi_swap_sem == &sem);
  if (can_swap) {
    if (holder.pi_swap_sem == &sem) {
      // Third-thread case (Section 6.2): a higher-priority donor arrives
      // while the holder occupies the previous placeholder's slot. Restore
      // the old placeholder to its own position, then take the new donor's
      // slot — "one extra step ... the overhead is still O(1)".
      Tcb* old_placeholder = sem.placeholder;
      EM_ASSERT(old_placeholder != nullptr);
      rm->SwapForPi(holder, *old_placeholder);
      holder.effective_rm_rank = sem.holder_prev_rank;
      rm->SwapForPi(holder, donor);
      holder.effective_rm_rank = donor.effective_rm_rank;
      sem.placeholder = &donor;
      Charge(CycleBucket::kPi, cost_.pi_swap + cost_.pi_swap);
      stats_.pi_swaps += 2;
    } else {
      // Common case: swap positions with the blocked donor; the donor is the
      // place-holder marking the holder's original slot.
      sem.holder_prev_rank = holder.effective_rm_rank;
      rm->SwapForPi(holder, donor);
      holder.effective_rm_rank = donor.effective_rm_rank;
      sem.placeholder = &donor;
      holder.pi_swap_sem = &sem;
      Charge(CycleBucket::kPi, cost_.pi_swap);
      ++stats_.pi_swaps;
    }
    return;
  }

  // Standard path (and fallback for nested/multi-semaphore shapes the swap
  // does not cover): O(n) sorted re-insert at the inherited rank.
  DissolveSwap(holder);
  holder.effective_rm_rank = donor.effective_rm_rank;
  if (band.kind() == QueueKind::kRmHeap && !holder.ready) {
    return;  // the heap holds ready tasks only; the rank applies on unblock
  }
  int visits = band.Reposition(holder);
  Charge(CycleBucket::kPi, cost_.pi_queue_visit * visits);
  ++stats_.pi_reinserts;
}

void Kernel::DissolveSwap(Tcb& holder) {
  Semaphore* sem = holder.pi_swap_sem;
  if (sem == nullptr) {
    return;
  }
  RmBand* rm = sched_of(holder).FpBandOf(holder);
  EM_ASSERT(rm != nullptr && sem->placeholder != nullptr);
  rm->SwapForPi(holder, *sem->placeholder);
  holder.effective_rm_rank = sem->holder_prev_rank;
  sem->placeholder = nullptr;
  holder.pi_swap_sem = nullptr;
  Charge(CycleBucket::kPi, cost_.pi_swap);
  ++stats_.pi_swaps;
}

void Kernel::UndoInheritance(Tcb& holder, Semaphore& released) {
  Charge(CycleBucket::kPi, cost_.pi_fixed);
  trace_.Record(hw_.now(), TraceEventType::kPiRestore, holder.id.value, released.id.value);
  if (holder.pi_swap_sem == &released) {
    // Swap back with the place-holder: both threads return to their original
    // positions in O(1) (Section 6.2's second optimized PI step).
    DissolveSwap(holder);
  }
  RecomputeEffective(holder);
}

void Kernel::RecomputeEffective(Tcb& t) {
  // Strongest of the base priority and every waiter on every held semaphore.
  int band = t.base_band;
  Instant deadline = t.periodic ? t.job_deadline : Instant::Max();
  int rank = t.base_rm_rank;
  for (Semaphore* s = t.held_head; s != nullptr; s = s->next_held) {
    for (Tcb& w : s->waiters) {
      if (w.effective_band < band) {
        band = w.effective_band;
        deadline = w.effective_deadline;
        rank = w.effective_rm_rank;
      } else if (w.effective_band == band) {
        if (w.effective_deadline < deadline) {
          deadline = w.effective_deadline;
        }
        if (w.effective_rm_rank < rank) {
          rank = w.effective_rm_rank;
        }
      }
    }
  }

  if (band < t.base_band) {
    if (t.boosted_into_band != band) {
      if (t.boosted_into_band >= 0) {
        sched_of(t).RemoveBoost(t);
      }
      sched_of(t).BoostInto(t, band);
    }
  } else if (t.boosted_into_band >= 0) {
    sched_of(t).RemoveBoost(t);
  }
  t.effective_deadline = deadline;

  if (t.effective_rm_rank != rank) {
    // A place-holder swap pinned this thread's position for a semaphore that
    // is still held; dissolve it before re-ranking so positions stay
    // rank-consistent.
    DissolveSwap(t);
    t.effective_rm_rank = rank;
    Band& home = sched_of(t).band(t.base_band);
    if (home.kind() == QueueKind::kRmList ||
        (home.kind() == QueueKind::kRmHeap && t.ready)) {
      int visits = home.Reposition(t);
      Charge(CycleBucket::kPi, cost_.pi_queue_visit * visits);
      ++stats_.pi_reinserts;
    }
  }
}

// --- Pre-acquire queue (Section 6.3.1) ---

void Kernel::JoinPreAcquire(Semaphore& sem, Tcb& t) {
  if (t.preacq_sem == &sem) {
    return;
  }
  if (t.preacq_sem != nullptr) {
    LeavePreAcquire(t);
  }
  sem.pre_acquire.push_back(t);
  t.preacq_sem = &sem;
  Charge(CycleBucket::kSemaphore, cost_.waitq_visit);
}

void Kernel::LeavePreAcquire(Tcb& t) {
  EM_ASSERT(t.preacq_sem != nullptr);
  t.preacq_sem->pre_acquire.erase(t);
  t.preacq_sem = nullptr;
}

void Kernel::FreezePreAcquirers(Semaphore& sem, Tcb& except) {
  if (sem.mode != SemMode::kCse) {
    return;
  }
  for (Tcb& member : sem.pre_acquire) {
    if (&member == &except || !member.runnable()) {
      continue;
    }
    BlockThread(member, BlockReason::kPreAcquire);
    ++stats_.preacquire_freezes;
  }
}

void Kernel::ThawPreAcquirers(Semaphore& sem) {
  for (Tcb& member : sem.pre_acquire) {
    if (member.state == ThreadState::kBlocked &&
        member.block_reason == BlockReason::kPreAcquire) {
      MakeReady(member);
    }
  }
}

// --- Acquire / release ---

Kernel::SyscallOutcome Kernel::SysAcquire(Tcb& t, SemId id) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  ScopedSemPath path(*this);
  Charge(CycleBucket::kSyscall, cost_.syscall);
  Semaphore* sem = SemPtr(id);
  if (sem == nullptr) {
    t.syscall_status = Status::kBadHandle;
    return {false};
  }
  if (!sem->access.Allows(t.process)) {
    t.syscall_status = Status::kPermissionDenied;
    return {false};
  }
  ++stats_.sem_acquires;
  ++sem->acquires;

  if (t.preacq_sem == sem) {
    LeavePreAcquire(t);
  } else if (t.preacq_sem != nullptr) {
    ++stats_.cse_hint_misses;
    LeavePreAcquire(t);
  }

  if (t.cse_granted) {
    // The lock was handed over while we were still blocked on the preceding
    // call (Figure 8); acquire_sem degenerates to a flag check.
    EM_ASSERT_MSG(sem->owner == &t, "CSE grant inconsistency on '%s'", sem->name);
    t.cse_granted = false;
    t.cse_waiter = false;
    Charge(CycleBucket::kSemaphore, cost_.sem_cse_check);
    ++stats_.cse_switches_saved;
    t.syscall_status = Status::kOk;
    trace_.Record(hw_.now(), TraceEventType::kSemAcquire, t.id.value, sem->id.value);
    if (need_resched()) {
      t.resume_pending = true;
      return {true};
    }
    return {false};
  }

  Charge(CycleBucket::kSemaphore, cost_.sem_fixed);
  if (sem->binary) {
    if (sem->owner == nullptr) {
      sem->owner = &t;
      sem->count = 0;
      HeldAdd(t, *sem);
      FreezePreAcquirers(*sem, t);
      t.syscall_status = Status::kOk;
      trace_.Record(hw_.now(), TraceEventType::kSemAcquire, t.id.value, sem->id.value);
      if (need_resched()) {
        t.resume_pending = true;
        return {true};
      }
      return {false};
    }
    EM_ASSERT_MSG(sem->owner != &t, "recursive acquire of '%s' by '%s'", sem->name, t.name);
    if (PiChainTooDeep(*sem)) {
      // Deep-but-legal nesting (or an outright deadlock cycle): refuse the
      // acquire instead of blocking into a chain the PI walk cannot cover.
      // Checked before the kSemAcquireBlock record so the trace never shows
      // an unresolvable block.
      ++stats_.pi_chain_limit_hits;
      t.syscall_status = Status::kResourceExhausted;
      trace_.Record(hw_.now(), TraceEventType::kPiChainLimit, t.id.value, sem->id.value);
      return {false};
    }
    // Contended path (Figures 6/7): PI, join the wait queue, block.
    ++stats_.sem_contended;
    ++sem->contended_acquires;
    trace_.Record(hw_.now(), TraceEventType::kSemAcquireBlock, t.id.value, sem->id.value);
    t.syscall_status = Status::kOk;  // holds the lock when it resumes
    t.blocked_on = sem;
    BlockThread(t, BlockReason::kWaitSem);
    EnqueueWaiter(*sem, t);
    DoInheritance(*sem, t);
    return {true};
  }

  // Counting semaphore: no ownership, no PI (the paper's scheme "primarily
  // deals with semaphores used as binary mutual-exclusion locks").
  if (sem->count > 0) {
    --sem->count;
    t.syscall_status = Status::kOk;
    trace_.Record(hw_.now(), TraceEventType::kSemAcquire, t.id.value, sem->id.value);
    // Pick up the latest producer's token (a count above one means several
    // acquires may observe the same emit — permitted multi-consume).
    ChainConsume(ChainEndpointPack(ChainEndpointKind::kSem, sem->id.value), sem->token, t);
    if (need_resched()) {
      t.resume_pending = true;
      return {true};
    }
    return {false};
  }
  ++stats_.sem_contended;
  ++sem->contended_acquires;
  trace_.Record(hw_.now(), TraceEventType::kSemAcquireBlock, t.id.value, sem->id.value);
  t.syscall_status = Status::kOk;
  t.blocked_on = sem;
  BlockThread(t, BlockReason::kWaitSem);
  EnqueueWaiter(*sem, t);
  return {true};
}

Kernel::SyscallOutcome Kernel::SysRelease(Tcb& t, SemId id) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  ScopedSemPath path(*this);
  Charge(CycleBucket::kSyscall, cost_.syscall);
  Semaphore* sem = SemPtr(id);
  if (sem == nullptr) {
    t.syscall_status = Status::kBadHandle;
    return {false};
  }
  if (!sem->access.Allows(t.process)) {
    t.syscall_status = Status::kPermissionDenied;
    return {false};
  }
  Charge(CycleBucket::kSemaphore, cost_.sem_fixed);

  if (sem->binary) {
    if (sem->owner != &t) {
      t.syscall_status = Status::kFailedPrecondition;
      return {false};
    }
    trace_.Record(hw_.now(), TraceEventType::kSemRelease, t.id.value, sem->id.value);
    ReleaseLocked(t, *sem);
  } else {
    trace_.Record(hw_.now(), TraceEventType::kSemRelease, t.id.value, sem->id.value);
    // A counting release is a producing operation: propagate the releaser's
    // carried token through the handoff (binary mutexes carry no dataflow).
    int32_t endpoint = ChainEndpointPack(ChainEndpointKind::kSem, sem->id.value);
    CausalToken token = ChainEmit(endpoint, &t);
    int visits = 0;
    Tcb* waiter = HighestWaiter(*sem, &visits);
    Charge(CycleBucket::kSemaphore, cost_.waitq_visit * visits);
    if (waiter != nullptr) {
      sem->waiters.erase(*waiter);
      waiter->blocked_on = nullptr;
      waiter->syscall_status = Status::kOk;
      ++sem->handoffs;
      ++stats_.sem_handoffs;
      // The blocked acquire completes at handoff; record it so the trace
      // analyzer sees every kSemAcquireBlock resolved.
      trace_.Record(hw_.now(), TraceEventType::kSemAcquire, waiter->id.value, sem->id.value);
      ChainConsume(endpoint, token, *waiter);
      MakeReady(*waiter);
    } else if (sem->count < (1 << 30)) {
      // Counting semaphores may exceed their initial count (timer signals,
      // producer tokens); the cap only guards against runaway loops.
      ++sem->count;
      sem->token = token;
    }
  }

  t.syscall_status = Status::kOk;
  if (need_resched()) {
    t.resume_pending = true;
    return {true};
  }
  return {false};
}

void Kernel::ReleaseLocked(Tcb& owner, Semaphore& sem) {
  HeldRemove(owner, sem);
  UndoInheritance(owner, sem);
  int visits = 0;
  Tcb* waiter = HighestWaiter(sem, &visits);
  Charge(CycleBucket::kSemaphore, cost_.waitq_visit * visits);
  if (waiter != nullptr) {
    sem.waiters.erase(*waiter);
    GrantTo(sem, *waiter);
  } else {
    sem.owner = nullptr;
    sem.count = 1;
    // "when T1 calls release_sem(), the OS unblocks all threads in the
    // [pre-acquire] queue."
    ThawPreAcquirers(sem);
  }
}

void Kernel::GrantTo(Semaphore& sem, Tcb& waiter) {
  sem.owner = &waiter;
  sem.count = 0;
  HeldAdd(waiter, sem);
  waiter.blocked_on = nullptr;
  ++sem.handoffs;
  ++stats_.sem_handoffs;
  if (waiter.cse_waiter) {
    // The waiter never executed acquire_sem(); hand it the lock and let its
    // (already satisfied) blocking call resume — this is the saved switch.
    waiter.cse_granted = true;
    ++stats_.cse_grants;
  }
  waiter.syscall_status = Status::kOk;
  trace_.Record(hw_.now(), TraceEventType::kSemAcquire, waiter.id.value, sem.id.value);
  MakeReady(waiter);
}

}  // namespace emeralds
