// Condition variables with priority-ordered wakeup (Figure 1's
// "Synchronization: Semaphores, Condition Variables").
//
// Wait atomically releases the guarding mutex and blocks; Signal/Broadcast
// move waiters to the mutex — either granting it immediately or contending
// through the normal PI path — so a waiter resumes only once it holds the
// mutex again.

#include "src/core/kernel.h"

namespace emeralds {

Condvar* Kernel::CondvarPtr(CondvarId id) {
  if (!id.valid() || static_cast<size_t>(id.value) >= condvars_.size()) {
    return nullptr;
  }
  return condvars_[id.value].get();
}

Kernel::SyscallOutcome Kernel::SysCondWait(Tcb& t, CondvarId cv_id, SemId mutex_id) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  Charge(CycleBucket::kSyscall, cost_.syscall);
  Condvar* cv = CondvarPtr(cv_id);
  Semaphore* mutex = SemPtr(mutex_id);
  if (cv == nullptr || mutex == nullptr) {
    t.syscall_status = Status::kBadHandle;
    return {false};
  }
  if (!cv->access.Allows(t.process)) {
    t.syscall_status = Status::kPermissionDenied;
    return {false};
  }
  if (!mutex->binary || mutex->owner != &t) {
    t.syscall_status = Status::kFailedPrecondition;
    return {false};
  }
  Charge(CycleBucket::kSemaphore, cost_.sem_fixed);

  // Enqueue on the condvar, then release the mutex — atomically from the
  // thread's perspective since the kernel is non-preemptible here.
  t.waiting_condvar = cv_id;
  t.condvar_mutex = mutex_id;
  t.syscall_status = Status::kOk;
  BlockThread(t, BlockReason::kWaitCondvar);
  int visits = 0;
  Tcb* insert_before = nullptr;
  for (Tcb& other : cv->waiters) {
    ++visits;
    if (HigherPriority(t, other)) {
      insert_before = &other;
      break;
    }
  }
  if (insert_before != nullptr) {
    cv->waiters.insert_before(*insert_before, t);
  } else {
    cv->waiters.push_back(t);
  }
  Charge(CycleBucket::kSemaphore, cost_.waitq_visit * visits);

  {
    ScopedSemPath path(*this);
    ReleaseLocked(t, *mutex);
  }
  return {true};
}

void Kernel::WakeCondWaiter(Condvar& cv, Tcb& waiter) {
  cv.waiters.erase(waiter);
  waiter.waiting_condvar = CondvarId();
  Semaphore* mutex = SemPtr(waiter.condvar_mutex);
  EM_ASSERT(mutex != nullptr);
  ScopedSemPath path(*this);
  if (mutex->owner == nullptr) {
    // Mutex free: grant and wake.
    Charge(CycleBucket::kSemaphore, cost_.sem_fixed);
    mutex->owner = &waiter;
    mutex->count = 0;
    HeldAdd(waiter, *mutex);
    FreezePreAcquirers(*mutex, waiter);
    waiter.syscall_status = Status::kOk;
    trace_.Record(hw_.now(), TraceEventType::kSemAcquire, waiter.id.value, mutex->id.value);
    MakeReady(waiter);
    return;
  }
  // Mutex held: the waiter contends like a blocked acquirer (stays blocked,
  // donates priority). It resumes holding the mutex when granted.
  Charge(CycleBucket::kSemaphore, cost_.sem_fixed);
  waiter.block_reason = BlockReason::kWaitSem;
  waiter.blocked_on = mutex;
  EnqueueWaiter(*mutex, waiter);
  DoInheritance(*mutex, waiter);
}

Kernel::SyscallOutcome Kernel::SysCondWake(Tcb& t, CondvarId cv_id, bool broadcast) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  Charge(CycleBucket::kSyscall, cost_.syscall);
  Condvar* cv = CondvarPtr(cv_id);
  if (cv == nullptr) {
    t.syscall_status = Status::kBadHandle;
    return {false};
  }
  if (!cv->access.Allows(t.process)) {
    t.syscall_status = Status::kPermissionDenied;
    return {false};
  }
  Charge(CycleBucket::kSemaphore, cost_.sem_fixed);
  if (broadcast) {
    ++cv->broadcasts;
  } else {
    ++cv->signals;
  }

  // One emit per signal/broadcast; every woken waiter consumes it (broadcast
  // is a deliberate one-emit-many-consumes fan-out). A signal that finds no
  // waiter is lost, so nothing is emitted.
  int32_t endpoint = ChainEndpointPack(ChainEndpointKind::kCondvar, cv->id.value);
  CausalToken token;
  do {
    Tcb* waiter = cv->waiters.front();  // insert order is priority order
    if (waiter == nullptr) {
      break;
    }
    if (!token.valid()) {
      token = ChainEmit(endpoint, &t);
    }
    ChainConsume(endpoint, token, *waiter);
    WakeCondWaiter(*cv, *waiter);
  } while (broadcast);

  t.syscall_status = Status::kOk;
  if (need_resched()) {
    t.resume_pending = true;
    return {true};
  }
  return {false};
}

}  // namespace emeralds
