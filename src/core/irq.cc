// Interrupt handling and user-level device-driver support (Figure 1).
//
// EMERALDS keeps interrupt handlers in the kernel minimal: the ISR stub
// acknowledges the line and wakes the user-level driver thread bound to it.
// The driver thread does the real device work at its scheduled priority.

#include "src/core/kernel.h"

namespace emeralds {

Status Kernel::BindIrqThread(ThreadId thread, int line) {
  if (line < 0 || line >= kNumIrqLines || line == kIrqTimer) {
    return Status::kInvalidArgument;
  }
  if (!thread.valid() || static_cast<size_t>(thread.value) >= threads_.size()) {
    return Status::kBadHandle;
  }
  irq_threads_[line] = threads_[thread.value].get();
  hw_.irq().Attach(line, &Kernel::IrqTrampoline, this);
  return Status::kOk;
}

void Kernel::IrqTrampoline(void* context, int line) {
  static_cast<Kernel*>(context)->HandleIrq(line);
}

void Kernel::HandleIrq(int line) {
  if (line == kIrqTimer) {
    TimerIsr();
    return;
  }
  Charge(CycleBucket::kIrq, cost_.interrupt_entry);
  ++stats_.interrupts;
  trace_.Record(hw_.now(), TraceEventType::kIrq, line, 0);
  Tcb* driver = irq_threads_[line];
  if (driver != nullptr) {
    // Every dispatched interrupt is a chain origin, minted in ISR context.
    int32_t endpoint = ChainEndpointPack(ChainEndpointKind::kIrq, line);
    CausalToken token = ChainEmit(endpoint, nullptr);
    if (driver->state == ThreadState::kBlocked &&
        driver->block_reason == BlockReason::kWaitIrq && driver->waiting_irq_line == line) {
      driver->waiting_irq_line = -1;
      driver->syscall_status = Status::kOk;
      ChainConsume(endpoint, token, *driver);
      WakeThread(*driver);
    } else {
      // Latch the interrupt; the next WaitIrq completes immediately and
      // consumes the latched token then.
      ++driver->irq_pending_count;
      driver->irq_latched_token = token;
    }
  }
  Charge(CycleBucket::kIrq, cost_.interrupt_exit);
  // ISRs run on the boot core; a woken driver pinned elsewhere already paid
  // its IPI through WakeThread -> MakeReady -> NotifyCore.
  cores_[active_core_]->need_resched = true;
}

Kernel::SyscallOutcome Kernel::SysWaitIrq(Tcb& t, int line, SemId next_sem) {
  EM_ASSERT(&t == cores_[t.core]->current);
  ++stats_.syscalls;
  Charge(CycleBucket::kSyscall, cost_.syscall);
  if (line < 0 || line >= kNumIrqLines) {
    t.syscall_status = Status::kInvalidArgument;
    return {false};
  }
  if (irq_threads_[line] != &t) {
    t.syscall_status = Status::kPermissionDenied;  // not the bound driver
    return {false};
  }
  if (t.irq_pending_count > 0) {
    --t.irq_pending_count;
    t.syscall_status = Status::kOk;
    // An IRQ-storm burst latches several fires but only the newest token (a
    // single overwritten slot, like the counting-sem one); consume it once
    // and let further drains of the same burst run token-free.
    ChainConsume(ChainEndpointPack(ChainEndpointKind::kIrq, line), t.irq_latched_token, t);
    t.irq_latched_token.clear();
    if (need_resched()) {
      t.resume_pending = true;
      return {true};
    }
    return {false};
  }
  t.waiting_irq_line = line;
  t.wakeup_hint = next_sem;
  t.syscall_status = Status::kOk;
  BlockThread(t, BlockReason::kWaitIrq);
  return {true};
}

}  // namespace emeralds
