#include "src/hal/interrupts.h"

#include <bit>

namespace emeralds {

void InterruptController::Attach(int line, IrqHandler handler, void* context) {
  CheckLine(line);
  lines_[line].handler = handler;
  lines_[line].context = context;
  SetBit(attached_, line, handler != nullptr);
}

void InterruptController::Detach(int line) {
  CheckLine(line);
  lines_[line].handler = nullptr;
  lines_[line].context = nullptr;
  SetBit(attached_, line, false);
}

void InterruptController::Raise(int line) {
  CheckLine(line);
  pending_ |= Bit(line);
  ++lines_[line].raised;
}

void InterruptController::SetEnabled(int line, bool enabled) {
  CheckLine(line);
  SetBit(enabled_, line, enabled);
}

bool InterruptController::enabled(int line) const {
  CheckLine(line);
  return (enabled_ & Bit(line)) != 0;
}

bool InterruptController::pending(int line) const {
  CheckLine(line);
  return (pending_ & Bit(line)) != 0;
}

int InterruptController::DispatchPending() {
  int dispatched = 0;
  bool progressed = true;
  while (global_enable_ && progressed) {
    progressed = false;
    // One pass in line order. The masks are re-read after every handler, so
    // a line it raises above the current one runs later in this pass.
    for (int from = 0; from < kNumIrqLines;) {
      uint32_t ready = Deliverable() >> from;
      if (ready == 0) {
        break;
      }
      int i = from + std::countr_zero(ready);
      Line& line = lines_[i];
      pending_ &= ~Bit(i);
      ++line.dispatched;
      ++dispatched;
      progressed = true;
      line.handler(line.context, i);
      from = i + 1;
    }
  }
  return dispatched;
}

uint64_t InterruptController::raised_count(int line) const {
  CheckLine(line);
  return lines_[line].raised;
}

uint64_t InterruptController::dispatched_count(int line) const {
  CheckLine(line);
  return lines_[line].dispatched;
}

}  // namespace emeralds
