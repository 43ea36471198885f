// Interrupt controller model.
//
// Devices (and the programmable timer) raise IRQ lines; the kernel attaches a
// handler per line and dispatches pending interrupts at interruptible points.
// Raising a masked or already-pending line coalesces (level-triggered
// semantics), matching typical single-chip controllers.
//
// Line state is three bitmasks (pending, enabled, attached), so the
// executive's once-per-dispatch-loop AnyDeliverable() check is one AND, not
// a scan of every line.

#ifndef SRC_HAL_INTERRUPTS_H_
#define SRC_HAL_INTERRUPTS_H_

#include <cstdint>

#include "src/base/assert.h"

namespace emeralds {

inline constexpr int kNumIrqLines = 16;

// Conventional line assignments for this platform.
inline constexpr int kIrqTimer = 0;
inline constexpr int kIrqFieldbus = 1;
inline constexpr int kIrqSensor = 2;

using IrqHandler = void (*)(void* context, int line);

class InterruptController {
 public:
  InterruptController() = default;

  // Attaches `handler` to `line`; replaces any existing handler.
  void Attach(int line, IrqHandler handler, void* context);
  void Detach(int line);

  // Marks `line` pending (device side). Coalesces with an already-pending
  // interrupt.
  void Raise(int line);

  // Per-line mask (true = delivery enabled). Lines start unmasked.
  void SetEnabled(int line, bool enabled);
  bool enabled(int line) const;

  // Global interrupt-enable flag (the kernel runs its critical sections with
  // interrupts disabled).
  void SetGlobalEnable(bool enabled) { global_enable_ = enabled; }
  bool global_enable() const { return global_enable_; }

  bool pending(int line) const;
  // True when some line is pending, enabled and attached, and interrupts are
  // globally enabled.
  bool AnyDeliverable() const { return global_enable_ && Deliverable() != 0; }

  // Dispatches every deliverable pending interrupt (in line order, which
  // models fixed hardware priority). Returns the number dispatched. Handlers
  // may raise further interrupts: a higher line is picked up in the same
  // pass, a lower one in the next.
  int DispatchPending();

  // Statistics.
  uint64_t raised_count(int line) const;
  uint64_t dispatched_count(int line) const;

 private:
  static void CheckLine(int line) {
    EM_ASSERT_MSG(line >= 0 && line < kNumIrqLines, "bad IRQ line %d", line);
  }
  static uint32_t Bit(int line) { return uint32_t{1} << line; }
  static void SetBit(uint32_t& mask, int line, bool value) {
    mask = value ? mask | Bit(line) : mask & ~Bit(line);
  }
  uint32_t Deliverable() const { return pending_ & enabled_ & attached_; }

  struct Line {
    IrqHandler handler = nullptr;
    void* context = nullptr;
    uint64_t raised = 0;
    uint64_t dispatched = 0;
  };

  Line lines_[kNumIrqLines];
  uint32_t pending_ = 0;
  uint32_t enabled_ = (uint32_t{1} << kNumIrqLines) - 1;
  uint32_t attached_ = 0;  // lines with a non-null handler
  bool global_enable_ = true;
};

}  // namespace emeralds

#endif  // SRC_HAL_INTERRUPTS_H_
