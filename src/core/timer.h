// Kernel software timers.
//
// The kernel multiplexes all time-triggered work (periodic job releases,
// sleep expirations, receive timeouts) onto the single hardware one-shot
// timer, keeping the pending timers in one expiry-ordered intrusive list
// (TimerQueue, src/core/timer_queue.h) — the structure a small-memory RTOS
// would use.

#ifndef SRC_CORE_TIMER_H_
#define SRC_CORE_TIMER_H_

#include <cstdint>

#include "src/base/intrusive_list.h"
#include "src/base/time.h"

namespace emeralds {

struct Tcb;
struct UserTimer;

enum class TimerKind : uint8_t {
  kPeriodRelease,  // periodic job release for `owner`
  kTimeout,        // sleep / receive-timeout for `owner`
  kUserTimer,      // application timer object (`user` points at it)
  kStatsSample,    // periodic KernelStats snapshot (observability sampler)
};

struct SoftTimer {
  TimerKind kind = TimerKind::kPeriodRelease;
  Tcb* owner = nullptr;       // kPeriodRelease / kTimeout
  UserTimer* user = nullptr;  // kUserTimer
  Instant expiry;
  uint64_t arm_seq = 0;  // tie-break so simultaneous expiries are deterministic
  ListNode<SoftTimer> node;

  bool armed() const { return node.linked(); }
};

using SoftTimerList = IntrusiveList<SoftTimer, &SoftTimer::node>;

}  // namespace emeralds

#endif  // SRC_CORE_TIMER_H_
