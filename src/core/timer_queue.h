// Pending software timers, ordered by (expiry, arm_seq).
//
// One expiry-ordered intrusive list: O(n) arm, O(1) cancel and min. At the
// depths the kernel actually runs (a few to a few dozen pending release and
// timeout timers) the linear insert beats asymptotically better structures,
// the same trade Table 1 of the paper makes for the scheduler queues.
//
// Min() returns the exact global minimum by (expiry, arm_seq), so the kernel
// programs the hardware one-shot timer and dispatches simultaneous expiries
// in arm order. The queue is host-side bookkeeping for the simulated timer
// service: its operations cost no virtual time (the cost model's
// timer_dispatch covers the simulated expense).

#ifndef SRC_CORE_TIMER_QUEUE_H_
#define SRC_CORE_TIMER_QUEUE_H_

#include <cstddef>

#include "src/core/timer.h"

namespace emeralds {

class TimerQueue {
 public:
  TimerQueue() = default;
  ~TimerQueue() { Clear(); }
  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  // Files `timer` (expiry and arm_seq already set; must not be armed) behind
  // every pending timer that does not come after it.
  void Insert(SoftTimer& timer);

  // Unlinks an armed timer (cancel or expiry dispatch).
  void Remove(SoftTimer& timer);

  // Exact global minimum by (expiry, arm_seq); nullptr when empty.
  SoftTimer* Min() { return list_.front(); }

  // Unlinks everything (kernel teardown).
  void Clear() { list_.clear(); }

  size_t size() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

  // (expiry, arm_seq) lexicographic order — the order the hardware timer is
  // programmed and expiries are dispatched in.
  static bool Before(const SoftTimer& a, const SoftTimer& b) {
    return a.expiry < b.expiry || (a.expiry == b.expiry && a.arm_seq < b.arm_seq);
  }

 private:
  SoftTimerList list_;
};

}  // namespace emeralds

#endif  // SRC_CORE_TIMER_QUEUE_H_
