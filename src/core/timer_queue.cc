#include "src/core/timer_queue.h"

#include "src/base/assert.h"

namespace emeralds {

void TimerQueue::Insert(SoftTimer& timer) {
  EM_ASSERT_MSG(!timer.armed(), "Insert of an already-armed timer");
  for (SoftTimer& other : list_) {
    if (Before(timer, other)) {
      list_.insert_before(other, timer);
      return;
    }
  }
  list_.push_back(timer);
}

void TimerQueue::Remove(SoftTimer& timer) {
  EM_ASSERT_MSG(timer.armed(), "Remove of an unarmed timer");
  list_.erase(timer);
}

}  // namespace emeralds
