// Bounded FIFO ring buffer with capacity fixed at construction.
//
// Used by mailboxes (message queues), device receive queues and the stats
// sampler. Storage is allocated once at construction ("kernel init time");
// there is no allocation on the send/receive paths. Trace sinks do not use
// it: their window grows with the records made (src/hal/trace.h).

#ifndef SRC_BASE_RING_BUFFER_H_
#define SRC_BASE_RING_BUFFER_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "src/base/assert.h"

namespace emeralds {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(size_t capacity)
      : capacity_(capacity), items_(std::make_unique<T[]>(capacity)) {
    EM_ASSERT_MSG(capacity > 0, "RingBuffer capacity must be positive");
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  // Appends `value`; the buffer must not be full.
  void push(T value) {
    EM_ASSERT_MSG(!full(), "push to full RingBuffer");
    items_[(head_ + size_) % capacity_] = std::move(value);
    ++size_;
  }

  // Appends `value`, evicting the oldest element if full. Returns true if an
  // element was evicted. Used by lossy consumers such as the stats sampler.
  bool push_overwrite(T value) {
    bool evicted = false;
    if (full()) {
      head_ = (head_ + 1) % capacity_;
      --size_;
      evicted = true;
    }
    push(std::move(value));
    return evicted;
  }

  // Removes and returns the oldest element; the buffer must not be empty.
  T pop() {
    EM_ASSERT_MSG(!empty(), "pop from empty RingBuffer");
    T value = std::move(items_[head_]);
    head_ = (head_ + 1) % capacity_;
    --size_;
    return value;
  }

  T& front() {
    EM_ASSERT(!empty());
    return items_[head_];
  }
  const T& front() const {
    EM_ASSERT(!empty());
    return items_[head_];
  }

  // Element `index` positions from the front (0 == oldest).
  const T& at(size_t index) const {
    EM_ASSERT(index < size_);
    return items_[(head_ + index) % capacity_];
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  size_t capacity_;
  std::unique_ptr<T[]> items_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace emeralds

#endif  // SRC_BASE_RING_BUFFER_H_
