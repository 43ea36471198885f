// Open-addressing hash table of small trivially copyable slots.
//
// Host-side analyses keep per-key state for keys they cannot bound ahead of
// time (the chain matcher keys it by token origin). FlatTable stores the
// slots in one array, with linear probing over a power-of-two capacity kept
// at most 3/4 full, so every operation costs O(1) expected and nothing is
// allocated per entry. Each slot may own `stride` int64_t words of payload,
// kept in a parallel array and moved with it.
//
// A Slot is an aggregate whose value-initialized state is empty and which
// provides `bool empty() const`, `bool Same(const Slot&) const` (same key)
// and `uint64_t Hash() const` (of the key, its high bits well mixed: see
// kFibonacciHash).

#ifndef SRC_BASE_FLAT_TABLE_H_
#define SRC_BASE_FLAT_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace emeralds {

// Fibonacci hashing: a table's home slot for hash h is the top bits of h, so
// a key times this odd constant (2^64 over the golden ratio) spreads
// sequential keys evenly over the table, whatever order they arrive in.
inline constexpr uint64_t kFibonacciHash = 0x9e3779b97f4a7c15ULL;

template <typename Slot>
class FlatTable {
 public:
  // `capacity` is a power of two above 1.
  explicit FlatTable(size_t stride = 0, size_t capacity = 16)
      : slots_(capacity), payload_(capacity * stride), stride_(stride),
        shift_(64 - std::countr_zero(capacity)) {}

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  int64_t* payload(const Slot* s) { return payload_.data() + (s - slots_.data()) * stride_; }

  // The entry with `key`'s key, or nullptr.
  Slot* Find(const Slot& key) {
    Slot* s = &slots_[Probe(key)];
    return s->empty() ? nullptr : s;
  }

  // The entry with `key`'s key, added as `key` when absent.
  Slot* Insert(const Slot& key) {
    Slot* s = &slots_[Probe(key)];
    if (s->empty()) {
      if (4 * (size_ + 1) > 3 * slots_.size()) {
        Grow();
        s = &slots_[Probe(key)];
      }
      *s = key;
      ++size_;
    }
    return s;
  }

  // Removes the entry `s` and shifts the entries after it back into the
  // hole, so no tombstones build up.
  void Erase(Slot* s) {
    const size_t mask = slots_.size() - 1;
    size_t hole = static_cast<size_t>(s - slots_.data());
    for (size_t j = (hole + 1) & mask; !slots_[j].empty(); j = (j + 1) & mask) {
      if (((j - Home(slots_[j])) & mask) >= ((j - hole) & mask)) {  // home not in (hole, j]
        slots_[hole] = slots_[j];
        std::copy_n(payload(&slots_[j]), stride_, payload(&slots_[hole]));
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

 private:
  size_t Home(const Slot& key) const { return static_cast<size_t>(key.Hash() >> shift_); }

  // The slot holding `key`'s key, else the empty slot that ends its run.
  size_t Probe(const Slot& key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(key);
    while (!slots_[i].empty() && !slots_[i].Same(key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    FlatTable bigger(stride_, 2 * slots_.size());
    for (const Slot& s : slots_) {
      if (!s.empty()) {
        std::copy_n(payload(&s), stride_, bigger.payload(bigger.Insert(s)));
      }
    }
    *this = std::move(bigger);
  }

  std::vector<Slot> slots_;
  std::vector<int64_t> payload_;
  size_t stride_;
  int shift_;  // 64 - log2(capacity)
  size_t size_ = 0;
};

}  // namespace emeralds

#endif  // SRC_BASE_FLAT_TABLE_H_
