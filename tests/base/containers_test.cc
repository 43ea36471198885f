// StaticVector, RingBuffer and FlatTable unit tests.

#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/base/flat_table.h"
#include "src/base/ring_buffer.h"
#include "src/base/rng.h"
#include "src/base/static_vector.h"

namespace emeralds {
namespace {

TEST(StaticVectorTest, StartsEmpty) {
  StaticVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.full());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(StaticVectorTest, PushAndIndex) {
  StaticVector<int, 4> v;
  v.push_back(10);
  v.push_back(20);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v.front(), 10);
  EXPECT_EQ(v.back(), 20);
}

TEST(StaticVectorTest, FullAtCapacity) {
  StaticVector<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_TRUE(v.full());
}

TEST(StaticVectorTest, PopBackDestroys) {
  static int live = 0;
  struct Probe {
    Probe() { ++live; }
    Probe(const Probe&) { ++live; }
    ~Probe() { --live; }
  };
  {
    StaticVector<Probe, 4> v;
    v.emplace_back();
    v.emplace_back();
    EXPECT_EQ(live, 2);
    v.pop_back();
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(StaticVectorTest, NonTrivialElements) {
  StaticVector<std::string, 3> v;
  v.push_back("hello");
  v.emplace_back(5, 'x');
  EXPECT_EQ(v[0], "hello");
  EXPECT_EQ(v[1], "xxxxx");
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(StaticVectorTest, CopyConstructAndAssign) {
  StaticVector<int, 4> a;
  a.push_back(1);
  a.push_back(2);
  StaticVector<int, 4> b(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b[1], 2);
  StaticVector<int, 4> c;
  c.push_back(9);
  c = a;
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 1);
}

TEST(StaticVectorTest, EraseAtShiftsElements) {
  StaticVector<int, 5> v;
  for (int i = 1; i <= 5; ++i) {
    v.push_back(i);
  }
  v.erase_at(1);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 3);
  EXPECT_EQ(v[3], 5);
}

TEST(StaticVectorTest, RangeForIteration) {
  StaticVector<int, 4> v;
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  int sum = 0;
  for (int x : v) {
    sum += x;
  }
  EXPECT_EQ(sum, 6);
}

TEST(RingBufferTest, PushPopFifo) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  rb.push(4);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, WrapAroundManyTimes) {
  RingBuffer<int> rb(2);
  for (int i = 0; i < 100; ++i) {
    rb.push(i);
    EXPECT_EQ(rb.pop(), i);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, PushOverwriteEvictsOldest) {
  RingBuffer<int> rb(2);
  EXPECT_FALSE(rb.push_overwrite(1));
  EXPECT_FALSE(rb.push_overwrite(2));
  EXPECT_TRUE(rb.push_overwrite(3));
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
}

TEST(RingBufferTest, PushOverwriteWrapsManyTimes) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 100; ++i) {
    bool evicted = rb.push_overwrite(i);
    EXPECT_EQ(evicted, i >= 3) << i;
  }
  // The window is always the most recent `capacity` values, oldest first.
  ASSERT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.at(0), 97);
  EXPECT_EQ(rb.at(1), 98);
  EXPECT_EQ(rb.at(2), 99);
}

TEST(RingBufferTest, PushOverwriteAfterPopDoesNotEvict) {
  RingBuffer<int> rb(2);
  rb.push_overwrite(1);
  rb.push_overwrite(2);
  EXPECT_EQ(rb.pop(), 1);
  // One slot free again: no eviction until full once more.
  EXPECT_FALSE(rb.push_overwrite(3));
  EXPECT_TRUE(rb.push_overwrite(4));
  EXPECT_EQ(rb.at(0), 3);
  EXPECT_EQ(rb.at(1), 4);
}

TEST(RingBufferTest, AtIndexesFromFront) {
  RingBuffer<int> rb(3);
  rb.push(7);
  rb.push(8);
  EXPECT_EQ(rb.at(0), 7);
  EXPECT_EQ(rb.at(1), 8);
  rb.pop();
  rb.push(9);
  EXPECT_EQ(rb.at(0), 8);
  EXPECT_EQ(rb.at(1), 9);
}

TEST(RingBufferTest, FrontPeeksWithoutRemoving) {
  RingBuffer<int> rb(2);
  rb.push(5);
  EXPECT_EQ(rb.front(), 5);
  EXPECT_EQ(rb.size(), 1u);
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(3);
  EXPECT_EQ(rb.pop(), 3);
}

struct SpreadSlot {
  uint32_t key;
  uint32_t value;
  bool empty() const { return key == 0; }
  bool Same(const SpreadSlot& o) const { return key == o.key; }
  uint64_t Hash() const { return key * kFibonacciHash; }
};

// Every key hashes to one of three homes, a quarter of the table apart, so
// long runs form, meet and wrap around the end of the array.
struct ClusteredSlot {
  uint32_t key;
  uint32_t value;
  bool empty() const { return key == 0; }
  bool Same(const ClusteredSlot& o) const { return key == o.key; }
  uint64_t Hash() const { return (uint64_t{key % 3} + 1) << 62; }
};

// Random inserts, finds and erases against a std::map, with two payload
// words per slot that must follow their slot through every shift and growth.
template <typename Slot>
void CheckAgainstMapModel(uint64_t seed, uint32_t max_key) {
  Rng rng(seed);
  FlatTable<Slot> table(2);
  std::map<uint32_t, uint32_t> model;
  for (int op = 0; op < 20000; ++op) {
    const uint32_t key = static_cast<uint32_t>(rng.UniformInt(1, max_key));
    const int64_t roll = rng.UniformInt(0, 9);
    if (roll < 5) {
      Slot* s = table.Insert(Slot{key, key * 7});
      if (model.emplace(key, key * 7).second) {
        table.payload(s)[0] = key;
        table.payload(s)[1] = -static_cast<int64_t>(key);
      }
      ASSERT_EQ(s->key, key);
    } else if (roll < 8) {
      Slot* s = table.Find(Slot{key, 0});
      ASSERT_EQ(s != nullptr, model.count(key) == 1) << "key " << key;
      if (s != nullptr) {
        table.Erase(s);
        model.erase(key);
      }
    } else {
      Slot* s = table.Find(Slot{key, 0});
      ASSERT_EQ(s != nullptr, model.count(key) == 1) << "key " << key;
    }
    ASSERT_EQ(table.size(), model.size());
    ASSERT_LE(4 * table.size(), 3 * table.capacity());
  }
  for (const auto& [key, value] : model) {
    Slot* s = table.Find(Slot{key, 0});
    ASSERT_NE(s, nullptr) << "key " << key;
    EXPECT_EQ(s->value, value);
    EXPECT_EQ(table.payload(s)[0], key);
    EXPECT_EQ(table.payload(s)[1], -static_cast<int64_t>(key));
  }
}

TEST(FlatTableTest, MatchesAMapModel) {
  CheckAgainstMapModel<SpreadSlot>(1, 50);
  CheckAgainstMapModel<SpreadSlot>(2, 1u << 30);
  CheckAgainstMapModel<SpreadSlot>(3, 5000);
}

TEST(FlatTableTest, EraseKeepsClusteredRunsReachable) {
  CheckAgainstMapModel<ClusteredSlot>(4, 40);
  CheckAgainstMapModel<ClusteredSlot>(5, 3000);
}

TEST(FlatTableTest, GrowsByDoublingAtThreeQuartersFull) {
  FlatTable<SpreadSlot> table;
  EXPECT_EQ(table.capacity(), 16u);
  for (uint32_t key = 1; key <= 12; ++key) {
    table.Insert(SpreadSlot{key, 0});
  }
  EXPECT_EQ(table.capacity(), 16u);
  table.Insert(SpreadSlot{12, 0});  // present: no growth
  EXPECT_EQ(table.capacity(), 16u);
  table.Insert(SpreadSlot{13, 0});
  EXPECT_EQ(table.capacity(), 32u);
  EXPECT_EQ(table.size(), 13u);
}

}  // namespace
}  // namespace emeralds
