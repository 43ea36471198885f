// TimerQueue tests: the queue must hand out pending timers in exact
// (expiry, arm_seq) order. A property test drives it in lockstep with a
// brute-force reference — a plain vector scanned for the minimum — under
// random arm / re-arm / cancel / service churn that covers equal-expiry
// tie-breaks, expiries already in the past, and far-future expiries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/timer_queue.h"

namespace emeralds {
namespace {

// Deterministic split-mix generator for the property tests.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed + 0x9e3779b97f4a7c15ull) {}
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

// The reference: every pending timer in an unordered vector, the minimum
// found by a full scan. Obviously correct, and shares no code with the queue
// beyond the SoftTimer fields it reads.
class BruteForceQueue {
 public:
  void Insert(SoftTimer* timer) { pending_.push_back(timer); }
  void Remove(SoftTimer* timer) {
    auto it = std::find(pending_.begin(), pending_.end(), timer);
    ASSERT_NE(it, pending_.end()) << "reference never saw this timer armed";
    pending_.erase(it);
  }
  SoftTimer* Min() const {
    SoftTimer* best = nullptr;
    for (SoftTimer* t : pending_) {
      if (best == nullptr || t->expiry < best->expiry ||
          (t->expiry == best->expiry && t->arm_seq < best->arm_seq)) {
        best = t;
      }
    }
    return best;
  }
  size_t size() const { return pending_.size(); }

 private:
  std::vector<SoftTimer*> pending_;
};

// The queue and the reference driven in lockstep, the way the kernel arms
// timers: a re-arm first removes the armed timer, and every arm takes the
// next arm_seq. Every mutation asserts both report the same minimum.
class Lockstep {
 public:
  explicit Lockstep(size_t n) : timers_(n) {}

  void Arm(size_t i, Instant expiry) {
    SoftTimer& t = timers_[i];
    if (t.armed()) {
      queue_.Remove(t);
      reference_.Remove(&t);
    }
    t.expiry = expiry;
    t.arm_seq = seq_++;
    queue_.Insert(t);
    reference_.Insert(&t);
    CheckMin();
  }

  void Cancel(size_t i) {
    SoftTimer& t = timers_[i];
    if (!t.armed()) {
      return;
    }
    queue_.Remove(t);
    reference_.Remove(&t);
    CheckMin();
  }

  // Dispatches every timer due at or before `now`, as the kernel's timer
  // service does, and returns the indices in dispatch order.
  std::vector<size_t> Service(Instant now) {
    std::vector<size_t> fired;
    for (;;) {
      CheckMin();
      SoftTimer* t = queue_.Min();
      if (::testing::Test::HasFatalFailure() || t == nullptr || t->expiry > now) {
        break;
      }
      queue_.Remove(*t);
      reference_.Remove(t);
      fired.push_back(IndexOf(t));
    }
    return fired;
  }

  void CheckMin() {
    SoftTimer* got = queue_.Min();
    SoftTimer* want = reference_.Min();
    ASSERT_EQ(got, want) << "queue min " << Describe(got) << " != reference min "
                         << Describe(want);
    ASSERT_EQ(queue_.size(), reference_.size());
    ASSERT_EQ(queue_.empty(), want == nullptr);
  }

  SoftTimer* Min() { return queue_.Min(); }
  size_t IndexOf(const SoftTimer* t) const { return static_cast<size_t>(t - timers_.data()); }
  size_t size() const { return queue_.size(); }

 private:
  std::string Describe(const SoftTimer* t) const {
    if (t == nullptr) {
      return "(none)";
    }
    return "#" + std::to_string(IndexOf(t)) + " (expiry=" + std::to_string(t->expiry.nanos()) +
           ", seq=" + std::to_string(t->arm_seq) + ")";
  }

  // The timers must outlive the queue: ~TimerQueue unlinks every armed
  // timer, so the queue is declared after them and destroyed first.
  std::vector<SoftTimer> timers_;
  TimerQueue queue_;
  BruteForceQueue reference_;
  uint64_t seq_ = 0;
};

TEST(TimerQueueTest, EqualExpiriesExtractInArmOrder) {
  Lockstep q(8);
  Instant now;
  Instant expiry = now + Microseconds(100);
  // Arm out of index order; extraction must follow arm_seq.
  for (size_t i : {3u, 0u, 7u, 1u, 5u}) {
    q.Arm(i, expiry);
  }
  // A re-arm at the same instant takes a fresh arm_seq: it now fires last.
  q.Arm(0, expiry);
  EXPECT_EQ(q.Service(expiry), (std::vector<size_t>{3, 7, 1, 5, 0}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(TimerQueueTest, RandomChurnMatchesReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    constexpr size_t kTimers = 64;
    Lockstep q(kTimers);
    Instant now = Instant() + Seconds(1);
    // A handful of absolute instants that many arms share, so arm_seq
    // tie-breaks happen constantly — including after `now` passes them.
    const Instant shared[] = {now + Milliseconds(5), now + Milliseconds(20),
                              now + Milliseconds(400)};
    for (int op = 0; op < 2000; ++op) {
      uint64_t roll = rng.Below(100);
      size_t i = rng.Below(kTimers);
      if (roll < 55) {
        Instant expiry;
        switch (rng.Below(6)) {
          case 0:  // overdue: the service loop must fire it at once
            expiry = now - Microseconds(static_cast<int64_t>(rng.Below(5000)));
            break;
          case 1:
            expiry = now + Nanoseconds(static_cast<int64_t>(rng.Below(1024)));
            break;
          case 2:
            expiry = now + Microseconds(static_cast<int64_t>(rng.Below(4000)));
            break;
          case 3:
            expiry = now + Milliseconds(static_cast<int64_t>(rng.Below(250)));
            break;
          case 4:  // far future: outlives the whole run
            expiry = now + Seconds(static_cast<int64_t>(3600 + rng.Below(86400)));
            break;
          default:
            expiry = shared[rng.Below(3)];
        }
        q.Arm(i, expiry);
      } else if (roll < 75) {
        q.Cancel(i);
      } else {
        now = now + Microseconds(static_cast<int64_t>(rng.Below(2000)));
        q.Service(now);
      }
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "divergence at seed " << seed << " op " << op;
      }
    }
  }
}

// Churn whose expiries sit exactly on the boundaries a sorted insert and the
// service loop compare against: the earliest pending expiry and the current
// time, each +/- one nanosecond. A wrong strictness in the insert scan
// (filing a tie ahead of an earlier arm) or in the due check shows up at once.
TEST(TimerQueueTest, BoundaryPinnedChurnMatchesReference) {
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    constexpr size_t kTimers = 32;
    Lockstep q(kTimers);
    Instant now = Instant() + Milliseconds(1);
    for (int op = 0; op < 1500; ++op) {
      uint64_t roll = rng.Below(100);
      size_t i = rng.Below(kTimers);
      Duration jitter = Nanoseconds(static_cast<int64_t>(rng.Below(3)) - 1);
      const SoftTimer* min = q.Min();
      if (roll < 60) {
        Instant pin = min != nullptr && rng.Below(2) == 0 ? min->expiry : now;
        q.Arm(i, pin + jitter);
      } else if (roll < 75) {
        q.Cancel(i);
      } else {
        // Step time onto the earliest pending expiry, or one nanosecond
        // either side of it.
        Instant target = min != nullptr ? min->expiry
                                        : now + Microseconds(static_cast<int64_t>(1 + rng.Below(50)));
        now = std::max(now, target + jitter);
        for (size_t k : q.Service(now)) {
          // The kernel re-arms periodic work straight from the service loop.
          if (rng.Below(2) == 0) {
            q.Arm(k, now);
          }
        }
      }
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "divergence at seed " << seed << " op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace emeralds
