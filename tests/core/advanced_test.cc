// Cross-cutting kernel tests: cross-band priority inheritance under CSD,
// semaphores on the RM-heap scheduler, blocked-sender priority ordering,
// condvar re-acquisition with inheritance, the TaskSetRunner facility, and
// charge accounting.

#include <vector>

#include <gtest/gtest.h>

#include "src/core/taskset_runner.h"
#include "tests/testing/kernel_env.h"

namespace emeralds {
namespace {

ThreadParams Periodic(const char* name, Duration period, ThreadBodyFactory body) {
  ThreadParams params;
  params.name = name;
  params.period = period;
  params.body = std::move(body);
  return params;
}

// A DP (EDF-queue) task blocking on a semaphore held by an FP (RM-queue)
// task must boost the holder into the DP band so it outruns other DP tasks.
TEST(CrossBandPiTest, FpHolderBoostedIntoDpBand) {
  KernelConfig config = ZeroCostConfig(SchedulerSpec::Csd(2));
  config.debug_validate = true;
  SimEnv env(config);
  SemId sem = env.k().CreateSemaphore("S").value();
  int64_t dp_acquired_us = -1;

  // FP holder: locks at t=0 for 4ms.
  ThreadParams holder = Periodic("fp-holder", Milliseconds(200),
                                 [&, sem](ThreadApi api) -> ThreadBody {
                                   co_await api.Acquire(sem);
                                   co_await api.Compute(Milliseconds(4));
                                   co_await api.Release(sem);
                                   co_await api.WaitNextPeriod();
                                 });
  holder.band = 1;
  env.k().CreateThread(holder);
  // DP interference: would run for 10ms from t=1 if the holder were not
  // boosted above it.
  ThreadParams noise = Periodic("dp-noise", Milliseconds(40),
                                [&](ThreadApi api) -> ThreadBody {
                                  co_await api.Compute(Milliseconds(10));
                                  co_await api.WaitNextPeriod();
                                });
  noise.band = 0;
  noise.first_release = Milliseconds(1);
  env.k().CreateThread(noise);
  // DP contender: needs the lock at t=2.
  ThreadParams contender = Periodic("dp-contender", Milliseconds(20),
                                    [&, sem](ThreadApi api) -> ThreadBody {
                                      co_await api.Acquire(sem);
                                      dp_acquired_us = api.now().micros();
                                      co_await api.Release(sem);
                                      co_await api.WaitNextPeriod();
                                    });
  contender.band = 0;
  contender.first_release = Milliseconds(2);
  env.k().CreateThread(contender);

  env.StartAndRunFor(Milliseconds(20));
  // Boosted holder finishes its remaining 3ms by t=5 (noise would have held
  // the CPU until 11 otherwise); the DP contender then gets the lock.
  EXPECT_EQ(dp_acquired_us, 5000);
  EXPECT_GE(env.k().stats().pi_inherits, 1u);
  // After release the boost must be gone.
  const Tcb& h = env.k().thread(ThreadId(0));
  EXPECT_EQ(h.boosted_into_band, -1);
  EXPECT_EQ(h.effective_band, 1);
}

// The RM-heap scheduler (Table 1's comparison structure) runs the full
// semaphore machinery through the standard (re-insert / re-key) PI path.
TEST(RmHeapKernelTest, SemaphoresWorkOnHeapScheduler) {
  KernelConfig config = ZeroCostConfig(SchedulerSpec::RmHeap());
  config.default_sem_mode = SemMode::kStandard;
  config.debug_validate = true;
  SimEnv env(config);
  SemId sem = env.k().CreateSemaphore("S").value();
  int64_t high_acquired_us = -1;

  env.k().CreateThread(Periodic("low", Milliseconds(100), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    co_await api.Compute(Milliseconds(4));
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  }));
  ThreadParams mid = Periodic("mid", Milliseconds(50), [](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(10));
    co_await api.WaitNextPeriod();
  });
  mid.first_release = Milliseconds(1);
  env.k().CreateThread(mid);
  ThreadParams high = Periodic("high", Milliseconds(20), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    high_acquired_us = api.now().micros();
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  });
  high.first_release = Milliseconds(2);
  env.k().CreateThread(high);

  env.StartAndRunFor(Milliseconds(20));
  EXPECT_EQ(high_acquired_us, 5000);  // PI through the heap re-key path
  EXPECT_EQ(env.k().stats().deadline_misses, 0u);
}

TEST(RmHeapKernelTest, PeriodicWorkloadRuns) {
  KernelConfig config = CalibratedConfig(SchedulerSpec::RmHeap());
  config.debug_validate = true;
  SimEnv env(config);
  TaskSet set = Table2Workload().ScaledBy(0.5);
  std::vector<ThreadId> ids = SpawnTaskSet(env.k(), set);
  env.StartAndRunFor(Seconds(1));
  TaskSetRunStats stats = CollectRunStats(env.k(), ids);
  EXPECT_GT(stats.jobs_completed, 300u);
  EXPECT_EQ(stats.deadline_misses, 0u);
}

// Blocked senders are admitted in priority order, not FIFO.
TEST(MailboxSenderOrderTest, HighestPrioritySenderAdmittedFirst) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Edf()));
  MailboxId mbox = env.k().CreateMailbox("m", 1).value();
  std::vector<char> admitted;

  // Fill the mailbox so both senders block.
  ThreadParams filler;
  filler.name = "filler";
  filler.body = [&](ThreadApi api) -> ThreadBody {
    uint8_t b = 0;
    co_await api.Send(mbox, std::span<const uint8_t>(&b, 1));
  };
  env.k().CreateThread(filler);

  ThreadParams lo;
  lo.name = "lo";
  lo.period = Milliseconds(100);
  lo.first_release = Milliseconds(1);
  lo.body = [&](ThreadApi api) -> ThreadBody {
    uint8_t b = 'L';
    co_await api.Send(mbox, std::span<const uint8_t>(&b, 1));
    admitted.push_back('L');
    co_await api.WaitNextPeriod();
  };
  env.k().CreateThread(lo);
  ThreadParams hi;
  hi.name = "hi";
  hi.period = Milliseconds(20);
  hi.first_release = Milliseconds(2);
  hi.body = [&](ThreadApi api) -> ThreadBody {
    uint8_t b = 'H';
    co_await api.Send(mbox, std::span<const uint8_t>(&b, 1));
    admitted.push_back('H');
    co_await api.WaitNextPeriod();
  };
  env.k().CreateThread(hi);

  // Drain one slot at t=5: the high-priority sender must get it.
  ThreadParams drainer;
  drainer.name = "drainer";
  drainer.body = [&](ThreadApi api) -> ThreadBody {
    co_await api.Sleep(Milliseconds(5));
    uint8_t b;
    co_await api.Recv(mbox, std::span<uint8_t>(&b, 1));
  };
  env.k().CreateThread(drainer);

  env.StartAndRunFor(Milliseconds(10));
  ASSERT_GE(admitted.size(), 1u);
  EXPECT_EQ(admitted[0], 'H');
}

// Signal moves a waiter onto a *held* mutex: the waiter donates priority to
// the mutex holder (condvar + PI interplay).
TEST(CondvarPiTest, SignalledWaiterDonatesPriority) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Edf()));
  SemId mutex = env.k().CreateSemaphore("m").value();
  CondvarId cv = env.k().CreateCondvar("cv").value();
  int64_t waiter_resumed_us = -1;

  // High-priority waiter parks on the condvar.
  ThreadParams waiter;
  waiter.name = "waiter";
  waiter.period = Milliseconds(20);
  waiter.body = [&](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(mutex);
    co_await api.Wait(cv, mutex);
    waiter_resumed_us = api.now().micros();
    co_await api.Release(mutex);
    co_await api.WaitNextPeriod();
  };
  env.k().CreateThread(waiter);
  // Low-priority thread: takes the mutex at t=1, signals, keeps the mutex
  // for 3ms of work. The signalled waiter contends and donates its deadline,
  // protecting the holder from the medium interferer.
  ThreadParams holder;
  holder.name = "holder";
  holder.period = Milliseconds(200);
  holder.first_release = Milliseconds(1);
  holder.body = [&](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(mutex);
    co_await api.Signal(cv);
    co_await api.Compute(Milliseconds(3));
    co_await api.Release(mutex);
    co_await api.WaitNextPeriod();
  };
  env.k().CreateThread(holder);
  ThreadParams medium;
  medium.name = "medium";
  medium.period = Milliseconds(50);
  medium.first_release = Milliseconds(2);
  medium.body = [](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(10));
    co_await api.WaitNextPeriod();
  };
  env.k().CreateThread(medium);

  env.StartAndRunFor(Milliseconds(20));
  // Without donation the medium thread would run its 10ms first; with it the
  // holder finishes at 4 and the waiter resumes immediately.
  EXPECT_EQ(waiter_resumed_us, 4000);
  EXPECT_GE(env.k().stats().pi_inherits, 1u);
}

TEST(TaskSetRunnerTest, BandsFromPartitionExpands) {
  EXPECT_EQ(BandsFromPartition({2, 3}), (std::vector<int>{0, 0, 1, 1, 1}));
  EXPECT_EQ(BandsFromPartition({0, 2}), (std::vector<int>{1, 1}));
  EXPECT_TRUE(BandsFromPartition({}).empty());
}

TEST(TaskSetRunnerTest, SpawnsAndCollects) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Csd(2)));
  TaskSet set = Table2Workload();
  std::vector<ThreadId> ids = SpawnTaskSet(env.k(), set, BandsFromPartition({5, 5}));
  ASSERT_EQ(ids.size(), 10u);
  env.StartAndRunFor(Milliseconds(100));
  TaskSetRunStats stats = CollectRunStats(env.k(), ids);
  EXPECT_GT(stats.jobs_completed, 50u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_TRUE(stats.worst_response.is_positive());
  // tau_1's band assignment respected.
  EXPECT_EQ(env.k().thread(ids[0]).base_band, 0);
  EXPECT_EQ(env.k().thread(ids[9]).base_band, 1);
}

TEST(ChargeAccountingTest, SemPathOnlyAroundSemOps) {
  SimEnv env(CalibratedConfig());
  // A single periodic thread that never touches a semaphore: sem-path time
  // stays zero while other categories accumulate.
  env.k().CreateThread(Periodic("plain", Milliseconds(10), [](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(100));
  EXPECT_TRUE(env.k().stats().sem_path_time.is_zero());
  const CycleLedger ledger = env.k().stats().cycles();
  EXPECT_TRUE(ChargedIn(ledger, ChargeCategory::kScheduling).is_positive());
  EXPECT_TRUE(ChargedIn(ledger, ChargeCategory::kSemaphore).is_zero());
}

TEST(ChargeAccountingTest, ResetClearsTimeNotCounters) {
  SimEnv env(CalibratedConfig());
  SemId sem = env.k().CreateSemaphore("S").value();
  env.k().CreateThread(Periodic("p", Milliseconds(10), [sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Acquire(sem);
      co_await api.Release(sem);
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(50));
  uint64_t acquires = env.k().stats().sem_acquires;
  ASSERT_GT(acquires, 0u);
  ASSERT_TRUE(env.k().stats().sem_path_time.is_positive());
  env.k().ResetChargeAccounting();
  EXPECT_TRUE(env.k().stats().sem_path_time.is_zero());
  EXPECT_TRUE(env.k().stats().total_charged().is_zero());
  EXPECT_EQ(env.k().stats().sem_acquires, acquires);  // counters preserved
}

TEST(RankPolicyTest, DeadlineMonotonicRanksByDeadline) {
  // Two equal-period threads: under DM the shorter relative deadline gets
  // the higher rank (and runs first); under RM creation order breaks the tie.
  auto run = [](FpRankPolicy policy) {
    KernelConfig config = ZeroCostConfig(SchedulerSpec::Rm());
    config.fp_rank_policy = policy;
    SimEnv env(config);
    std::vector<char> order;
    ThreadParams loose;
    loose.name = "loose";
    loose.period = Milliseconds(10);
    loose.relative_deadline = Milliseconds(10);
    loose.body = [&order](ThreadApi api) -> ThreadBody {
      order.push_back('L');
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod();
    };
    env.k().CreateThread(loose);
    ThreadParams tight;
    tight.name = "tight";
    tight.period = Milliseconds(10);
    tight.relative_deadline = Milliseconds(3);
    tight.body = [&order](ThreadApi api) -> ThreadBody {
      order.push_back('T');
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod();
    };
    env.k().CreateThread(tight);
    env.StartAndRunFor(Milliseconds(5));
    return order;
  };
  std::vector<char> dm = run(FpRankPolicy::kDeadlineMonotonic);
  ASSERT_GE(dm.size(), 2u);
  EXPECT_EQ(dm[0], 'T');  // tight deadline first
  std::vector<char> rm = run(FpRankPolicy::kRateMonotonic);
  ASSERT_GE(rm.size(), 2u);
  EXPECT_EQ(rm[0], 'L');  // equal periods: creation order
}

TEST(RankPolicyTest, DmEqualsRmWhenDeadlinesEqualPeriods) {
  for (FpRankPolicy policy : {FpRankPolicy::kRateMonotonic, FpRankPolicy::kDeadlineMonotonic}) {
    KernelConfig config = ZeroCostConfig(SchedulerSpec::Rm());
    config.fp_rank_policy = policy;
    SimEnv env(config);
    TaskSet set = Table2Workload();
    std::vector<ThreadId> ids = SpawnTaskSet(env.k(), set);
    env.k().Start();
    for (int i = 1; i < set.size(); ++i) {
      EXPECT_GT(env.k().thread(ids[i]).base_rm_rank, env.k().thread(ids[i - 1]).base_rm_rank);
    }
  }
}

}  // namespace
}  // namespace emeralds
