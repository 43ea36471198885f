// Semaphore tests: mutual exclusion, priority inheritance (deadline
// inheritance for DP tasks, place-holder swaps for FP tasks), the
// context-switch-elimination scheme of Section 6.2, and the pre-acquire
// queue of Section 6.3.1. Scenarios mirror the paper's Figures 6-10.

#include <vector>

#include <gtest/gtest.h>

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

KernelConfig ModeConfig(SemMode mode, SchedulerSpec spec = SchedulerSpec::Edf()) {
  KernelConfig config = ZeroCostConfig(spec);
  config.default_sem_mode = mode;
  return config;
}

TEST(SemaphoreTest, MutualExclusion) {
  SimEnv env(ZeroCostConfig());
  SemId sem = env.k().CreateSemaphore("m").value();
  int in_section = 0;
  int max_in_section = 0;
  // Staggered releases with overlapping critical sections: higher-priority
  // threads preempt a holder mid-section and must block at acquire.
  Duration periods[3] = {Milliseconds(20), Milliseconds(10), Milliseconds(15)};
  Duration offsets[3] = {Duration(), Milliseconds(1), Milliseconds(2)};
  for (int i = 0; i < 3; ++i) {
    ThreadParams params =
        Periodic("t", periods[i], [&, sem](ThreadApi api) -> ThreadBody {
          for (;;) {
            co_await api.Acquire(sem);
            ++in_section;
            max_in_section = std::max(max_in_section, in_section);
            co_await api.Compute(Milliseconds(3));
            --in_section;
            co_await api.Release(sem);
            co_await api.WaitNextPeriod();
          }
        });
    params.first_release = offsets[i];
    env.k().CreateThread(params);
  }
  env.StartAndRunFor(Milliseconds(100));
  EXPECT_EQ(max_in_section, 1);
  EXPECT_GT(env.k().stats().sem_contended, 0u);
}

TEST(SemaphoreTest, ReleaseByNonOwnerFails) {
  SimEnv env(ZeroCostConfig());
  SemId sem = env.k().CreateSemaphore("m").value();
  Status observed = Status::kOk;
  ThreadParams params;
  params.name = "bad";
  params.body = [&, sem](ThreadApi api) -> ThreadBody {
    observed = co_await api.Release(sem);
  };
  env.k().CreateThread(params);
  env.StartAndRunFor(Milliseconds(1));
  EXPECT_EQ(observed, Status::kFailedPrecondition);
}

TEST(SemaphoreTest, BadHandleRejected) {
  SimEnv env(ZeroCostConfig());
  Status observed = Status::kOk;
  ThreadParams params;
  params.name = "bad";
  params.body = [&](ThreadApi api) -> ThreadBody {
    observed = co_await api.Acquire(SemId(42));
  };
  env.k().CreateThread(params);
  env.StartAndRunFor(Milliseconds(1));
  EXPECT_EQ(observed, Status::kBadHandle);
}

// Classic bounded-inversion scenario: low-priority holder inherits the high
// thread's priority so a medium thread cannot starve it.
TEST(SemaphoreTest, PriorityInheritanceBoundsInversion) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Edf()));
  SemId sem = env.k().CreateSemaphore("m").value();
  int64_t high_acquired_us = -1;
  int64_t medium_started_us = -1;

  // Low (period 100ms): locks at t=0 for 4ms of work.
  env.k().CreateThread(Periodic("low", Milliseconds(100), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    co_await api.Compute(Milliseconds(4));
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  }));
  // Medium (period 50ms, released at 1ms): 10ms of compute.
  ThreadParams medium = Periodic("medium", Milliseconds(50), [&](ThreadApi api) -> ThreadBody {
    medium_started_us = api.now().micros();
    co_await api.Compute(Milliseconds(10));
    co_await api.WaitNextPeriod();
  });
  medium.first_release = Milliseconds(1);
  env.k().CreateThread(medium);
  // High (period 20ms, released at 2ms): needs the lock.
  ThreadParams high = Periodic("high", Milliseconds(20), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    high_acquired_us = api.now().micros();
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  });
  high.first_release = Milliseconds(2);
  env.k().CreateThread(high);

  env.StartAndRunFor(Milliseconds(20));
  // Without PI the medium thread would run its 10ms first (high waits ~14ms).
  // With PI, low inherits high's deadline at t=2 and finishes its remaining
  // 3ms by t=5, handing the lock to high.
  EXPECT_EQ(high_acquired_us, 5000);
  EXPECT_EQ(medium_started_us, 1000);  // started, then preempted
  EXPECT_GE(env.k().stats().pi_inherits, 1u);
}

// Transitive inheritance through a chain of two semaphores.
TEST(SemaphoreTest, TransitiveInheritanceChain) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Edf()));
  SemId s1 = env.k().CreateSemaphore("s1").value();
  SemId s2 = env.k().CreateSemaphore("s2").value();
  int64_t high_done_us = -1;

  // C (lowest, period 300): holds s2 for 4ms.
  env.k().CreateThread(Periodic("C", Milliseconds(300), [&, s2](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(s2);
    co_await api.Compute(Milliseconds(4));
    co_await api.Release(s2);
    co_await api.WaitNextPeriod();
  }));
  // B (period 200, at 1ms): holds s1, then needs s2 (blocks on C).
  ThreadParams b = Periodic("B", Milliseconds(200), [&, s1, s2](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(s1);
    co_await api.Acquire(s2);
    co_await api.Compute(Milliseconds(1));
    co_await api.Release(s2);
    co_await api.Release(s1);
    co_await api.WaitNextPeriod();
  });
  b.first_release = Milliseconds(1);
  env.k().CreateThread(b);
  // A (period 20, at 2ms): needs s1 (blocks on B, which is blocked on C).
  ThreadParams a = Periodic("A", Milliseconds(20), [&, s1](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(s1);
    co_await api.Release(s1);
    high_done_us = api.now().micros();
    co_await api.WaitNextPeriod();
  });
  a.first_release = Milliseconds(2);
  env.k().CreateThread(a);
  // Medium interference that would starve C without transitive PI.
  ThreadParams m = Periodic("M", Milliseconds(50), [&](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(30));
    co_await api.WaitNextPeriod();
  });
  m.first_release = Milliseconds(2);
  env.k().CreateThread(m);

  env.StartAndRunFor(Milliseconds(20));
  // C runs [0,1) and [1,2) (B's zero-cost block at t=1 hands the CPU back),
  // inherits A's deadline through B at t=2 so M cannot preempt, finishes its
  // 4ms section at t=4; B takes s2, computes [4,5), releases both; A
  // completes at 5.
  EXPECT_EQ(high_done_us, 5000);
  EXPECT_GE(env.k().stats().pi_inherits, 2u);
}

// --- The CSE scheme (Sections 6.2-6.3, Figures 6 and 8) ---

struct CseScenarioResult {
  uint64_t context_switches;
  uint64_t cse_early_pi;
  uint64_t cse_grants;
  uint64_t cse_switches_saved;
  int64_t t2_section_start_us;
  int64_t t2_section_end_us;
};

// T1 (low) holds S across T2's (high) periodic release at t=10ms. T2's
// WaitNextPeriod carries the hint, as the code parser would arrange.
CseScenarioResult RunCseScenario(SemMode mode) {
  SimEnv env(ModeConfig(mode));
  SemId sem = env.k().CreateSemaphoreWithMode("S", 1, mode).value();
  CseScenarioResult result{};
  result.t2_section_start_us = -1;
  result.t2_section_end_us = -1;

  // T2: high priority (period 10ms).
  env.k().CreateThread(Periodic("T2", Milliseconds(10), [&, sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Acquire(sem);
      if (api.job_number() == 2) {
        result.t2_section_start_us = api.now().micros();
      }
      co_await api.Compute(Milliseconds(1));
      if (api.job_number() == 2) {
        result.t2_section_end_us = api.now().micros();
      }
      co_await api.Release(sem);
      co_await api.WaitNextPeriod(sem);  // instrumented blocking call
    }
  }));
  // T1: low priority (period 50ms); busy until t=9, then holds S for 3ms.
  env.k().CreateThread(Periodic("T1", Milliseconds(50), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(8));  // [1, 9)
    co_await api.Acquire(sem);              // free at t=9
    co_await api.Compute(Milliseconds(3));  // holds S across T2's release
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  }));

  env.k().Start();
  env.k().RunUntil(Instant() + Milliseconds(15));
  const KernelStats& stats = env.k().stats();
  result.context_switches = stats.context_switches;
  result.cse_early_pi = stats.cse_early_pi;
  result.cse_grants = stats.cse_grants;
  result.cse_switches_saved = stats.cse_switches_saved;
  return result;
}

TEST(SemaphoreCseTest, EarlyPiKeepsWokenThreadBlocked) {
  CseScenarioResult cse = RunCseScenario(SemMode::kCse);
  EXPECT_EQ(cse.cse_early_pi, 1u);
  EXPECT_EQ(cse.cse_grants, 1u);
  EXPECT_EQ(cse.cse_switches_saved, 1u);
  // T1 releases at t=12; T2 enters its section immediately after.
  EXPECT_EQ(cse.t2_section_start_us, 12000);
  EXPECT_EQ(cse.t2_section_end_us, 13000);
}

TEST(SemaphoreCseTest, StandardModeTakesExtraSwitches) {
  CseScenarioResult standard = RunCseScenario(SemMode::kStandard);
  CseScenarioResult cse = RunCseScenario(SemMode::kCse);
  EXPECT_EQ(standard.cse_early_pi, 0u);
  EXPECT_EQ(standard.cse_switches_saved, 0u);
  // Identical completion time (Section 6.2.2: "chunks of execution time are
  // swapped between T1 and T2 without affecting the completion time") ...
  EXPECT_EQ(standard.t2_section_start_us, cse.t2_section_start_us);
  EXPECT_EQ(standard.t2_section_end_us, cse.t2_section_end_us);
  // ... but the standard implementation pays more context switches.
  EXPECT_GT(standard.context_switches, cse.context_switches);
}

// Section 6.2.2 concern 1: the thread does not block on the preceding call
// (the release already arrived). The acquire then proceeds normally.
TEST(SemaphoreCseTest, NoBlockOnPrecedingCall) {
  SimEnv env(ModeConfig(SemMode::kCse));
  SemId sem = env.k().CreateSemaphore("S").value();
  int sections = 0;
  env.k().CreateThread(Periodic("T", Milliseconds(10), [&, sem](ThreadApi api) -> ThreadBody {
    for (int i = 0; i < 3; ++i) {
      co_await api.Compute(Milliseconds(12));  // overruns: release pending
      co_await api.WaitNextPeriod(sem);        // returns without blocking
      co_await api.Acquire(sem);
      ++sections;
      co_await api.Release(sem);
    }
  }));
  env.StartAndRunFor(Milliseconds(60));
  EXPECT_EQ(sections, 3);
  EXPECT_EQ(env.k().stats().cse_early_pi, 0u);
}

// A hint naming a semaphore that is never acquired must be tolerated.
TEST(SemaphoreCseTest, WrongHintTolerated) {
  SimEnv env(ModeConfig(SemMode::kCse));
  SemId sem = env.k().CreateSemaphore("S").value();
  int jobs = 0;
  env.k().CreateThread(Periodic("liar", Milliseconds(10), [&, sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      ++jobs;
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod(sem);  // hint, but no acquire follows
    }
  }));
  env.StartAndRunFor(Milliseconds(45));
  EXPECT_EQ(jobs, 5);
  EXPECT_GE(env.k().stats().cse_hint_misses, 1u);
}

// Section 6.3.1: the lock holder blocks while holding the semaphore. The
// would-be acquirer sits in the pre-acquire queue and is frozen so it does
// not burn CPU just to block at acquire_sem().
TEST(SemaphoreCseTest, PreAcquireFreezeWhileHolderBlocked) {
  SimEnv env(ModeConfig(SemMode::kCse));
  SemId sem = env.k().CreateSemaphore("S").value();
  int64_t t2_acquired_us = -1;

  // T2 (period 20ms): compute, acquire, compute, release.
  env.k().CreateThread(Periodic("T2", Milliseconds(20), [&, sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(1));
      co_await api.Acquire(sem);
      if (api.job_number() == 2) {
        t2_acquired_us = api.now().micros();
      }
      co_await api.Compute(Milliseconds(1));
      co_await api.Release(sem);
      co_await api.WaitNextPeriod(sem);
    }
  }));
  // T1 (higher priority: shorter relative deadline; released at 20.5ms):
  // locks S then sleeps while holding it (Figure 9's problem case).
  ThreadParams t1 = Periodic("T1", Milliseconds(20), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    co_await api.Sleep(Milliseconds(2));  // blocks holding S
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  });
  t1.relative_deadline = Milliseconds(10);
  t1.first_release = Microseconds(20500);
  env.k().CreateThread(t1);

  env.StartAndRunFor(Milliseconds(30));
  // T2 released at 20 (S free -> pre-acquire queue), ran [20, 20.5); T1
  // preempted, locked S, froze T2, slept until 22.5; released -> thaw; T2
  // finished its remaining 0.5ms compute and acquired at 23.
  EXPECT_EQ(t2_acquired_us, 23000);
  EXPECT_GE(env.k().stats().preacquire_freezes, 1u);
  // The 2ms sleep left the CPU idle: the frozen T2 must NOT have run.
  EXPECT_GE(env.k().stats().cycles().at(CycleBucket::kIdle).micros(), 2000);
}

// Figure 10: the holder blocks waiting for an internal event (a signal from
// Ts); letting Ts run instead of T2 releases the semaphore sooner.
TEST(SemaphoreCseTest, HolderBlockedOnInternalEvent) {
  SimEnv env(ModeConfig(SemMode::kCse));
  SemId sem = env.k().CreateSemaphore("S").value();
  SemId guard = env.k().CreateSemaphore("guard").value();
  CondvarId cv = env.k().CreateCondvar("cv").value();
  int64_t t2_acquired_us = -1;
  bool signalled = false;

  // T1 (period 100): locks S, waits for the signal while holding it.
  env.k().CreateThread(Periodic("T1", Milliseconds(100), [&](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    co_await api.Acquire(guard);
    while (!signalled) {
      co_await api.Wait(cv, guard);
    }
    co_await api.Release(guard);
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  }));
  // T2 (period 20, released at 5ms): wants S.
  ThreadParams t2 = Periodic("T2", Milliseconds(20), [&](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    t2_acquired_us = api.now().micros();
    co_await api.Release(sem);
    co_await api.WaitNextPeriod(sem);
  });
  t2.first_release = Milliseconds(5);
  env.k().CreateThread(t2);
  // Ts (period 100, low priority, released at 6ms): signals after 2ms work.
  ThreadParams ts = Periodic("Ts", Milliseconds(100), [&](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(2));
    co_await api.Acquire(guard);
    signalled = true;
    co_await api.Signal(cv);
    co_await api.Release(guard);
    co_await api.WaitNextPeriod();
  });
  ts.first_release = Milliseconds(6);
  env.k().CreateThread(ts);

  env.StartAndRunFor(Milliseconds(20));
  // Ts runs [6, 8), signals; T1 wakes, releases S; T2 acquires at 8.
  EXPECT_EQ(t2_acquired_us, 8000);
}

// --- Place-holder PI on the FP queue (Section 6.2) ---

// FP holder inherits a blocked FP waiter's rank via a position swap (O(1)),
// not a sorted re-insert.
TEST(SemaphoreFpTest, PlaceholderSwapUsedInCseMode) {
  SimEnv env(ModeConfig(SemMode::kCse, SchedulerSpec::Rm()));
  SemId sem = env.k().CreateSemaphore("S").value();
  int64_t high_acquired_us = -1;

  env.k().CreateThread(Periodic("low", Milliseconds(100), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    co_await api.Compute(Milliseconds(4));
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  }));
  ThreadParams mid = Periodic("mid", Milliseconds(50), [&](ThreadApi api) -> ThreadBody {
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
  EXPECT_EQ(high_acquired_us, 5000);  // PI worked
  EXPECT_GE(env.k().stats().pi_swaps, 2u);  // swap + swap-back
  EXPECT_EQ(env.k().stats().pi_reinserts, 0u);
  env.k().scheduler().Validate();
}

TEST(SemaphoreFpTest, StandardModeUsesReinserts) {
  SimEnv env(ModeConfig(SemMode::kStandard, SchedulerSpec::Rm()));
  SemId sem = env.k().CreateSemaphore("S").value();
  int64_t high_acquired_us = -1;

  env.k().CreateThread(Periodic("low", Milliseconds(100), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    co_await api.Compute(Milliseconds(4));
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  }));
  ThreadParams high = Periodic("high", Milliseconds(20), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    high_acquired_us = api.now().micros();
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  });
  high.first_release = Milliseconds(2);
  env.k().CreateThread(high);

  env.StartAndRunFor(Milliseconds(20));
  EXPECT_EQ(high_acquired_us, 4000);
  EXPECT_EQ(env.k().stats().pi_swaps, 0u);
  EXPECT_GE(env.k().stats().pi_reinserts, 1u);
  env.k().scheduler().Validate();
}

// The third-thread case: T3 (even higher priority) blocks on the semaphore
// while the holder already occupies T2's slot. T3 becomes the new
// place-holder; T2 returns to its own position. Still O(1).
TEST(SemaphoreFpTest, ThirdWaiterReplacesPlaceholder) {
  SimEnv env(ModeConfig(SemMode::kCse, SchedulerSpec::Rm()));
  SemId sem = env.k().CreateSemaphore("S").value();
  std::vector<int64_t> acquire_order_us;

  env.k().CreateThread(Periodic("low", Milliseconds(200), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    co_await api.Compute(Milliseconds(6));
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  }));
  ThreadParams t2 = Periodic("T2", Milliseconds(50), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    acquire_order_us.push_back(api.now().micros() * 10 + 2);
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  });
  t2.first_release = Milliseconds(1);
  env.k().CreateThread(t2);
  ThreadParams t3 = Periodic("T3", Milliseconds(20), [&, sem](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    acquire_order_us.push_back(api.now().micros() * 10 + 3);
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  });
  t3.first_release = Milliseconds(2);
  env.k().CreateThread(t3);

  env.StartAndRunFor(Milliseconds(30));
  // Low acquires at 0 and computes 6ms (blocking attempts at t=1 and t=2
  // cost zero virtual time); T2 blocks at 1 (swap #1), T3 blocks at 2 (the
  // T3 case: two more swaps). Low releases at 6 having inherited T3's rank.
  // T3 acquires first, then T2.
  ASSERT_EQ(acquire_order_us.size(), 2u);
  EXPECT_EQ(acquire_order_us[0] % 10, 3u);  // T3 first
  EXPECT_EQ(acquire_order_us[0] / 10, 6000u);
  EXPECT_EQ(acquire_order_us[1] % 10, 2u);
  EXPECT_GE(env.k().stats().pi_swaps, 4u);  // initial + 2 (T3 case) + undo
  env.k().scheduler().Validate();
}

// --- Counting semaphores ---

TEST(SemaphoreCountingTest, AllowsMultipleHolders) {
  SimEnv env(ZeroCostConfig());
  SemId sem = env.k().CreateSemaphore("pool", 2).value();
  int concurrent = 0;
  int max_concurrent = 0;
  for (int i = 0; i < 3; ++i) {
    ThreadParams params;
    params.name = "worker";
    params.body = [&, sem](ThreadApi api) -> ThreadBody {
      co_await api.Acquire(sem);
      ++concurrent;
      max_concurrent = std::max(max_concurrent, concurrent);
      co_await api.Sleep(Milliseconds(2));
      --concurrent;
      co_await api.Release(sem);
    };
    env.k().CreateThread(params);
  }
  env.StartAndRunFor(Milliseconds(10));
  EXPECT_EQ(max_concurrent, 2);
}

TEST(SemaphoreCountingTest, WaiterWokenOnRelease) {
  SimEnv env(ZeroCostConfig());
  SemId sem = env.k().CreateSemaphore("pool", 1).value();
  // Binary=false requires initial >= 2; use initial 1 -> binary. For the
  // counting path use initial 2 drained by two holders.
  SemId pool = env.k().CreateSemaphore("pool2", 2).value();
  (void)sem;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    ThreadParams params;
    params.name = "w";
    params.body = [&, pool, i](ThreadApi api) -> ThreadBody {
      co_await api.Acquire(pool);
      order.push_back(i);
      co_await api.Sleep(Milliseconds(1 + i));
      co_await api.Release(pool);
    };
    env.k().CreateThread(params);
  }
  env.StartAndRunFor(Milliseconds(10));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 2);  // third worker admitted only after a release
}

// A blocking chain one past kMaxPiChainDepth: T_i holds S_i and blocks on
// S_{i-1}. The acquire that would extend the chain past the cap must fail
// with kResourceExhausted and a kPiChainLimit trace instant — it used to
// hard-assert and kill the whole simulation.
TEST(SemaphoreTest, DeepPiChainFailsGracefully) {
  SimEnv env(ZeroCostConfig());
  const int chain = kMaxPiChainDepth + 1;  // 17 threads, 17 semaphores
  std::vector<SemId> sems;
  for (int i = 0; i < chain; ++i) {
    sems.push_back(env.k().CreateSemaphore("s").value());
  }
  std::vector<Status> nested(chain, Status::kCancelled);

  ThreadParams head;
  head.name = "t0";
  head.body = [&](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sems[0]);
    co_await api.Sleep(Milliseconds(100));  // runnable end of the chain
    co_await api.Release(sems[0]);
  };
  env.k().CreateThread(head);
  for (int i = 1; i < chain; ++i) {
    ThreadParams params;
    params.name = "t";
    params.body = [&, i](ThreadApi api) -> ThreadBody {
      co_await api.Sleep(Milliseconds(i));  // stagger: the chain grows in order
      co_await api.Acquire(sems[i]);
      nested[i] = co_await api.Acquire(sems[i - 1]);
      if (nested[i] == Status::kOk) {
        co_await api.Release(sems[i - 1]);
      }
      co_await api.Release(sems[i]);
    };
    env.k().CreateThread(params);
  }
  env.StartAndRunFor(Milliseconds(300));

  // Every link up to the cap blocked and eventually acquired; the link that
  // would have made the chain 17 deep was refused instead of panicking.
  for (int i = 1; i < chain - 1; ++i) {
    EXPECT_EQ(nested[i], Status::kOk) << "link " << i;
  }
  EXPECT_EQ(nested[chain - 1], Status::kResourceExhausted);
  EXPECT_GE(env.k().stats().pi_chain_limit_hits, 1u);
  bool saw_limit_event = false;
  const TraceSink& trace = env.k().trace();
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace.at(i).type == TraceEventType::kPiChainLimit) {
      saw_limit_event = true;
    }
  }
  EXPECT_TRUE(saw_limit_event);
}

}  // namespace
}  // namespace emeralds
