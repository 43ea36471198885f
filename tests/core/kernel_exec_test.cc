// Kernel executive tests: thread lifecycle, periodic jobs, preemption,
// deadlines, sleep/yield, time accounting.

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

TEST(KernelExecTest, PeriodicThreadRunsEachPeriod) {
  SimEnv env(ZeroCostConfig());
  std::vector<int64_t> release_times_us;
  auto id = env.k()
                .CreateThread(Periodic("p", Milliseconds(10),
                                       [&](ThreadApi api) -> ThreadBody {
                                         for (;;) {
                                           release_times_us.push_back(api.now().micros());
                                           co_await api.Compute(Milliseconds(2));
                                           co_await api.WaitNextPeriod();
                                         }
                                       }))
                .value();
  env.StartAndRunFor(Milliseconds(35));
  EXPECT_EQ(release_times_us, (std::vector<int64_t>{0, 10000, 20000, 30000}));
  EXPECT_EQ(env.k().thread(id).jobs_completed, 4u);  // 4th job done at t=32ms
  EXPECT_EQ(env.k().thread(id).deadline_misses, 0u);
}

TEST(KernelExecTest, FirstReleaseOffsetHonored) {
  SimEnv env(ZeroCostConfig());
  int64_t first_run_us = -1;
  ThreadParams params = Periodic("p", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    first_run_us = api.now().micros();
    co_await api.WaitNextPeriod();
  });
  params.first_release = Milliseconds(3);
  env.k().CreateThread(params);
  env.StartAndRunFor(Milliseconds(5));
  EXPECT_EQ(first_run_us, 3000);
}

TEST(KernelExecTest, EdfPrefersEarlierDeadline) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Edf()));
  std::vector<char> order;
  env.k().CreateThread(Periodic("long", Milliseconds(50), [&](ThreadApi api) -> ThreadBody {
    order.push_back('L');
    co_await api.Compute(Milliseconds(1));
    co_await api.WaitNextPeriod();
  }));
  env.k().CreateThread(Periodic("short", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    for (;;) {
      order.push_back('S');
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(5));
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], 'S');  // deadline 10ms beats 50ms
  EXPECT_EQ(order[1], 'L');
}

TEST(KernelExecTest, RmPrefersShorterPeriod) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Rm()));
  std::vector<char> order;
  env.k().CreateThread(Periodic("long", Milliseconds(50), [&](ThreadApi api) -> ThreadBody {
    order.push_back('L');
    co_await api.Compute(Milliseconds(1));
    co_await api.WaitNextPeriod();
  }));
  env.k().CreateThread(Periodic("short", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    for (;;) {
      order.push_back('S');
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(5));
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], 'S');
}

TEST(KernelExecTest, HigherPriorityReleasePreemptsMidCompute) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Edf()));
  int64_t hi_ran_at_us = -1;
  int64_t lo_done_at_us = -1;
  ThreadParams hi = Periodic("hi", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    hi_ran_at_us = api.now().micros();
    co_await api.Compute(Milliseconds(1));
    co_await api.WaitNextPeriod();
  });
  hi.first_release = Milliseconds(2);
  env.k().CreateThread(hi);
  env.k().CreateThread(Periodic("lo", Milliseconds(100), [&](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(6));
    lo_done_at_us = api.now().micros();
    co_await api.WaitNextPeriod();
  }));
  env.StartAndRunFor(Milliseconds(10));
  EXPECT_EQ(hi_ran_at_us, 2000);      // preempted lo at its release
  EXPECT_EQ(lo_done_at_us, 7000);     // 6ms of work + 1ms preemption
  EXPECT_GE(env.k().stats().context_switches, 3u);
}

TEST(KernelExecTest, DeadlineMissDetectedAtCompletion) {
  SimEnv env(ZeroCostConfig());
  auto id = env.k()
                .CreateThread(Periodic("over", Milliseconds(10),
                                       [&](ThreadApi api) -> ThreadBody {
                                         for (;;) {
                                           co_await api.Compute(Milliseconds(12));  // > period
                                           co_await api.WaitNextPeriod();
                                         }
                                       }))
                .value();
  env.StartAndRunFor(Milliseconds(30));
  EXPECT_GE(env.k().thread(id).deadline_misses, 1u);
  EXPECT_GE(env.k().stats().deadline_misses, 1u);
}

TEST(KernelExecTest, OverrunConsumesPendingReleaseWithoutBlocking) {
  SimEnv env(ZeroCostConfig());
  std::vector<int64_t> job_starts_us;
  env.k().CreateThread(Periodic("over", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    for (int i = 0; i < 3; ++i) {
      job_starts_us.push_back(api.now().micros());
      co_await api.Compute(Milliseconds(15));
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(60));
  ASSERT_EQ(job_starts_us.size(), 3u);
  EXPECT_EQ(job_starts_us[0], 0);
  EXPECT_EQ(job_starts_us[1], 15000);  // continued immediately after overrun
  EXPECT_EQ(job_starts_us[2], 30000);
}

// Regression: a thread whose WaitNextPeriod call lands *after* its next
// release instant — because charged syscall time (not compute) carried the
// clock across the release boundary, so the release timer has not been
// dispatched yet — blocks, is immediately rewoken by the due timer, and is
// re-selected while still `current_`. The executive must restore kRunning
// on that no-switch path instead of asserting. Found by the torture harness
// (torture --seed=2 --ops=10000).
TEST(KernelExecTest, ReleaseDueDuringWaitPeriodSyscallDoesNotWedge) {
  SimEnv env(CalibratedConfig());
  SemId pace = env.k().CreateSemaphore("pace", 0).value();
  uint64_t jobs = 0;
  // Period 100us; each job computes 80us then issues charged syscalls
  // (releases of a counting semaphore) that push completion past the next
  // release grid point without any dispatch opportunity.
  env.k().CreateThread(Periodic("tight", Microseconds(100), [&](ThreadApi api) -> ThreadBody {
    for (;;) {
      ++jobs;
      co_await api.Compute(Microseconds(80));
      for (int i = 0; i < 15; ++i) {
        co_await api.Release(pace);
      }
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(20));
  // The run survives and keeps releasing jobs (overloaded, so misses are
  // expected — wedging or panicking is not).
  EXPECT_GT(jobs, 50u);
  EXPECT_GT(env.k().stats().jobs_completed, 50u);
}

// Companion regression for the multi-queue executive: the same rewake-while-
// still-current shape, but under CSD-2 with the tight thread in the fixed-
// priority band and a dynamic-band sibling. The rewoken thread re-enters its
// own (FP) queue while selection walks the bands from the top, so the
// no-switch restore path must put the thread back to kRunning even though the
// winning queue is not the one it was re-inserted into moments earlier.
TEST(KernelExecTest, ReleaseDueDuringWaitPeriodCsdMultiBandDoesNotWedge) {
  SimEnv env(CalibratedConfig(SchedulerSpec::Csd(2)));
  SemId pace = env.k().CreateSemaphore("pace", 0).value();
  uint64_t tight_jobs = 0;
  uint64_t dp_jobs = 0;
  ThreadParams tight =
      Periodic("tight-fp", Microseconds(100), [&](ThreadApi api) -> ThreadBody {
        for (;;) {
          ++tight_jobs;
          co_await api.Compute(Microseconds(80));
          for (int i = 0; i < 15; ++i) {
            co_await api.Release(pace);
          }
          co_await api.WaitNextPeriod();
        }
      });
  tight.band = -1;  // fixed-priority (lowest) band
  env.k().CreateThread(tight);
  ThreadParams dp = Periodic("dp", Milliseconds(5), [&](ThreadApi api) -> ThreadBody {
    for (;;) {
      ++dp_jobs;
      co_await api.Compute(Microseconds(200));
      co_await api.WaitNextPeriod();
    }
  });
  dp.band = 0;  // EDF band: preempts the tight FP thread every 5ms
  env.k().CreateThread(dp);
  env.StartAndRunFor(Milliseconds(20));
  // Overloaded but alive: both bands keep releasing jobs instead of wedging.
  EXPECT_GT(tight_jobs, 50u);
  EXPECT_GE(dp_jobs, 4u);
}

TEST(KernelExecTest, SleepWakesAtRequestedTime) {
  SimEnv env(ZeroCostConfig());
  int64_t woke_us = -1;
  ThreadParams params;
  params.name = "sleeper";
  params.body = [&](ThreadApi api) -> ThreadBody {
    co_await api.Sleep(Milliseconds(7));
    woke_us = api.now().micros();
  };
  env.k().CreateThread(params);
  env.StartAndRunFor(Milliseconds(20));
  EXPECT_EQ(woke_us, 7000);
}

TEST(KernelExecTest, AperiodicThreadRunsAtStart) {
  SimEnv env(ZeroCostConfig());
  bool ran = false;
  ThreadParams params;
  params.name = "aperiodic";
  params.body = [&](ThreadApi api) -> ThreadBody {
    ran = true;
    co_await api.Compute(Milliseconds(1));
  };
  env.k().CreateThread(params);
  env.StartAndRunFor(Milliseconds(2));
  EXPECT_TRUE(ran);
}

TEST(KernelExecTest, ThreadExitLeavesOthersRunning) {
  SimEnv env(ZeroCostConfig());
  int counter = 0;
  ThreadParams once;
  once.name = "once";
  once.body = [&](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(1));
  };
  auto once_id = env.k().CreateThread(once).value();
  env.k().CreateThread(Periodic("forever", Milliseconds(5), [&](ThreadApi api) -> ThreadBody {
    for (;;) {
      ++counter;
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(22));
  EXPECT_EQ(env.k().thread(once_id).state, ThreadState::kFinished);
  EXPECT_EQ(counter, 5);
}

TEST(KernelExecTest, YieldKeepsHighestPriorityRunning) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Edf()));
  int yields = 0;
  env.k().CreateThread(Periodic("y", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    co_await api.Yield();
    ++yields;
    co_await api.WaitNextPeriod();
  }));
  env.StartAndRunFor(Milliseconds(5));
  EXPECT_EQ(yields, 1);
}

TEST(KernelExecTest, IdleTimeAccounted) {
  SimEnv env(ZeroCostConfig());
  env.k().CreateThread(Periodic("p", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(2));
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(100));
  EXPECT_EQ(env.k().stats().cycles().at(CycleBucket::kUser).millis(), 20);
  EXPECT_EQ(env.k().stats().cycles().at(CycleBucket::kIdle).millis(), 80);
}

TEST(KernelExecTest, ChargedTimeShowsUpOnClock) {
  SimEnv env(CalibratedConfig());
  env.k().CreateThread(Periodic("p", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(100));
  const KernelStats& stats = env.k().stats();
  Duration charged = stats.total_charged();
  EXPECT_TRUE(charged.is_positive());
  // Conservation: compute + idle + kernel charges == elapsed virtual time
  // (the clock may run slightly past the horizon when work lands exactly on
  // it, so compare against now(), not the horizon).
  const CycleLedger ledger = stats.cycles();
  EXPECT_EQ((ledger.at(CycleBucket::kUser) + ledger.at(CycleBucket::kIdle) + charged).nanos(),
            (env.k().now() - Instant()).nanos());
}

TEST(KernelExecTest, RunUntilIsResumable) {
  SimEnv env(ZeroCostConfig());
  int jobs = 0;
  env.k().CreateThread(Periodic("p", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    for (;;) {
      ++jobs;
      co_await api.WaitNextPeriod();
    }
  }));
  env.k().Start();
  env.k().RunUntil(Instant() + Milliseconds(15));
  int jobs_mid = jobs;
  env.k().RunUntil(Instant() + Milliseconds(45));
  EXPECT_EQ(jobs_mid, 2);
  EXPECT_EQ(jobs, 5);
}

TEST(KernelExecTest, RmAutoRankAssignsByPeriod) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Rm()));
  auto slow = env.k().CreateThread(Periodic("slow", Milliseconds(50),
                                            [](ThreadApi api) -> ThreadBody {
                                              co_await api.WaitNextPeriod();
                                            }));
  auto fast = env.k().CreateThread(Periodic("fast", Milliseconds(5),
                                            [](ThreadApi api) -> ThreadBody {
                                              co_await api.WaitNextPeriod();
                                            }));
  env.k().Start();
  EXPECT_GT(env.k().thread(slow.value()).base_rm_rank,
            env.k().thread(fast.value()).base_rm_rank);
}

TEST(KernelExecTest, CreateThreadValidatesArguments) {
  SimEnv env(ZeroCostConfig());
  ThreadParams no_body;
  no_body.name = "nobody";
  EXPECT_EQ(env.k().CreateThread(no_body).status(), Status::kInvalidArgument);

  ThreadParams bad_process;
  bad_process.name = "badproc";
  bad_process.process = ProcessId(99);
  bad_process.body = [](ThreadApi api) -> ThreadBody { co_return; };
  EXPECT_EQ(env.k().CreateThread(bad_process).status(), Status::kBadHandle);
}

TEST(KernelExecTest, ThreadPoolExhaustion) {
  KernelConfig config = ZeroCostConfig();
  config.max_threads = 2;
  SimEnv env(config);
  ThreadParams params;
  params.name = "t";
  params.body = [](ThreadApi api) -> ThreadBody { co_return; };
  EXPECT_TRUE(env.k().CreateThread(params).ok());
  EXPECT_TRUE(env.k().CreateThread(params).ok());
  EXPECT_EQ(env.k().CreateThread(params).status(), Status::kResourceExhausted);
}

TEST(KernelExecTest, TraceRecordsSwitchesAndJobs) {
  SimEnv env(ZeroCostConfig());
  env.k().CreateThread(Periodic("p", Milliseconds(10), [&](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod();
    }
  }));
  env.StartAndRunFor(Milliseconds(25));
  bool saw_release = false;
  bool saw_switch = false;
  bool saw_complete = false;
  TraceSink& trace = env.k().trace();
  for (size_t i = 0; i < trace.size(); ++i) {
    switch (trace.at(i).type) {
      case TraceEventType::kJobRelease:
        saw_release = true;
        break;
      case TraceEventType::kContextSwitch:
        saw_switch = true;
        break;
      case TraceEventType::kJobComplete:
        saw_complete = true;
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_release);
  EXPECT_TRUE(saw_switch);
  EXPECT_TRUE(saw_complete);
}

}  // namespace
}  // namespace emeralds
