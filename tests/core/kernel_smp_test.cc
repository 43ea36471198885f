// Partitioned-SMP executive tests: pinning validation, per-core scheduling
// independence, cross-core wakes priced as virtual IPIs, and the two-level
// cycle-conservation invariant (each core's ledger covers its own elapsed
// window exactly, and the per-core ledgers sum to the fleet ledger).

#include <algorithm>

#include <gtest/gtest.h>

#include "tests/testing/kernel_env.h"

namespace emeralds {
namespace {

KernelConfig SmpZeroCost(int cores, SchedulerSpec spec = SchedulerSpec::Edf()) {
  KernelConfig config = ZeroCostConfig(spec);
  config.num_cores = cores;
  return config;
}

KernelConfig SmpCalibrated(int cores, SchedulerSpec spec = SchedulerSpec::Edf()) {
  KernelConfig config = CalibratedConfig(spec);
  config.num_cores = cores;
  return config;
}

ThreadParams Pinned(const char* name, int core, ThreadBodyFactory body) {
  ThreadParams params;
  params.name = name;
  params.core = core;
  params.body = std::move(body);
  return params;
}

TEST(KernelSmpTest, PinOutOfRangeRejected) {
  SimEnv env(SmpZeroCost(2));
  ThreadParams params;
  params.name = "stray";
  params.body = [](ThreadApi api) -> ThreadBody { co_await api.Compute(Milliseconds(1)); };
  params.core = 2;
  EXPECT_EQ(env.k().CreateThread(params).status(), Status::kInvalidArgument);
  params.core = -1;
  EXPECT_EQ(env.k().CreateThread(params).status(), Status::kInvalidArgument);
  params.core = 1;
  EXPECT_TRUE(env.k().CreateThread(params).ok());

  // The implicit single-core config only accepts core 0.
  SimEnv uni(ZeroCostConfig());
  params.core = 1;
  EXPECT_EQ(uni.k().CreateThread(params).status(), Status::kInvalidArgument);
  params.core = 0;
  EXPECT_TRUE(uni.k().CreateThread(params).ok());
}

TEST(KernelSmpTest, PinnedThreadsComputeInParallel) {
  SimEnv env(SmpZeroCost(2));
  int64_t done_us[2] = {-1, -1};
  for (int i = 0; i < 2; ++i) {
    env.k().CreateThread(Pinned(i == 0 ? "a" : "b", i, [&, i](ThreadApi api) -> ThreadBody {
      co_await api.Compute(Milliseconds(10));
      done_us[i] = api.now().micros();
    }));
  }
  env.StartAndRunFor(Milliseconds(12));
  EXPECT_EQ(done_us[0], 10000);
  EXPECT_EQ(done_us[1], 10000);  // ran concurrently on its own core
  EXPECT_EQ(env.k().stats().cycles().at(CycleBucket::kUser), Milliseconds(20));
}

TEST(KernelSmpTest, SameCorePinnedThreadsSerialize) {
  SimEnv env(SmpZeroCost(2));
  int64_t done_us[2] = {-1, -1};
  for (int i = 0; i < 2; ++i) {
    env.k().CreateThread(Pinned(i == 0 ? "a" : "b", 0, [&, i](ThreadApi api) -> ThreadBody {
      co_await api.Compute(Milliseconds(10));
      done_us[i] = api.now().micros();
    }));
  }
  env.StartAndRunFor(Milliseconds(25));
  // Both share core 0; core 1 idles. One finishes at 10ms, the other at 20ms.
  EXPECT_EQ(std::min(done_us[0], done_us[1]), 10000);
  EXPECT_EQ(std::max(done_us[0], done_us[1]), 20000);
  EXPECT_EQ(env.k().stats().cycles().at(CycleBucket::kUser), Milliseconds(20));
}

TEST(KernelSmpTest, CrossCoreWakePaysVirtualIpi) {
  SimEnv env(SmpCalibrated(2));
  SemId sem = env.k().CreateSemaphore("xc", 0).value();
  bool woke = false;
  env.k().CreateThread(Pinned("waiter", 1, [&](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    woke = true;
    co_await api.Compute(Microseconds(100));
  }));
  env.k().CreateThread(Pinned("releaser", 0, [&](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(1));
    co_await api.Release(sem);
  }));
  env.StartAndRunFor(Milliseconds(5));
  EXPECT_TRUE(woke);
  const KernelStats& s = env.k().stats();
  EXPECT_GE(s.ipis, 1u);
  // The wake was priced: the virtual IPI landed in its own bucket, and the
  // conservation invariant survives both fleet-summed and per core.
  EXPECT_GT(s.cycles().at(CycleBucket::kIpi).nanos(), 0);
  EXPECT_TRUE(CheckCycleConservation(s, env.k().now()).exact());
  for (int c = 0; c < s.num_cores; ++c) {
    CycleConservation cc = CheckCoreCycleConservation(s, c, env.k().now());
    EXPECT_TRUE(cc.exact()) << "core " << c << " residual " << cc.residual.nanos() << " ns";
  }
}

TEST(KernelSmpTest, SameCoreWakeIsNotAnIpi) {
  SimEnv env(SmpCalibrated(2));
  SemId sem = env.k().CreateSemaphore("local", 0).value();
  bool woke = false;
  // Everything (waiter, releaser, timer service) lives on core 0: no wake
  // ever crosses a core boundary, so no virtual IPI may be charged.
  env.k().CreateThread(Pinned("waiter", 0, [&](ThreadApi api) -> ThreadBody {
    co_await api.Acquire(sem);
    woke = true;
  }));
  env.k().CreateThread(Pinned("releaser", 0, [&](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(1));
    co_await api.Release(sem);
  }));
  env.StartAndRunFor(Milliseconds(5));
  EXPECT_TRUE(woke);
  EXPECT_EQ(env.k().stats().ipis, 0u);
  EXPECT_EQ(env.k().stats().cycles().at(CycleBucket::kIpi).nanos(), 0);
}

TEST(KernelSmpTest, PerCoreLedgersSumToFleetLedger) {
  SimEnv env(SmpCalibrated(2, SchedulerSpec::Csd(2)));
  for (int i = 0; i < 4; ++i) {
    ThreadParams params;
    params.name = "worker";
    params.period = Milliseconds(5);
    params.core = i % 2;
    params.body = [](ThreadApi api) -> ThreadBody {
      for (;;) {
        co_await api.Compute(Milliseconds(1));
        co_await api.WaitNextPeriod();
      }
    };
    env.k().CreateThread(params);
  }
  env.StartAndRunFor(Milliseconds(50));
  const KernelStats& s = env.k().stats();
  // Timer service lives on core 0, so periodic releases of the core-1 workers
  // are cross-core wakes and must have been priced.
  EXPECT_GE(s.ipis, 1u);
  // Bucket by bucket, the fleet ledger view is the stored per-core ledgers'
  // sum.
  const CycleLedger fleet = s.cycles();
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    Duration sum;
    for (int c = 0; c < s.num_cores; ++c) {
      sum += s.core_cycles[c].buckets[b];
    }
    EXPECT_EQ(sum.nanos(), fleet.buckets[b].nanos()) << "bucket " << b;
  }
  // Each core's ledger covers its own elapsed window exactly; the fleet
  // ledger covers num_cores * elapsed.
  for (int c = 0; c < s.num_cores; ++c) {
    CycleConservation cc = CheckCoreCycleConservation(s, c, env.k().now());
    EXPECT_TRUE(cc.exact()) << "core " << c << " residual " << cc.residual.nanos() << " ns";
  }
  EXPECT_TRUE(CheckCycleConservation(s, env.k().now()).exact());
}

TEST(KernelSmpTest, TwoCoreThroughputScalesOnSaturation) {
  // Six periodic tasks at 30% each: 180% aggregate demand saturates one core
  // (user time == horizon) and fits two (user time == 1.8x horizon, exactly,
  // since the zero-cost model charges nothing but compute).
  auto user_ns = [](int cores) {
    SimEnv env(SmpZeroCost(cores));
    for (int i = 0; i < 6; ++i) {
      ThreadParams params;
      params.name = "sat";
      params.period = Milliseconds(10);
      params.core = i % cores;
      params.body = [](ThreadApi api) -> ThreadBody {
        for (;;) {
          co_await api.Compute(Milliseconds(3));
          co_await api.WaitNextPeriod();
        }
      };
      env.k().CreateThread(params);
    }
    env.StartAndRunFor(Milliseconds(100));
    return env.k().stats().cycles().at(CycleBucket::kUser).nanos();
  };
  EXPECT_EQ(user_ns(1), Milliseconds(100).nanos());
  EXPECT_EQ(user_ns(2), Milliseconds(180).nanos());
}

}  // namespace
}  // namespace emeralds
