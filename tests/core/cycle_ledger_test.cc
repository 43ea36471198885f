// Cycle-attribution ledger tests: the hard conservation invariant (bucket sum
// == elapsed virtual time, exact to the tick), the Table-1 pricing identity
// for every QueueKind x QueueOp the scheduler reports, per-task attribution
// (the task ledgers' user buckets sum to the node's), and epoch rebasing
// across charge resets.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/taskset_runner.h"
#include "tests/testing/kernel_env.h"

namespace emeralds {
namespace {

// A small workload that exercises every charging path: two contending
// periodic threads, a mailbox pair, and plenty of preemption.
void BuildLedgerWorkload(Kernel& kernel) {
  SemId lock = kernel.CreateSemaphore("lock", 1).value();
  MailboxId mbox = kernel.CreateMailbox("mbox", 2).value();

  ThreadParams fast;
  fast.name = "fast";
  fast.period = Milliseconds(2);
  fast.first_release = Milliseconds(1);
  fast.body = [lock](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Microseconds(120));
      co_await api.Acquire(lock);
      co_await api.Compute(Microseconds(80));
      co_await api.Release(lock);
      co_await api.WaitNextPeriod();
    }
  };
  kernel.CreateThread(fast);

  ThreadParams slow;
  slow.name = "slow";
  slow.period = Milliseconds(5);
  slow.body = [lock, mbox](ThreadApi api) -> ThreadBody {
    uint8_t payload[8] = {};
    for (;;) {
      co_await api.Acquire(lock);
      co_await api.Compute(Microseconds(900));
      co_await api.Release(lock);
      co_await api.TrySend(mbox, std::span<const uint8_t>(payload, sizeof(payload)));
      co_await api.WaitNextPeriod();
    }
  };
  kernel.CreateThread(slow);

  ThreadParams drain;
  drain.name = "drain";
  drain.period = Milliseconds(4);
  drain.body = [mbox](ThreadApi api) -> ThreadBody {
    uint8_t buf[8];
    for (;;) {
      co_await api.Recv(mbox, std::span<uint8_t>(buf, sizeof(buf)), Milliseconds(1));
      co_await api.Compute(Microseconds(150));
      co_await api.WaitNextPeriod();
    }
  };
  kernel.CreateThread(drain);
}

// Sum of the three scheduler queue-op buckets recomputed from the operation
// counters and the Table 1 coefficients. The ledger must match this exactly:
// counts-to-time conversion happens in one place and nowhere else.
Duration ExpectedQueueOpTime(const Kernel& kernel, QueueOp op) {
  const KernelStats& stats = kernel.stats();
  Duration expected;
  for (int kind = 0; kind < kNumQueueKinds; ++kind) {
    uint64_t count = stats.queue_op_count[kind][static_cast<int>(op)];
    uint64_t units = stats.queue_op_units[kind][static_cast<int>(op)];
    const LinearCost& cost =
        kernel.cost_model().queue[kind][static_cast<int>(op)];
    expected += cost.fixed * static_cast<int64_t>(count) +
                cost.per_unit * static_cast<int64_t>(units);
  }
  return expected;
}

CycleBucket BucketFor(QueueOp op) { return CycleBucketForQueueOp(op); }

class CycleLedgerSchedulers : public ::testing::TestWithParam<int> {};

TEST_P(CycleLedgerSchedulers, ConservesAndPricesQueueOpsExactly) {
  SchedulerSpec spec;
  switch (GetParam()) {
    case 0: spec = SchedulerSpec::Edf(); break;
    case 1: spec = SchedulerSpec::Rm(); break;
    case 2: spec = SchedulerSpec::RmHeap(); break;
    default: spec = SchedulerSpec::Csd(3); break;
  }
  SimEnv env(CalibratedConfig(spec));
  BuildLedgerWorkload(env.k());
  env.StartAndRunFor(Milliseconds(200));

  const KernelStats& stats = env.k().stats();
  const CycleLedger ledger = stats.cycles();

  // Conservation: every tick between the epoch and now is in exactly one
  // bucket, and no clock advance bypassed the kernel's charging paths.
  CycleConservation conservation = CheckCycleConservation(stats, env.k().now());
  EXPECT_EQ(conservation.residual.nanos(), 0)
      << "elapsed " << conservation.elapsed.nanos() << " ns vs ledger "
      << conservation.ledger_total.nanos() << " ns";
  EXPECT_EQ(env.k().hardware().clock().ledger().at(CycleBucket::kUnattributed).nanos(), 0);

  // Exact integer identity per QueueOp: the scheduler buckets hold precisely
  // fixed * count + per_unit * units summed over the QueueKinds in play.
  for (QueueOp op : {QueueOp::kBlock, QueueOp::kUnblock, QueueOp::kSelect}) {
    EXPECT_EQ(ledger.at(BucketFor(op)).nanos(), ExpectedQueueOpTime(env.k(), op).nanos())
        << "op " << static_cast<int>(op);
  }

  // The per-band split is a partition of the same time.
  for (QueueOp op : {QueueOp::kBlock, QueueOp::kUnblock, QueueOp::kSelect}) {
    Duration band_sum;
    for (int band = 0; band < kMaxStatBands; ++band) {
      band_sum += stats.sched_band_cycles[band][static_cast<int>(op)];
    }
    EXPECT_EQ(band_sum.nanos(), ledger.at(BucketFor(op)).nanos());
  }

  // The workload actually exercised the scheduler: selects happened and were
  // priced (CalibratedConfig costs are non-zero).
  EXPECT_GT(stats.queue_op_count[0][static_cast<int>(QueueOp::kSelect)] +
                stats.queue_op_count[1][static_cast<int>(QueueOp::kSelect)] +
                stats.queue_op_count[2][static_cast<int>(QueueOp::kSelect)],
            0u);
  EXPECT_GT(ledger.at(CycleBucket::kSchedSelect).nanos(), 0);

  // On one core the node-wide view is the stored core-0 ledger, bucket-exact.
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    EXPECT_EQ(ledger.buckets[b].nanos(), stats.core_cycles[0].buckets[b].nanos()) << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, CycleLedgerSchedulers, ::testing::Values(0, 1, 2, 3));

TEST(CycleLedgerTest, PerTaskUserEqualsCpuTimeExactly) {
  SimEnv env(CalibratedConfig(SchedulerSpec::Csd(2)));
  BuildLedgerWorkload(env.k());
  env.StartAndRunFor(Milliseconds(100));
  Duration task_user_sum;
  for (size_t i = 0; i < env.k().thread_count(); ++i) {
    const Tcb& t = env.k().thread(ThreadId(static_cast<int>(i)));
    // A task's user bucket is exactly its own compute; everything else in its
    // ledger is carried kernel overhead.
    EXPECT_GE(t.cycles.total().nanos(), t.cycles.at(CycleBucket::kUser).nanos()) << t.name;
    task_user_sum += t.cycles.at(CycleBucket::kUser);
  }
  // The stored task ledgers and the stored core ledger agree on user time.
  EXPECT_EQ(task_user_sum.nanos(), env.k().stats().core_cycles[0].at(CycleBucket::kUser).nanos());
  // The task rows' cpu time is the task ledgers' user bucket, and the rest
  // of each ledger is its overhead.
  std::vector<ThreadId> ids;
  for (size_t i = 0; i < env.k().thread_count(); ++i) {
    ids.push_back(ThreadId(static_cast<int>(i)));
  }
  for (const TaskRunRow& row : CollectPerTaskStats(env.k(), ids)) {
    const Tcb& t = env.k().thread(row.id);
    EXPECT_EQ(row.user_cycles.nanos(), t.cycles.at(CycleBucket::kUser).nanos()) << t.name;
    EXPECT_EQ((row.user_cycles + row.overhead_cycles).nanos(), t.cycles.total().nanos())
        << t.name;
  }
}

TEST(CycleLedgerTest, ChargeResetRebasesEpochAndStaysConserved) {
  SimEnv env(CalibratedConfig(SchedulerSpec::Edf()));
  BuildLedgerWorkload(env.k());
  env.k().Start();
  env.k().RunUntil(Instant() + Milliseconds(40));

  env.k().ResetChargeAccounting();
  Instant epoch = env.k().stats().cycles_epoch;
  EXPECT_EQ(epoch, env.k().now());
  EXPECT_EQ(env.k().stats().cycle_total().nanos(), 0);

  env.k().RunUntil(Instant() + Milliseconds(90));
  CycleConservation conservation =
      CheckCycleConservation(env.k().stats(), env.k().now());
  EXPECT_EQ(conservation.elapsed.nanos(), (env.k().now() - epoch).nanos());
  EXPECT_GE(conservation.elapsed.nanos(), Milliseconds(49).nanos());
  EXPECT_EQ(conservation.residual.nanos(), 0);
  // The clock's cumulative ledger still conserves since boot, independent of
  // the windowed reset.
  EXPECT_EQ(env.k().hardware().clock().ledger().total().nanos(),
            (env.k().now() - Instant()).nanos());
}

TEST(CycleLedgerTest, ZeroCostModelChargesOnlyUserAndIdle) {
  SimEnv env(ZeroCostConfig());
  BuildLedgerWorkload(env.k());
  env.StartAndRunFor(Milliseconds(50));
  const KernelStats& stats = env.k().stats();
  CycleConservation conservation = CheckCycleConservation(stats, env.k().now());
  EXPECT_EQ(conservation.residual.nanos(), 0);
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    CycleBucket bucket = static_cast<CycleBucket>(b);
    if (bucket == CycleBucket::kUser || bucket == CycleBucket::kIdle) {
      continue;
    }
    EXPECT_EQ(stats.cycles().at(bucket).nanos(), 0) << CycleBucketToString(bucket);
  }
}

}  // namespace
}  // namespace emeralds
