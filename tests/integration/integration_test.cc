// End-to-end integration: the paper's Figure 2 scenario simulated on the
// kernel, and cross-validation of the schedulability analysis against the
// simulator with the calibrated cost model.

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/breakdown.h"
#include "src/core/taskset_runner.h"
#include "src/workload/workload.h"
#include "tests/testing/kernel_env.h"

namespace emeralds {
namespace {

std::vector<ThreadId> SpawnTasks(Kernel& kernel, const TaskSet& set,
                                 const std::vector<int>& bands = {}) {
  return SpawnTaskSet(kernel, set, bands);
}

// --- Figure 2: Table 2's workload under RM vs EDF vs CSD ---

TEST(Fig2IntegrationTest, RmStarvesTau5) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Rm()));
  std::vector<ThreadId> ids = SpawnTasks(env.k(), Table2Workload());
  env.StartAndRunFor(Milliseconds(12));
  // tau_1..tau_4 run in [0,4) and again in [4,8); tau_5 misses d_5 = 8ms
  // (it finally completes around t=10, past its deadline).
  EXPECT_GE(env.k().thread(ids[4]).deadline_misses, 1u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(env.k().thread(ids[i]).deadline_misses, 0u) << "tau_" << i + 1;
  }
}

TEST(Fig2IntegrationTest, EdfSchedulesTable2) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Edf()));
  std::vector<ThreadId> ids = SpawnTasks(env.k(), Table2Workload());
  env.StartAndRunFor(Seconds(2));
  EXPECT_EQ(env.k().stats().deadline_misses, 0u);
  EXPECT_GT(env.k().stats().jobs_completed, 500u);
}

TEST(Fig2IntegrationTest, CsdWithTau5InDpQueueSchedulesTable2) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Csd(2)));
  // The paper's CSD fix: tau_1..tau_5 in the DP (EDF) queue, the long-period
  // tasks under RM.
  std::vector<ThreadId> ids =
      SpawnTasks(env.k(), Table2Workload(), BandsFromPartition({5, 5}));
  env.StartAndRunFor(Seconds(2));
  EXPECT_EQ(env.k().stats().deadline_misses, 0u);
}

TEST(Fig2IntegrationTest, CsdWithEmptyDpBehavesLikeRm) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Csd(2)));
  std::vector<ThreadId> ids =
      SpawnTasks(env.k(), Table2Workload(), BandsFromPartition({0, 10}));
  env.StartAndRunFor(Milliseconds(12));
  EXPECT_GE(env.k().thread(ids[4]).deadline_misses, 1u);
}

TEST(Fig2IntegrationTest, TraceShowsTheMiss) {
  SimEnv env(ZeroCostConfig(SchedulerSpec::Rm()));
  std::vector<ThreadId> ids = SpawnTasks(env.k(), Table2Workload());
  env.StartAndRunFor(Milliseconds(12));
  bool found = false;
  TraceSink& trace = env.k().trace();
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& event = trace.at(i);
    if (event.type == TraceEventType::kDeadlineMiss && event.arg0 == ids[4].value) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- Analysis vs simulation cross-validation ---

struct CrossCase {
  int num_tasks;
  int divide;
  PolicySpec::Kind kind;
  int csd_queues;
};

class AnalysisVsSimTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AnalysisVsSimTest, FeasibleWorkloadsMeetDeadlinesInSimulation) {
  auto [num_tasks, divide] = GetParam();
  Rng rng(9000 + num_tasks * 10 + divide);
  CostModel cost = CostModel::MC68040_25MHz();

  for (PolicySpec policy : {PolicySpec::Edf(), PolicySpec::Rm(), PolicySpec::Csd(2)}) {
    Rng trial = rng.Fork(static_cast<uint64_t>(policy.kind) * 7 + 1);
    TaskSet set = GenerateWorkload(trial, num_tasks).PeriodsDividedBy(divide);
    BreakdownResult bd = ComputeBreakdown(set, policy, cost);
    ASSERT_GT(bd.utilization, 0.0);
    // Scale to 95% of the breakdown point: the analysis says feasible; the
    // simulator (whose overheads are at most the analysis's worst case) must
    // not miss deadlines.
    double scale = 0.95 * bd.utilization / set.Utilization();
    TaskSet scaled = set.ScaledBy(scale);

    SchedulerSpec spec;
    switch (policy.kind) {
      case PolicySpec::Kind::kEdf:
        spec = SchedulerSpec::Edf();
        break;
      case PolicySpec::Kind::kRm:
        spec = SchedulerSpec::Rm();
        break;
      default:
        spec = SchedulerSpec::Csd(policy.csd_queues);
        break;
    }
    KernelConfig config;
    config.scheduler = spec;
    config.cost_model = cost;
    config.trace_capacity = 0;
    SimEnv env(config);
    std::vector<int> bands;
    if (policy.kind == PolicySpec::Kind::kCsd) {
      bands = BandsFromPartition(bd.partition);
    }
    SpawnTasks(env.k(), scaled, bands);
    env.StartAndRunFor(Seconds(2));
    EXPECT_EQ(env.k().stats().deadline_misses, 0u)
        << policy.Name() << " n=" << num_tasks << " div=" << divide
        << " breakdown=" << bd.utilization;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, AnalysisVsSimTest,
                         ::testing::Combine(::testing::Values(5, 10, 20),
                                            ::testing::Values(1, 3)));

TEST(AnalysisVsSimTest, OverUtilizedEdfMissesInSimulation) {
  Rng rng(777);
  TaskSet set = GenerateWorkload(rng, 10);
  // Scale raw utilization to 1.1: impossible for any scheduler.
  TaskSet scaled = set.ScaledBy(1.1 / set.Utilization());
  KernelConfig config;
  config.scheduler = SchedulerSpec::Edf();
  config.cost_model = CostModel::MC68040_25MHz();
  config.trace_capacity = 0;
  SimEnv env(config);
  SpawnTasks(env.k(), scaled);
  env.StartAndRunFor(Seconds(2));
  EXPECT_GT(env.k().stats().deadline_misses, 0u);
}

// The simulator's measured per-job scheduler overhead stays within the
// analysis model's worst-case bound.
TEST(AnalysisVsSimTest, MeasuredOverheadWithinModelBound) {
  Rng rng(4242);
  TaskSet set = GenerateWorkload(rng, 20);
  CostModel cost = CostModel::MC68040_25MHz();
  KernelConfig config;
  config.scheduler = SchedulerSpec::Edf();
  config.cost_model = cost;
  config.trace_capacity = 0;
  SimEnv env(config);
  SpawnTasks(env.k(), set);
  env.StartAndRunFor(Seconds(5));
  const KernelStats& stats = env.k().stats();
  ASSERT_GT(stats.jobs_completed, 0u);
  const CycleLedger ledger = stats.cycles();
  Duration scheduling_related = ChargedIn(ledger, ChargeCategory::kScheduling) +
                                ChargedIn(ledger, ChargeCategory::kContextSwitch) +
                                ChargedIn(ledger, ChargeCategory::kSyscall) +
                                ChargedIn(ledger, ChargeCategory::kInterrupt) +
                                ChargedIn(ledger, ChargeCategory::kTimerSvc);
  Duration per_job = scheduling_related / static_cast<int64_t>(stats.jobs_completed);
  OverheadModel model(cost);
  // The analysis bound (t = 1.5(t_b + t_u + 2 t_s) at n = 20) plus interrupt
  // and context-switch costs not counted by the paper's t: use 3x headroom.
  EXPECT_LT(per_job.nanos(), model.EdfTaskOverhead(20).nanos() * 3);
}

}  // namespace
}  // namespace emeralds
