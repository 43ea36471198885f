// Schedulability analysis tests: the overhead model (Section 5.1 / Table 3),
// EDF/RM/CSD feasibility tests, and breakdown-utilization properties.

#include <gtest/gtest.h>

#include "src/analysis/breakdown.h"
#include "src/analysis/overhead.h"
#include "src/analysis/sched_test.h"
#include "src/workload/workload.h"

namespace emeralds {
namespace {

OverheadModel ZeroModel() { return OverheadModel(CostModel::Zero()); }
OverheadModel M68kModel() { return OverheadModel(CostModel::MC68040_25MHz()); }

TEST(OverheadModelTest, EdfFormulaMatchesPaper) {
  OverheadModel model = M68kModel();
  // t = 1.5 (1.6 + 1.2 + 2 (1.2 + 0.25 n)); n = 20 -> 1.5 * 15.2 = 22.8 us.
  EXPECT_EQ(model.EdfTaskOverhead(20).nanos(), 22800);
}

TEST(OverheadModelTest, RmFormulaMatchesPaper) {
  OverheadModel model = M68kModel();
  // t = 1.5 (1.0 + 0.36 n + 1.4 + 2 * 0.6); n = 20 -> 1.5 * 10.8 = 16.2 us.
  EXPECT_EQ(model.RmTaskOverhead(20).nanos(), 16200);
}

TEST(OverheadModelTest, RmBeatsEdfForLargeN) {
  OverheadModel model = M68kModel();
  // t_b counts once vs t_s twice: RM pulls ahead as n grows (Section 5.1).
  EXPECT_GT(model.EdfTaskOverhead(30), model.RmTaskOverhead(30));
  EXPECT_GT(model.EdfTaskOverhead(50), model.RmTaskOverhead(50));
}

TEST(OverheadModelTest, HeapWorseThanListForModerateN) {
  OverheadModel model = M68kModel();
  // "Unless n is very large (58 in this case), the total run-time overhead
  // for a heap is more than for a queue."
  EXPECT_GT(model.RmTaskOverhead(30, /*heap=*/true), model.RmTaskOverhead(30, false));
  EXPECT_LT(model.RmTaskOverhead(80, /*heap=*/true), model.RmTaskOverhead(80, false));
}

TEST(OverheadModelTest, HeapListCrossoverNearPaperValue) {
  OverheadModel model = M68kModel();
  int crossover = 0;
  for (int n = 2; n <= 120; ++n) {
    if (model.RmTaskOverhead(n, true) < model.RmTaskOverhead(n, false)) {
      crossover = n;
      break;
    }
  }
  // The paper reports n = 58; the linear fits cross within a few tasks of it.
  EXPECT_NEAR(crossover, 58, 10);
}

TEST(OverheadModelTest, CsdDpOverheadBelowEdf) {
  OverheadModel model = M68kModel();
  // CSD-2 with the DP queue holding half the tasks: DP tasks parse a shorter
  // EDF queue than pure EDF's n-task queue.
  Duration csd_dp = model.CsdTaskOverhead({15}, 15, 0);
  Duration edf = model.EdfTaskOverhead(30);
  EXPECT_LT(csd_dp, edf);
}

TEST(OverheadModelTest, CsdQueueParseScalesWithX) {
  OverheadModel model = M68kModel();
  // Same queue shape, more queues: overhead strictly grows by the 0.55us
  // per-queue parse (charged on both selections).
  Duration csd2 = model.CsdTaskOverhead({10}, 10, 0);
  Duration csd3 = model.CsdTaskOverhead({10, 0}, 10, 0);
  EXPECT_GT(csd3, csd2);
}

TEST(SchedTestTest, EdfAcceptsUpToFullUtilization) {
  TaskSet set = Table2Workload();  // U = 0.887
  EXPECT_TRUE(EdfFeasible(set, 1.0, ZeroModel()));
  EXPECT_TRUE(EdfFeasible(set, 1.12, ZeroModel()));   // U ~= 0.99
  EXPECT_FALSE(EdfFeasible(set, 1.14, ZeroModel()));  // U > 1
}

TEST(SchedTestTest, RmRejectsTable2) {
  // The paper's point: Table 2 is feasible under EDF but not under RM, even
  // with zero overheads.
  TaskSet set = Table2Workload();
  EXPECT_FALSE(RmFeasible(set, 1.0, ZeroModel()));
  EXPECT_TRUE(EdfFeasible(set, 1.0, ZeroModel()));
}

TEST(SchedTestTest, RmAcceptsScaledDownTable2) {
  TaskSet set = Table2Workload();
  EXPECT_TRUE(RmFeasible(set, 0.8, ZeroModel()));
}

TEST(SchedTestTest, CsdAcceptsTable2WithDpPrefix) {
  // Placing tau_1..tau_5 in the DP queue (the paper's fix) makes the set
  // feasible; pure-FP CSD (r = 0) behaves like RM and rejects it.
  TaskSet set = Table2Workload();
  EXPECT_TRUE(CsdFeasible(set, {5, 5}, 1.0, ZeroModel()));
  EXPECT_FALSE(CsdFeasible(set, {0, 10}, 1.0, ZeroModel()));
}

TEST(SchedTestTest, CsdAllInDpEqualsEdf) {
  TaskSet set = Table2Workload();
  EXPECT_TRUE(CsdFeasible(set, {10, 0}, 1.12, ZeroModel()));
  EXPECT_FALSE(CsdFeasible(set, {10, 0}, 1.14, ZeroModel()));
}

TEST(SchedTestTest, OverheadsShrinkFeasibleRegion) {
  TaskSet set = Table2Workload();
  // Periods here are short (4-8 ms), so the 68040 overheads bite.
  EXPECT_TRUE(EdfFeasible(set, 1.0, ZeroModel()));
  OverheadModel m68k = M68kModel();
  // At scale 1.12 the raw utilization is ~0.993: still feasible with zero
  // overheads, but the 68040 scheduler overhead pushes it over 1.
  EXPECT_TRUE(EdfFeasible(set, 1.12, ZeroModel()));
  EXPECT_TRUE(EdfFeasible(set, 1.0, m68k));
  EXPECT_FALSE(EdfFeasible(set, 1.12, m68k));
}

TEST(SchedTestTest, ResponseTimeAnalysisBasics) {
  // Task with cost 2, deadline 10, one interferer (cost 3, period 5):
  // R = 2 + ceil(5/5)*3 = 5 <= 10.
  const int64_t cost[] = {3};
  const int64_t period[] = {5};
  EXPECT_EQ(ResponseTime(2, 10, cost, period), RtaVerdict::kMeets);
  // Tighter deadline fails (R = 5 > 4).
  EXPECT_EQ(ResponseTime(2, 4, cost, period), RtaVerdict::kOvershoots);
  // Over-utilized interference diverges past the deadline.
  const int64_t heavy_cost[] = {6};
  EXPECT_EQ(ResponseTime(1, 1000000, heavy_cost, period), RtaVerdict::kOvershoots);
  // Interference at 99% utilization: the fixed point R = 10000 + ceil(R/100) * 99
  // is 1,000,000, but each iterate closes only 1% of the gap, so 256 iterates
  // neither converge nor pass the deadline.
  const int64_t slow_cost[] = {99};
  const int64_t slow_period[] = {100};
  EXPECT_EQ(ResponseTime(10000, 2000000, slow_cost, slow_period), RtaVerdict::kUndecided);
  EXPECT_EQ(ResponseTime(10000, 100000, slow_cost, slow_period), RtaVerdict::kOvershoots);
}

// --- Breakdown ---

TEST(BreakdownTest, EdfReaches100PercentWithZeroCosts) {
  Rng rng(1);
  TaskSet set = GenerateWorkload(rng, 20);
  BreakdownResult result = ComputeBreakdown(set, PolicySpec::Edf(), CostModel::Zero());
  EXPECT_NEAR(result.utilization, 1.0, 1e-9);
}

TEST(BreakdownTest, RmBelowEdfWithZeroCosts) {
  // "Previous work has shown that for RM, U = 0.88 on average" — the exact
  // average depends on the period distribution; with the paper's digit-class
  // periods the RM breakdown sits well below EDF's 1.0 but above the
  // Liu-Layland worst case.
  Rng rng(2);
  double sum = 0.0;
  const int kTrials = 30;
  for (int i = 0; i < kTrials; ++i) {
    Rng trial = rng.Fork(i);
    TaskSet set = GenerateWorkload(trial, 10);
    double rm = ComputeBreakdown(set, PolicySpec::Rm(), CostModel::Zero()).utilization;
    EXPECT_LE(rm, 1.0 + 1e-9);
    EXPECT_GE(rm, 0.69);  // above the n->inf Liu-Layland bound
    sum += rm;
  }
  double average = sum / kTrials;
  EXPECT_LT(average, 0.99);
  EXPECT_GT(average, 0.85);
}

TEST(BreakdownTest, OverheadsReduceBreakdown) {
  Rng rng(3);
  TaskSet set = GenerateWorkload(rng, 30);
  double zero = ComputeBreakdown(set, PolicySpec::Rm(), CostModel::Zero()).utilization;
  double m68k = ComputeBreakdown(set, PolicySpec::Rm(), CostModel::MC68040_25MHz()).utilization;
  EXPECT_LT(m68k, zero);
}

TEST(BreakdownTest, CsdPartitionCoversAllTasks) {
  Rng rng(4);
  TaskSet set = GenerateWorkload(rng, 15);
  BreakdownResult result =
      ComputeBreakdown(set, PolicySpec::Csd(3), CostModel::MC68040_25MHz());
  ASSERT_EQ(result.partition.size(), 3u);
  EXPECT_EQ(result.partition[0] + result.partition[1] + result.partition[2], 15);
  EXPECT_GT(result.utilization, 0.5);
}

TEST(BreakdownTest, ShorterPeriodsLowerBreakdown) {
  Rng rng(5);
  TaskSet set = GenerateWorkload(rng, 25);
  CostModel cost = CostModel::MC68040_25MHz();
  double base = ComputeBreakdown(set, PolicySpec::Edf(), cost).utilization;
  double div3 = ComputeBreakdown(set.PeriodsDividedBy(3), PolicySpec::Edf(), cost).utilization;
  EXPECT_LT(div3, base);  // Figures 3 -> 5 trend
}

TEST(BreakdownTest, CsdBeatsBothAtLargeNShortPeriods) {
  // The headline claim (Figures 4-5): with many short-period tasks, CSD's
  // breakdown utilization exceeds both EDF's and RM's.
  Rng rng(6);
  CostModel cost = CostModel::MC68040_25MHz();
  double edf = 0.0;
  double rm = 0.0;
  double csd3 = 0.0;
  const int kTrials = 10;
  for (int i = 0; i < kTrials; ++i) {
    Rng trial = rng.Fork(i);
    TaskSet set = GenerateWorkload(trial, 40).PeriodsDividedBy(3);
    edf += ComputeBreakdown(set, PolicySpec::Edf(), cost).utilization;
    rm += ComputeBreakdown(set, PolicySpec::Rm(), cost).utilization;
    csd3 += ComputeBreakdown(set, PolicySpec::Csd(3), cost).utilization;
  }
  EXPECT_GT(csd3, edf);
  EXPECT_GT(csd3, rm);
}

TEST(BreakdownTest, RmHeapBelowRmListForTypicalN) {
  Rng rng(7);
  TaskSet set = GenerateWorkload(rng, 25).PeriodsDividedBy(2);
  CostModel cost = CostModel::MC68040_25MHz();
  double list = ComputeBreakdown(set, PolicySpec::Rm(), cost).utilization;
  double heap = ComputeBreakdown(set, PolicySpec::RmHeap(), cost).utilization;
  EXPECT_LT(heap, list);
}

TEST(BreakdownTest, BestCsdPartitionFeasibleAtRequestedScale) {
  TaskSet set = Table2Workload();
  CostModel cost = CostModel::Zero();
  std::vector<int> partition = BestCsdPartition(set, 2, 1.0, cost);
  ASSERT_FALSE(partition.empty());
  EXPECT_TRUE(CsdFeasible(set, partition, 1.0, OverheadModel(cost)));
  // The DP queue must contain at least the troublesome tau_5 prefix.
  EXPECT_GE(partition[0], 5);
}

TEST(BreakdownTest, PolicyNames) {
  EXPECT_STREQ(PolicySpec::Edf().Name(), "EDF");
  EXPECT_STREQ(PolicySpec::Rm().Name(), "RM");
  EXPECT_STREQ(PolicySpec::RmHeap().Name(), "RM-heap");
  EXPECT_STREQ(PolicySpec::Csd(3).Name(), "CSD-3");
}

// Property sweep: breakdown scale really is the feasibility boundary.
class BreakdownBoundaryTest : public ::testing::TestWithParam<int> {};

TEST_P(BreakdownBoundaryTest, BoundaryIsTight) {
  Rng rng(100 + GetParam());
  TaskSet set = GenerateWorkload(rng, GetParam());
  CostModel cost = CostModel::MC68040_25MHz();
  OverheadModel model(cost);
  double bd = ComputeBreakdown(set, PolicySpec::Rm(), cost).utilization;
  double raw = set.Utilization();
  // Just below the boundary: feasible; just above: infeasible.
  EXPECT_TRUE(RmFeasible(set, (bd - 0.01) / raw, model));
  EXPECT_FALSE(RmFeasible(set, (bd + 0.01) / raw, model));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BreakdownBoundaryTest, ::testing::Values(5, 10, 20, 35, 50));

}  // namespace
}  // namespace emeralds
