// Differential tests for the shared CSD schedulability core. NaiveCsdEngine
// and CsdEvaluator both call CsdDemandAndRtaFeasible and CsdFpRtaFeasible,
// so the golden-equivalence tests cannot see a change there. These compare
// the production core, verdict by verdict, with the original top-down,
// per-point definitions kept in sched_test_reference.h: on seeded random
// task sets at scales around each set's breakdown, and on crafted sets that
// sit on the edges of the processor-demand stage (shared deadlines, the
// demand-point cap, an unconverged busy window, empty bands).

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/breakdown.h"
#include "src/analysis/csd_evaluator.h"
#include "src/analysis/overhead.h"
#include "src/analysis/sched_test.h"
#include "src/base/rng.h"
#include "src/workload/workload.h"
#include "tests/analysis/sched_test_reference.h"

namespace emeralds {
namespace {

TaskSet RandomSet(int n, int divide, int w) {
  Rng rng = Rng(20261017).Fork(static_cast<uint64_t>(n) * 100 + divide * 10 + w);
  TaskSet set = GenerateWorkload(rng, n).PeriodsDividedBy(divide);
  set.SortByPeriod();
  return set;
}

// A task whose relative deadline equals its period.
PeriodicTask Task(int64_t period_ns, int64_t wcet_ns) {
  PeriodicTask task;
  task.period = Nanoseconds(period_ns);
  task.wcet = Nanoseconds(wcet_ns);
  task.deadline = task.period;
  return task;
}

// Band sizes from `queues - 1` uniform split points over n tasks.
std::vector<int> RandomSizes(Rng& rng, int n, int queues) {
  std::vector<int> splits(queues - 1);
  for (int& split : splits) {
    split = static_cast<int>(rng.UniformInt(0, n));
  }
  std::sort(splits.begin(), splits.end());
  return CsdSizesFromSplits(splits, n);
}

std::string Describe(const std::vector<int>& sizes, double scale) {
  std::ostringstream out;
  out << "sizes={";
  for (size_t b = 0; b < sizes.size(); ++b) {
    out << (b == 0 ? "" : ",") << sizes[b];
  }
  out << "} scale=" << scale;
  return out.str();
}

// true when some nonempty DP band sits below another nonempty DP band, so
// the processor-demand stage runs.
bool HasLowerDpBand(const std::vector<int>& sizes) {
  int nonempty = 0;
  for (size_t b = 0; b + 1 < sizes.size(); ++b) {
    nonempty += sizes[b] > 0 ? 1 : 0;
  }
  return nonempty >= 2;
}

struct Tally {
  int feasible = 0;
  int infeasible = 0;
  int lower_band_feasible = 0;
  int lower_band_infeasible = 0;
};

// Compares both cores on the costs CsdFeasible would build for `sizes` at
// `scale`, and the FP stage alone at the partition's FP start.
void ExpectCoreAgrees(const TaskSet& set, const std::vector<int>& sizes, double scale,
                      const OverheadModel& model, Tally* tally) {
  const std::vector<int64_t> costs = reference::CsdCosts(set, sizes, scale, model);
  const bool want = reference::CsdDemandAndRtaFeasible(set, sizes, costs);
  EXPECT_EQ(CsdDemandAndRtaFeasible(set, sizes, costs), want) << Describe(sizes, scale);
  const int fp_start = set.size() - sizes.back();
  EXPECT_EQ(CsdFpRtaFeasible(set, fp_start, costs),
            reference::CsdFpRtaFeasible(set, fp_start, costs))
      << Describe(sizes, scale);
  const bool lower = HasLowerDpBand(sizes);
  if (want) {
    ++tally->feasible;
    tally->lower_band_feasible += lower ? 1 : 0;
  } else {
    ++tally->infeasible;
    tally->lower_band_infeasible += lower ? 1 : 0;
  }
}

// Seeded sets of 5 to 50 tasks with periods divided by 1 to 3, random split
// tuples for 2 to 4 queues, at scales around the set's CSD-2 breakdown; and
// RmFeasible (list and heap) around the set's RM breakdown.
TEST(CsdCoreDifferential, RandomTaskSetsAgreeWithReference) {
  const CostModel cost = CostModel::MC68040_25MHz();
  const OverheadModel model(cost);
  Tally tally;
  int rm_feasible = 0;
  int rm_infeasible = 0;
  for (int n : {5, 10, 20, 30, 40, 50}) {
    for (int divide : {1, 2, 3}) {
      for (int w = 0; w < 2; ++w) {
        const TaskSet set = RandomSet(n, divide, w);
        SCOPED_TRACE(testing::Message() << "n=" << n << " divide=" << divide << " w=" << w);
        const double raw = set.Utilization();
        const double csd = ComputeBreakdown(set, PolicySpec::Csd(2), cost).utilization / raw;
        const double rm = ComputeBreakdown(set, PolicySpec::Rm(), cost).utilization / raw;
        Rng rng = Rng(7).Fork(static_cast<uint64_t>(n) * 100 + divide * 10 + w);
        for (double factor : {0.9, 0.97, 0.99, 1.0, 1.01, 1.03, 1.1}) {
          for (int k = 0; k < 12; ++k) {
            ExpectCoreAgrees(set, RandomSizes(rng, n, 2 + k % 3), csd * factor, model, &tally);
          }
          for (bool heap : {false, true}) {
            const bool want = reference::RmFeasible(set, rm * factor, model, heap);
            EXPECT_EQ(RmFeasible(set, rm * factor, model, heap), want)
                << "RM heap=" << heap << " scale=" << rm * factor;
            (want ? rm_feasible : rm_infeasible)++;
          }
          if (HasFailure()) {
            return;
          }
        }
      }
    }
  }
  // The sweep must cover both verdicts, with the demand stage in play.
  EXPECT_GE(tally.lower_band_feasible, 100);
  EXPECT_GE(tally.lower_band_infeasible, 100);
  EXPECT_GE(rm_feasible, 50);
  EXPECT_GE(rm_infeasible, 50);
}

// Harmonic periods put several band deadlines at one instant. The hand-made
// set fails only at its one shared deadline t = 20: demand 8 + 7 from the
// band plus ceil(20/15) * 3 = 6 from the top band is 21 > 20. A sweep that
// tests t before both band costs are in would accept it.
TEST(CsdCoreDifferential, HarmonicPeriodsShareDeadlines) {
  const OverheadModel model(CostModel::Zero());
  TaskSet shared;
  shared.tasks = {Task(15, 3), Task(20, 8), Task(20, 7)};
  const std::vector<int> sizes = {1, 2, 0};
  const std::vector<int64_t> costs = reference::CsdCosts(shared, sizes, 1.0, model);
  EXPECT_FALSE(reference::CsdDemandAndRtaFeasible(shared, sizes, costs));
  EXPECT_FALSE(CsdDemandAndRtaFeasible(shared, sizes, costs));

  // Random harmonic sets: periods 10 * 2^k ms, every CSD-3 partition.
  Rng rng(11);
  Tally tally;
  for (int set_index = 0; set_index < 12; ++set_index) {
    const int n = static_cast<int>(rng.UniformInt(4, 12));
    TaskSet set;
    for (int i = 0; i < n; ++i) {
      const int64_t period = Milliseconds(10).nanos() << rng.UniformInt(0, 4);
      set.tasks.push_back(Task(period, static_cast<int64_t>(rng.UniformReal(0.02, 0.2) *
                                                            static_cast<double>(period))));
    }
    set.SortByPeriod();
    const double full = 1.0 / set.Utilization();  // scale at raw utilization 1
    for (double factor : {0.85, 0.95, 0.99, 1.0}) {
      for (int q = 0; q <= n; ++q) {
        for (int r = q; r <= n; ++r) {
          ExpectCoreAgrees(set, CsdSizesFromSplits({q, r}, n), full * factor, model, &tally);
        }
      }
      if (HasFailure()) {
        return;
      }
    }
  }
  EXPECT_GE(tally.lower_band_feasible, 100);
  EXPECT_GE(tally.lower_band_infeasible, 100);
}

// Top band {H: T = 4, C = 1}; lower band {A: T = 4, C = 1; B: T = P, C = P/2}.
// Utilization is exactly 1, the busy window converges to P, and every point
// has demand t/2 (or exactly P at t = P), so only the point cap can reject.
// The band has P/4 + 1 deadlines in the window.
TaskSet CapSet(int64_t p) {
  TaskSet set;
  set.tasks = {Task(4, 1), Task(4, 1), Task(p, p / 2)};
  return set;
}

TEST(CsdCoreDifferential, DemandPointCapIsExact) {
  const OverheadModel model(CostModel::Zero());
  const std::vector<int> sizes = {1, 2, 0};
  const int64_t cap = static_cast<int64_t>(kMaxDemandPoints);
  // Exactly kMaxDemandPoints deadlines: tested, and feasible.
  const TaskSet at_cap = CapSet(4 * (cap - 1));
  std::vector<int64_t> costs = reference::CsdCosts(at_cap, sizes, 1.0, model);
  EXPECT_TRUE(reference::CsdDemandAndRtaFeasible(at_cap, sizes, costs));
  EXPECT_TRUE(CsdDemandAndRtaFeasible(at_cap, sizes, costs));
  // One more: rejected by the cap.
  const TaskSet over_cap = CapSet(4 * cap);
  costs = reference::CsdCosts(over_cap, sizes, 1.0, model);
  EXPECT_FALSE(reference::CsdDemandAndRtaFeasible(over_cap, sizes, costs));
  EXPECT_FALSE(CsdDemandAndRtaFeasible(over_cap, sizes, costs));
}

// Top band {T = 100, C = 49}; lower band {T = 100, C = 50; T = 10^6,
// C = 10^4}. Utilization is exactly 1 and the window's fixed point is 10^6,
// but each iterate closes only 1% of the gap, so kMaxBusyIterations iterates
// do not converge and the band is declared infeasible, although every
// deadline below the last iterate meets its demand.
TEST(CsdCoreDifferential, UnconvergedBusyWindowIsInfeasible) {
  const OverheadModel model(CostModel::Zero());
  TaskSet set;
  set.tasks = {Task(100, 49), Task(100, 50), Task(1000000, 10000)};
  const std::vector<int> sizes = {1, 2, 0};
  const std::vector<int64_t> costs = reference::CsdCosts(set, sizes, 1.0, model);
  EXPECT_FALSE(reference::CsdDemandAndRtaFeasible(set, sizes, costs));
  EXPECT_FALSE(CsdDemandAndRtaFeasible(set, sizes, costs));
}

// Empty DP bands are skipped wherever they sit, and a partition with no FP
// band (fp_start == n) has a vacuous FP stage.
TEST(CsdCoreDifferential, EmptyBandsAndNoFpBand) {
  const CostModel cost = CostModel::MC68040_25MHz();
  const OverheadModel model(cost);
  Tally tally;
  for (int n : {5, 20, 40}) {
    const TaskSet set = RandomSet(n, 2, 0);
    const double csd = ComputeBreakdown(set, PolicySpec::Csd(2), cost).utilization /
                       set.Utilization();
    const int k = n / 3;
    const std::vector<std::vector<int>> shapes = {
        {0, n},          {n, 0},          {0, 0, n},       {0, n, 0},
        {n, 0, 0},       {0, k, n - k},   {k, 0, n - k},   {k, n - k, 0},
        {0, k, 0, n - k}, {k, 0, n - k, 0}, {0, 0, k, n - k}, {k, k, n - 2 * k, 0}};
    for (double factor : {0.8, 0.95, 1.0, 1.05}) {
      for (const std::vector<int>& sizes : shapes) {
        ExpectCoreAgrees(set, sizes, csd * factor, model, &tally);
        const std::vector<int64_t> costs =
            reference::CsdCosts(set, sizes, csd * factor, model);
        EXPECT_TRUE(CsdFpRtaFeasible(set, n, costs));
      }
    }
  }
  EXPECT_GT(tally.feasible, 0);
  EXPECT_GT(tally.infeasible, 0);
}

// FpBoundFails keeps its failures while the probe scale rises and forgets
// everything when it falls. Either way an evaluator that has seen earlier
// scales must prune exactly what a fresh one prunes at the same scale.
TEST(CsdCoreDifferential, PruningVerdictsDoNotDependOnEarlierProbes) {
  const CostModel cost = CostModel::MC68040_25MHz();
  const OverheadModel model(cost);
  for (int divide : {1, 3}) {
    const int n = 25;
    const TaskSet set = RandomSet(n, divide, 1);
    SCOPED_TRACE(testing::Message() << "divide=" << divide);
    const double csd =
        ComputeBreakdown(set, PolicySpec::Csd(3), cost).utilization / set.Utilization();
    CsdSearchStats kept_stats;
    CsdEvaluator kept(set, 3, model, &kept_stats);
    CsdSearchStats fresh_stats;
    int pruned = 0;
    for (double factor : {0.9, 0.95, 0.98, 1.0, 1.01, 1.02, 1.05, 1.1, 0.97, 1.0, 1.04}) {
      const double scale = csd * factor;
      CsdEvaluator fresh(set, 3, model, &fresh_stats);
      for (int q = 0; q <= n; ++q) {
        for (int r = q; r <= n; ++r) {
          const std::vector<int> splits = {q, r};
          const bool want = fresh.ProvablyInfeasible(splits, scale);
          ASSERT_EQ(kept.ProvablyInfeasible(splits, scale), want)
              << "q=" << q << " r=" << r << " scale=" << scale;
          pruned += want ? 1 : 0;
        }
      }
    }
    EXPECT_GT(pruned, 0);
    // The kept failures spared some of the fresh evaluators' bound tests.
    EXPECT_LT(kept_stats.bound_evals, fresh_stats.bound_evals);
  }
}

}  // namespace
}  // namespace emeralds
