#include "src/analysis/csd_evaluator.h"

#include <algorithm>
#include <span>

#include "src/base/assert.h"
#include "src/base/math.h"

namespace emeralds {
namespace {

// Tolerance for the floating-point utilization lower bounds: the prefix-sum
// accumulation and the reference's sequential rescan associate differently,
// so pruning requires clearing 1.0 by more than the worst-case rounding gap.
constexpr double kUtilSlack = 1e-9;

int64_t BaseScaledCost(const PeriodicTask& task, double scale) {
  // Must match ScaledCost in sched_test.cc bit-for-bit (same product, same
  // rounding) so evaluator costs equal reference costs exactly.
  double c = static_cast<double>(task.wcet.nanos()) * scale;
  return static_cast<int64_t>(c + 0.5);
}

}  // namespace

std::vector<int> CsdSizesFromSplits(const std::vector<int>& splits, int n) {
  std::vector<int> sizes;
  sizes.reserve(splits.size() + 1);
  int prev = 0;
  for (int s : splits) {
    sizes.push_back(s - prev);
    prev = s;
  }
  sizes.push_back(n - prev);
  return sizes;
}

bool NaiveCsdEngine::Feasible(const std::vector<int>& splits, double scale) {
  ++stats_->full_evals;
  return CsdFeasible(tasks_, CsdSizesFromSplits(splits, n_), scale, model_);
}

CsdEvaluator::CsdEvaluator(const TaskSet& sorted_tasks, int queues, const OverheadModel& model,
                           CsdSearchStats* stats)
    : tasks_(sorted_tasks),
      n_(sorted_tasks.size()),
      x_(queues),
      model_(model),
      stats_(stats) {
  EM_ASSERT(queues >= 2);
  EM_ASSERT(stats != nullptr);
  EM_ASSERT(sorted_tasks.IsSortedByPeriod());
  period_ns_.resize(n_);
  deadline_ns_.resize(n_);
  inv_period_prefix_.assign(n_ + 1, 0.0);
  for (int i = 0; i < n_; ++i) {
    period_ns_[i] = tasks_.tasks[i].period.nanos();
    deadline_ns_[i] = tasks_.tasks[i].deadline.nanos();
    inv_period_prefix_[i + 1] =
        inv_period_prefix_[i] + 1.0 / static_cast<double>(period_ns_[i]);
  }
  lb_dp_oh_.assign(n_ + 1, 0);
  lb_fp_oh_.assign(n_ + 1, 0);
  for (int r = 1; r <= n_; ++r) {
    lb_dp_oh_[r] = model_.CsdDpOverheadLowerBound(x_, r).nanos();
  }
  for (int r = 0; r < n_; ++r) {
    lb_fp_oh_[r] = model_.CsdFpOverheadLowerBound(x_, r, n_ - r).nanos();
  }
  base_cost_.resize(n_);
  base_cost_prefix_.assign(n_ + 1, 0);
  base_util_prefix_.assign(n_ + 1, 0.0);
  dp_util_lb_.assign(n_ + 1, 0.0);
  dp_util_cut_.assign(n_ + 1, 0.0);
  fp_verdict_.assign(n_ + 1, kBoundUnknown);
  bound_cost_.resize(n_);
  cost_scratch_.resize(n_);
}

void CsdEvaluator::EnsureScaleTables(double scale) {
  if (scale == table_scale_) {
    return;
  }
  for (int i = 0; i < n_; ++i) {
    base_cost_[i] = BaseScaledCost(tasks_.tasks[i], scale);
    base_cost_prefix_[i + 1] = base_cost_prefix_[i] + base_cost_[i];
    base_util_prefix_[i + 1] =
        base_util_prefix_[i] +
        static_cast<double>(base_cost_[i]) / static_cast<double>(period_ns_[i]);
  }
  table_scale_ = scale;
}

void CsdEvaluator::EnsureBoundTables(double scale) {
  if (scale == bound_scale_) {
    return;
  }
  EnsureScaleTables(scale);
  for (int r = 0; r <= n_; ++r) {
    dp_util_lb_[r] = base_util_prefix_[r] +
                     static_cast<double>(lb_dp_oh_[r]) * inv_period_prefix_[r];
  }
  // Subtree-cut variant: a partition whose prefix 0..v is all-DP has FP start
  // r >= v, and its real DP utilization over 0..r is at least
  // base_util_prefix_[v] + min_{r' >= v} lb_dp_oh_[r'] * inv_period_prefix_[v]
  // (the suffix-min guards models whose select fit is not monotone in length).
  int64_t suffix_min = lb_dp_oh_[n_];
  for (int v = n_; v >= 1; --v) {
    suffix_min = std::min(suffix_min, lb_dp_oh_[v]);
    dp_util_cut_[v] =
        base_util_prefix_[v] + static_cast<double>(suffix_min) * inv_period_prefix_[v];
  }
  // FpBoundFails verdicts. The bound's costs, round(wcet * s) plus a
  // scale-free overhead, never fall as s rises, and each response-time
  // iterate is monotone in the costs. So an overshoot at s recurs at every
  // larger scale, at the same iteration or earlier: no larger-cost iteration
  // can converge first, since its fixed point would bound the smaller-cost
  // iterates below the deadline. The search's probe only rises, so keep the
  // failures and forget only the passes; a falling scale forgets both.
  if (scale > bound_scale_) {
    std::replace(fp_verdict_.begin(), fp_verdict_.end(), kBoundPasses, kBoundUnknown);
  } else {
    std::fill(fp_verdict_.begin(), fp_verdict_.end(), kBoundUnknown);
  }
  bound_scale_ = scale;
}

bool CsdEvaluator::FpBoundFails(int r) {
  if (fp_verdict_[r] != kBoundUnknown) {
    return fp_verdict_[r] == kBoundFails;
  }
  // Response-time analysis for every FP-band task i >= r with lower-bound
  // costs: itself and FP interferers at lb_fp_oh_[r], DP interferers at
  // lb_dp_oh_[r]. A definite deadline overshoot proves the real partition's
  // RTA (with costs at least as large) fails too; an undecided iteration
  // proves nothing, since the real test might still converge. Longest-period
  // tasks fail first in practice, so scan from the bottom and stop at the
  // first failure.
  const int64_t dp_oh = r > 0 ? lb_dp_oh_[r] : 0;
  const int64_t fp_oh = lb_fp_oh_[r];
  for (int j = 0; j < n_; ++j) {
    bound_cost_[j] = base_cost_[j] + (j < r ? dp_oh : fp_oh);
  }
  const std::span<const int64_t> costs(bound_cost_);
  const std::span<const int64_t> periods(period_ns_);
  bool fail = false;
  for (int i = n_ - 1; i >= r && !fail; --i) {
    ++stats_->bound_evals;
    fail = ResponseTime(bound_cost_[i], deadline_ns_[i], costs.first(i), periods.first(i)) ==
           RtaVerdict::kOvershoots;
  }
  fp_verdict_[r] = fail ? kBoundFails : kBoundPasses;
  return fail;
}

bool CsdEvaluator::PrefixProvablyInfeasible(int prefix_end, double scale) {
  EnsureBoundTables(scale);
  return prefix_end > 0 && dp_util_cut_[prefix_end] > 1.0 + kUtilSlack;
}

bool CsdEvaluator::ProvablyInfeasible(const std::vector<int>& splits, double scale) {
  EnsureBoundTables(scale);
  // An interleaved bisection may have moved the scale tables off the probe
  // scale; the lazy FP bound and the exact prefilter read base_cost_.
  EnsureScaleTables(scale);
  int r = splits.back();  // FP band start
  // Cumulative utilization of the DP prefix (with lower-bound overheads)
  // already exceeds 1: the last nonempty DP band's check must fail.
  if (r > 0 && dp_util_lb_[r] > 1.0 + kUtilSlack) {
    return true;
  }
  // Some FP-band task fails response-time analysis even with lower-bound
  // costs for itself and all interference above it.
  if (r < n_ && FpBoundFails(r)) {
    return true;
  }
  // Exact prefilter: with this partition's real band overheads (O(x^2) model
  // calls plus prefix-sum lookups — no per-task rescans), run the full
  // test's utilization stage and its all-int64 FP response-time stage. A
  // failure here is the full test's own verdict on this partition, so it is
  // rejected — and memoized — without paying the processor-demand stage.
  std::vector<int> sizes = CsdSizesFromSplits(splits, n_);
  ++stats_->bound_evals;
  ComputeBandOverheads(sizes);
  bool ok = UtilStageFeasible(sizes);
  if (ok && r < n_) {
    FillCosts(sizes);
    ok = CsdFpRtaFeasible(tasks_, r, cost_scratch_);
  }
  if (!ok) {
    CacheEntry& entry = cache_[splits];
    entry.min_infeasible = std::min(entry.min_infeasible, scale);
    return true;
  }
  return false;
}

bool CsdEvaluator::Feasible(const std::vector<int>& splits, double scale) {
  CacheEntry& entry = cache_[splits];
  if (scale <= entry.max_feasible) {
    ++stats_->cache_hits;
    return true;
  }
  if (scale >= entry.min_infeasible) {
    ++stats_->cache_hits;
    return false;
  }
  bool ok = FullTest(CsdSizesFromSplits(splits, n_), scale);
  ++stats_->full_evals;
  if (ok) {
    entry.max_feasible = scale;
  } else {
    entry.min_infeasible = scale;
  }
  return ok;
}

void CsdEvaluator::ComputeBandOverheads(const std::vector<int>& sizes) {
  // Per-band overhead (identical CsdTaskOverhead calls to the reference).
  int num_dp = static_cast<int>(sizes.size()) - 1;
  dp_lengths_scratch_.assign(sizes.begin(), sizes.end() - 1);
  int fp_length = sizes.back();
  band_oh_.assign(num_dp + 1, 0);
  for (int band = 0; band < num_dp; ++band) {
    if (sizes[band] > 0) {
      band_oh_[band] = model_.CsdTaskOverhead(dp_lengths_scratch_, fp_length, band).nanos();
    }
  }
  if (fp_length > 0) {
    band_oh_[num_dp] = model_.CsdTaskOverhead(dp_lengths_scratch_, fp_length, -1).nanos();
  }
}

bool CsdEvaluator::UtilStageFeasible(const std::vector<int>& sizes) const {
  // Cumulative-utilization checks via prefix sums: the contribution of band b
  // is (sum of base costs / periods over the band) + overhead * (sum of
  // 1/period over the band), accumulated band by band instead of rescanning
  // tasks 0..band_end for every band.
  int num_dp = static_cast<int>(sizes.size()) - 1;
  double u = 0.0;
  int band_start = 0;
  for (int band = 0; band < num_dp; ++band) {
    int band_end = band_start + sizes[band];
    if (sizes[band] == 0) {
      continue;
    }
    u += (base_util_prefix_[band_end] - base_util_prefix_[band_start]) +
         static_cast<double>(band_oh_[band]) *
             (inv_period_prefix_[band_end] - inv_period_prefix_[band_start]);
    if (u > 1.0) {
      return false;
    }
    band_start = band_end;
  }
  return true;
}

void CsdEvaluator::FillCosts(const std::vector<int>& sizes) {
  // Final per-task costs for the demand/response-time stage, shared with the
  // reference implementation (int64 arithmetic: identical costs, identical
  // verdicts).
  int num_dp = static_cast<int>(sizes.size()) - 1;
  int index = 0;
  for (int band = 0; band <= num_dp; ++band) {
    for (int k = 0; k < sizes[band]; ++k, ++index) {
      cost_scratch_[index] = base_cost_[index] + band_oh_[band];
    }
  }
}

bool CsdEvaluator::FullTest(const std::vector<int>& sizes, double scale) {
  EnsureScaleTables(scale);
  ComputeBandOverheads(sizes);
  if (!UtilStageFeasible(sizes)) {
    return false;
  }
  FillCosts(sizes);
  return CsdDemandAndRtaFeasible(tasks_, sizes, cost_scratch_);
}

}  // namespace emeralds
