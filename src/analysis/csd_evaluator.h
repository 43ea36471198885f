// Incremental, pruned, cached evaluation of CSD partition feasibility — the
// engine behind the off-line task-to-queue search of Section 5.5.3.
//
// The naive search pays a from-scratch CsdFeasible for every (partition,
// scale) it touches. CsdEvaluator answers the same queries while exploiting
// three structural facts:
//
//  1. At a fixed scale, the scaled execution times — and their running
//     cost/utilization prefix sums — are the same for every partition. They
//     are computed once per (workload, scale) and reused across all
//     partitions probed at that scale, replacing the O(n) inner rescans of
//     CsdFeasible with O(#bands) prefix-sum lookups.
//  2. Feasibility is monotone in the scale factor: scaled costs only grow
//     with the scale, and every sub-test (utilization, processor demand,
//     response time, and their conservative iteration caps) only gets harder
//     as costs grow. Results are therefore memoized per partition as a
//     [max-known-feasible, min-known-infeasible] scale interval.
//  3. Per-task scheduler overheads admit lower bounds keyed only on the FP
//     band's start position r (OverheadModel::Csd*OverheadLowerBound): the
//     longest DP queue must hold at least ceil(r/(x-1)) tasks, and the FP
//     queue holds exactly n - r. Substituting them yields cheap necessary
//     conditions — a cumulative-utilization bound over the DP prefix 0..r
//     and a per-task response-time bound over the FP suffix r..n — that
//     reject most split tuples at the search's probe scale without any full
//     schedulability test, and cut whole enumeration subtrees.
//
// Soundness of the pruning (a pruned partition is genuinely infeasible) is
// what keeps the optimized search bit-identical to the naive one; the
// golden-equivalence tests assert exactly that against the retained
// NaiveCsdEngine.

#ifndef SRC_ANALYSIS_CSD_EVALUATOR_H_
#define SRC_ANALYSIS_CSD_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/analysis/overhead.h"
#include "src/analysis/sched_test.h"
#include "src/workload/workload.h"

namespace emeralds {

// Evaluation counters threaded through the breakdown search (see
// BreakdownOptions::stats). `full_evals` counts complete schedulability
// tests — the paper's "2-3 minute" unit of work and the number the perf
// trajectory in BENCH_breakdown.json tracks.
struct CsdSearchStats {
  int64_t full_evals = 0;    // complete CsdFeasible-grade tests run
  int64_t cache_hits = 0;    // queries answered by the (partition, scale) memo
  int64_t pruned = 0;        // partitions rejected by bound checks alone
  int64_t considered = 0;    // split tuples the search visited
  int64_t bound_evals = 0;   // cheap per-task lower-bound tests run

  void Add(const CsdSearchStats& other) {
    full_evals += other.full_evals;
    cache_hits += other.cache_hits;
    pruned += other.pruned;
    considered += other.considered;
    bound_evals += other.bound_evals;
  }
};

// Converts split points (ascending positions in the sorted task list) into
// band sizes. CSD-2: {r} -> {r, n-r}; CSD-3: {q, r} -> {q, r-q, n-r}; ...
std::vector<int> CsdSizesFromSplits(const std::vector<int>& splits, int n);

// Feasibility oracle the partition search runs against. Both engines must
// answer Feasible() identically; the optimized engine may additionally prove
// infeasibility cheaply (Prune hooks), which the search uses to skip the
// probe entirely.
class CsdEngine {
 public:
  virtual ~CsdEngine() = default;

  // Exact feasibility of the partition described by `splits` at `scale`;
  // equivalent to CsdFeasible(tasks, CsdSizesFromSplits(splits, n), scale).
  virtual bool Feasible(const std::vector<int>& splits, double scale) = 0;

  // true => the partition is provably infeasible at `scale` (never a false
  // positive). The default never prunes.
  virtual bool ProvablyInfeasible(const std::vector<int>& splits, double scale) { return false; }

  // true => every partition whose task prefix 0..prefix_end lives in DP
  // queues is provably infeasible at `scale` (the cumulative-utilization
  // lower bound). Monotone in prefix_end; used to cut enumeration subtrees.
  virtual bool PrefixProvablyInfeasible(int prefix_end, double scale) { return false; }
};

// The retained naive reference: a fresh CsdFeasible per query, no reuse.
// Golden-equivalence tests and the bench reference sample run against it.
class NaiveCsdEngine : public CsdEngine {
 public:
  NaiveCsdEngine(const TaskSet& sorted_tasks, const OverheadModel& model, CsdSearchStats* stats)
      : tasks_(sorted_tasks), n_(sorted_tasks.size()), model_(model), stats_(stats) {}

  bool Feasible(const std::vector<int>& splits, double scale) override;

 private:
  const TaskSet& tasks_;
  int n_;
  const OverheadModel& model_;
  CsdSearchStats* stats_;
};

class CsdEvaluator : public CsdEngine {
 public:
  // `sorted_tasks` and `model` must outlive the evaluator. One evaluator
  // serves one (workload, queue-count) pair; it is not thread-safe.
  CsdEvaluator(const TaskSet& sorted_tasks, int queues, const OverheadModel& model,
               CsdSearchStats* stats);

  bool Feasible(const std::vector<int>& splits, double scale) override;
  bool ProvablyInfeasible(const std::vector<int>& splits, double scale) override;
  bool PrefixProvablyInfeasible(int prefix_end, double scale) override;

 private:
  struct CacheEntry {
    double max_feasible = -1.0;
    double min_infeasible = 1e300;
  };

  // Rebuilds the per-scale tables (scaled base costs and their prefix sums)
  // when `scale` differs from the cached one.
  void EnsureScaleTables(double scale);
  // Rebuilds the pruning tables (the DP-prefix utilization bounds) at the
  // search's probe scale; FpBoundFails failures survive a rising scale.
  void EnsureBoundTables(double scale);
  // true => some FP-band task of a partition with FP start `r` provably
  // misses its deadline at bound_scale_ (lazy, memoized per r).
  bool FpBoundFails(int r);
  // Stages of the full test at the current table scale. ComputeBandOverheads
  // fills band_oh_ (identical CsdTaskOverhead calls to the reference);
  // UtilStageFeasible runs the cumulative-utilization checks via prefix sums;
  // FillCosts materializes the per-task inflated costs into cost_scratch_.
  void ComputeBandOverheads(const std::vector<int>& sizes);
  bool UtilStageFeasible(const std::vector<int>& sizes) const;
  void FillCosts(const std::vector<int>& sizes);
  // The full schedulability test, sharing CsdDemandAndRtaFeasible with the
  // reference implementation; only the utilization checks use prefix sums.
  bool FullTest(const std::vector<int>& sizes, double scale);

  const TaskSet& tasks_;
  int n_;
  int x_;
  const OverheadModel& model_;
  CsdSearchStats* stats_;

  // Scale-independent per-task tables.
  std::vector<int64_t> period_ns_;
  std::vector<int64_t> deadline_ns_;
  std::vector<double> inv_period_prefix_;  // prefix sums of 1/period

  // Tables valid at table_scale_.
  double table_scale_ = -1.0;
  std::vector<int64_t> base_cost_;          // round(wcet * scale), no overhead
  std::vector<int64_t> base_cost_prefix_;   // int64 prefix sums of base_cost_
  std::vector<double> base_util_prefix_;    // prefix sums of base_cost_/period

  // Scale-free per-task overhead lower bounds, indexed by the FP start r.
  std::vector<int64_t> lb_dp_oh_;  // DP-task overhead lower bound, dp_total = r
  std::vector<int64_t> lb_fp_oh_;  // FP-task overhead lower bound, fp_length = n - r

  // Pruning tables valid at bound_scale_, indexed by the FP start r.
  static constexpr uint8_t kBoundUnknown = 0;
  static constexpr uint8_t kBoundPasses = 1;
  static constexpr uint8_t kBoundFails = 2;
  double bound_scale_ = -1.0;
  std::vector<double> dp_util_lb_;   // utilization lower bound of tasks 0..r
  std::vector<double> dp_util_cut_;  // min over r' >= r of dp_util_lb_ terms (subtree cut)
  std::vector<uint8_t> fp_verdict_;  // lazy FpBoundFails memo; fails survive a rising scale

  // Scratch buffers reused across queries.
  std::vector<int64_t> bound_cost_;  // FpBoundFails' lower-bound cost per task
  std::vector<int64_t> band_oh_;
  std::vector<int> dp_lengths_scratch_;
  std::vector<int64_t> cost_scratch_;

  std::map<std::vector<int>, CacheEntry> cache_;
};

}  // namespace emeralds

#endif  // SRC_ANALYSIS_CSD_EVALUATOR_H_
