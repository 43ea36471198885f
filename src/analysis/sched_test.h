// Overhead-aware schedulability tests (the paper's reference [36] machinery,
// reconstructed with standard analyses).
//
//  * EDF:   utilization test (exact for deadline == period) on costs inflated
//           by the per-period scheduler overhead.
//  * RM:    response-time analysis with inflated costs.
//  * CSD-x: hierarchical test. The top DP queue is plain EDF (utilization
//           test). Lower DP queues use a processor-demand test with
//           request-bound interference from the higher queues (sufficient).
//           The FP queue uses response-time analysis with every DP task as
//           higher-priority interference.
//
// Tasks must be sorted shortest-period-first; a CSD partition assigns the
// first band_sizes[0] tasks to DP1, the next band_sizes[1] to DP2, ..., and
// the final band_sizes.back() tasks to the FP queue (the paper's allocation:
// the troublesome short-period tasks go to the dynamic queues).

#ifndef SRC_ANALYSIS_SCHED_TEST_H_
#define SRC_ANALYSIS_SCHED_TEST_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/analysis/overhead.h"
#include "src/workload/workload.h"

namespace emeralds {

// Scale factor applied to execution times (the breakdown search's knob).
bool EdfFeasible(const TaskSet& tasks, double scale, const OverheadModel& model);

bool RmFeasible(const TaskSet& sorted_tasks, double scale, const OverheadModel& model,
                bool heap = false);

// band_sizes.size() == number of CSD queues (>= 1); the last entry is the FP
// queue. Entries may be zero. Sum must equal the task count.
bool CsdFeasible(const TaskSet& sorted_tasks, const std::vector<int>& band_sizes, double scale,
                 const OverheadModel& model);

// Conservative caps for the iterative analyses: when the busy window (or the
// number of processor-demand test points) explodes, the set is declared
// infeasible. This only triggers with total utilization very close to 1,
// where the breakdown search is within its precision anyway. Shared between
// the reference tests here and the optimized CsdEvaluator.
inline constexpr int kMaxBusyIterations = 256;
inline constexpr size_t kMaxDemandPoints = 200000;

// The busy-window / processor-demand / response-time portion of CsdFeasible,
// given the final per-task inflated costs (execution time at the probed scale
// plus the per-band scheduler overhead). All arithmetic is on int64
// nanoseconds, so any caller producing identical costs gets identical
// verdicts — the optimized CsdEvaluator builds costs from precomputed tables
// and shares this exact logic. The per-band cumulative-utilization checks are
// NOT included (CsdFeasible rescans for them; the evaluator uses prefix
// sums).
bool CsdDemandAndRtaFeasible(const TaskSet& sorted_tasks, const std::vector<int>& band_sizes,
                             const std::vector<int64_t>& cost_ns);

// The FP band's response-time stage alone (the final stage of
// CsdDemandAndRtaFeasible): tasks fp_start..n-1 against interference from
// every task above them. All-int64, so any caller with identical costs gets
// the identical verdict; the optimized engine runs it as an exact prefilter
// before paying the processor-demand stage, and RmFeasible is its
// fp_start == 0 case.
bool CsdFpRtaFeasible(const TaskSet& sorted_tasks, int fp_start,
                      const std::vector<int64_t>& cost_ns);

// Outcome of one task's response-time iteration.
enum class RtaVerdict {
  kMeets,       // the iteration converged at or before the deadline
  kOvershoots,  // an iterate passed the deadline: the task misses it
  kUndecided,   // neither within kMaxBusyIterations
};

// Response-time analysis for one task of cost `own_cost_ns` and relative
// deadline `deadline_ns` against the higher-priority tasks j, of cost
// costs_ns[j] and period periods_ns[j] (spans of equal length). The exact
// tests (RmFeasible, CsdFpRtaFeasible) treat kUndecided as a miss; the
// evaluator's lower bound prunes only on kOvershoots.
RtaVerdict ResponseTime(int64_t own_cost_ns, int64_t deadline_ns,
                        std::span<const int64_t> costs_ns, std::span<const int64_t> periods_ns);

}  // namespace emeralds

#endif  // SRC_ANALYSIS_SCHED_TEST_H_
