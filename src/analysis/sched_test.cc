#include "src/analysis/sched_test.h"

#include <algorithm>
#include <cmath>

#include "src/base/assert.h"
#include "src/base/math.h"

namespace emeralds {
namespace {

int64_t ScaledCost(const PeriodicTask& task, double scale, Duration overhead) {
  double c = static_cast<double>(task.wcet.nanos()) * scale;
  return static_cast<int64_t>(c + 0.5) + overhead.nanos();
}

// One band task's next absolute deadline in the merged processor-demand
// sweep.
struct PendingDeadline {
  int64_t at;
  int task;
};

// Restores the min-heap order on `at` below slot `i`.
void SiftDown(std::vector<PendingDeadline>& heap, size_t i) {
  const size_t size = heap.size();
  const PendingDeadline moving = heap[i];
  for (size_t child = 2 * i + 1; child < size; child = 2 * i + 1) {
    if (child + 1 < size && heap[child + 1].at < heap[child].at) {
      ++child;
    }
    if (heap[child].at >= moving.at) {
      break;
    }
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = moving;
}

// Processor-demand test of the lower DP band band_start..band_end-1: every
// absolute deadline t <= window of a band task needs
//   sum over band deadlines d <= t of the task's cost
//     + sum over higher-band tasks i of ceil(t / T_i) * C_i  <=  t.
// More than kMaxDemandPoints such deadlines, counted in closed form, reject
// the band (conservative). The verdict is "no such t fails", so neither the
// order of the points nor duplicates matter. The band tasks' deadline
// progressions are merged in time order through a heap of at most one entry
// per task, and a running sum of their costs is the band's demand at t; the
// check runs at the last deadline of each equal-time run, once every cost
// due at t is in the sum.
bool BandDemandFeasible(const TaskSet& sorted_tasks, int band_start, int band_end,
                        int64_t window, const std::vector<int64_t>& cost_ns) {
  std::vector<PendingDeadline> heap;
  heap.reserve(band_end - band_start);
  int64_t points = 0;
  for (int i = band_start; i < band_end; ++i) {
    int64_t deadline = sorted_tasks.tasks[i].deadline.nanos();
    if (deadline <= window) {
      points += FloorDiv(window - deadline, sorted_tasks.tasks[i].period.nanos()) + 1;
      heap.push_back({deadline, i});
    }
  }
  if (points > static_cast<int64_t>(kMaxDemandPoints)) {
    return false;
  }
  for (size_t i = heap.size() / 2; i-- > 0;) {
    SiftDown(heap, i);
  }
  int64_t band_demand = 0;
  while (!heap.empty()) {
    const int64_t t = heap[0].at;
    const int task = heap[0].task;
    band_demand += cost_ns[task];
    const int64_t next = t + sorted_tasks.tasks[task].period.nanos();
    if (next <= window) {
      heap[0].at = next;
    } else {
      heap[0] = heap.back();
      heap.pop_back();
    }
    if (!heap.empty()) {
      SiftDown(heap, 0);
      if (heap[0].at == t) {
        continue;  // another band deadline at t
      }
    }
    int64_t demand = band_demand;
    for (int i = 0; i < band_start; ++i) {
      demand += CeilDiv(t, sorted_tasks.tasks[i].period.nanos()) * cost_ns[i];
    }
    if (demand > t) {
      return false;
    }
  }
  return true;
}

}  // namespace

RtaVerdict ResponseTime(int64_t own_cost_ns, int64_t deadline_ns,
                        std::span<const int64_t> costs_ns, std::span<const int64_t> periods_ns) {
  EM_ASSERT(costs_ns.size() == periods_ns.size());
  int64_t response = own_cost_ns;
  for (int iter = 0; iter < kMaxBusyIterations; ++iter) {
    int64_t next = own_cost_ns;
    for (size_t j = 0; j < costs_ns.size(); ++j) {
      next += CeilDiv(response, periods_ns[j]) * costs_ns[j];
    }
    if (next > deadline_ns) {
      return RtaVerdict::kOvershoots;
    }
    if (next == response) {
      return RtaVerdict::kMeets;
    }
    response = next;
  }
  return RtaVerdict::kUndecided;
}

bool EdfFeasible(const TaskSet& tasks, double scale, const OverheadModel& model) {
  int n = tasks.size();
  if (n == 0) {
    return true;
  }
  Duration overhead = model.EdfTaskOverhead(n);
  double u = 0.0;
  for (const PeriodicTask& task : tasks.tasks) {
    u += static_cast<double>(ScaledCost(task, scale, overhead)) /
         static_cast<double>(task.period.nanos());
  }
  return u <= 1.0;
}

bool RmFeasible(const TaskSet& sorted_tasks, double scale, const OverheadModel& model,
                bool heap) {
  EM_ASSERT(sorted_tasks.IsSortedByPeriod());
  int n = sorted_tasks.size();
  if (n == 0) {
    return true;
  }
  Duration overhead = model.RmTaskOverhead(n, heap);
  std::vector<int64_t> cost_ns(n);
  for (int i = 0; i < n; ++i) {
    cost_ns[i] = ScaledCost(sorted_tasks.tasks[i], scale, overhead);
  }
  // RM is the FP stage with every task in the FP band.
  return CsdFpRtaFeasible(sorted_tasks, 0, cost_ns);
}

bool CsdFeasible(const TaskSet& sorted_tasks, const std::vector<int>& band_sizes, double scale,
                 const OverheadModel& model) {
  EM_ASSERT(sorted_tasks.IsSortedByPeriod());
  EM_ASSERT(!band_sizes.empty());
  int n = sorted_tasks.size();
  int total = 0;
  for (int s : band_sizes) {
    EM_ASSERT(s >= 0);
    total += s;
  }
  EM_ASSERT_MSG(total == n, "partition covers %d of %d tasks", total, n);

  int num_dp = static_cast<int>(band_sizes.size()) - 1;
  std::vector<int> dp_lengths(band_sizes.begin(), band_sizes.end() - 1);
  int fp_length = band_sizes.back();

  // Inflated cost per task, by band.
  std::vector<int64_t> cost_ns(n);
  {
    int index = 0;
    for (int band = 0; band < num_dp; ++band) {
      Duration overhead = band_sizes[band] > 0
                              ? model.CsdTaskOverhead(dp_lengths, fp_length, band)
                              : Duration();
      for (int k = 0; k < band_sizes[band]; ++k, ++index) {
        cost_ns[index] = ScaledCost(sorted_tasks.tasks[index], scale, overhead);
      }
    }
    Duration fp_overhead =
        fp_length > 0 ? model.CsdTaskOverhead(dp_lengths, fp_length, -1) : Duration();
    for (int k = 0; k < fp_length; ++k, ++index) {
      cost_ns[index] = ScaledCost(sorted_tasks.tasks[index], scale, fp_overhead);
    }
  }

  // --- DP bands: cumulative-utilization checks (the naive O(n) rescans the
  // CsdEvaluator replaces with prefix sums) ---
  int band_start = 0;
  for (int band = 0; band < num_dp; ++band) {
    int band_end = band_start + band_sizes[band];
    if (band_sizes[band] == 0) {
      continue;
    }
    // Utilization of bands 0..band must stay below 1 (necessary, and
    // sufficient for the top band which is plain EDF at highest priority).
    double u = 0.0;
    for (int i = 0; i < band_end; ++i) {
      u += static_cast<double>(cost_ns[i]) /
           static_cast<double>(sorted_tasks.tasks[i].period.nanos());
    }
    if (u > 1.0) {
      return false;
    }
    band_start = band_end;
  }

  return CsdDemandAndRtaFeasible(sorted_tasks, band_sizes, cost_ns);
}

bool CsdDemandAndRtaFeasible(const TaskSet& sorted_tasks, const std::vector<int>& band_sizes,
                             const std::vector<int64_t>& cost_ns) {
  int num_dp = static_cast<int>(band_sizes.size()) - 1;

  int band_start = 0;
  for (int band = 0; band < num_dp; ++band) {
    int band_end = band_start + band_sizes[band];
    if (band_sizes[band] == 0) {
      continue;
    }
    if (band_start > 0) {
      // Lower DP band: processor-demand test with request-bound interference
      // from the higher DP bands.
      // Busy window for bands 0..band.
      int64_t window = 0;
      for (int i = 0; i < band_end; ++i) {
        window += cost_ns[i];
      }
      int64_t max_period = 0;
      for (int i = band_start; i < band_end; ++i) {
        max_period = std::max(max_period, sorted_tasks.tasks[i].period.nanos());
      }
      int64_t window_cap = 50 * max_period;
      bool converged = false;
      for (int iter = 0; iter < kMaxBusyIterations; ++iter) {
        int64_t next = 0;
        for (int i = 0; i < band_end; ++i) {
          next += CeilDiv(window, sorted_tasks.tasks[i].period.nanos()) * cost_ns[i];
        }
        if (next > window_cap) {
          return false;  // conservative: window exploded
        }
        if (next == window) {
          converged = true;
          break;
        }
        window = next;
      }
      if (!converged) {
        return false;
      }
      if (!BandDemandFeasible(sorted_tasks, band_start, band_end, window, cost_ns)) {
        return false;
      }
    }
    band_start = band_end;
  }

  // --- FP band: response-time analysis ---
  return CsdFpRtaFeasible(sorted_tasks, band_start, cost_ns);
}

bool CsdFpRtaFeasible(const TaskSet& sorted_tasks, int fp_start,
                      const std::vector<int64_t>& cost_ns) {
  int n = sorted_tasks.size();
  std::vector<int64_t> period_ns(n);
  for (int i = 0; i < n; ++i) {
    period_ns[i] = sorted_tasks.tasks[i].period.nanos();
  }
  // A conjunction of per-task tests, each reading only the tasks above it:
  // the order cannot change the verdict. Infeasible bands fail mostly at
  // the bottom, so test the longest period first.
  const std::span<const int64_t> costs(cost_ns);
  const std::span<const int64_t> periods(period_ns);
  for (int i = n - 1; i >= fp_start; --i) {
    if (ResponseTime(cost_ns[i], sorted_tasks.tasks[i].deadline.nanos(), costs.first(i),
                     periods.first(i)) != RtaVerdict::kMeets) {
      return false;
    }
  }
  return true;
}

}  // namespace emeralds
