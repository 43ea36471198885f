// Test-only reference for the shared schedulability core: the original
// definitions. The response-time stages test the shortest period first and
// grow a vector of interferers as they go; the lower-DP-band stage collects
// every band deadline inside the busy window into a vector, sorts and
// dedups it, and rescans the whole band at each distinct point. The
// production code (src/analysis/sched_test.cc) tests the longest period
// first and merges the deadline progressions in one sweep; the differential
// tests in csd_core_differential_test.cc require the verdicts of the two to
// be equal.

#ifndef TESTS_ANALYSIS_SCHED_TEST_REFERENCE_H_
#define TESTS_ANALYSIS_SCHED_TEST_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/analysis/overhead.h"
#include "src/analysis/sched_test.h"
#include "src/base/math.h"
#include "src/workload/workload.h"

namespace emeralds {
namespace reference {

inline int64_t ScaledCost(const PeriodicTask& task, double scale, Duration overhead) {
  double c = static_cast<double>(task.wcet.nanos()) * scale;
  return static_cast<int64_t>(c + 0.5) + overhead.nanos();
}

inline bool ResponseTimeWithin(int64_t own_cost_ns, int64_t deadline_ns,
                               const std::vector<std::pair<int64_t, int64_t>>& interferers) {
  int64_t response = own_cost_ns;
  for (int iter = 0; iter < kMaxBusyIterations; ++iter) {
    int64_t next = own_cost_ns;
    for (const auto& [cost, period] : interferers) {
      next += CeilDiv(response, period) * cost;
    }
    if (next > deadline_ns) {
      return false;
    }
    if (next == response) {
      return true;
    }
    response = next;
  }
  return false;  // no convergence within budget: treat as infeasible
}

inline bool RmFeasible(const TaskSet& sorted_tasks, double scale, const OverheadModel& model,
                       bool heap) {
  int n = sorted_tasks.size();
  if (n == 0) {
    return true;
  }
  Duration overhead = model.RmTaskOverhead(n, heap);
  std::vector<std::pair<int64_t, int64_t>> higher;
  for (int i = 0; i < n; ++i) {
    const PeriodicTask& task = sorted_tasks.tasks[i];
    int64_t cost = ScaledCost(task, scale, overhead);
    if (!ResponseTimeWithin(cost, task.deadline.nanos(), higher)) {
      return false;
    }
    higher.emplace_back(cost, task.period.nanos());
  }
  return true;
}

inline bool CsdFpRtaFeasible(const TaskSet& sorted_tasks, int fp_start,
                             const std::vector<int64_t>& cost_ns) {
  int n = sorted_tasks.size();
  std::vector<std::pair<int64_t, int64_t>> interferers;
  for (int i = 0; i < fp_start; ++i) {
    interferers.emplace_back(cost_ns[i], sorted_tasks.tasks[i].period.nanos());
  }
  for (int i = fp_start; i < n; ++i) {
    if (!ResponseTimeWithin(cost_ns[i], sorted_tasks.tasks[i].deadline.nanos(), interferers)) {
      return false;
    }
    interferers.emplace_back(cost_ns[i], sorted_tasks.tasks[i].period.nanos());
  }
  return true;
}

inline bool CsdDemandAndRtaFeasible(const TaskSet& sorted_tasks,
                                    const std::vector<int>& band_sizes,
                                    const std::vector<int64_t>& cost_ns) {
  int num_dp = static_cast<int>(band_sizes.size()) - 1;
  int band_start = 0;
  for (int band = 0; band < num_dp; ++band) {
    int band_end = band_start + band_sizes[band];
    if (band_sizes[band] == 0) {
      continue;
    }
    if (band_start > 0) {
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
          return false;
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
      std::vector<int64_t> points;
      for (int i = band_start; i < band_end; ++i) {
        int64_t period = sorted_tasks.tasks[i].period.nanos();
        int64_t deadline = sorted_tasks.tasks[i].deadline.nanos();
        for (int64_t d = deadline; d <= window; d += period) {
          points.push_back(d);
          if (points.size() > kMaxDemandPoints) {
            return false;
          }
        }
      }
      std::sort(points.begin(), points.end());
      points.erase(std::unique(points.begin(), points.end()), points.end());
      for (int64_t t : points) {
        int64_t demand = 0;
        for (int i = band_start; i < band_end; ++i) {
          int64_t period = sorted_tasks.tasks[i].period.nanos();
          int64_t deadline = sorted_tasks.tasks[i].deadline.nanos();
          if (t >= deadline) {
            demand += (FloorDiv(t - deadline, period) + 1) * cost_ns[i];
          }
        }
        for (int i = 0; i < band_start; ++i) {
          demand += CeilDiv(t, sorted_tasks.tasks[i].period.nanos()) * cost_ns[i];
        }
        if (demand > t) {
          return false;
        }
      }
    }
    band_start = band_end;
  }
  return reference::CsdFpRtaFeasible(sorted_tasks, band_start, cost_ns);
}

// The per-task inflated costs CsdFeasible hands the core: execution time at
// `scale` plus the band's CsdTaskOverhead.
inline std::vector<int64_t> CsdCosts(const TaskSet& sorted_tasks,
                                     const std::vector<int>& band_sizes, double scale,
                                     const OverheadModel& model) {
  int num_dp = static_cast<int>(band_sizes.size()) - 1;
  std::vector<int> dp_lengths(band_sizes.begin(), band_sizes.end() - 1);
  int fp_length = band_sizes.back();
  std::vector<int64_t> cost_ns(sorted_tasks.size());
  int index = 0;
  for (int band = 0; band <= num_dp; ++band) {
    Duration overhead;
    if (band_sizes[band] > 0) {
      overhead = model.CsdTaskOverhead(dp_lengths, fp_length, band < num_dp ? band : -1);
    }
    for (int k = 0; k < band_sizes[band]; ++k, ++index) {
      cost_ns[index] = ScaledCost(sorted_tasks.tasks[index], scale, overhead);
    }
  }
  return cost_ns;
}

}  // namespace reference
}  // namespace emeralds

#endif  // TESTS_ANALYSIS_SCHED_TEST_REFERENCE_H_
