// Bridges the analysis-side TaskSet model onto a live kernel: spawns one
// periodic thread per task (each job consumes its WCET of CPU), with optional
// CSD queue assignments from a partition produced by the off-line search.
//
// This is the piece a deployment uses after ComputeBreakdown /
// BestCsdPartition: take the task set and the winning allocation, stand the
// node up, and let the per-thread deadline statistics confirm the analysis.

#ifndef SRC_CORE_TASKSET_RUNNER_H_
#define SRC_CORE_TASKSET_RUNNER_H_

#include <vector>

#include "src/core/kernel.h"
#include "src/workload/workload.h"

namespace emeralds {

// Expands a contiguous-prefix CSD partition (sizes per queue, DP first) into
// a per-task band list. Tasks must be sorted shortest-period-first, matching
// the partition's construction.
std::vector<int> BandsFromPartition(const std::vector<int>& partition);

// Creates one thread per task. `bands[i]` selects task i's scheduler band
// (empty = every task in the default band). Threads run
// Compute(wcet); WaitNextPeriod() forever. Must be called before
// kernel.Start(). Returns the thread ids in task order.
std::vector<ThreadId> SpawnTaskSet(Kernel& kernel, const TaskSet& set,
                                   const std::vector<int>& bands = {});

// Summary of a finished (or paused) run for the spawned threads.
struct TaskSetRunStats {
  uint64_t jobs_completed = 0;
  uint64_t deadline_misses = 0;
  Duration worst_response;
};

TaskSetRunStats CollectRunStats(const Kernel& kernel, const std::vector<ThreadId>& ids);

// Per-task row of the same summary, in `ids` order: what the observability
// report (src/obs/obs_report.h) embeds so trace-derived metrics can be
// reconciled against the kernel's own per-thread counters.
struct TaskRunRow {
  ThreadId id;
  char name[24] = {};
  Duration period;
  uint64_t jobs_completed = 0;
  uint64_t deadline_misses = 0;
  Duration max_response;
  Duration avg_response;  // total_response / jobs_completed (zero when idle)
  // Cycle-attribution / headroom columns (see Tcb). user_cycles is the
  // task's own compute time; overhead_cycles is the per-task ledger total
  // minus it: kernel time billed to the thread.
  Duration user_cycles;
  Duration overhead_cycles;
  Duration job_cost_ewma;
  Duration headroom_min;  // meaningful only when headroom_seen
  bool headroom_seen = false;
  uint64_t headroom_low_events = 0;
};

std::vector<TaskRunRow> CollectPerTaskStats(const Kernel& kernel,
                                            const std::vector<ThreadId>& ids);

}  // namespace emeralds

#endif  // SRC_CORE_TASKSET_RUNNER_H_
