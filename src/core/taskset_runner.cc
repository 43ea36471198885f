#include "src/core/taskset_runner.h"

#include <cstdio>

namespace emeralds {

std::vector<int> BandsFromPartition(const std::vector<int>& partition) {
  std::vector<int> bands;
  for (size_t band = 0; band < partition.size(); ++band) {
    EM_ASSERT(partition[band] >= 0);
    for (int k = 0; k < partition[band]; ++k) {
      bands.push_back(static_cast<int>(band));
    }
  }
  return bands;
}

std::vector<ThreadId> SpawnTaskSet(Kernel& kernel, const TaskSet& set,
                                   const std::vector<int>& bands) {
  EM_ASSERT_MSG(bands.empty() || bands.size() == static_cast<size_t>(set.size()),
                "band list size %zu does not match task count %d", bands.size(), set.size());
  std::vector<ThreadId> ids;
  ids.reserve(set.tasks.size());
  for (int i = 0; i < set.size(); ++i) {
    const PeriodicTask& task = set.tasks[i];
    ThreadParams params;
    params.name = "task";
    params.period = task.period;
    params.relative_deadline = task.deadline;
    params.wcet = task.wcet;
    params.band = bands.empty() ? -1 : bands[i];
    Duration wcet = task.wcet;
    params.body = [wcet](ThreadApi api) -> ThreadBody {
      for (;;) {
        co_await api.Compute(wcet);
        co_await api.WaitNextPeriod();
      }
    };
    Result<ThreadId> id = kernel.CreateThread(params);
    EM_ASSERT_MSG(id.ok(), "SpawnTaskSet: CreateThread failed: %s",
                  StatusToString(id.status()));
    ids.push_back(id.value());
  }
  return ids;
}

std::vector<TaskRunRow> CollectPerTaskStats(const Kernel& kernel,
                                            const std::vector<ThreadId>& ids) {
  std::vector<TaskRunRow> rows;
  rows.reserve(ids.size());
  for (ThreadId id : ids) {
    const Tcb& t = kernel.thread(id);
    TaskRunRow row;
    row.id = id;
    std::snprintf(row.name, sizeof(row.name), "%s", t.name);
    row.period = t.period;
    row.jobs_completed = t.jobs_completed;
    row.deadline_misses = t.deadline_misses;
    row.max_response = t.max_response;
    row.avg_response =
        t.jobs_completed > 0 ? t.total_response / static_cast<int64_t>(t.jobs_completed)
                             : Duration();
    row.user_cycles = t.cycles.at(CycleBucket::kUser);
    row.overhead_cycles = t.cycles.total() - row.user_cycles;
    row.job_cost_ewma = t.job_cost_ewma;
    row.headroom_min = t.headroom_min;
    row.headroom_seen = t.headroom_seen;
    row.headroom_low_events = t.headroom_low_events;
    rows.push_back(row);
  }
  return rows;
}

TaskSetRunStats CollectRunStats(const Kernel& kernel, const std::vector<ThreadId>& ids) {
  TaskSetRunStats stats;
  for (ThreadId id : ids) {
    const Tcb& t = kernel.thread(id);
    stats.jobs_completed += t.jobs_completed;
    stats.deadline_misses += t.deadline_misses;
    if (t.max_response > stats.worst_response) {
      stats.worst_response = t.max_response;
    }
  }
  return stats;
}

}  // namespace emeralds
