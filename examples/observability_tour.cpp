// Observability tour — the src/obs/ pipeline end to end on one contended
// workload.
//
// Three periodic tasks share a semaphore-protected sensor object; the
// mid-priority task occasionally overruns, so the run has preemptions,
// blocking, priority inheritance, and a CSE early-PI or two. The example:
//   1. enables the trace ring and the periodic KernelStats snapshot sampler,
//   2. runs the workload for 200 ms,
//   3. replays the trace through the analyzer and prints per-task
//      response/blocking histograms and the invariant verdict,
//   4. writes observability_tour.{trace.csv,perfetto.json,run.json} into the
//      current directory — open the perfetto file at ui.perfetto.dev, feed
//      the CSV + run report to trace_inspect.

#include <cstdio>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/taskset_runner.h"
#include "src/hal/hardware.h"
#include "src/obs/obs_report.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/trace_analyzer.h"

using namespace emeralds;

int main() {
  Hardware hw;
  KernelConfig config;
  config.scheduler = SchedulerSpec::Rm();
  config.cost_model = CostModel::MC68040_25MHz();
  config.trace_capacity = 8192;
  config.default_sem_mode = SemMode::kCse;
  Kernel kernel(hw, config);
  kernel.EnableStatsSampling(Milliseconds(20), 32);

  SemId sensor = kernel.CreateSemaphore("sensor", 1).value();
  std::vector<ThreadId> ids;

  // High-rate control task: short hold on the sensor lock every period.
  ThreadParams control;
  control.name = "control";
  control.period = Milliseconds(5);
  control.body = [sensor](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Microseconds(300));
      co_await api.Acquire(sensor);
      co_await api.Compute(Microseconds(200));
      co_await api.Release(sensor);
      co_await api.WaitNextPeriod(sensor);  // CSE hint: next lock is `sensor`
    }
  };
  ids.push_back(kernel.CreateThread(control).value());

  // Mid-priority filter: holds the lock across the control task's release,
  // so control contends, priority inheritance kicks in, and the CSE hint on
  // control's WaitNextPeriod converts wakeups into early-PI grants.
  ThreadParams filter;
  filter.name = "filter";
  filter.period = Milliseconds(20);
  filter.body = [sensor](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Acquire(sensor);
      co_await api.Compute(Milliseconds(6));
      co_await api.Release(sensor);
      co_await api.Compute(Milliseconds(1));
      co_await api.WaitNextPeriod(sensor);
    }
  };
  ids.push_back(kernel.CreateThread(filter).value());

  // Background logger: long compute, frequently preempted.
  ThreadParams logger;
  logger.name = "logger";
  logger.period = Milliseconds(50);
  logger.body = [](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(8));
      co_await api.WaitNextPeriod();
    }
  };
  ids.push_back(kernel.CreateThread(logger).value());

  kernel.Start();
  kernel.RunUntil(Instant() + Milliseconds(200));

  // --- Replay the trace and print what the ring alone cannot tell you ---
  obs::TraceAnalysis analysis = obs::AnalyzeTrace(kernel.trace());
  std::printf("trace: %zu events retained, %llu dropped; invariants %s\n",
              kernel.trace().size(),
              static_cast<unsigned long long>(kernel.trace().dropped()),
              analysis.ok() ? "ok" : "VIOLATED");
  for (const obs::TaskMetrics& t : analysis.tasks) {
    if (!t.seen) {
      continue;
    }
    const Tcb& tcb = kernel.thread(ThreadId(t.thread_id));
    std::printf("%-8s released %llu, completed %llu, preempted %llu\n", tcb.name,
                static_cast<unsigned long long>(t.releases),
                static_cast<unsigned long long>(t.completes),
                static_cast<unsigned long long>(t.preemptions));
    if (t.response.count() > 0) {
      std::printf("  response: mean %.0f us, p99 <= %.0f us, max %.0f us\n",
                  t.response.mean().micros_f(),
                  t.response.PercentileBound(0.99).micros_f(), t.response.max().micros_f());
    }
    if (t.blocking.count() > 0) {
      std::printf("  blocking: %llu waits, mean %.0f us, max %.0f us\n",
                  static_cast<unsigned long long>(t.blocking.count()),
                  t.blocking.mean().micros_f(), t.blocking.max().micros_f());
    }
  }
  std::printf("CSE early-PI grants: %llu, max PI chain depth: %d\n",
              static_cast<unsigned long long>(analysis.cse_early_pi),
              analysis.max_pi_chain_depth);

  // --- Snapshot time series: context-switch rate per 20 ms interval ---
  const StatsSampler* sampler = kernel.stats_sampler();
  std::printf("context switches per 20 ms interval:");
  for (size_t i = 0; i < sampler->size(); ++i) {
    std::printf(" %llu", static_cast<unsigned long long>(sampler->at(i).context_switches));
  }
  std::printf("\n");

  // --- Export the bundle ---
  std::FILE* csv = std::fopen("observability_tour.trace.csv", "w");
  if (csv != nullptr) {
    kernel.trace().ExportCsv(csv);
    std::fclose(csv);
  }
  std::FILE* pf = std::fopen("observability_tour.perfetto.json", "w");
  if (pf != nullptr) {
    obs::ExportPerfettoJson(kernel, pf);
    std::fclose(pf);
  }
  obs::ObsRunInfo info;
  info.label = "observability_tour";
  info.scheduler = "RM";
  info.run_duration = Milliseconds(200);
  obs::WriteObsRunReportFile("observability_tour.run.json", info, kernel, ids);
  std::printf("wrote observability_tour.{trace.csv,perfetto.json,run.json}\n");
  return analysis.ok() ? 0 : 1;
}
