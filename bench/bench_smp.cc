// bench_smp: partitioned-SMP throughput and admission baseline.
//
// Two deterministic experiments behind the SMP acceptance bars, emitted as
// one emeralds.bench.smp/1 report at $EMERALDS_BENCH_JSON (default
// ./BENCH_smp.json):
//
//  1. Throughput at equal horizon. A saturated workload — eight periodic
//     tasks, 3 ms compute every 10 ms (240% aggregate demand) — runs on the
//     real kernel for the same virtual horizon at 1, 2, and 4 cores, tasks
//     pinned round-robin. Aggregate user cycles (the ledgers' user bucket)
//     must scale: the 2-core run has to deliver >= 1.7x the 1-core user
//     cycles, and every run must conserve its cycle ledger both fleet-summed
//     and per core, exact to the tick.
//
//  2. Partitioned-CSD admission. Seeded random workloads (the paper's
//     Figure-3 generator) are swept across total-utilization targets; each is
//     admitted via PartitionCsdSmp (FFD onto cores, then the unchanged
//     per-core CSD search). More cores must never admit fewer workloads: a
//     task set feasible on one core is feasible on a subset of cores.
//
// Pure virtual time, so every number is bit-identical across machines and CI
// diffs the report against the committed BENCH_smp.json with bench_compare.
// Each throughput row carries its run's digest, which must match exactly.
// Exit status 1 when a conservation, scaling, or monotonicity bar fails.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/analysis/smp_partition.h"
#include "src/core/kernel.h"
#include "src/hal/hardware.h"
#include "src/obs/json_writer.h"
#include "src/obs/obs_report.h"
#include "src/obs/trace_replay.h"
#include "src/workload/workload.h"

namespace emeralds {
namespace {

constexpr Duration kHorizon = Seconds(2);
constexpr int kSatThreads = 8;
constexpr int kCoreCounts[] = {1, 2, 4};

constexpr int kAdmissionWorkloads = 20;
constexpr int kAdmissionTasks = 8;
constexpr int kAdmissionQueues = 2;
constexpr double kUtilizationTargets[] = {0.6, 0.9, 1.2, 1.5, 1.8};

struct ThroughputRow {
  int num_cores = 0;
  Duration user;
  Duration idle;
  uint64_t ipis = 0;
  uint64_t context_switches = 0;
  uint64_t jobs_completed = 0;
  uint64_t deadline_misses = 0;
  bool conserved = false;
  std::vector<CycleConservation> per_core;
  // Trace window digest folded with the kernel counters: any change of
  // simulated behaviour moves it.
  uint64_t digest = 0;
};

ThroughputRow RunSaturated(int num_cores) {
  Hardware hw;
  KernelConfig config;
  config.scheduler = SchedulerSpec::Csd(2);
  config.cost_model = CostModel::MC68040_25MHz();
  config.num_cores = num_cores;
  config.trace_capacity = 16384;
  Kernel kernel(hw, config);

  for (int i = 0; i < kSatThreads; ++i) {
    ThreadParams params;
    params.name = "sat";
    params.period = Milliseconds(10);
    params.core = i % num_cores;
    params.body = [](ThreadApi api) -> ThreadBody {
      for (;;) {
        co_await api.Compute(Milliseconds(3));
        co_await api.WaitNextPeriod();
      }
    };
    kernel.CreateThread(params);
  }
  kernel.Start();
  kernel.RunUntil(Instant() + kHorizon);

  ThroughputRow row;
  row.num_cores = num_cores;
  const KernelStats& s = kernel.stats();
  const CycleLedger ledger = s.cycles();
  row.user = ledger.at(CycleBucket::kUser);
  row.idle = ledger.at(CycleBucket::kIdle);
  row.ipis = s.ipis;
  row.context_switches = s.context_switches;
  row.jobs_completed = s.jobs_completed;
  row.deadline_misses = s.deadline_misses;
  row.digest = obs::FoldKernelCounters(
      obs::EvaluateTrace(kernel.trace(), kernel.resolved_chains()).window_digest, s);
  CycleConservation total = CheckCycleConservation(s, kernel.now());
  row.conserved = total.exact();
  for (int c = 0; c < num_cores; ++c) {
    row.per_core.push_back(CheckCoreCycleConservation(s, c, kernel.now()));
    if (!row.per_core.back().exact()) {
      row.conserved = false;
    }
  }
  return row;
}

struct AdmissionPoint {
  double utilization = 0.0;
  int admitted[3] = {0, 0, 0};  // indexed like kCoreCounts
};

std::vector<AdmissionPoint> RunAdmissionSweep() {
  const CostModel cost = CostModel::MC68040_25MHz();
  WorkloadGenConfig gen;  // normalizes each set to utilization 0.50
  std::vector<TaskSet> workloads;
  Rng rng(20260808);
  for (int w = 0; w < kAdmissionWorkloads; ++w) {
    TaskSet set = GenerateWorkload(rng, kAdmissionTasks, gen);
    set.SortByPeriod();
    workloads.push_back(std::move(set));
  }

  std::vector<AdmissionPoint> points;
  for (double target : kUtilizationTargets) {
    AdmissionPoint point;
    point.utilization = target;
    for (const TaskSet& set : workloads) {
      const double scale = target / set.Utilization();
      for (size_t ci = 0; ci < std::size(kCoreCounts); ++ci) {
        SmpPartitionResult part =
            PartitionCsdSmp(set, kCoreCounts[ci], kAdmissionQueues, scale, cost);
        if (part.feasible) {
          ++point.admitted[ci];
        }
      }
    }
    points.push_back(point);
  }
  return points;
}

int Run() {
  std::vector<ThroughputRow> rows;
  for (int cores : kCoreCounts) {
    rows.push_back(RunSaturated(cores));
  }
  std::vector<AdmissionPoint> admission = RunAdmissionSweep();

  const double user1 = static_cast<double>(rows[0].user.nanos());
  const double ratio2 = user1 > 0 ? static_cast<double>(rows[1].user.nanos()) / user1 : 0.0;
  const double ratio4 = user1 > 0 ? static_cast<double>(rows[2].user.nanos()) / user1 : 0.0;

  bool ok = true;
  std::printf("bench_smp: %d saturated tasks (3ms/10ms), %lld ms horizon\n", kSatThreads,
              static_cast<long long>(kHorizon.millis()));
  for (const ThroughputRow& row : rows) {
    std::printf("  %d core(s): user %.1f ms, idle %.1f ms, %llu switches, %llu ipis, "
                "%llu jobs (%llu misses), conservation %s\n",
                row.num_cores, row.user.millis_f(), row.idle.millis_f(),
                static_cast<unsigned long long>(row.context_switches),
                static_cast<unsigned long long>(row.ipis),
                static_cast<unsigned long long>(row.jobs_completed),
                static_cast<unsigned long long>(row.deadline_misses),
                row.conserved ? "exact (all cores)" : "VIOLATED");
    ok = ok && row.conserved;
  }
  std::printf("  throughput scaling: 2-core %.3fx (floor 1.7x), 4-core %.3fx\n", ratio2, ratio4);
  if (ratio2 < 1.7) {
    ok = false;
  }
  std::printf("admission (CSD-%d, %d workloads x %d tasks):\n", kAdmissionQueues,
              kAdmissionWorkloads, kAdmissionTasks);
  for (const AdmissionPoint& p : admission) {
    std::printf("  U=%.1f: 1-core %d, 2-core %d, 4-core %d\n", p.utilization, p.admitted[0],
                p.admitted[1], p.admitted[2]);
    if (p.admitted[1] < p.admitted[0] || p.admitted[2] < p.admitted[1]) {
      std::printf("    ADMISSION NOT MONOTONE IN CORES\n");
      ok = false;
    }
  }

  obs::Json j;
  j.OpenObject();
  j.String("schema", "emeralds.bench.smp/1");
  j.String("label", "bench_smp");
  j.Number("horizon_ms", kHorizon.millis_f());
  j.Int("saturated_tasks", kSatThreads);
  j.Key("throughput");
  j.OpenArray();
  for (const ThroughputRow& row : rows) {
    j.OpenObject();
    j.Int("num_cores", row.num_cores);
    j.Int("user_ns", row.user.nanos());
    j.Int("idle_ns", row.idle.nanos());
    j.Int("ipis", static_cast<int64_t>(row.ipis));
    j.Int("context_switches", static_cast<int64_t>(row.context_switches));
    j.Int("jobs_completed", static_cast<int64_t>(row.jobs_completed));
    j.Int("deadline_misses", static_cast<int64_t>(row.deadline_misses));
    j.Bool("conserved", row.conserved);
    j.Digest("digest", row.digest);
    j.Key("cores");
    j.OpenArray();
    for (size_t c = 0; c < row.per_core.size(); ++c) {
      const CycleConservation& cc = row.per_core[c];
      j.OpenObject();
      j.Int("core", static_cast<int64_t>(c));
      j.Int("elapsed_ns", cc.elapsed.nanos());
      j.Int("ledger_total_ns", cc.ledger_total.nanos());
      j.Int("residual_ns", cc.residual.nanos());
      j.Bool("conserved", cc.exact());
      j.CloseObject();
    }
    j.CloseArray();
    j.CloseObject();
  }
  j.CloseArray();
  j.Number("ratio_2core", ratio2);
  j.Number("ratio_4core", ratio4);
  j.Key("admission");
  j.OpenObject();
  j.Int("queues", kAdmissionQueues);
  j.Int("workloads", kAdmissionWorkloads);
  j.Int("tasks_per_workload", kAdmissionTasks);
  j.Key("points");
  j.OpenArray();
  for (const AdmissionPoint& p : admission) {
    j.OpenObject();
    j.Number("utilization", p.utilization);
    j.Int("admitted_1core", p.admitted[0]);
    j.Int("admitted_2core", p.admitted[1]);
    j.Int("admitted_4core", p.admitted[2]);
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
  j.CloseObject();

  std::string json_path = BenchJsonPath("BENCH_smp.json");
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_smp: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(j.str().data(), 1, j.str().size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace emeralds

int main() { return emeralds::Run(); }
