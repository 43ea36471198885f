#include "src/obs/cycles_report.h"

#include <cstdio>

#include "src/core/kernel.h"
#include "src/core/scheduler.h"
#include "src/core/taskset_runner.h"
#include "src/obs/json_writer.h"
#include "src/obs/obs_report.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace obs {
namespace {

// Display label matching the paper's figures: EDF bands are DP1..DPk, the
// trailing fixed-priority band is FP.
std::string BandLabel(const Kernel& kernel, int band) {
  if (band >= kernel.scheduler().num_bands()) {
    return "?";
  }
  if (kernel.scheduler().band(band).kind() == QueueKind::kEdfList) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "DP%d", band + 1);
    return buf;
  }
  return "FP";
}

}  // namespace

void AppendCyclesSection(Json& j, const Kernel& kernel) {
  const KernelStats& s = kernel.stats();
  CycleConservation cons = CheckCycleConservation(s, kernel.now());
  const CycleLedger& clock_ledger = kernel.hardware().clock().ledger();

  j.Key("cycles");
  j.OpenObject();
  j.Int("epoch_ns", s.cycles_epoch.nanos());
  // On SMP, elapsed is exported as capacity (wall time x num_cores): the
  // global bucket ledger sums every core's attribution, so the exact
  // bucket-sum == elapsed invariant holds against capacity, not wall time.
  j.Int("num_cores", s.num_cores);
  j.Int("elapsed_ns", cons.elapsed.nanos());
  j.Int("ledger_total_ns", cons.ledger_total.nanos());
  j.Int("residual_ns", cons.residual.nanos());
  j.Bool("conserved", cons.exact());
  // The clock's cumulative ledger holds by construction; its unattributed
  // bucket must stay zero inside a kernel run (anything else means a clock
  // advance bypassed the kernel's charging paths).
  j.Bool("clock_conserved",
         clock_ledger.total().nanos() == (kernel.now() - Instant()).nanos());
  j.Int("clock_unattributed_ns", clock_ledger.at(CycleBucket::kUnattributed).nanos());
  j.Int("headroom_low_events", static_cast<int64_t>(s.headroom_low_events));

  j.Key("buckets_ns");
  j.OpenObject();
  const CycleLedger ledger = s.cycles();
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    j.Int(CycleBucketToString(static_cast<CycleBucket>(b)), ledger.buckets[b].nanos());
  }
  j.CloseObject();

  // Per-core ledgers: each core's buckets must sum to plain wall time.
  j.Key("cores");
  j.OpenArray();
  for (int c = 0; c < s.num_cores; ++c) {
    CycleConservation cc = CheckCoreCycleConservation(s, c, kernel.now());
    j.OpenObject();
    j.Int("core", c);
    j.Int("elapsed_ns", cc.elapsed.nanos());
    j.Int("ledger_total_ns", cc.ledger_total.nanos());
    j.Int("residual_ns", cc.residual.nanos());
    j.Bool("conserved", cc.exact());
    j.CloseObject();
  }
  j.CloseArray();

  // Per-band scheduler split (DP1/DP2/.../FP); only bands that did work.
  j.Key("sched_bands");
  j.OpenArray();
  for (int band = 0; band < kMaxStatBands; ++band) {
    Duration block = s.sched_band_cycles[band][static_cast<int>(QueueOp::kBlock)];
    Duration unblock = s.sched_band_cycles[band][static_cast<int>(QueueOp::kUnblock)];
    Duration select = s.sched_band_cycles[band][static_cast<int>(QueueOp::kSelect)];
    if (!block.is_positive() && !unblock.is_positive() && !select.is_positive()) {
      continue;
    }
    j.OpenObject();
    j.Int("band", band);
    j.String("label", BandLabel(kernel, band));
    j.Int("block_ns", block.nanos());
    j.Int("unblock_ns", unblock.nanos());
    j.Int("select_ns", select.nanos());
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

std::string BuildCyclesReport(const std::string& label, const std::string& scheduler,
                              const Kernel& kernel, const std::vector<ThreadId>& task_ids) {
  Json j;
  j.OpenObject();
  j.String("schema", kObsCyclesSchema);
  j.String("label", label);
  j.String("scheduler", scheduler);
  j.Digest("digest",
           FoldKernelCounters(EvaluateTrace(kernel.trace(), kernel.resolved_chains()).window_digest,
                              kernel.stats()));
  AppendCyclesSection(j, kernel);

  j.Key("tasks");
  j.OpenArray();
  for (const TaskRunRow& r : CollectPerTaskStats(kernel, task_ids)) {
    j.OpenObject();
    j.Int("id", r.id.value);
    j.String("name", r.name);
    j.Int("jobs_completed", static_cast<int64_t>(r.jobs_completed));
    j.Int("deadline_misses", static_cast<int64_t>(r.deadline_misses));
    j.Int("user_ns", r.user_cycles.nanos());
    j.Int("overhead_ns", r.overhead_cycles.nanos());
    j.Int("cost_ewma_ns", r.job_cost_ewma.nanos());
    j.Bool("headroom_seen", r.headroom_seen);
    j.Int("headroom_min_ns", r.headroom_seen ? r.headroom_min.nanos() : 0);
    j.Int("headroom_low_events", static_cast<int64_t>(r.headroom_low_events));
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
  return j.str() + "\n";
}

bool WriteCyclesReportFile(const std::string& path, const std::string& label,
                           const std::string& scheduler, const Kernel& kernel,
                           const std::vector<ThreadId>& task_ids) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::string text = BuildCyclesReport(label, scheduler, kernel, task_ids);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace obs
}  // namespace emeralds
