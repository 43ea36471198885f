#include "src/obs/obs_report.h"

#include "src/base/json.h"
#include "src/core/kernel.h"
#include "src/obs/cycles_report.h"
#include "src/obs/json_writer.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace obs {
namespace {

void AppendHistogram(Json& j, const char* name, const Log2Histogram& h) {
  j.Key(name);
  j.OpenObject();
  j.Int("count", static_cast<int64_t>(h.count()));
  j.Number("min_us", h.count() > 0 ? h.min().micros_f() : 0.0);
  j.Number("max_us", h.count() > 0 ? h.max().micros_f() : 0.0);
  j.Number("mean_us", h.mean().micros_f());
  j.Number("p50_us", h.PercentileBound(0.50).micros_f());
  j.Number("p99_us", h.PercentileBound(0.99).micros_f());
  // Sparse bucket list: [floor_us, count] pairs up to the highest used one.
  j.Key("buckets");
  j.OpenArray();
  for (int b = 0; b <= h.HighestBucket(); ++b) {
    if (h.bucket(b) == 0) {
      continue;
    }
    j.OpenArray();
    j.IntElem(Log2Histogram::BucketFloorUs(b));
    j.IntElem(static_cast<int64_t>(h.bucket(b)));
    j.CloseArray();
  }
  j.CloseArray();
  j.CloseObject();
}

void AppendChargedUs(Json& j, const CycleLedger& ledger) {
  j.Key("charged_us");
  j.OpenObject();
  for (int c = 0; c < kNumChargeCategories; ++c) {
    auto category = static_cast<ChargeCategory>(c);
    j.Number(ChargeCategoryToString(category), ChargedIn(ledger, category).micros_f());
  }
  j.CloseObject();
}

void AppendKernelStats(Json& j, const KernelStats& s) {
  j.Key("kernel_stats");
  j.OpenObject();
  j.Int("context_switches", static_cast<int64_t>(s.context_switches));
  j.Int("jobs_released", static_cast<int64_t>(s.jobs_released));
  j.Int("jobs_completed", static_cast<int64_t>(s.jobs_completed));
  j.Int("deadline_misses", static_cast<int64_t>(s.deadline_misses));
  j.Int("sem_acquires", static_cast<int64_t>(s.sem_acquires));
  j.Int("sem_contended", static_cast<int64_t>(s.sem_contended));
  j.Int("sem_handoffs", static_cast<int64_t>(s.sem_handoffs));
  j.Int("pi_inherits", static_cast<int64_t>(s.pi_inherits));
  j.Int("cse_early_pi", static_cast<int64_t>(s.cse_early_pi));
  j.Int("cse_grants", static_cast<int64_t>(s.cse_grants));
  j.Int("cse_switches_saved", static_cast<int64_t>(s.cse_switches_saved));
  j.Int("interrupts", static_cast<int64_t>(s.interrupts));
  j.Int("timer_dispatches", static_cast<int64_t>(s.timer_dispatches));
  j.Int("chain_emits", static_cast<int64_t>(s.chain_emits));
  j.Int("chain_consumes", static_cast<int64_t>(s.chain_consumes));
  j.Int("chain_origins", static_cast<int64_t>(s.chain_origins));
  j.Int("chain_hop_saturations", static_cast<int64_t>(s.chain_hop_saturations));
  j.Int("ipis", static_cast<int64_t>(s.ipis));
  const CycleLedger ledger = s.cycles();
  j.Number("compute_time_us", ledger.at(CycleBucket::kUser).micros_f());
  j.Number("idle_time_us", ledger.at(CycleBucket::kIdle).micros_f());
  j.Number("sem_path_time_us", s.sem_path_time.micros_f());
  j.Number("total_charged_us", s.total_charged().micros_f());
  AppendChargedUs(j, ledger);
  j.CloseObject();
}

void AppendTaskRows(Json& j, const std::vector<TaskRunRow>& rows) {
  j.Key("tasks");
  j.OpenArray();
  for (const TaskRunRow& r : rows) {
    j.OpenObject();
    j.Int("id", r.id.value);
    j.String("name", r.name);
    j.Number("period_us", r.period.micros_f());
    j.Int("jobs_completed", static_cast<int64_t>(r.jobs_completed));
    j.Int("deadline_misses", static_cast<int64_t>(r.deadline_misses));
    j.Number("max_response_us", r.max_response.micros_f());
    j.Number("avg_response_us", r.avg_response.micros_f());
    j.Number("cpu_time_us", r.user_cycles.micros_f());
    j.Number("user_cycles_us", r.user_cycles.micros_f());
    j.Number("overhead_cycles_us", r.overhead_cycles.micros_f());
    j.Number("cost_ewma_us", r.job_cost_ewma.micros_f());
    j.Bool("headroom_seen", r.headroom_seen);
    j.Number("headroom_min_us", r.headroom_seen ? r.headroom_min.micros_f() : 0.0);
    j.Int("headroom_low_events", static_cast<int64_t>(r.headroom_low_events));
    j.CloseObject();
  }
  j.CloseArray();
}

void AppendAnalysis(Json& j, const TraceAnalysis& a) {
  j.Key("analysis");
  j.OpenObject();
  j.Int("context_switches", static_cast<int64_t>(a.context_switches));
  j.Int("deadline_misses", static_cast<int64_t>(a.deadline_misses));
  j.Int("jobs_released", static_cast<int64_t>(a.jobs_released));
  j.Int("jobs_completed", static_cast<int64_t>(a.jobs_completed));
  j.Int("sem_acquires", static_cast<int64_t>(a.sem_acquires));
  j.Int("sem_blocks", static_cast<int64_t>(a.sem_blocks));
  j.Int("cse_early_pi", static_cast<int64_t>(a.cse_early_pi));
  j.Int("chain_emits", static_cast<int64_t>(a.chain_emits));
  j.Int("chain_consumes", static_cast<int64_t>(a.chain_consumes));
  j.Int("max_pi_chain_depth", a.max_pi_chain_depth);
  j.Int("unresolved_blocks_at_end", static_cast<int64_t>(a.unresolved_blocks_at_end));
  j.Key("violations");
  j.OpenArray();
  for (const TraceViolation& v : a.violations) {
    j.OpenObject();
    j.String("kind", InvariantKindToString(v.kind));
    j.Int("event_index", static_cast<int64_t>(v.event_index));
    j.String("detail", v.detail);
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("tasks");
  j.OpenArray();
  for (const TaskMetrics& t : a.tasks) {
    if (!t.seen) {
      continue;
    }
    j.OpenObject();
    j.Int("thread_id", t.thread_id);
    j.Int("releases", static_cast<int64_t>(t.releases));
    j.Int("completes", static_cast<int64_t>(t.completes));
    j.Int("deadline_misses", static_cast<int64_t>(t.deadline_misses));
    j.Int("switches_in", static_cast<int64_t>(t.switches_in));
    j.Int("preemptions", static_cast<int64_t>(t.preemptions));
    j.Int("sem_acquires", static_cast<int64_t>(t.sem_acquires));
    j.Int("sem_blocks", static_cast<int64_t>(t.sem_blocks));
    j.Int("cse_early_pi", static_cast<int64_t>(t.cse_early_pi));
    j.Int("pi_donated", static_cast<int64_t>(t.pi_donated));
    j.Int("pi_received", static_cast<int64_t>(t.pi_received));
    j.Int("max_pi_depth", t.max_pi_depth);
    j.Number("run_time_us", t.run_time.micros_f());
    AppendHistogram(j, "response", t.response);
    AppendHistogram(j, "blocking", t.blocking);
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

void AppendReconciliation(Json& j, const TraceAnalysis& a, const KernelStats& s) {
  Reconciliation r = ComputeReconciliation(a, s);
  j.Key("reconciliation");
  j.OpenObject();
  j.Bool("checked", r.checked);
  j.Bool("context_switches_match", r.context_switches_match);
  j.Bool("deadline_misses_match", r.deadline_misses_match);
  j.Bool("jobs_completed_match", r.jobs_completed_match);
  j.Bool("cse_early_pi_match", r.cse_early_pi_match);
  j.Bool("msg_sends_match", r.msg_sends_match);
  j.Bool("msg_recvs_match", r.msg_recvs_match);
  j.Bool("pi_chain_limit_match", r.pi_chain_limit_match);
  j.Bool("headroom_low_match", r.headroom_low_match);
  j.Bool("chain_events_match", r.chain_events_match);
  j.Int("kernel_context_switches", static_cast<int64_t>(s.context_switches));
  j.Int("analyzer_context_switches", static_cast<int64_t>(a.context_switches));
  j.Int("kernel_deadline_misses", static_cast<int64_t>(s.deadline_misses));
  j.Int("analyzer_deadline_misses", static_cast<int64_t>(a.deadline_misses));
  j.CloseObject();
}

void AppendSnapshots(Json& j, const StatsSampler* sampler, const KernelStats& stats) {
  j.Key("snapshots");
  if (sampler == nullptr) {
    j.OpenObject();
    j.Bool("enabled", false);
    j.Key("samples");
    j.OpenArray();
    j.CloseArray();
    j.CloseObject();
    return;
  }
  j.OpenObject();
  j.Bool("enabled", true);
  j.Int("dropped", static_cast<int64_t>(sampler->dropped()));
  // Ring evictions the kernel itself counted (satellite fix: overwrites of
  // unread snapshots used to be silent). Tracks sampler->dropped() unless a
  // reader drained between overwrites.
  j.Int("snapshot_drops", static_cast<int64_t>(stats.stats_snapshot_drops));
  j.Key("samples");
  j.OpenArray();
  for (size_t i = 0; i < sampler->size(); ++i) {
    const StatsDelta& d = sampler->at(i);
    j.OpenObject();
    j.Number("time_us", static_cast<double>(d.time.nanos()) / 1e3);
    j.Int("context_switches", static_cast<int64_t>(d.context_switches));
    j.Int("jobs_released", static_cast<int64_t>(d.jobs_released));
    j.Int("jobs_completed", static_cast<int64_t>(d.jobs_completed));
    j.Int("deadline_misses", static_cast<int64_t>(d.deadline_misses));
    j.Int("sem_acquires", static_cast<int64_t>(d.sem_acquires));
    j.Int("sem_contended", static_cast<int64_t>(d.sem_contended));
    j.Int("pi_inherits", static_cast<int64_t>(d.pi_inherits));
    j.Int("cse_switches_saved", static_cast<int64_t>(d.cse_switches_saved));
    j.Int("interrupts", static_cast<int64_t>(d.interrupts));
    j.Int("timer_dispatches", static_cast<int64_t>(d.timer_dispatches));
    j.Int("headroom_low_events", static_cast<int64_t>(d.headroom_low_events));
    j.Number("compute_time_us", d.cycles.at(CycleBucket::kUser).micros_f());
    j.Number("idle_time_us", d.cycles.at(CycleBucket::kIdle).micros_f());
    j.Number("sem_path_time_us", d.sem_path_time.micros_f());
    AppendChargedUs(j, d.cycles);
    j.Key("cycles_ns");
    j.OpenObject();
    for (int b = 0; b < kNumCycleBuckets; ++b) {
      j.Int(CycleBucketToString(static_cast<CycleBucket>(b)), d.cycles.buckets[b].nanos());
    }
    j.CloseObject();
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

}  // namespace

Reconciliation ComputeReconciliation(const TraceAnalysis& a, const KernelStats& s) {
  Reconciliation r;
  r.checked = a.dropped_events == 0;
  if (!r.checked) {
    return r;  // suffix window: equalities would legitimately fail
  }
  r.context_switches_match = a.context_switches == s.context_switches;
  r.deadline_misses_match = a.deadline_misses == s.deadline_misses;
  r.jobs_completed_match = a.jobs_completed == s.jobs_completed;
  r.cse_early_pi_match = a.cse_early_pi == s.cse_early_pi;
  r.msg_sends_match = a.msg_sends == s.mailbox_sends + s.smsg_writes;
  r.msg_recvs_match = a.msg_recvs == s.mailbox_receives + s.smsg_reads;
  r.pi_chain_limit_match = a.pi_chain_limit == s.pi_chain_limit_hits;
  r.headroom_low_match = a.headroom_low == s.headroom_low_events;
  r.chain_events_match = a.chain_emits == s.chain_emits && a.chain_consumes == s.chain_consumes;
  return r;
}

uint64_t FoldKernelCounters(uint64_t window_digest, const KernelStats& s) {
  const uint64_t counters[] = {s.context_switches,  s.syscalls,           s.jobs_released,
                               s.jobs_completed,    s.deadline_misses,    s.sem_acquires,
                               s.mailbox_sends,     s.mailbox_receives,   s.interrupts,
                               s.timer_dispatches,  s.chain_emits,        s.chain_consumes,
                               s.chain_origins,     s.smsg_writes,        s.smsg_reads,
                               s.smsg_read_retries, s.mailbox_truncations, s.pi_chain_limit_hits};
  uint64_t hash = window_digest;
  for (uint64_t counter : counters) {
    hash = FoldWord(hash, counter);
  }
  return hash;
}

std::string BuildObsRunReport(const ObsRunInfo& info, const Kernel& kernel,
                              const std::vector<ThreadId>& task_ids) {
  const TraceSink& trace = kernel.trace();
  TraceEvaluation eval = EvaluateTrace(trace, kernel.resolved_chains());
  const TraceAnalysis& analysis = eval.trace;

  Json j;
  j.OpenObject();
  j.String("schema", kObsRunSchema);
  j.String("label", info.label);
  j.String("scheduler", info.scheduler);
  j.Number("run_duration_us", info.run_duration.micros_f());

  j.Key("trace");
  j.OpenObject();
  j.Int("total_recorded", static_cast<int64_t>(trace.total_recorded()));
  j.Int("retained", static_cast<int64_t>(trace.size()));
  j.Int("dropped", static_cast<int64_t>(trace.dropped()));
  j.CloseObject();

  AppendKernelStats(j, kernel.stats());
  AppendCyclesSection(j, kernel);
  AppendTaskRows(j, CollectPerTaskStats(kernel, task_ids));
  AppendAnalysis(j, analysis);
  AppendReconciliation(j, analysis, kernel.stats());
  j.Key("chains");
  AppendChainsSection(j, eval.chains);
  j.Key("postmortem");
  AppendPostmortemSection(j, eval.postmortem, &eval.chains);
  AppendSnapshots(j, kernel.stats_sampler(), kernel.stats());
  j.CloseObject();
  return j.str() + "\n";
}

void WriteObsRunReport(std::FILE* out, const ObsRunInfo& info, const Kernel& kernel,
                       const std::vector<ThreadId>& task_ids) {
  std::string text = BuildObsRunReport(info, kernel, task_ids);
  std::fwrite(text.data(), 1, text.size(), out);
}

bool WriteObsRunReportFile(const std::string& path, const ObsRunInfo& info,
                           const Kernel& kernel, const std::vector<ThreadId>& task_ids) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  WriteObsRunReport(f, info, kernel, task_ids);
  std::fclose(f);
  return true;
}

}  // namespace obs
}  // namespace emeralds
