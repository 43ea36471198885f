#include "src/obs/telemetry.h"

#include <algorithm>

#include "src/core/kernel.h"
#include "src/obs/json_writer.h"

namespace emeralds {
namespace obs {

NodeTelemetry CollectNodeTelemetry(const Kernel& kernel, const TraceAnalysis& analysis,
                                   const ChainAnalysis& chains) {
  NodeTelemetry t;
  const KernelStats& s = kernel.stats();
  t.stats_snapshot_drops = s.stats_snapshot_drops;
  const CycleLedger ledger = s.cycles();
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    t.cycles[b] = ledger.buckets[b];
    t.cycles_total += t.cycles[b];
  }
  t.num_cores = s.num_cores;
  for (int c = 0; c < s.num_cores && c < kMaxStatCores; ++c) {
    t.core_cycles[c] = s.core_cycles[c].total();
  }

  // Headroom minimum across every thread the monitor has scored.
  for (size_t i = 0; i < kernel.thread_count(); ++i) {
    const Tcb& tcb = kernel.thread(ThreadId(static_cast<int>(i)));
    if (tcb.headroom_seen && (!t.headroom_seen || tcb.headroom_min < t.headroom_min)) {
      t.headroom_seen = true;
      t.headroom_min = tcb.headroom_min;
    }
  }

  // Job response times across all tasks: a bucket-sum merge of the per-task
  // histograms the analyzer already built.
  for (const TaskMetrics& task : analysis.tasks) {
    if (task.seen) {
      t.response.Merge(task.response);
    }
  }

  t.chains.reserve(chains.chains.size());
  for (const ChainReport& c : chains.chains) {
    ChainTelemetry ct;
    ct.name = c.name;
    ct.deadline_min = c.deadline;
    ct.deadline_max = c.deadline;
    ct.completed = c.completed;
    ct.overruns = c.overruns;
    ct.incomplete = c.incomplete;
    ct.e2e = c.e2e;
    ct.hops.reserve(c.hops.size());
    for (const ChainHopStats& h : c.hops) {
      ChainTelemetry::Hop hop;
      hop.queue = h.queue;
      hop.exec = h.exec;
      ct.hops.push_back(hop);
    }
    t.chains.push_back(std::move(ct));
  }
  return t;
}

void MergeNodeTelemetry(FleetTelemetry* fleet, const NodeTelemetry& node, int node_index) {
  if (node.headroom_seen &&
      (!fleet->headroom_seen || node.headroom_min < fleet->headroom_min)) {
    fleet->headroom_seen = true;
    fleet->headroom_min = node.headroom_min;
    fleet->headroom_min_node = node_index;
  }
  fleet->stats_snapshot_drops_total += node.stats_snapshot_drops;
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    fleet->cycles[b] += node.cycles[b];
  }
  fleet->cycles_total += node.cycles_total;
  fleet->max_cores = std::max(fleet->max_cores, node.num_cores);
  for (int c = 0; c < node.num_cores && c < kMaxStatCores; ++c) {
    fleet->core_cycles[c] += node.core_cycles[c];
  }
  fleet->response.Merge(node.response);

  for (const ChainTelemetry& nc : node.chains) {
    ChainTelemetry* fc = nullptr;
    for (ChainTelemetry& existing : fleet->chains) {
      if (existing.name == nc.name) {
        fc = &existing;
        break;
      }
    }
    if (fc == nullptr) {
      fleet->chains.push_back(nc);
      continue;
    }
    fc->deadline_min = std::min(fc->deadline_min, nc.deadline_min);
    fc->deadline_max = std::max(fc->deadline_max, nc.deadline_max);
    fc->completed += nc.completed;
    fc->overruns += nc.overruns;
    fc->incomplete += nc.incomplete;
    fc->e2e.Merge(nc.e2e);
    if (fc->hops.size() < nc.hops.size()) {
      fc->hops.resize(nc.hops.size());
    }
    for (size_t i = 0; i < nc.hops.size(); ++i) {
      fc->hops[i].queue.Merge(nc.hops[i].queue);
      fc->hops[i].exec.Merge(nc.hops[i].exec);
    }
  }
}

void AppendTelemetryHistogram(Json& j, const char* key, const Log2Histogram& h) {
  j.Key(key);
  j.OpenObject();
  j.Int("count", static_cast<int64_t>(h.count()));
  j.Number("min_us", h.count() > 0 ? h.min().micros_f() : 0.0);
  j.Number("max_us", h.count() > 0 ? h.max().micros_f() : 0.0);
  j.Number("mean_us", h.mean().micros_f());
  j.Number("p50_us", h.PercentileBound(0.50).micros_f());
  j.Number("p90_us", h.PercentileBound(0.90).micros_f());
  j.Number("p99_us", h.PercentileBound(0.99).micros_f());
  j.Number("p999_us", h.PercentileBound(0.999).micros_f());
  j.Number("total_us", h.total().micros_f());
  j.CloseObject();
}

namespace {

void AppendChainTelemetry(Json& j, const ChainTelemetry& c) {
  j.OpenObject();
  j.String("name", c.name);
  j.Number("deadline_min_us", c.deadline_min.micros_f());
  j.Number("deadline_max_us", c.deadline_max.micros_f());
  j.Int("completed", static_cast<int64_t>(c.completed));
  j.Int("overruns", static_cast<int64_t>(c.overruns));
  j.Int("incomplete_instances", static_cast<int64_t>(c.incomplete));
  AppendTelemetryHistogram(j, "e2e", c.e2e);
  j.Key("hops");
  j.OpenArray();
  for (const ChainTelemetry::Hop& hop : c.hops) {
    j.OpenObject();
    AppendTelemetryHistogram(j, "queue", hop.queue);
    AppendTelemetryHistogram(j, "exec", hop.exec);
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

void AppendCoreCycles(Json& j, const Duration (&core_cycles)[kMaxStatCores], int cores) {
  j.Key("core_cycles_us");
  j.OpenArray();
  for (int c = 0; c < cores && c < kMaxStatCores; ++c) {
    j.NumberElem(core_cycles[c].micros_f());
  }
  j.CloseArray();
}

void AppendCycles(Json& j, const Duration (&cycles)[kNumCycleBuckets], Duration total) {
  j.Key("cycles");
  j.OpenObject();
  j.Number("total_us", total.micros_f());
  j.Key("buckets_us");
  j.OpenObject();
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    j.Number(CycleBucketToString(static_cast<CycleBucket>(b)), cycles[b].micros_f());
  }
  j.CloseObject();
  // Shares as fractions of the node/fleet total: the at-a-glance "where did
  // the virtual time go" view.
  j.Key("shares");
  j.OpenObject();
  double denom = total.nanos() > 0 ? static_cast<double>(total.nanos()) : 1.0;
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    j.Number(CycleBucketToString(static_cast<CycleBucket>(b)),
             static_cast<double>(cycles[b].nanos()) / denom);
  }
  j.CloseObject();
  j.CloseObject();
}

}  // namespace

void AppendNodeTelemetrySection(Json& j, const NodeTelemetry& t) {
  j.OpenObject();
  j.Key("headroom");
  j.OpenObject();
  j.Bool("seen", t.headroom_seen);
  j.Number("min_us", t.headroom_seen ? t.headroom_min.micros_f() : 0.0);
  j.CloseObject();
  j.Int("stats_snapshot_drops", static_cast<int64_t>(t.stats_snapshot_drops));
  AppendCycles(j, t.cycles, t.cycles_total);
  AppendCoreCycles(j, t.core_cycles, t.num_cores);
  AppendTelemetryHistogram(j, "response", t.response);
  j.Key("chains");
  j.OpenArray();
  for (const ChainTelemetry& c : t.chains) {
    AppendChainTelemetry(j, c);
  }
  j.CloseArray();
  j.CloseObject();
}

void AppendFleetTelemetrySection(Json& j, const FleetTelemetry& t) {
  j.OpenObject();
  j.String("schema", kFleetTelemetrySchema);
  j.Key("headroom");
  j.OpenObject();
  j.Bool("seen", t.headroom_seen);
  j.Number("min_us", t.headroom_seen ? t.headroom_min.micros_f() : 0.0);
  j.Int("min_node", t.headroom_min_node);
  j.CloseObject();
  j.Int("stats_snapshot_drops", static_cast<int64_t>(t.stats_snapshot_drops_total));
  AppendCycles(j, t.cycles, t.cycles_total);
  AppendCoreCycles(j, t.core_cycles, t.max_cores);
  AppendTelemetryHistogram(j, "response", t.response);
  j.Key("chains");
  j.OpenArray();
  for (const ChainTelemetry& c : t.chains) {
    AppendChainTelemetry(j, c);
  }
  j.CloseArray();
  j.CloseObject();
}

}  // namespace obs
}  // namespace emeralds
