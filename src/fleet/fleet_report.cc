#include "src/fleet/fleet_report.h"

#include <cstdio>
#include <map>

#include "src/fleet/triage.h"
#include "src/obs/alerts.h"
#include "src/obs/json_writer.h"
#include "src/obs/postmortem.h"
#include "src/obs/timeseries.h"

namespace emeralds {
namespace fleet {

std::string BuildFleetRunReport(const FleetRunInfo& info, const FleetResult& result) {
  obs::Json json;
  json.OpenObject();
  json.String("schema", kFleetRunSchema);
  json.String("label", info.label);
  json.Int("instances", result.instances);
  json.Int("workers", result.workers);
  json.Int("seed", static_cast<int64_t>(result.seed));
  json.Number("run_duration_ms", info.run_duration.millis_f());
  json.Number("slice_ms", info.slice.millis_f());

  // Deterministic aggregates: identical across machines and worker counts.
  json.Int("events_total", static_cast<int64_t>(result.events_total));
  json.Number("virtual_ms_total", result.virtual_time_total.millis_f());
  json.Number("events_per_virtual_sec", result.events_per_virtual_sec);
  json.Int("jobs_completed", static_cast<int64_t>(result.jobs_completed));
  json.Int("deadline_misses", static_cast<int64_t>(result.deadline_misses));
  json.Int("timer_dispatches", static_cast<int64_t>(result.timer_dispatches));
  json.Int("chain_completed", static_cast<int64_t>(result.chain_completed));
  json.Int("chain_overruns", static_cast<int64_t>(result.chain_overruns));
  json.Int("nodes_total", static_cast<int64_t>(result.nodes.size()));
  json.Int("nodes_failed", result.nodes_failed);
  json.Int("nodes_anomalous", result.nodes_anomalous);
  json.Int("headroom_low_total", static_cast<int64_t>(result.headroom_low_total));

  // The trace memory the largest node held and the fleet's record mix, one
  // key per event type.
  json.Key("trace");
  json.OpenObject();
  json.Int("storage_bytes_max", static_cast<int64_t>(result.trace_storage_bytes_max));
  json.Int("storage_bytes_worst_node", result.trace_storage_bytes_worst_node);
  json.Key("records_by_type");
  json.OpenObject();
  for (size_t t = 0; t < result.records_by_type.size(); ++t) {
    json.Int(TraceEventTypeToString(static_cast<TraceEventType>(t)),
             static_cast<int64_t>(result.records_by_type[t]));
  }
  json.CloseObject();
  json.CloseObject();
  json.Digest("fleet_digest", result.fleet_digest);

  {
    std::map<std::string, int64_t> schedulers;
    for (const NodeResult& node : result.nodes) {
      ++schedulers[node.scheduler];
    }
    json.Key("schedulers");
    json.OpenObject();
    for (const auto& [name, count] : schedulers) {
      json.Int(name.c_str(), count);
    }
    json.CloseObject();
  }
  for (const NodeResult& node : result.nodes) {
    if (!node.ok()) {
      json.String("first_failure", node.failure);
      break;
    }
  }

  // Host-side throughput and evaluation cost: honest but machine-dependent,
  // so never gated.
  json.Number("wall_seconds", result.wall_seconds);
  json.Number("events_per_wall_sec", result.events_per_wall_sec);
  json.Key("host_evaluate");
  json.OpenObject();
  json.Int("cpu_ns_total", result.host_evaluate_ns_total);
  json.Int("cpu_ns_max", result.host_evaluate_ns_max);
  json.Int("slowest_node", result.host_evaluate_slowest_node);
  json.CloseObject();

  // Fleet telemetry plane: exact-bucket percentile tables over the merged
  // per-node histograms (schema "emeralds.fleet.telemetry/1").
  json.Key("telemetry");
  obs::AppendFleetTelemetrySection(json, result.telemetry);

  // Streaming plane: the fleet-merged window series (every node's same-index
  // windows merged via the lossless histogram Merge) and the canonical alert
  // event stream with exact virtual timestamps.
  obs::AppendTimeseriesSection(json, result.windows, kTimeseriesWindow,
                               result.timeseries_lost_samples);
  obs::AppendAlertsSection(json, result.alerts, kAlertConfig);

  // Deadline-miss postmortem: the fleet-merged blame tables. Thread and
  // semaphore ids are node-local roles (every node runs the same topology),
  // so the merge reads as "which role / which lock hurts fleet-wide".
  json.Key("postmortem");
  json.OpenObject();
  json.Digest("blame_digest", result.blame_digest);
  json.Int("incomplete_misses", static_cast<int64_t>(result.postmortem_incomplete_total));
  json.Key("blame");
  obs::AppendBlameTotals(json, result.blame);
  json.CloseObject();

  json.Key("triage");
  AppendFleetTriageSection(json, ComputeFleetTriage(result));

  if (!result.blackbox_nodes.empty()) {
    json.Key("blackboxes");
    json.OpenArray();
    for (int node : result.blackbox_nodes) {
      json.OpenObject();
      json.Int("node", node);
      char dir[64];
      std::snprintf(dir, sizeof(dir), "node-%d", node);
      json.String("dir", dir);
      json.CloseObject();
    }
    json.CloseArray();
    if (!result.artifacts_dir.empty()) {
      json.String("artifacts_dir", result.artifacts_dir);
    }
  }

  json.CloseObject();
  return json.str();
}

bool WriteFleetRunReportFile(const std::string& path, const FleetRunInfo& info,
                             const FleetResult& result) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::string report = BuildFleetRunReport(info, result);
  std::fwrite(report.data(), 1, report.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  return true;
}

}  // namespace fleet
}  // namespace emeralds
