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
  json.Int("trace_capacity", static_cast<int64_t>(info.trace_capacity));

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

  // Silent ring truncation, surfaced: a node that quietly wrapped its trace
  // ring has degraded oracle coverage, so the fleet owns up to it here.
  json.Key("trace");
  json.OpenObject();
  json.Int("dropped_total", static_cast<int64_t>(result.trace_dropped_total));
  json.Int("worst_node", result.trace_dropped_worst_node);
  json.Int("worst_node_dropped", static_cast<int64_t>(result.trace_dropped_worst));
  json.CloseObject();
  {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(result.fleet_digest));
    json.String("fleet_digest", digest);
  }
  json.Int("arena_high_water_bytes", static_cast<int64_t>(result.arena_high_water));

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

  // Host-side throughput: honest but machine-dependent, so never gated.
  json.Number("wall_seconds", result.wall_seconds);
  json.Number("events_per_wall_sec", result.events_per_wall_sec);

  if (info.telemetry_on_events_per_wall_sec > 0 &&
      info.telemetry_off_events_per_wall_sec > 0) {
    json.Key("telemetry_overhead");
    json.OpenObject();
    json.Number("on_events_per_wall_sec", info.telemetry_on_events_per_wall_sec);
    json.Number("off_events_per_wall_sec", info.telemetry_off_events_per_wall_sec);
    json.Number("ratio", info.telemetry_on_events_per_wall_sec /
                             info.telemetry_off_events_per_wall_sec);
    json.CloseObject();
  }

  if (info.streaming_on_events_per_wall_sec > 0 &&
      info.streaming_off_events_per_wall_sec > 0) {
    json.Key("streaming_overhead");
    json.OpenObject();
    json.Number("on_events_per_wall_sec", info.streaming_on_events_per_wall_sec);
    json.Number("off_events_per_wall_sec", info.streaming_off_events_per_wall_sec);
    json.Number("ratio", info.streaming_on_events_per_wall_sec /
                             info.streaming_off_events_per_wall_sec);
    json.CloseObject();
  }

  // Fleet telemetry plane: exact-bucket percentile tables over the merged
  // per-node histograms (schema "emeralds.fleet.telemetry/1").
  if (result.telemetry.nodes_collected > 0) {
    json.Key("telemetry");
    obs::AppendFleetTelemetrySection(json, result.telemetry);
  }

  // Streaming plane: the fleet-merged window series (every node's same-index
  // windows merged via the lossless histogram Merge) and the canonical alert
  // event stream with exact virtual timestamps.
  if (!result.windows.empty()) {
    obs::AppendTimeseriesSection(json, result.windows, result.timeseries_options.window,
                                 result.timeseries_lost_samples,
                                 result.timeseries_windows_dropped);
    obs::AppendAlertsSection(json, result.alerts, result.alert_config);
  }

  // Deadline-miss postmortem: the fleet-merged blame tables. Thread and
  // semaphore ids are node-local roles (every node runs the same topology),
  // so the merge reads as "which role / which lock hurts fleet-wide".
  json.Key("postmortem");
  json.OpenObject();
  {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(result.blame_digest));
    json.String("blame_digest", digest);
  }
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
