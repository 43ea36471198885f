// fleet_inspect: drill into a fleet run from its JSON report.
//
//   fleet_inspect <fleet_report.json>
//       Renders the fleet's headline numbers, merged telemetry percentiles,
//       and the anomaly-triage tables (worst nodes per metric, median/MAD
//       outlier flags) from the report alone — no simulation.
//
//   fleet_inspect <fleet_report.json> --node=N [--dir=D] [--perfetto=out.json]
//       Deterministically re-runs node N of the fleet the report describes
//       (a node is a pure function of the fleet seed and its index, so the
//       replay is bit-identical), prints its oracle verdict and telemetry,
//       and optionally writes its black-box bundle (--dir) and a Perfetto
//       timeline with node-scoped track names (--perfetto).
//
//   fleet_inspect <fleet_report.json> --merge=N1,N2,... --perfetto=out.json
//       Re-runs each listed node and merges their trace windows into one
//       multi-process Perfetto document (one pid per node).
//
//   fleet_inspect <fleet_report.json> --timeseries=N
//       Re-runs node N and dumps its streaming telemetry series: one line
//       per window (counters, cycle shares, response percentiles), then the
//       node's alert stream with exact virtual fire/resolve timestamps.
//
//   fleet_inspect <fleet_report.json> --postmortem=N
//       Re-runs node N and renders its deadline-miss postmortem: every
//       analyzed miss's exactly-telescoping lateness ledger plus the node's
//       blame totals (per preemptor, per lock).
//
//   fleet_inspect <fleet_report.json> --openmetrics=OUT.txt
//       Re-runs the fleet the report describes and writes the OpenMetrics
//       text exposition (validated before writing; "-" means stdout).
//
// The fleet configuration comes from the report; every field can be
// overridden by flags (--instances, --seed, --run-ms, --slice-ms,
// --overload-node, --overload-factor), and with a full
// flag set the report path may be omitted entirely — that is the form
// NodeReproCommand() emits into black-box repro.txt files.
//
// Exit status: 0 clean; 1 usage / I/O / parse failure; 2 an inspected node
// failed an oracle (table mode: the report records failed nodes).

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/base/parse.h"
#include "src/core/kernel.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_report.h"
#include "src/fleet/openmetrics.h"
#include "src/fleet/triage.h"
#include "src/obs/alerts.h"
#include "src/obs/blackbox.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/postmortem.h"
#include "src/obs/timeseries.h"

namespace emeralds {
namespace fleet {
namespace {

// Table mode's reader: every integer member goes through JsonNumberToInt.
// An absent member gives its fallback; a bad one is reported, gives its
// fallback too, and makes PrintReport exit 1.
struct ReportReader {
  const char* path;
  bool ok = true;

  int64_t Int(const JsonValue* v, const char* key, int64_t fallback) {
    int64_t value = fallback;
    if (v != nullptr && !JsonNumberToInt(*v, &value)) {
      std::fprintf(stderr, "fleet_inspect: %s: bad %s (want integer)\n", path, key);
      ok = false;
    }
    return value;
  }
  int64_t Int(const JsonValue& object, const char* key, int64_t fallback) {
    return Int(object.Find(key), key, fallback);
  }
};

double RootNumber(const JsonValue& root, const char* key, double fallback) {
  const JsonValue* v = root.Find(key);
  return v != nullptr && v->type == JsonValue::Type::kNumber ? v->number : fallback;
}

std::string RootString(const JsonValue& root, const char* key) {
  const JsonValue* v = root.Find(key);
  return v != nullptr && v->type == JsonValue::Type::kString ? v->string : std::string();
}

void PrintPercentiles(ReportReader& in, const char* title, const JsonValue& hist) {
  std::printf("  %-14s n=%-8lld p50<=%.0fus  p90<=%.0fus  p99<=%.0fus  max=%.0fus\n", title,
              static_cast<long long>(in.Int(hist, "count", 0)),
              RootNumber(hist, "p50_us", 0), RootNumber(hist, "p90_us", 0),
              RootNumber(hist, "p99_us", 0), RootNumber(hist, "max_us", 0));
}

// Table mode: everything comes from the report document.
int PrintReport(const JsonValue& root, const char* path) {
  ReportReader in{path};
  std::printf("%s: %s fleet, %lld nodes, seed %lld\n", path, RootString(root, "label").c_str(),
              static_cast<long long>(in.Int(root, "instances", 0)),
              static_cast<long long>(in.Int(root, "seed", 0)));
  std::printf("  events=%lld (%.0f/virtual-sec)  jobs=%lld  misses=%lld  chain overruns=%lld\n",
              static_cast<long long>(in.Int(root, "events_total", 0)),
              RootNumber(root, "events_per_virtual_sec", 0),
              static_cast<long long>(in.Int(root, "jobs_completed", 0)),
              static_cast<long long>(in.Int(root, "deadline_misses", 0)),
              static_cast<long long>(in.Int(root, "chain_overruns", 0)));
  std::printf("  nodes failed=%lld anomalous=%lld  digest=%s\n",
              static_cast<long long>(in.Int(root, "nodes_failed", 0)),
              static_cast<long long>(in.Int(root, "nodes_anomalous", 0)),
              RootString(root, "fleet_digest").c_str());
  // Reports written before the storage fields existed omit them.
  const JsonValue* trace = root.Find("trace");
  if (trace != nullptr && trace->Find("storage_bytes_max") != nullptr) {
    std::printf("  trace storage max=%lld B (node %lld)\n",
                static_cast<long long>(in.Int(*trace, "storage_bytes_max", 0)),
                static_cast<long long>(in.Int(*trace, "storage_bytes_worst_node", -1)));
  }

  // Reports written before evaluation cost was measured omit it.
  if (const JsonValue* evaluate = root.Find("host_evaluate")) {
    std::printf("  host evaluate cpu total=%.1f ms max=%.2f ms (node %lld)\n",
                RootNumber(*evaluate, "cpu_ns_total", 0) / 1e6,
                RootNumber(*evaluate, "cpu_ns_max", 0) / 1e6,
                static_cast<long long>(in.Int(*evaluate, "slowest_node", -1)));
  }

  if (const JsonValue* telemetry = root.Find("telemetry")) {
    std::printf("telemetry (%s, %lld nodes):\n", RootString(*telemetry, "schema").c_str(),
                static_cast<long long>(in.Int(root, "instances", 0)));
    std::printf("  snapshot drops=%lld\n",
                static_cast<long long>(in.Int(*telemetry, "stats_snapshot_drops", 0)));
    if (const JsonValue* cycles = telemetry->Find("core_cycles_us")) {
      std::printf("  core cycles:");
      int core = 0;
      for (const JsonValue& c : cycles->array) {
        std::printf(" c%d=%.0fus", core++, c.number);
      }
      std::printf("\n");
    }
    if (const JsonValue* response = telemetry->Find("response")) {
      PrintPercentiles(in, "response", *response);
    }
    if (const JsonValue* chains = telemetry->Find("chains")) {
      for (const JsonValue& c : chains->array) {
        if (const JsonValue* e2e = c.Find("e2e")) {
          std::string name = "chain " + RootString(c, "name");
          PrintPercentiles(in, name.c_str(), *e2e);
        }
      }
    }
  }

  if (const JsonValue* postmortem = root.Find("postmortem")) {
    if (const JsonValue* blame = postmortem->Find("blame")) {
      std::printf("postmortem: %lld miss(es) analyzed, %.0fus blamed tardiness, "
                  "%lld unattributed ns, digest=%s\n",
                  static_cast<long long>(in.Int(*blame, "misses_analyzed", 0)),
                  static_cast<double>(in.Int(*blame, "tardiness_ns", 0)) / 1e3,
                  static_cast<long long>(in.Int(*blame, "unattributed_ns", 0)),
                  RootString(*postmortem, "blame_digest").c_str());
    }
  }

  if (const JsonValue* triage = root.Find("triage")) {
    std::printf("triage:\n");
    if (const JsonValue* metrics = triage->Find("metrics")) {
      for (const JsonValue& m : metrics->array) {
        const JsonValue* top = m.Find("top");
        if (top == nullptr || top->array.empty()) {
          continue;
        }
        std::printf("  %-20s median=%lld mad=%lld outliers=%lld | worst:",
                    RootString(m, "name").c_str(),
                    static_cast<long long>(in.Int(m, "median", 0)),
                    static_cast<long long>(in.Int(m, "mad", 0)),
                    static_cast<long long>(in.Int(m, "outliers", 0)));
        for (const JsonValue& e : top->array) {
          std::printf(" n%lld=%lld%s", static_cast<long long>(in.Int(e, "node", -1)),
                      static_cast<long long>(in.Int(e, "value", 0)),
                      e.Find("outlier") != nullptr && e.Find("outlier")->boolean ? "*" : "");
        }
        std::printf("\n");
      }
    }
    if (const JsonValue* blame = triage->Find("top_blame")) {
      int64_t preemptor = in.Int(*blame, "preemptor", -1);
      int64_t lock = in.Int(*blame, "lock", -1);
      if (preemptor >= 0 || lock >= 0) {
        std::printf("  top blame:");
        if (preemptor >= 0) {
          std::printf(" preemptor t%lld (%.0fus)", static_cast<long long>(preemptor),
                      static_cast<double>(in.Int(*blame, "preemptor_ns", 0)) / 1e3);
        }
        if (lock >= 0) {
          std::printf(" lock S%lld (%.0fus)", static_cast<long long>(lock),
                      static_cast<double>(in.Int(*blame, "lock_ns", 0)) / 1e3);
        }
        std::printf("\n");
      }
    }
    if (const JsonValue* outliers = triage->Find("outlier_nodes")) {
      if (!outliers->array.empty()) {
        std::printf("  outlier nodes:");
        for (const JsonValue& n : outliers->array) {
          std::printf(" %lld", static_cast<long long>(in.Int(&n, "outlier_nodes", -1)));
        }
        std::printf("\n");
      }
    }
  }

  if (const JsonValue* alerts = root.Find("alerts")) {
    std::printf("alerts: %lld events, %lld fired\n",
                static_cast<long long>(in.Int(*alerts, "events", 0)),
                static_cast<long long>(in.Int(*alerts, "fired", 0)));
    if (const JsonValue* stream = alerts->Find("stream")) {
      for (const JsonValue& e : stream->array) {
        std::printf("  %8lldus node %-3lld %-20s %s value=%lld/%lld\n",
                    static_cast<long long>(in.Int(e, "time_us", 0)),
                    static_cast<long long>(in.Int(e, "node", -1)),
                    RootString(e, "rule").c_str(), RootString(e, "state").c_str(),
                    static_cast<long long>(in.Int(e, "value", 0)),
                    static_cast<long long>(in.Int(e, "total", 0)));
      }
    }
  }

  if (const JsonValue* boxes = root.Find("blackboxes")) {
    std::printf("black boxes (%s):", RootString(root, "artifacts_dir").c_str());
    for (const JsonValue& b : boxes->array) {
      std::printf(" %s", RootString(b, "dir").c_str());
    }
    std::printf("\n");
  }
  const bool failed = in.Int(root, "nodes_failed", 0) > 0;
  return !in.ok ? 1 : failed ? 2 : 0;
}

void PrintNodeResult(int index, const NodeResult& r) {
  std::printf("node %d: %s, %" PRIu64 " events, %" PRIu64 " jobs, %" PRIu64
              " misses, %" PRIu64 " chain overruns, %" PRIu64 " headroom-low\n",
              index, r.scheduler.c_str(), r.events, r.jobs_completed, r.deadline_misses,
              r.chain_overruns, r.headroom_low_events);
  std::printf("  digest=0x%016llx\n", static_cast<unsigned long long>(r.trace_digest));
  if (r.telemetry.response.count() > 0) {
    std::printf("  response: n=%" PRIu64 " p50<=%.0fus p99<=%.0fus max=%.0fus\n",
                r.telemetry.response.count(),
                r.telemetry.response.PercentileBound(0.5).micros_f(),
                r.telemetry.response.PercentileBound(0.99).micros_f(),
                r.telemetry.response.max().micros_f());
  }
  for (const obs::AlertEvent& e : r.alerts) {
    std::printf("  alert %8lldus %-20s %s value=%" PRIu64 "/%" PRIu64 "\n",
                static_cast<long long>(e.time.micros()), obs::AlertRuleName(e.rule),
                e.firing ? "FIRING" : "resolved", e.value, e.total);
  }
  if (r.anomalous()) {
    std::printf("  ANOMALY (score %" PRIu64 "): %s\n", r.anomaly_score, r.anomaly.c_str());
  } else {
    std::printf("  oracles: ok\n");
  }
}

constexpr const char* kUsage =
    "usage: fleet_inspect [report.json] [--node=N | --merge=N1,N2,... |\n"
    "                      --timeseries=N | --postmortem=N | --openmetrics=OUT.txt]\n"
    "                     [--dir=DIR] [--perfetto=OUT.json]\n"
    "                     [--instances=N] [--seed=S] [--run-ms=M] [--slice-ms=K]\n"
    "                     [--overload-node=I] [--overload-factor=F]\n";

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

// One flag value as an int, or a printed error + usage. Returns false on
// failure with *status set to 1.
bool FlagInt(const char* flag, const char* value, int64_t min, int64_t max, int64_t* out,
             int* status) {
  if (ParseInt(value, min, max, out)) {
    return true;
  }
  std::fprintf(stderr, "fleet_inspect: bad value '%s' for %s (want integer in [%lld, %lld])\n%s",
               value, flag, static_cast<long long>(min), static_cast<long long>(max), kUsage);
  *status = 1;
  return false;
}

// The longest --run-ms or --slice-ms whose nanoseconds fit a Duration.
constexpr int64_t kMaxMs = INT64_MAX / 1000000;

// A fleet configuration member of the report, held to its flag's bounds.
// Leaves *out alone when the report lacks the member; prints an error and
// returns false when it is not an integer in [min, max].
bool ReportInt(const JsonValue& root, const char* path, const char* key, int64_t min,
               int64_t max, int64_t* out) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr) {
    return true;
  }
  int64_t value = 0;
  if (JsonNumberToInt(*v, &value) && value >= min && value <= max) {
    *out = value;
    return true;
  }
  std::fprintf(stderr, "fleet_inspect: %s: bad %s (want integer in [%lld, %lld])\n", path, key,
               static_cast<long long>(min), static_cast<long long>(max));
  return false;
}

// Comma-separated node list: every element a strict integer, no duplicates,
// no empty elements. Range against --instances is checked later (the
// instance count may still come from the report at parse time).
bool ParseNodeList(const char* list, std::vector<int>* out) {
  out->clear();
  std::string text = list == nullptr ? "" : list;
  if (text.empty()) {
    std::fprintf(stderr, "fleet_inspect: --merge needs at least one node\n%s", kUsage);
    return false;
  }
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    std::string item = text.substr(pos, comma == std::string::npos ? std::string::npos
                                                                   : comma - pos);
    int64_t value = 0;
    if (!ParseInt(item.c_str(), 0, INT_MAX, &value)) {
      std::fprintf(stderr, "fleet_inspect: bad node '%s' in --merge list\n%s", item.c_str(),
                   kUsage);
      return false;
    }
    for (int existing : *out) {
      if (existing == value) {
        std::fprintf(stderr, "fleet_inspect: node %lld listed twice in --merge\n%s",
                     static_cast<long long>(value), kUsage);
        return false;
      }
    }
    out->push_back(static_cast<int>(value));
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return true;
}

// One line per telemetry window: enough to eyeball a burn without a UI.
void PrintWindowSeries(int index, const NodeResult& r, Duration window_width) {
  std::printf("timeseries node %d: %zu windows of %lldus (lost samples=%" PRIu64 ")\n", index,
              r.windows.size(), static_cast<long long>(window_width.micros()),
              r.timeseries_lost_samples);
  for (const obs::TelemetryWindow& w : r.windows) {
    std::printf("  w%-4lld [%7lld..%7lldus]%s jobs=%" PRIu64 "/%" PRIu64 " miss=%" PRIu64
                " ctx=%" PRIu64 " irq=%" PRIu64 " chain=%" PRIu64 "/%" PRIu64,
                static_cast<long long>(w.index), static_cast<long long>(w.start.micros()),
                static_cast<long long>(w.end.micros()), w.gap ? " GAP" : "",
                w.jobs_completed, w.jobs_released, w.deadline_misses, w.context_switches,
                w.interrupts, w.chain_e2e_overruns, w.chain_e2e_completed);
    if (w.response.count() > 0) {
      std::printf(" resp{n=%" PRIu64 " p50<=%lldus max=%lldus}", w.response.count(),
                  static_cast<long long>(w.response.PercentileBound(0.5).micros()),
                  static_cast<long long>(w.response.max().micros()));
    }
    std::printf("\n");
  }
  if (r.alerts.empty()) {
    std::printf("  alerts: none\n");
    return;
  }
  std::printf("  alerts (%zu events):\n", r.alerts.size());
  for (const obs::AlertEvent& e : r.alerts) {
    std::printf("    %8lldus w%-4lld %-20s %s value=%" PRIu64 "/%" PRIu64 "\n",
                static_cast<long long>(e.time.micros()), static_cast<long long>(e.window),
                obs::AlertRuleName(e.rule), e.firing ? "FIRING" : "resolved", e.value, e.total);
  }
}

int Main(int argc, char** argv) {
  const char* report_path = nullptr;
  const char* dir = nullptr;
  const char* perfetto_path = nullptr;
  const char* openmetrics_path = nullptr;
  std::vector<int> merge_targets;
  bool have_merge = false;
  int node = -1;
  int timeseries_node = -1;
  int postmortem_node = -1;
  FleetOptions opt;
  opt.instances = 0;  // must come from the report or --instances
  opt.workers = 1;
  bool have_config = false;
  int status = 0;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    int64_t value = 0;
    if (FlagValue(argv[i], "--node", &v)) {
      if (!FlagInt("--node", v, 0, INT_MAX, &value, &status)) {
        return status;
      }
      node = static_cast<int>(value);
    } else if (FlagValue(argv[i], "--timeseries", &v)) {
      if (!FlagInt("--timeseries", v, 0, INT_MAX, &value, &status)) {
        return status;
      }
      timeseries_node = static_cast<int>(value);
    } else if (FlagValue(argv[i], "--postmortem", &v)) {
      if (!FlagInt("--postmortem", v, 0, INT_MAX, &value, &status)) {
        return status;
      }
      postmortem_node = static_cast<int>(value);
    } else if (FlagValue(argv[i], "--merge", &v)) {
      if (!ParseNodeList(v, &merge_targets)) {
        return 1;
      }
      have_merge = true;
    } else if (FlagValue(argv[i], "--dir", &v)) {
      dir = v;
    } else if (FlagValue(argv[i], "--perfetto", &v)) {
      perfetto_path = v;
    } else if (FlagValue(argv[i], "--openmetrics", &v)) {
      openmetrics_path = v;
    } else if (FlagValue(argv[i], "--instances", &v)) {
      if (!FlagInt("--instances", v, 1, INT_MAX, &value, &status)) {
        return status;
      }
      opt.instances = static_cast<int>(value);
      have_config = true;
    } else if (FlagValue(argv[i], "--seed", &v)) {
      if (!FlagInt("--seed", v, 0, INT64_MAX, &value, &status)) {
        return status;
      }
      opt.seed = static_cast<uint64_t>(value);
    } else if (FlagValue(argv[i], "--run-ms", &v)) {
      if (!FlagInt("--run-ms", v, 1, kMaxMs, &value, &status)) {
        return status;
      }
      opt.run_duration = Milliseconds(value);
    } else if (FlagValue(argv[i], "--slice-ms", &v)) {
      if (!FlagInt("--slice-ms", v, 1, kMaxMs, &value, &status)) {
        return status;
      }
      opt.slice = Milliseconds(value);
    } else if (FlagValue(argv[i], "--overload-node", &v)) {
      if (!FlagInt("--overload-node", v, -1, INT_MAX, &value, &status)) {
        return status;
      }
      opt.overload_node = static_cast<int>(value);
    } else if (FlagValue(argv[i], "--overload-factor", &v)) {
      if (!FlagInt("--overload-factor", v, 1, INT_MAX, &value, &status)) {
        return status;
      }
      opt.overload_factor = static_cast<int>(value);
    } else if (report_path == nullptr && argv[i][0] != '-') {
      report_path = argv[i];
    } else {
      std::fprintf(stderr, "fleet_inspect: unknown argument '%s'\n%s", argv[i], kUsage);
      return 1;
    }
  }
  if (have_merge && merge_targets.empty()) {
    std::fprintf(stderr, "fleet_inspect: --merge needs at least one node\n%s", kUsage);
    return 1;
  }

  JsonValue root;
  bool have_report = false;
  if (report_path != nullptr) {
    std::string text;
    if (!ReadFile(report_path, &text)) {
      std::fprintf(stderr, "fleet_inspect: cannot open %s\n", report_path);
      return 1;
    }
    std::string error;
    if (!JsonParse(text, &root, &error)) {
      std::fprintf(stderr, "fleet_inspect: %s: %s\n", report_path, error.c_str());
      return 1;
    }
    if (RootString(root, "schema") != kFleetRunSchema) {
      std::fprintf(stderr, "fleet_inspect: %s is not an %s report\n", report_path,
                   kFleetRunSchema);
      return 1;
    }
    have_report = true;
    // Report config first, flags override (flags were already applied above,
    // so only fill fields the flags left untouched). A member the report
    // carries must meet its flag's bounds.
    int64_t value = 0;
    if (opt.instances == 0) {
      if (!ReportInt(root, report_path, "instances", 1, INT_MAX, &value)) {
        return 1;
      }
      opt.instances = static_cast<int>(value);
    }
    if (opt.seed == 1) {
      value = 1;
      if (!ReportInt(root, report_path, "seed", 0, INT64_MAX, &value)) {
        return 1;
      }
      opt.seed = static_cast<uint64_t>(value);
    }
    if (opt.run_duration == Milliseconds(100)) {
      value = 100;
      if (!ReportInt(root, report_path, "run_duration_ms", 1, kMaxMs, &value)) {
        return 1;
      }
      opt.run_duration = Milliseconds(value);
    }
    if (opt.slice == Milliseconds(5)) {
      value = 5;
      if (!ReportInt(root, report_path, "slice_ms", 1, kMaxMs, &value)) {
        return 1;
      }
      opt.slice = Milliseconds(value);
    }
    have_config = true;
  }

  if (!have_config || opt.instances <= 0) {
    std::fprintf(stderr, "fleet_inspect: need a report or --instances\n%s", kUsage);
    return 1;
  }

  // Full-fleet re-run for the OpenMetrics scrape view.
  if (openmetrics_path != nullptr) {
    FleetResult result = RunFleet(opt);
    std::string exposition = BuildOpenMetricsExposition(result);
    std::string error;
    int families = 0;
    if (!ValidateOpenMetrics(exposition, &error, &families)) {
      std::fprintf(stderr, "fleet_inspect: generated exposition failed validation: %s\n",
                   error.c_str());
      return 1;
    }
    if (std::strcmp(openmetrics_path, "-") == 0) {
      std::fwrite(exposition.data(), 1, exposition.size(), stdout);
    } else {
      std::FILE* f = std::fopen(openmetrics_path, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "fleet_inspect: cannot open %s\n", openmetrics_path);
        return 1;
      }
      std::fwrite(exposition.data(), 1, exposition.size(), f);
      std::fclose(f);
      std::printf("openmetrics: wrote %d families (%zu bytes) to %s\n", families,
                  exposition.size(), openmetrics_path);
    }
    return result.nodes_failed > 0 ? 2 : 0;
  }

  // Per-node streaming series dump.
  if (timeseries_node >= 0) {
    if (timeseries_node >= opt.instances) {
      std::fprintf(stderr, "fleet_inspect: node %d out of range [0, %d)\n", timeseries_node,
                   opt.instances);
      return 1;
    }
    NodeResult result = InspectNode(opt, timeseries_node, nullptr);
    PrintWindowSeries(timeseries_node, result, kTimeseriesWindow);
    return result.ok() ? 0 : 2;
  }

  // Per-node lateness attribution: replay the node and render every miss's
  // blame ledger (exit 2 when any oracle — conservation included — failed).
  if (postmortem_node >= 0) {
    if (postmortem_node >= opt.instances) {
      std::fprintf(stderr, "fleet_inspect: node %d out of range [0, %d)\n", postmortem_node,
                   opt.instances);
      return 1;
    }
    NodeResult result =
        InspectNode(opt, postmortem_node, [&](const Kernel& kernel, const NodeResult&) {
          obs::PostmortemAnalysis pm = obs::AnalyzePostmortem(kernel.trace());
          obs::ChainAnalysis chains =
              obs::AnalyzeChains(kernel.trace(), kernel.resolved_chains());
          std::printf("node %d ", postmortem_node);
          obs::PrintPostmortem(stdout, pm, &chains);
        });
    return result.ok() ? 0 : 2;
  }

  // Pure table mode.
  if (node < 0 && !have_merge) {
    if (!have_report) {
      std::fprintf(stderr, "fleet_inspect: table mode needs a report\n%s", kUsage);
      return 1;
    }
    return PrintReport(root, report_path);
  }

  // Drill-down: deterministic serial replay of the requested node(s).
  std::vector<int> targets;
  if (node >= 0) {
    targets.push_back(node);
  } else {
    targets = merge_targets;
  }
  for (int t : targets) {
    if (t < 0 || t >= opt.instances) {
      std::fprintf(stderr, "fleet_inspect: node %d out of range [0, %d)\n", t, opt.instances);
      return 1;
    }
  }
  std::vector<std::vector<TraceEvent>> events(targets.size());
  std::vector<obs::PerfettoWindow> windows(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    int index = targets[i];
    NodeResult result = InspectNode(opt, index, [&](const Kernel& kernel, const NodeResult& r) {
      obs::BlackBoxSnapshot box = obs::CaptureBlackBox(
          kernel, "node-" + std::to_string(index),
          r.anomalous() ? r.anomaly : std::string("manual inspection"),
          NodeReproCommand(opt, index));
      events[i] = box.window;
      windows[i] = {events[i].data(), events[i].size(), NodePerfettoOptions(kernel, r, index)};
      if (dir != nullptr) {
        std::string bundle_dir = std::string(dir) + "/node-" + std::to_string(index);
        if (obs::WriteBlackBoxBundle(box, bundle_dir)) {
          std::printf("black box: wrote %s/{repro.txt,trace.csv,blackbox.json}\n",
                      bundle_dir.c_str());
        } else {
          std::fprintf(stderr, "fleet_inspect: cannot write bundle under %s\n",
                       bundle_dir.c_str());
          status = 1;
        }
      }
    });
    PrintNodeResult(index, result);
    if (!result.ok() && status == 0) {
      status = 2;
    }
  }

  if (perfetto_path != nullptr) {
    std::FILE* pf = std::fopen(perfetto_path, "w");
    if (pf == nullptr) {
      std::fprintf(stderr, "fleet_inspect: cannot open %s\n", perfetto_path);
      return 1;
    }
    size_t entries = obs::ExportPerfettoJsonMulti(windows, pf);
    std::fclose(pf);
    std::printf("perfetto: wrote %zu entries (%zu node%s) to %s\n", entries, targets.size(),
                targets.size() == 1 ? "" : "s", perfetto_path);
  }
  return status;
}

}  // namespace
}  // namespace fleet
}  // namespace emeralds

int main(int argc, char** argv) { return emeralds::fleet::Main(argc, argv); }
