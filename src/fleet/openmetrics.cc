#include "src/fleet/openmetrics.h"

#include <cctype>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "src/obs/alerts.h"
#include "src/obs/timeseries.h"

namespace emeralds {
namespace fleet {
namespace {

void Line(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
  *out += '\n';
}

void Counter(std::string* out, const char* name, const char* help, uint64_t value) {
  Line(out, "# TYPE %s counter", name);
  Line(out, "# HELP %s %s", name, help);
  Line(out, "%s_total %" PRIu64, name, value);
}

void Gauge(std::string* out, const char* name, const char* help, double value) {
  Line(out, "# TYPE %s gauge", name);
  Line(out, "# HELP %s %s", name, help);
  Line(out, "%s %.6g", name, value);
}

// Log2Histogram as an OpenMetrics histogram family: cumulative le buckets at
// the power-of-two upper edges (microseconds), +Inf, _sum, _count.
void Histogram(std::string* out, const char* name, const char* help,
               const Log2Histogram& h) {
  Line(out, "# TYPE %s histogram", name);
  Line(out, "# HELP %s %s", name, help);
  uint64_t cumulative = 0;
  int highest = h.HighestBucket();
  for (int i = 0; i < Log2Histogram::kNumBuckets - 1 && i <= highest; ++i) {
    cumulative += h.bucket(i);
    Line(out, "%s_bucket{le=\"%lld\"} %" PRIu64, name,
         static_cast<long long>(int64_t{1} << (i + 1)), cumulative);
  }
  Line(out, "%s_bucket{le=\"+Inf\"} %" PRIu64, name, h.count());
  Line(out, "%s_sum %lld", name, static_cast<long long>(h.total().micros()));
  Line(out, "%s_count %" PRIu64, name, h.count());
}

bool IsNameChar(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
    return true;
  }
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

}  // namespace

std::string BuildOpenMetricsExposition(const FleetResult& result) {
  std::string out;

  Gauge(&out, "emeralds_nodes", "Simulated nodes in the fleet",
        static_cast<double>(result.instances));
  Gauge(&out, "emeralds_nodes_failed", "Nodes failing a per-node oracle",
        static_cast<double>(result.nodes_failed));
  Gauge(&out, "emeralds_nodes_anomalous", "Nodes flagged by triage or alerts",
        static_cast<double>(result.nodes_anomalous));

  Counter(&out, "emeralds_events", "Simulated kernel events (switches+syscalls+irqs+timers)",
          result.events_total);
  Counter(&out, "emeralds_jobs_completed", "Periodic jobs completed", result.jobs_completed);
  Counter(&out, "emeralds_deadline_misses", "Jobs completed past their deadline",
          result.deadline_misses);
  Counter(&out, "emeralds_timer_dispatches", "Software timer dispatches",
          result.timer_dispatches);
  Counter(&out, "emeralds_chain_completed", "Causal chain instances completed",
          result.chain_completed);
  Counter(&out, "emeralds_chain_overruns", "Chain instances past their SLO",
          result.chain_overruns);
  Counter(&out, "emeralds_headroom_low", "Jobs predicted to finish with low slack",
          result.headroom_low_total);
  Counter(&out, "emeralds_timeseries_lost_samples",
          "Snapshot-ring samples lost before the streaming drain",
          result.timeseries_lost_samples);

  // Per-node drill-down set (one family each, node label).
  Line(&out, "# TYPE emeralds_node_deadline_misses gauge");
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    Line(&out, "emeralds_node_deadline_misses{node=\"%zu\"} %" PRIu64, i,
         result.nodes[i].deadline_misses);
  }
  Line(&out, "# TYPE emeralds_node_chain_overruns gauge");
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    Line(&out, "emeralds_node_chain_overruns{node=\"%zu\"} %" PRIu64, i,
         result.nodes[i].chain_overruns);
  }
  Line(&out, "# TYPE emeralds_node_anomaly_score gauge");
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    Line(&out, "emeralds_node_anomaly_score{node=\"%zu\"} %" PRIu64, i,
         result.nodes[i].anomaly_score);
  }

  // Merged streaming histograms (whole-run: the window series telescopes).
  Log2Histogram response;
  Log2Histogram chain_e2e;
  for (const obs::TelemetryWindow& w : result.windows) {
    response.Merge(w.response);
    chain_e2e.Merge(w.chain_e2e);
  }
  Histogram(&out, "emeralds_response_us", "Job response time (microsecond le buckets)",
            response);
  Histogram(&out, "emeralds_chain_e2e_us", "Chain end-to-end latency (microsecond le buckets)",
            chain_e2e);

  // Alert state: events per rule over the run, and what is still firing.
  std::map<std::string, uint64_t> events_per_rule;
  std::map<std::pair<std::string, int>, bool> firing;  // last state wins (stream is ordered)
  for (const obs::AlertEvent& e : result.alerts) {
    ++events_per_rule[obs::AlertRuleName(e.rule)];
    firing[{obs::AlertRuleName(e.rule), e.node}] = e.firing;
  }
  Line(&out, "# TYPE emeralds_alert_events counter");
  for (const auto& [rule, count] : events_per_rule) {
    Line(&out, "emeralds_alert_events_total{rule=\"%s\"} %" PRIu64, rule.c_str(), count);
  }
  Line(&out, "# TYPE emeralds_alerts_firing gauge");
  for (const auto& [key, is_firing] : firing) {
    Line(&out, "emeralds_alerts_firing{rule=\"%s\",node=\"%d\"} %d", key.first.c_str(),
         key.second, is_firing ? 1 : 0);
  }

  out += "# EOF\n";
  return out;
}

bool ValidateOpenMetrics(const std::string& text, std::string* error, int* families) {
  auto fail = [&](const std::string& why, size_t line_no) {
    if (error != nullptr) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " (line %zu)", line_no);
      *error = why + buf;
    }
    return false;
  };

  std::set<std::string> declared;
  // histogram family -> (has +Inf bucket value, count value, have both)
  struct HistState {
    bool have_inf = false;
    bool have_count = false;
    double inf = 0.0;
    double count = 0.0;
  };
  std::map<std::string, HistState> histograms;
  bool saw_eof = false;

  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    std::string line = text.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (saw_eof) {
      return fail("content after # EOF", line_no);
    }
    if (line[0] == '#') {
      if (line == "# EOF") {
        saw_eof = true;
        continue;
      }
      // "# TYPE <name> <type>" / "# HELP <name> ..." / "# UNIT <name> ..."
      size_t sp1 = line.find(' ', 2);
      std::string keyword = line.substr(2, sp1 == std::string::npos ? std::string::npos : sp1 - 2);
      if (keyword == "TYPE") {
        size_t sp2 = line.find(' ', sp1 + 1);
        if (sp2 == std::string::npos) {
          return fail("malformed TYPE line", line_no);
        }
        std::string name = line.substr(sp1 + 1, sp2 - sp1 - 1);
        std::string type = line.substr(sp2 + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "unknown" && type != "info" && type != "stateset") {
          return fail("unknown metric type '" + type + "'", line_no);
        }
        if (!declared.insert(name).second) {
          return fail("family '" + name + "' declared twice", line_no);
        }
        if (type == "histogram") {
          histograms[name];
        }
        continue;
      }
      if (keyword == "HELP" || keyword == "UNIT") {
        continue;
      }
      return fail("unknown comment keyword", line_no);
    }

    // Sample line: name[{labels}] value [timestamp]
    size_t i = 0;
    if (!IsNameChar(line[0], true)) {
      return fail("sample does not start with a metric name", line_no);
    }
    while (i < line.size() && IsNameChar(line[i], false)) {
      ++i;
    }
    std::string name = line.substr(0, i);
    std::string le_label;
    if (i < line.size() && line[i] == '{') {
      size_t close = line.find('}', i);
      if (close == std::string::npos) {
        return fail("unterminated label set", line_no);
      }
      std::string labels = line.substr(i + 1, close - i - 1);
      // key="value"(,key="value")*
      size_t lp = 0;
      while (lp < labels.size()) {
        size_t eq = labels.find('=', lp);
        if (eq == std::string::npos || eq + 1 >= labels.size() || labels[eq + 1] != '"') {
          return fail("malformed label in '" + name + "'", line_no);
        }
        std::string key = labels.substr(lp, eq - lp);
        size_t endq = labels.find('"', eq + 2);
        if (endq == std::string::npos) {
          return fail("unterminated label value", line_no);
        }
        if (key == "le") {
          le_label = labels.substr(eq + 2, endq - eq - 2);
        }
        lp = endq + 1;
        if (lp < labels.size()) {
          if (labels[lp] != ',') {
            return fail("expected ',' between labels", line_no);
          }
          ++lp;
        }
      }
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      return fail("missing value after metric name", line_no);
    }
    const char* value_str = line.c_str() + i + 1;
    char* end = nullptr;
    double value = std::strtod(value_str, &end);
    if (end == value_str) {
      return fail("unparsable sample value", line_no);
    }

    // Resolve the family: strip a known suffix, else the name itself.
    std::string family = name;
    const char* suffixes[] = {"_total", "_bucket", "_sum", "_count", "_created"};
    for (const char* suffix : suffixes) {
      size_t n = std::string(suffix).size();
      if (name.size() > n && name.compare(name.size() - n, n, suffix) == 0 &&
          declared.count(name.substr(0, name.size() - n)) > 0) {
        family = name.substr(0, name.size() - n);
        break;
      }
    }
    if (declared.count(family) == 0) {
      return fail("sample '" + name + "' has no TYPE declaration", line_no);
    }
    auto hist = histograms.find(family);
    if (hist != histograms.end()) {
      if (name == family + "_bucket" && le_label == "+Inf") {
        hist->second.have_inf = true;
        hist->second.inf = value;
      } else if (name == family + "_count") {
        hist->second.have_count = true;
        hist->second.count = value;
      }
    }
  }

  if (!saw_eof) {
    return fail("missing # EOF terminator", line_no);
  }
  for (const auto& [name, h] : histograms) {
    if (!h.have_inf || !h.have_count) {
      return fail("histogram '" + name + "' missing +Inf bucket or _count", line_no);
    }
    if (h.inf != h.count) {
      return fail("histogram '" + name + "' +Inf bucket != _count", line_no);
    }
  }
  if (families != nullptr) {
    *families = static_cast<int>(declared.size());
  }
  return true;
}

}  // namespace fleet
}  // namespace emeralds
