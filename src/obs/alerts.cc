#include "src/obs/alerts.h"

#include <algorithm>

#include "src/obs/json_writer.h"

namespace emeralds {
namespace obs {

uint64_t RobustMedian(std::vector<uint64_t> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

uint64_t RobustMad(const std::vector<uint64_t>& values, uint64_t median) {
  std::vector<uint64_t> deviations;
  deviations.reserve(values.size());
  for (uint64_t v : values) {
    deviations.push_back(v > median ? v - median : median - v);
  }
  return RobustMedian(std::move(deviations));
}

uint64_t RobustOutlierThreshold(uint64_t median, uint64_t mad) {
  return std::max(5 * mad, median / 4);
}

bool IsRobustOutlier(uint64_t value, uint64_t median, uint64_t mad) {
  return value > median && (value - median) > RobustOutlierThreshold(median, mad);
}

const char* AlertRuleName(AlertRuleKind kind) {
  switch (kind) {
    case AlertRuleKind::kDeadlineMissBurn:
      return "deadline_miss_burn";
    case AlertRuleKind::kChainOverrunBurn:
      return "chain_overrun_burn";
    case AlertRuleKind::kFleetOutlier:
      return "fleet_outlier";
  }
  return "?";
}

void SortAlertEvents(std::vector<AlertEvent>* events) {
  std::sort(events->begin(), events->end(), [](const AlertEvent& a, const AlertEvent& b) {
    if (a.window != b.window) {
      return a.window < b.window;
    }
    if (a.rule != b.rule) {
      return static_cast<int>(a.rule) < static_cast<int>(b.rule);
    }
    if (a.node != b.node) {
      return a.node < b.node;
    }
    return a.firing && !b.firing;  // a fire sorts before a resolve (distinct rules only)
  });
}

namespace {

// bad/total burn >= burn_threshold x budget, by 128-bit cross-multiplication.
bool BurnOver(uint64_t bad, uint64_t total, const BurnRule& rule) {
  if (total == 0) {
    return false;  // no events, no evidence
  }
  return static_cast<unsigned __int128>(bad) * 1000000 >=
         static_cast<unsigned __int128>(total) * rule.budget_ppm * rule.burn_threshold;
}

// Sum of the last `n` (bad, total) pairs.
std::pair<uint64_t, uint64_t> TailSum(const std::vector<std::pair<uint64_t, uint64_t>>& h,
                                      int n) {
  uint64_t bad = 0;
  uint64_t total = 0;
  size_t count = n < 0 ? 0 : static_cast<size_t>(n);
  size_t begin = h.size() > count ? h.size() - count : 0;
  for (size_t i = begin; i < h.size(); ++i) {
    bad += h[i].first;
    total += h[i].second;
  }
  return {bad, total};
}

AlertEvent MakeEvent(AlertRuleKind rule, int node, const TelemetryWindow& w, bool firing,
                     uint64_t value, uint64_t total) {
  AlertEvent e;
  e.rule = rule;
  e.node = node;
  e.window = w.index;
  e.time = w.end;
  e.firing = firing;
  e.value = value;
  e.total = total;
  return e;
}

}  // namespace

AlertEngine::AlertEngine(const AlertConfig& config) : config_(config) {
  if (config_.fast_windows < 1) {
    config_.fast_windows = 1;
  }
  if (config_.slow_windows < config_.fast_windows) {
    config_.slow_windows = config_.fast_windows;
  }
}

void AlertEngine::ObserveBurn(const BurnRule& rule, AlertRuleKind kind, uint64_t bad,
                              uint64_t total, const TelemetryWindow& w, int node,
                              BurnState* state, std::vector<AlertEvent>* out) {
  if (!rule.enabled) {
    return;
  }
  state->history.emplace_back(bad, total);
  if (state->history.size() > static_cast<size_t>(config_.slow_windows)) {
    state->history.erase(state->history.begin());
  }
  auto fast = TailSum(state->history, config_.fast_windows);
  auto slow = TailSum(state->history, config_.slow_windows);
  if (!state->firing) {
    // Partial history (fewer than slow_windows so far) burns over min(N,
    // available) windows — bounded detection latency from window zero, with
    // the min_total floor keeping tiny-sample ratios quiet.
    if (slow.second >= rule.min_total && BurnOver(fast.first, fast.second, rule) &&
        BurnOver(slow.first, slow.second, rule)) {
      state->firing = true;
      out->push_back(MakeEvent(kind, node, w, true, fast.first, fast.second));
    }
  } else if (fast.second > 0 && !BurnOver(fast.first, fast.second, rule)) {
    state->firing = false;
    out->push_back(MakeEvent(kind, node, w, false, fast.first, fast.second));
  }
}

void AlertEngine::Observe(const TelemetryWindow& w, int node, std::vector<AlertEvent>* out) {
  ObserveBurn(config_.miss_burn, AlertRuleKind::kDeadlineMissBurn, w.deadline_misses,
              w.jobs_completed, w, node, &miss_, out);
  ObserveBurn(config_.chain_burn, AlertRuleKind::kChainOverrunBurn, w.chain_e2e_overruns,
              w.chain_e2e_completed, w, node, &chain_, out);
}

void EvaluateFleetOutlierAlerts(const std::vector<std::vector<uint64_t>>& misses,
                                Duration window, const AlertConfig& config,
                                std::vector<AlertEvent>* out) {
  size_t windows = 0;
  for (const std::vector<uint64_t>& node : misses) {
    windows = std::max(windows, node.size());
  }
  std::vector<bool> firing(misses.size(), false);
  std::vector<uint64_t> values(misses.size(), 0);
  for (size_t k = 0; k < windows; ++k) {
    for (size_t node = 0; node < misses.size(); ++node) {
      values[node] = k < misses[node].size() ? misses[node][k] : 0;
    }
    uint64_t median = RobustMedian(values);
    uint64_t mad = RobustMad(values, median);
    for (size_t node = 0; node < misses.size(); ++node) {
      bool outlier = values[node] >= config.outlier_floor &&
                     IsRobustOutlier(values[node], median, mad);
      if (outlier == firing[node]) {
        continue;
      }
      firing[node] = outlier;
      AlertEvent e;
      e.rule = AlertRuleKind::kFleetOutlier;
      e.node = static_cast<int>(node);
      e.window = static_cast<int64_t>(k);
      e.time = Instant() + window * static_cast<int64_t>(k + 1);
      e.firing = outlier;
      e.value = values[node];
      e.total = median;
      out->push_back(e);
    }
  }
  SortAlertEvents(out);
}

void AppendAlertsSection(Json& j, const std::vector<AlertEvent>& events,
                         const AlertConfig& config) {
  j.Key("alerts");
  j.OpenObject();
  j.Key("config");
  j.OpenObject();
  j.Int("fast_windows", config.fast_windows);
  j.Int("slow_windows", config.slow_windows);
  j.Int("miss_budget_ppm", static_cast<int64_t>(config.miss_burn.budget_ppm));
  j.Int("miss_burn_threshold", config.miss_burn.burn_threshold);
  j.Int("chain_budget_ppm", static_cast<int64_t>(config.chain_burn.budget_ppm));
  j.Int("chain_burn_threshold", config.chain_burn.burn_threshold);
  j.Int("outlier_floor", static_cast<int64_t>(config.outlier_floor));
  j.CloseObject();
  uint64_t fired = 0;
  for (const AlertEvent& e : events) {
    if (e.firing) {
      ++fired;
    }
  }
  j.Int("events", static_cast<int64_t>(events.size()));
  j.Int("fired", static_cast<int64_t>(fired));
  j.Key("stream");
  j.OpenArray();
  for (const AlertEvent& e : events) {
    j.OpenObject();
    j.String("rule", AlertRuleName(e.rule));
    j.Int("node", e.node);
    j.Int("window", e.window);
    j.Int("time_us", e.time.micros());
    j.String("state", e.firing ? "firing" : "resolved");
    j.Int("value", static_cast<int64_t>(e.value));
    j.Int("total", static_cast<int64_t>(e.total));
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

}  // namespace obs
}  // namespace emeralds
