// Deterministic per-window alerting over the streaming telemetry plane.
//
// Rules are evaluated once per TelemetryWindow, in window order, with pure
// integer arithmetic — the firing/resolved event stream is an exact function
// of the window series, so it is bit-identical across worker counts and
// repeat runs (the fleet determinism tests lock this down).
//
// The SLO rules use the dual-window burn-rate form: an alert fires only when
// the error-budget burn exceeds the threshold over BOTH a fast window (react
// quickly) and a slow window (ignore single-window spikes), and resolves as
// soon as the fast window drops back under. Burn is compared by
// cross-multiplication in 128-bit integers: bad * 1e6 >= total * budget_ppm
// * burn_threshold — no floating point anywhere near the event stream.

#ifndef SRC_OBS_ALERTS_H_
#define SRC_OBS_ALERTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/obs/timeseries.h"

namespace emeralds {
namespace obs {

class Json;

// --- Robust statistics (shared with fleet triage) ---
//
// The PR 7 triage math, hoisted so both the post-mortem triage tables and
// the per-window fleet outlier rule use the identical definition.

// Lower-middle median; integer and order-stable. Takes a copy (sorts it).
uint64_t RobustMedian(std::vector<uint64_t> values);

// Median absolute deviation around `median`.
uint64_t RobustMad(const std::vector<uint64_t>& values, uint64_t median);

// Outlier cut: above the median by more than 5 MADs *and* more than a
// quarter of the median (the second guard keeps a perfectly uniform
// population, mad == 0, from flagging one-bucket jitter).
uint64_t RobustOutlierThreshold(uint64_t median, uint64_t mad);
bool IsRobustOutlier(uint64_t value, uint64_t median, uint64_t mad);

// --- Rule configuration ---

struct BurnRule {
  bool enabled = true;
  uint64_t budget_ppm = 10000;  // error budget: bad/total allowed, in ppm
  uint32_t burn_threshold = 10;  // fire at burn >= threshold x budget
  // Slow-window total floor: with only a handful of events the ratio is
  // noise (1 overrun of 2 completions is "50%"), so the rule stays quiet
  // until the slow window has seen at least this many.
  uint64_t min_total = 4;
};

struct AlertConfig {
  int fast_windows = 5;
  int slow_windows = 50;
  // Deadline-miss burn against jobs completed. A healthy fleet misses zero
  // deadlines, so any sustained burn is a real signal.
  BurnRule miss_burn{true, 10000, 10, 4};  // 1% budget, 10x burn => 10% miss rate
  // Chain e2e overrun burn against chains completed. Healthy fleets overrun
  // chain SLOs routinely (~11% in the committed baseline), so the budget is
  // wide: 5% budget at 10x burn fires only past a 50% overrun share.
  BurnRule chain_burn{true, 50000, 10, 16};
  // Fleet outlier rule (always on): per window, a node whose deadline-miss
  // count is a robust outlier above the fleet median (and at least
  // `outlier_floor`, so a single stray miss over an all-zero fleet cannot
  // fire) — the triage math applied online.
  uint64_t outlier_floor = 3;
};

// --- Events ---

// The order is the canonical event order within a window (SortAlertEvents).
enum class AlertRuleKind : int {
  kDeadlineMissBurn = 0,
  kChainOverrunBurn = 1,
  kFleetOutlier = 2,
};

const char* AlertRuleName(AlertRuleKind kind);

struct AlertEvent {
  AlertRuleKind rule = AlertRuleKind::kDeadlineMissBurn;
  int node = -1;
  int64_t window = 0;
  Instant time;        // exact virtual timestamp: the window's upper edge
  bool firing = true;  // false: the alert resolved at this window
  // Rule-specific evidence: numerator/denominator for burn rules (bad,
  // total over the fast window); for the outlier rule, the node's miss
  // count and the fleet median.
  uint64_t value = 0;
  uint64_t total = 0;

  bool operator==(const AlertEvent& o) const {
    return rule == o.rule && node == o.node && window == o.window &&
           time == o.time && firing == o.firing && value == o.value && total == o.total;
  }
};

// Canonical order: (window, rule, node). Events from different nodes are
// produced independently; sorting makes the concatenated stream bit-stable.
void SortAlertEvents(std::vector<AlertEvent>* events);

// --- Node-local engine ---

// Feed windows in index order; the node-local burn rules append their
// fire/resolve events. Stateful: firing alerts persist across windows until
// resolved.
class AlertEngine {
 public:
  explicit AlertEngine(const AlertConfig& config);

  void Observe(const TelemetryWindow& w, int node, std::vector<AlertEvent>* out);

 private:
  struct BurnState {
    std::vector<std::pair<uint64_t, uint64_t>> history;  // (bad, total) per window
    bool firing = false;
  };

  void ObserveBurn(const BurnRule& rule, AlertRuleKind kind, uint64_t bad, uint64_t total,
                   const TelemetryWindow& w, int node, BurnState* state,
                   std::vector<AlertEvent>* out);

  AlertConfig config_;
  BurnState miss_;
  BurnState chain_;
};

// --- Fleet outlier rule ---

// Evaluates the cross-node outlier rule over per-node window miss counts:
// misses[node][k] is the node's deadline-miss count in window k of a grid
// `window` wide, and a node with no window k counts 0. In each window a
// node whose count is a robust outlier fires; it resolves at the first
// later window where it is not. An event's time is its window's upper edge.
// Events are appended in canonical order.
void EvaluateFleetOutlierAlerts(const std::vector<std::vector<uint64_t>>& misses,
                                Duration window, const AlertConfig& config,
                                std::vector<AlertEvent>* out);

// JSON "alerts" section: rule config echo + the event stream.
void AppendAlertsSection(Json& j, const std::vector<AlertEvent>& events,
                         const AlertConfig& config);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_ALERTS_H_
