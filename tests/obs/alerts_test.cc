// Alert-engine golden tests: synthetic window streams with hand-computed
// dual-window burn rates, checked against the exact fire/resolve event
// stream (rule, window, virtual timestamp, evidence). The engine is pure
// integer arithmetic over the window series, so these are equality tests,
// not tolerance tests. Also: the shared robust-statistics helpers and the
// cross-node fleet outlier rule.

#include "src/obs/alerts.h"

#include <gtest/gtest.h>

#include <vector>

namespace emeralds {
namespace obs {
namespace {

TelemetryWindow Window(int64_t index, uint64_t jobs, uint64_t misses) {
  TelemetryWindow w;
  w.index = index;
  w.start = Instant() + Milliseconds(10) * index;
  w.end = w.start + Milliseconds(10);
  w.jobs_completed = jobs;
  w.deadline_misses = misses;
  return w;
}

AlertConfig MissOnlyConfig() {
  AlertConfig config;
  config.fast_windows = 2;
  config.slow_windows = 4;
  config.miss_burn = BurnRule{true, 10000, 10, 4};  // fire at >= 10% miss rate
  config.chain_burn.enabled = false;
  return config;
}

// --- Dual-window burn rate: the golden fire/resolve profile ---

TEST(AlertEngineTest, BurnFiresOnBothWindowsAndResolvesOnFast) {
  AlertEngine engine(MissOnlyConfig());
  std::vector<AlertEvent> out;
  // 10 jobs per window; misses: 0 0 5 5 0 0.
  // w2: fast(w1,w2) = 5/20 = 25%, slow(w0..w2) = 5/30 = 17% — both over the
  //     10% line with slow total 30 >= min_total 4 => FIRE.
  // w3: still burning, already firing => no event.
  // w4: fast(w3,w4) = 5/20 still over => stays firing.
  // w5: fast(w4,w5) = 0/20 under => RESOLVE.
  uint64_t misses[] = {0, 0, 5, 5, 0, 0};
  std::vector<TelemetryWindow> windows;
  for (int i = 0; i < 6; ++i) {
    windows.push_back(Window(i, 10, misses[i]));
    engine.Observe(windows.back(), 7, &out);
  }

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rule, AlertRuleKind::kDeadlineMissBurn);
  EXPECT_EQ(out[0].node, 7);
  EXPECT_EQ(out[0].window, 2);
  EXPECT_EQ(out[0].time, windows[2].end);  // exact virtual timestamp
  EXPECT_TRUE(out[0].firing);
  EXPECT_EQ(out[0].value, 5u);   // fast-window numerator
  EXPECT_EQ(out[0].total, 20u);  // fast-window denominator

  EXPECT_EQ(out[1].rule, AlertRuleKind::kDeadlineMissBurn);
  EXPECT_EQ(out[1].window, 5);
  EXPECT_EQ(out[1].time, windows[5].end);
  EXPECT_FALSE(out[1].firing);
  EXPECT_EQ(out[1].value, 0u);
  EXPECT_EQ(out[1].total, 20u);
}

// A one-window spike over the fast window alone must NOT fire: the slow
// window is the spike filter.
TEST(AlertEngineTest, SlowWindowSuppressesSingleSpike) {
  AlertConfig config = MissOnlyConfig();
  config.fast_windows = 1;
  config.slow_windows = 8;
  AlertEngine engine(config);
  std::vector<AlertEvent> out;
  // Seven clean windows, then one 20%-miss spike: fast burn is over, but
  // slow = 2/80 = 2.5% stays under the 10% line.
  for (int i = 0; i < 7; ++i) {
    engine.Observe(Window(i, 10, 0), 0, &out);
  }
  engine.Observe(Window(7, 10, 2), 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(AlertEngineTest, MinTotalFloorKeepsTinySamplesQuiet) {
  AlertConfig config = MissOnlyConfig();
  config.miss_burn.min_total = 50;
  AlertEngine engine(config);
  std::vector<AlertEvent> out;
  // 100% miss rate but only 40 completions in the slow window: below the
  // floor, the ratio is treated as noise.
  for (int i = 0; i < 4; ++i) {
    engine.Observe(Window(i, 10, 10), 0, &out);
  }
  EXPECT_TRUE(out.empty());
}

TEST(AlertEngineTest, PartialHistoryDetectsFromWindowZero) {
  AlertEngine engine(MissOnlyConfig());
  std::vector<AlertEvent> out;
  // Burning from the very first window: min(N, available) semantics mean
  // the engine needs no warm-up period, only the min_total floor.
  engine.Observe(Window(0, 10, 10), 0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].window, 0);
  EXPECT_TRUE(out[0].firing);
}

TEST(AlertEngineTest, StreamIsDeterministic) {
  std::vector<TelemetryWindow> windows;
  uint64_t misses[] = {0, 3, 5, 0, 2, 0, 0, 4};
  for (int i = 0; i < 8; ++i) {
    windows.push_back(Window(i, 10, misses[i]));
  }
  std::vector<AlertEvent> first;
  std::vector<AlertEvent> second;
  for (int run = 0; run < 2; ++run) {
    AlertEngine engine(MissOnlyConfig());
    std::vector<AlertEvent>& out = run == 0 ? first : second;
    for (const TelemetryWindow& w : windows) {
      engine.Observe(w, 3, &out);
    }
  }
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i] == second[i]) << i;
  }
}

// --- Robust statistics (shared with fleet triage) ---

TEST(RobustStatsTest, MedianAndMadGoldens) {
  EXPECT_EQ(RobustMedian({}), 0u);
  EXPECT_EQ(RobustMedian({5}), 5u);
  EXPECT_EQ(RobustMedian({4, 1, 3, 2}), 2u);  // lower-middle of even count
  EXPECT_EQ(RobustMad({1, 2, 3, 4}, 2), 1u);
  EXPECT_EQ(RobustMad({7, 7, 7}, 7), 0u);
}

TEST(RobustStatsTest, OutlierCutRequiresBothGuards) {
  // median 2, mad 1: threshold max(5*1, 2/4) = 5, so the cut is v - 2 > 5.
  EXPECT_FALSE(IsRobustOutlier(7, 2, 1));
  EXPECT_TRUE(IsRobustOutlier(8, 2, 1));
  // Uniform population (mad 0): the median/4 floor absorbs one-step jitter.
  EXPECT_FALSE(IsRobustOutlier(101, 100, 0));
  EXPECT_TRUE(IsRobustOutlier(200, 100, 0));
  EXPECT_FALSE(IsRobustOutlier(1, 2, 1));  // below the median is never an outlier
}

// --- Fleet outlier rule ---

TEST(FleetOutlierTest, FiresOnOutlierNodeAndResolves) {
  AlertConfig config;
  config.outlier_floor = 3;
  // Four nodes' per-window miss counts; node 3 spikes to 5 misses in window
  // 0 and recovers in 1.
  std::vector<std::vector<uint64_t>> misses = {{0, 0}, {0, 0}, {0, 0}, {5, 0}};
  std::vector<AlertEvent> out;
  EvaluateFleetOutlierAlerts(misses, Milliseconds(10), config, &out);

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rule, AlertRuleKind::kFleetOutlier);
  EXPECT_EQ(out[0].node, 3);
  EXPECT_EQ(out[0].window, 0);
  EXPECT_EQ(out[0].time, Instant() + Milliseconds(10));  // the window's upper edge
  EXPECT_TRUE(out[0].firing);
  EXPECT_EQ(out[0].value, 5u);
  EXPECT_EQ(out[0].total, 0u);  // the fleet median
  EXPECT_EQ(out[1].node, 3);
  EXPECT_EQ(out[1].window, 1);
  EXPECT_EQ(out[1].time, Instant() + Milliseconds(20));
  EXPECT_FALSE(out[1].firing);

  // A node with no window 1 counts 0 misses there: the same stream.
  misses[3] = {5};
  std::vector<AlertEvent> short_series;
  EvaluateFleetOutlierAlerts(misses, Milliseconds(10), config, &short_series);
  ASSERT_EQ(short_series.size(), out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(short_series[i] == out[i]) << i;
  }
}

TEST(FleetOutlierTest, FloorSuppressesSingleStrayMiss) {
  AlertConfig config;
  config.outlier_floor = 3;
  // Two misses over an all-zero fleet is an outlier by the robust cut, but
  // below the floor — no alert.
  std::vector<AlertEvent> out;
  EvaluateFleetOutlierAlerts({{0}, {0}, {2}}, Milliseconds(10), config, &out);
  EXPECT_TRUE(out.empty());
}

// --- Canonical event order ---

TEST(SortAlertEventsTest, OrdersByWindowRuleNode) {
  AlertEvent a;
  a.window = 2;
  a.rule = AlertRuleKind::kDeadlineMissBurn;
  a.node = 0;
  AlertEvent b;
  b.window = 1;
  b.rule = AlertRuleKind::kFleetOutlier;
  b.node = 9;
  AlertEvent c;
  c.window = 1;
  c.rule = AlertRuleKind::kDeadlineMissBurn;
  c.node = 4;
  std::vector<AlertEvent> events = {a, b, c};
  SortAlertEvents(&events);
  EXPECT_TRUE(events[0] == c);
  EXPECT_TRUE(events[1] == b);
  EXPECT_TRUE(events[2] == a);
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
