// Streaming time-series telemetry: fixed-width virtual-time windows.
//
// The StatsSampler ring (PR 2/4) gives each kernel a delta-encoded snapshot
// stream; this layer folds that stream into `TelemetryWindow` points on a
// fixed window grid anchored at virtual zero. The collector holds only the
// window it is filling and hands each window it closes, in index order, to
// a sink its caller supplies, so a run of any length is seen whole in
// constant memory. The fleet runner drains the sampler at slice boundaries
// (Collect), so the windows exist *while the fleet runs* — zero virtual
// cost, because Collect only reads kernel state and the snapshots were
// already paid for by the kStatsSample timer. Windows merge losslessly
// across nodes via Log2Histogram::Merge, and the per-window histogram deltas
// telescope: merging every window of a run reproduces the whole-run
// cumulative histogram bit-identically (tests/obs/timeseries_test.cc).
//
// Degradation is explicit, never silent: when sampling outpaced the drain
// and snapshots were evicted, the windows spanning the loss are gap-marked
// and the lost-sample count is surfaced alongside the series.

#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/log2_histogram.h"
#include "src/base/time.h"
#include "src/hal/cycles.h"

namespace emeralds {

class Kernel;
struct StatsDelta;

namespace obs {

class Json;

// One fixed-width window of kernel activity. Counters are exact deltas over
// the window; histograms are merged StatsDelta interval deltas (min/max
// carry cumulative extremes — conservative per-window bounds that make the
// fleet/whole-run merge exact; see Log2Histogram::Delta).
struct TelemetryWindow {
  int64_t index = 0;
  Instant start;  // exclusive lower edge (index * window)
  Instant end;    // inclusive upper edge
  // True when snapshot loss (ring eviction before drain) overlapped this
  // window: its counters are a lower bound, not an exact delta.
  bool gap = false;
  uint64_t samples = 0;  // StatsDelta intervals folded in (incl. synthetic tail)

  uint64_t jobs_released = 0;
  uint64_t jobs_completed = 0;
  uint64_t deadline_misses = 0;
  uint64_t context_switches = 0;
  uint64_t interrupts = 0;
  uint64_t timer_dispatches = 0;
  uint64_t sem_acquires = 0;
  uint64_t ipis = 0;
  uint64_t headroom_low_events = 0;
  uint64_t chain_e2e_completed = 0;
  uint64_t chain_e2e_overruns = 0;
  // Chain instances begun (origin emits) in this window; together with
  // chain_e2e_completed the series shows in-flight growth — the streaming
  // analog of AnalyzeChains' per-chain incomplete_instances count.
  uint64_t chain_origins = 0;
  uint64_t stats_snapshot_drops = 0;
  CycleLedger cycles;
  Log2Histogram response;
  Log2Histogram chain_e2e;
  Log2Histogram headroom;

  // Fleet merge of same-index windows from different nodes: counter sums,
  // histogram Merge, gap OR.
  void MergeFrom(const TelemetryWindow& other);
};

// Folds a kernel's StatsSampler ring into the window grid and hands each
// closed window to the sink. Drive Collect() periodically on the host (the
// fleet runner does it at every slice boundary) and Finish() once at the
// horizon. Neither perturbs virtual time: the one thing they write is the
// sampler's read mark, so evicting a sample the collector already read is
// not counted as a stats_snapshot_drop.
class TimeseriesCollector {
 public:
  // Receives every closed window once, in index order from window 0.
  using WindowSink = std::function<void(const TelemetryWindow&)>;

  // `window` is the grid width: window k covers (k*window, (k+1)*window].
  // A non-positive width falls back to 10 ms.
  TimeseriesCollector(Duration window, WindowSink sink);

  // Drains snapshots that arrived since the last drain.
  void Collect(Kernel& kernel);

  // Final drain + synthesizes the tail interval (last snapshot, horizon]
  // from the sampler's cumulative base, then closes every window through
  // the horizon. Call exactly once; Collect() is a no-op afterwards.
  void Finish(Kernel& kernel);

  uint64_t lost_samples() const { return lost_samples_; }

  // Window index containing instant t (t > 0 maps to (t-1ns)/window; t <= 0
  // maps to window 0).
  int64_t IndexOf(Instant t) const;

 private:
  void ProcessDelta(const StatsDelta& d);
  void FoldDelta(const StatsDelta& d);
  void StartWindow(int64_t index);
  void CloseWindow();

  Duration window_;
  WindowSink sink_;

  TelemetryWindow cur_;
  bool have_cur_ = false;
  bool finished_ = false;

  uint64_t consumed_ = 0;  // global snapshot index consumed so far
  Instant last_sample_time_;
  uint64_t lost_samples_ = 0;
  bool gap_pending_ = false;
  int64_t gap_through_ = -1;  // windows up to this index are gap-marked
};

// Merges `w` into a series that holds window i at position i: a window one
// past the end is appended, any other is merged into its index. Every
// source must deliver its windows in index order from window 0, as a
// collector's sink does, so when a source merges window k the series
// already holds windows 0..k-1. The merge commutes (counter sums, gap OR,
// Log2Histogram::Merge), so the series does not depend on which source
// merges first.
void MergeWindowInto(std::vector<TelemetryWindow>* series, const TelemetryWindow& w);

// JSON: one window object (schema emeralds.obs.timeseries/1 window entry).
void AppendTelemetryWindow(Json& j, const TelemetryWindow& w);

// JSON: "timeseries" section — window grid config, the window array, and the
// explicit-degradation counters.
void AppendTimeseriesSection(Json& j, const std::vector<TelemetryWindow>& windows,
                             Duration window_width, uint64_t lost_samples);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_TIMESERIES_H_
