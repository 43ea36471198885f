#include "src/obs/timeseries.h"

#include <utility>

#include "src/base/assert.h"
#include "src/core/kernel.h"
#include "src/obs/json_writer.h"
#include "src/obs/telemetry.h"

namespace emeralds {
namespace obs {

void TelemetryWindow::MergeFrom(const TelemetryWindow& other) {
  gap = gap || other.gap;
  samples += other.samples;
  jobs_released += other.jobs_released;
  jobs_completed += other.jobs_completed;
  deadline_misses += other.deadline_misses;
  context_switches += other.context_switches;
  interrupts += other.interrupts;
  timer_dispatches += other.timer_dispatches;
  sem_acquires += other.sem_acquires;
  ipis += other.ipis;
  headroom_low_events += other.headroom_low_events;
  chain_e2e_completed += other.chain_e2e_completed;
  chain_e2e_overruns += other.chain_e2e_overruns;
  chain_origins += other.chain_origins;
  stats_snapshot_drops += other.stats_snapshot_drops;
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    cycles.buckets[b] += other.cycles.buckets[b];
  }
  response.Merge(other.response);
  chain_e2e.Merge(other.chain_e2e);
  headroom.Merge(other.headroom);
}

TimeseriesCollector::TimeseriesCollector(Duration window, WindowSink sink)
    : window_(window.is_positive() ? window : Milliseconds(10)), sink_(std::move(sink)) {}

int64_t TimeseriesCollector::IndexOf(Instant t) const {
  int64_t ns = t.nanos();
  if (ns <= 0) {
    return 0;
  }
  return (ns - 1) / window_.nanos();
}

void TimeseriesCollector::StartWindow(int64_t index) {
  cur_ = TelemetryWindow();
  cur_.index = index;
  cur_.start = Instant() + Nanoseconds(index * window_.nanos());
  cur_.end = cur_.start + window_;
  have_cur_ = true;
}

void TimeseriesCollector::CloseWindow() {
  if (cur_.index <= gap_through_) {
    cur_.gap = true;
  }
  sink_(cur_);
}

void TimeseriesCollector::FoldDelta(const StatsDelta& d) {
  ++cur_.samples;
  cur_.jobs_released += d.jobs_released;
  cur_.jobs_completed += d.jobs_completed;
  cur_.deadline_misses += d.deadline_misses;
  cur_.context_switches += d.context_switches;
  cur_.interrupts += d.interrupts;
  cur_.timer_dispatches += d.timer_dispatches;
  cur_.sem_acquires += d.sem_acquires;
  cur_.ipis += d.ipis;
  cur_.headroom_low_events += d.headroom_low_events;
  cur_.chain_e2e_completed += d.chain_e2e_hist.count();
  cur_.chain_e2e_overruns += d.chain_e2e_overruns;
  cur_.chain_origins += d.chain_origins;
  cur_.stats_snapshot_drops += d.stats_snapshot_drops;
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    cur_.cycles.buckets[b] += d.cycles.buckets[b];
  }
  cur_.response.Merge(d.response_hist);
  cur_.chain_e2e.Merge(d.chain_e2e_hist);
  cur_.headroom.Merge(d.headroom_hist);
}

void TimeseriesCollector::ProcessDelta(const StatsDelta& d) {
  int64_t w = IndexOf(d.time);
  if (!have_cur_) {
    StartWindow(0);  // the grid is anchored at virtual zero
  }
  if (gap_pending_) {
    // The loss ran from the previous sample to this (first retained) one:
    // every window from the current one through w is a lower bound.
    if (w > gap_through_) {
      gap_through_ = w;
    }
    if (cur_.index <= gap_through_) {
      cur_.gap = true;
    }
    gap_pending_ = false;
  }
  while (cur_.index < w) {
    int64_t next = cur_.index + 1;
    CloseWindow();
    StartWindow(next);  // empty windows keep the burn-rate grid regular
  }
  FoldDelta(d);
  last_sample_time_ = d.time;
}

void TimeseriesCollector::Collect(const Kernel& kernel) {
  if (finished_) {
    return;
  }
  const StatsSampler* sampler = kernel.stats_sampler();
  if (sampler == nullptr) {
    return;
  }
  uint64_t begin = sampler->dropped();  // global index of the oldest retained
  if (consumed_ < begin) {
    lost_samples_ += begin - consumed_;
    gap_pending_ = true;
    if (have_cur_) {
      cur_.gap = true;
    }
    consumed_ = begin;
  }
  for (size_t i = static_cast<size_t>(consumed_ - begin); i < sampler->size(); ++i) {
    ProcessDelta(sampler->at(i));
    ++consumed_;
  }
}

void TimeseriesCollector::Finish(const Kernel& kernel) {
  if (finished_) {
    return;
  }
  Collect(kernel);
  Instant now = kernel.now();
  const StatsSampler* sampler = kernel.stats_sampler();
  if (now > last_sample_time_) {
    // Tail interval (last snapshot, horizon]: delta of the live cumulative
    // counters against the sampler's base — or against zero when sampling
    // was never enabled, which makes the whole run one synthetic interval.
    static const KernelStats kZero;
    const KernelStats& base = sampler != nullptr ? sampler->last_sample_base() : kZero;
    ProcessDelta(MakeStatsDelta(now, kernel.stats(), base));
  }
  if (!have_cur_) {
    StartWindow(0);
  }
  int64_t last = IndexOf(now);
  while (cur_.index < last) {
    int64_t next = cur_.index + 1;
    CloseWindow();
    StartWindow(next);
  }
  CloseWindow();
  have_cur_ = false;
  finished_ = true;
}

void MergeWindowInto(std::vector<TelemetryWindow>* series, const TelemetryWindow& w) {
  const size_t index = static_cast<size_t>(w.index);
  EM_ASSERT_MSG(w.index >= 0 && index <= series->size(), "window merged out of index order");
  if (index == series->size()) {
    series->push_back(w);
  } else {
    (*series)[index].MergeFrom(w);
  }
}

void AppendTelemetryWindow(Json& j, const TelemetryWindow& w) {
  j.OpenObject();
  j.Int("index", w.index);
  j.Int("start_us", w.start.micros());
  j.Int("end_us", w.end.micros());
  j.Bool("gap", w.gap);
  j.Int("samples", static_cast<int64_t>(w.samples));
  j.Int("jobs_released", static_cast<int64_t>(w.jobs_released));
  j.Int("jobs_completed", static_cast<int64_t>(w.jobs_completed));
  j.Int("deadline_misses", static_cast<int64_t>(w.deadline_misses));
  j.Int("context_switches", static_cast<int64_t>(w.context_switches));
  j.Int("interrupts", static_cast<int64_t>(w.interrupts));
  j.Int("timer_dispatches", static_cast<int64_t>(w.timer_dispatches));
  j.Int("sem_acquires", static_cast<int64_t>(w.sem_acquires));
  j.Int("ipis", static_cast<int64_t>(w.ipis));
  j.Int("headroom_low_events", static_cast<int64_t>(w.headroom_low_events));
  j.Int("chain_e2e_completed", static_cast<int64_t>(w.chain_e2e_completed));
  j.Int("chain_e2e_overruns", static_cast<int64_t>(w.chain_e2e_overruns));
  j.Int("chain_origins", static_cast<int64_t>(w.chain_origins));
  j.Int("stats_snapshot_drops", static_cast<int64_t>(w.stats_snapshot_drops));
  j.Number("compute_ms", w.cycles.at(CycleBucket::kUser).micros_f() / 1e3);
  j.Number("idle_ms", w.cycles.at(CycleBucket::kIdle).micros_f() / 1e3);
  j.Key("cycles_us");
  j.OpenObject();
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    if (w.cycles.buckets[b].is_positive()) {
      j.Number(CycleBucketToString(static_cast<CycleBucket>(b)),
               w.cycles.buckets[b].micros_f());
    }
  }
  j.CloseObject();
  AppendTelemetryHistogram(j, "response", w.response);
  AppendTelemetryHistogram(j, "chain_e2e", w.chain_e2e);
  AppendTelemetryHistogram(j, "headroom", w.headroom);
  j.CloseObject();
}

void AppendTimeseriesSection(Json& j, const std::vector<TelemetryWindow>& windows,
                             Duration window_width, uint64_t lost_samples) {
  j.Key("timeseries");
  j.OpenObject();
  j.String("schema", "emeralds.obs.timeseries/1");
  j.Int("window_us", window_width.micros());
  j.Int("windows", static_cast<int64_t>(windows.size()));
  j.Int("lost_samples", static_cast<int64_t>(lost_samples));
  uint64_t gaps = 0;
  for (const TelemetryWindow& w : windows) {
    if (w.gap) {
      ++gaps;
    }
  }
  j.Int("gap_windows", static_cast<int64_t>(gaps));
  j.Key("series");
  j.OpenArray();
  for (const TelemetryWindow& w : windows) {
    AppendTelemetryWindow(j, w);
  }
  j.CloseArray();
  j.CloseObject();
}

}  // namespace obs
}  // namespace emeralds
