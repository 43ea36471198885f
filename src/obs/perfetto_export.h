// Perfetto / Chrome trace-event JSON export.
//
// Turns the TraceSink event window into a JSON file loadable at
// ui.perfetto.dev (or chrome://tracing): per-thread "running" slices built
// from context switches, async spans for jobs (release -> complete) and
// semaphore holds/blocks, flow arrows for priority inheritance, and instant
// markers for deadline misses, CSE saved switches, low-headroom jobs, and
// IRQs. When counter samples are supplied (the kernel overload pulls them
// from the StatsSampler ring), per-bucket cycle-attribution counter tracks
// are emitted alongside the events.

#ifndef SRC_OBS_PERFETTO_EXPORT_H_
#define SRC_OBS_PERFETTO_EXPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/hal/cycles.h"
#include "src/hal/trace.h"

namespace emeralds {

class Kernel;

namespace obs {

// One sampling interval of the cycle-attribution ledger, rendered as a
// stacked "C" (counter) event: each bucket becomes a series on the
// "cycles (us/interval)" track.
struct PerfettoCounterSample {
  Instant time;  // sample instant; the values cover (prev sample, time]
  CycleLedger cycles;
  uint64_t headroom_low_events = 0;  // events inside this interval
};

// A named instant marker rendered on the process track — fleet_inspect uses
// these to overlay alert fire/resolve instants on a node replay.
struct PerfettoInstantMarker {
  Instant time;
  std::string name;
  const char* category = "alert";
};

// An annotation slice rendered on a thread's track as a complete ("X")
// event — the postmortem engine overlays one per late job spanning release
// to completion, named with the ledger's top blame component.
struct PerfettoAnnotationSlice {
  Instant begin;
  Duration duration;
  int thread_id = 0;
  std::string name;
  const char* category = "postmortem";
};

struct PerfettoExportOptions {
  std::string process_name = "emeralds";
  // Process id the window renders under. The default (1) keeps single-node
  // exports byte-stable; multi-node merges give each node its own pid, and
  // every async-span / flow id is then prefixed "p<pid>." so spans from
  // different nodes can never pair with each other.
  int pid = 1;
  // Display name per thread id; ids without an entry render as "t<id>".
  std::vector<std::string> thread_names;
  // Events lost ahead of the retained window (TraceSink::dropped());
  // surfaced as a marker slice so truncation is visible in the UI.
  uint64_t dropped_events = 0;
  // Cycle-ledger counter samples (typically the StatsSampler ring); empty
  // means no counter tracks.
  std::vector<PerfettoCounterSample> counter_samples;
  // Instant markers (alert fire/resolve overlays).
  std::vector<PerfettoInstantMarker> instants;
  // Annotation slices (postmortem late-job overlays).
  std::vector<PerfettoAnnotationSlice> annotations;
};

// Writes the event window as Chrome trace-event JSON to `out`: the
// one-window case of ExportPerfettoJsonMulti. Returns the number of
// traceEvents entries emitted.
size_t ExportPerfettoJson(const TraceEvent* events, size_t count,
                          const PerfettoExportOptions& options, std::FILE* out);

// Convenience: exports a kernel's retained trace with its thread names.
size_t ExportPerfettoJson(const Kernel& kernel, std::FILE* out);

// One node's window of a multi-node merge. The events pointer must stay
// valid for the duration of the export call.
struct PerfettoWindow {
  const TraceEvent* events = nullptr;
  size_t count = 0;
  PerfettoExportOptions options;
};

// Merges several node windows into one timeline document: each window
// renders as its own process (options.pid / options.process_name), with
// node-scoped span ids. fleet_inspect --merge is built on this.
size_t ExportPerfettoJsonMulti(const std::vector<PerfettoWindow>& windows, std::FILE* out);

// Thread display names ("<name>/<id>") in thread-id order, for options.
std::vector<std::string> KernelThreadNames(const Kernel& kernel);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_PERFETTO_EXPORT_H_
