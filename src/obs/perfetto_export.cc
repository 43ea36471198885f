#include "src/obs/perfetto_export.h"

#include <cinttypes>

#include "src/base/json.h"
#include "src/core/kernel.h"

namespace emeralds {
namespace obs {
namespace {

// Emits traceEvents entries with the shared pid/comma bookkeeping. One
// writer spans every window of a multi-node merge; set_pid() switches the
// process between windows without resetting the comma state.
class EventWriter {
 public:
  explicit EventWriter(std::FILE* out) : out_(out) {}

  void set_pid(int pid) { pid_ = pid; }

  void Open(const char* ph, double ts_us, int tid) {
    std::fprintf(out_, "%s  {\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f",
                 count_ == 0 ? "" : ",\n", ph, pid_, tid, ts_us);
    ++count_;
  }

  void Field(const char* key, const char* value) {
    std::string buf;
    JsonAppendEscaped(&buf, value);
    std::fprintf(out_, ",\"%s\":%s", key, buf.c_str());
  }

  void Raw(const char* text) { std::fputs(text, out_); }
  void Dur(double dur_us) { std::fprintf(out_, ",\"dur\":%.3f", dur_us); }
  void Close() { std::fputs("}", out_); }

  // Metadata entry (no timestamp).
  void Metadata(const char* name, int tid, const std::string& value) {
    std::string buf;
    JsonAppendEscaped(&buf, value);
    std::fprintf(out_,
                 "%s  {\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"args\":{\"name\":%s}}",
                 count_ == 0 ? "" : ",\n", pid_, tid, name, buf.c_str());
    ++count_;
  }

  // Instant marker (thread scope).
  void Instant(double ts_us, int tid, const char* name, const char* cat) {
    Open("i", ts_us, tid);
    Field("name", name);
    Field("cat", cat);
    Raw(",\"s\":\"t\"");
    Close();
  }

  // Async span begin/end: these pair by (cat, id) and render as a nested
  // track slice, which is how job and semaphore spans appear per thread.
  void Async(const char* ph, double ts_us, int tid, const char* name, const char* cat,
             const char* id) {
    Open(ph, ts_us, tid);
    Field("name", name);
    Field("cat", cat);
    Field("id", id);
    Close();
  }

  size_t count() const { return count_; }

 private:
  std::FILE* out_;
  int pid_ = 1;
  size_t count_ = 0;
};

double TsUs(Instant t) { return static_cast<double>(t.nanos()) / 1e3; }

std::string ThreadLabel(const PerfettoExportOptions& options, int32_t id) {
  if (id >= 0 && static_cast<size_t>(id) < options.thread_names.size() &&
      !options.thread_names[id].empty()) {
    return options.thread_names[id];
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%d", id);
  return buf;
}

// Emits one window's events through the shared writer. `flow_counter` is
// the cross-window PI flow-id sequence (flow ids must be unique across the
// whole document, not per window).
void ExportWindow(EventWriter& w, const TraceEvent* events, size_t count,
                  const PerfettoExportOptions& options, uint64_t* flow_counter) {
  w.set_pid(options.pid);
  // Node-scoped id prefix: spans and flows from different processes must
  // never pair, so every id is namespaced once the pid leaves the default.
  char sp[16];
  if (options.pid == 1) {
    sp[0] = '\0';
  } else {
    std::snprintf(sp, sizeof(sp), "p%d.", options.pid);
  }
  w.Metadata("process_name", 0, options.process_name);

  // Thread-name metadata for every thread id that appears in the window.
  std::vector<bool> named;
  auto name_thread = [&](int32_t id) {
    if (id < 0 || id > 65535) {
      return;
    }
    if (static_cast<size_t>(id) >= named.size()) {
      named.resize(id + 1, false);
    }
    if (!named[id]) {
      named[id] = true;
      w.Metadata("thread_name", id, ThreadLabel(options, id));
    }
  };
  for (size_t i = 0; i < count; ++i) {
    const TraceEvent& e = events[i];
    if (e.type == TraceEventType::kChainEmit || e.type == TraceEventType::kChainConsume) {
      // arg0 is a token origin; the acting thread id is packed into arg2.
      name_thread(ChainActorOf(e.arg2));
      continue;
    }
    if (e.type == TraceEventType::kTraceEpoch) {
      continue;  // arg0 is an epoch number
    }
    if (e.type == TraceEventType::kOverheadSpan) {
      name_thread(e.arg2 - 1);  // arg0 packs (bucket, core); arg2 = tid + 1
      continue;
    }
    name_thread(e.arg0);
    if (e.type == TraceEventType::kContextSwitch || e.type == TraceEventType::kPiInherit) {
      name_thread(e.arg1);
    }
  }

  if (options.dropped_events > 0 && count > 0) {
    char label[64];
    std::snprintf(label, sizeof(label), "%" PRIu64 " events dropped before window",
                  options.dropped_events);
    w.Open("i", TsUs(events[0].time), 0);
    w.Field("name", label);
    w.Field("cat", "trace");
    w.Raw(",\"s\":\"p\"");
    w.Close();
  }

  // Running-state tracking for per-thread "running" slices.
  struct OpenSlice {
    bool open = false;
    Instant since;
  };
  std::vector<OpenSlice> running;
  auto slice = [&](int32_t id) -> OpenSlice* {
    if (id < 0 || id > 65535) {
      return nullptr;
    }
    if (static_cast<size_t>(id) >= running.size()) {
      running.resize(id + 1);
    }
    return &running[id];
  };
  // Ends thread `id`'s open running slice at `ts`.
  auto end_running = [&](int32_t id, double ts) {
    OpenSlice* s = slice(id);
    if (s != nullptr && s->open) {
      w.Open("X", TsUs(s->since), id);
      w.Field("name", "running");
      w.Field("cat", "sched");
      w.Dur(ts - TsUs(s->since));
      w.Close();
      s->open = false;
    }
  };
  // Open block spans per thread (semaphore id, or -1): the resolving
  // acquire closes the span before opening the hold span.
  std::vector<int32_t> blocked_on;
  auto blocked_slot = [&](int32_t id) -> int32_t* {
    if (id < 0 || id > 65535) {
      return nullptr;
    }
    if (static_cast<size_t>(id) >= blocked_on.size()) {
      blocked_on.resize(id + 1, -1);
    }
    return &blocked_on[id];
  };
  char name[64];
  char span_id[64];

  for (size_t i = 0; i < count; ++i) {
    const TraceEvent& e = events[i];
    double ts = TsUs(e.time);
    switch (e.type) {
      case TraceEventType::kContextSwitch: {
        end_running(e.arg0, ts);
        OpenSlice* incoming = slice(e.arg1);
        if (incoming != nullptr) {
          incoming->open = true;
          incoming->since = e.time;
        }
        break;
      }
      case TraceEventType::kJobRelease:
      case TraceEventType::kJobComplete:
        std::snprintf(span_id, sizeof(span_id), "%sjob.t%d.%d", sp, e.arg0, e.arg1);
        std::snprintf(name, sizeof(name), "job %d", e.arg1);
        w.Async(e.type == TraceEventType::kJobRelease ? "b" : "e", ts, e.arg0, name, "job",
                span_id);
        break;
      case TraceEventType::kDeadlineMiss:
        std::snprintf(name, sizeof(name), "DEADLINE MISS job %d", e.arg1);
        w.Instant(ts, e.arg0, name, "deadline");
        break;
      case TraceEventType::kSemAcquire:
      case TraceEventType::kSemRelease: {
        if (e.type == TraceEventType::kSemAcquire) {
          // A resolving acquire ends the thread's open block span first.
          int32_t* blocked = blocked_slot(e.arg0);
          if (blocked != nullptr && *blocked == e.arg1) {
            std::snprintf(span_id, sizeof(span_id), "%sblock.t%d.s%d", sp, e.arg0, e.arg1);
            std::snprintf(name, sizeof(name), "blocked on S%d", e.arg1);
            w.Async("e", ts, e.arg0, name, "semblock", span_id);
            *blocked = -1;
          }
        }
        // Hold span on the holder's track: acquire opens, release closes.
        std::snprintf(span_id, sizeof(span_id), "%shold.t%d.s%d", sp, e.arg0, e.arg1);
        std::snprintf(name, sizeof(name), "holds S%d", e.arg1);
        w.Async(e.type == TraceEventType::kSemAcquire ? "b" : "e", ts, e.arg0, name, "sem",
                span_id);
        break;
      }
      case TraceEventType::kSemAcquireBlock: {
        std::snprintf(span_id, sizeof(span_id), "%sblock.t%d.s%d", sp, e.arg0, e.arg1);
        std::snprintf(name, sizeof(name), "blocked on S%d", e.arg1);
        w.Async("b", ts, e.arg0, name, "semblock", span_id);
        int32_t* blocked = blocked_slot(e.arg0);
        if (blocked != nullptr) {
          *blocked = e.arg1;
        }
        break;
      }
      case TraceEventType::kSemCseEarlyPi:
        std::snprintf(name, sizeof(name), "CSE early PI (S%d, saved switch)", e.arg1);
        w.Instant(ts, e.arg0, name, "cse");
        break;
      case TraceEventType::kPiInherit: {
        // Arrow donor -> holder as a flow pair. The counter spans windows;
        // prefixed (string) ids keep cross-node arrows impossible even if a
        // future caller resets it.
        ++*flow_counter;
        char idnum[40];
        if (options.pid == 1) {
          std::snprintf(idnum, sizeof(idnum), ",\"id\":%" PRIu64, *flow_counter);
        } else {
          std::snprintf(idnum, sizeof(idnum), ",\"id\":\"%s%" PRIu64 "\"", sp, *flow_counter);
        }
        w.Open("s", ts, e.arg1);
        w.Field("name", "pi");
        w.Field("cat", "pi");
        w.Raw(idnum);
        w.Close();
        w.Open("f", ts, e.arg0);
        w.Field("name", "pi");
        w.Field("cat", "pi");
        w.Raw(",\"bp\":\"e\"");
        w.Raw(idnum);
        w.Close();
        break;
      }
      case TraceEventType::kPiRestore:
        std::snprintf(name, sizeof(name), "PI restore (S%d)", e.arg1);
        w.Instant(ts, e.arg0, name, "pi");
        break;
      case TraceEventType::kIrq:
        std::snprintf(name, sizeof(name), "irq %d", e.arg0);
        w.Instant(ts, 0, name, "irq");
        break;
      case TraceEventType::kMsgSend:
      case TraceEventType::kMsgRecv:
        std::snprintf(name, sizeof(name), "%s obj %d",
                      e.type == TraceEventType::kMsgSend ? "send" : "recv", e.arg1);
        w.Instant(ts, e.arg0, name, "ipc");
        break;
      case TraceEventType::kThreadExit:
        // An exiting thread leaves its core without a context switch (the
        // next switch names no outgoing thread), so its slice ends here.
        end_running(e.arg0, ts);
        w.Instant(ts, e.arg0, "thread exit", "sched");
        break;
      case TraceEventType::kPiChainLimit:
        std::snprintf(name, sizeof(name), "PI chain limit (S%d)", e.arg1);
        w.Instant(ts, e.arg0, name, "pi");
        break;
      case TraceEventType::kHeadroomLow:
        std::snprintf(name, sizeof(name), "headroom low (slack %d us)", e.arg1);
        w.Instant(ts, e.arg0, name, "headroom");
        break;
      case TraceEventType::kChainEmit:
      case TraceEventType::kChainConsume: {
        // Flow arrow producer -> consumer. Emit and its consume(s) pair by
        // (origin, endpoint, emit-hop): the consume's hop is one past the
        // emit's, so it keys with hop - 1. ISR-context events (actor -1)
        // render on tid 0 alongside the irq instants.
        bool is_emit = e.type == TraceEventType::kChainEmit;
        int hop = ChainHopOf(e.arg2);
        int actor = ChainActorOf(e.arg2);
        int tid = actor >= 0 ? actor : 0;
        std::snprintf(span_id, sizeof(span_id), "%schain.o%u.h%d.e%d", sp,
                      static_cast<uint32_t>(e.arg0), is_emit ? hop : hop - 1, e.arg1);
        std::snprintf(name, sizeof(name), "chain %s:%d",
                      ChainEndpointKindToString(ChainEndpointKindOf(e.arg1)),
                      ChainEndpointChannel(e.arg1));
        w.Open(is_emit ? "s" : "f", ts, tid);
        w.Field("name", name);
        w.Field("cat", "chain");
        if (!is_emit) {
          w.Raw(",\"bp\":\"e\"");
        }
        w.Field("id", span_id);
        w.Close();
        break;
      }
      case TraceEventType::kTraceEpoch:
        std::snprintf(name, sizeof(name), "trace epoch %d", e.arg0);
        w.Instant(ts, 0, name, "trace");
        break;
      case TraceEventType::kOverheadSpan:
        // Overhead spans feed the postmortem's lateness ledgers; they are
        // two thirds of the stream and would bury the timeline.
        break;
      case TraceEventType::kThreadBlock:
      case TraceEventType::kThreadReady: {
        // Wait spans (block -> ready) per reason. Semaphore waits already
        // render as "blocked on S<n>" spans from kSemAcquireBlock, so those
        // are skipped here rather than drawn twice.
        auto reason = static_cast<BlockReason>(e.arg1);
        if (reason == BlockReason::kWaitSem || reason == BlockReason::kNone) {
          break;
        }
        std::snprintf(span_id, sizeof(span_id), "%swait.t%d.r%d", sp, e.arg0, e.arg1);
        std::snprintf(name, sizeof(name), "wait: %s", BlockReasonToString(reason));
        w.Async(e.type == TraceEventType::kThreadBlock ? "b" : "e", ts, e.arg0, name, "wait",
                span_id);
        break;
      }
    }
  }

  // Cycle-attribution counter tracks: one stacked "C" event per sample on
  // the "cycles (us/interval)" track, plus a headroom-low rate track.
  for (const PerfettoCounterSample& s : options.counter_samples) {
    double ts = TsUs(s.time);
    w.Open("C", ts, 0);
    w.Field("name", "cycles (us/interval)");
    w.Raw(",\"args\":{");
    bool first = true;
    for (int b = 0; b < kNumCycleBuckets; ++b) {
      char field[64];
      std::snprintf(field, sizeof(field), "%s\"%s\":%.3f", first ? "" : ",",
                    CycleBucketToString(static_cast<CycleBucket>(b)),
                    static_cast<double>(s.cycles.buckets[b].nanos()) / 1e3);
      w.Raw(field);
      first = false;
    }
    w.Raw("}");
    w.Close();

    w.Open("C", ts, 0);
    w.Field("name", "headroom_low (events/interval)");
    char field[64];
    std::snprintf(field, sizeof(field), ",\"args\":{\"events\":%" PRIu64 "}",
                  s.headroom_low_events);
    w.Raw(field);
    w.Close();
  }

  for (const PerfettoInstantMarker& m : options.instants) {
    w.Instant(TsUs(m.time), 0, m.name.c_str(), m.category);
  }

  for (const PerfettoAnnotationSlice& a : options.annotations) {
    w.Open("X", TsUs(a.begin), a.thread_id);
    w.Field("name", a.name.c_str());
    w.Field("cat", a.category);
    w.Dur(static_cast<double>(a.duration.nanos()) / 1e3);
    w.Close();
  }

  // Close still-open running slices and block spans at the window edge so
  // the viewer does not render them as zero-length.
  if (count > 0) {
    double end_ts = TsUs(events[count - 1].time);
    for (size_t id = 0; id < running.size(); ++id) {
      if (running[id].open && end_ts > TsUs(running[id].since)) {
        w.Open("X", TsUs(running[id].since), static_cast<int>(id));
        w.Field("name", "running");
        w.Field("cat", "sched");
        w.Dur(end_ts - TsUs(running[id].since));
        w.Close();
      }
    }
  }
}

}  // namespace

size_t ExportPerfettoJson(const TraceEvent* events, size_t count,
                          const PerfettoExportOptions& options, std::FILE* out) {
  return ExportPerfettoJsonMulti({PerfettoWindow{events, count, options}}, out);
}

size_t ExportPerfettoJsonMulti(const std::vector<PerfettoWindow>& windows, std::FILE* out) {
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  EventWriter w(out);
  uint64_t flow_counter = 0;
  for (const PerfettoWindow& window : windows) {
    ExportWindow(w, window.events, window.count, window.options, &flow_counter);
  }
  std::fputs("\n]}\n", out);
  return w.count();
}

std::vector<std::string> KernelThreadNames(const Kernel& kernel) {
  std::vector<std::string> names;
  names.reserve(kernel.thread_count());
  for (size_t i = 0; i < kernel.thread_count(); ++i) {
    const Tcb& t = kernel.thread(ThreadId(static_cast<int>(i)));
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s/%d", t.name, t.id.value);
    names.push_back(buf);
  }
  return names;
}

size_t ExportPerfettoJson(const Kernel& kernel, std::FILE* out) {
  const TraceSink& sink = kernel.trace();
  PerfettoExportOptions options;
  options.thread_names = KernelThreadNames(kernel);
  options.dropped_events = sink.dropped();
  if (const StatsSampler* sampler = kernel.stats_sampler()) {
    options.counter_samples.reserve(sampler->size());
    for (size_t i = 0; i < sampler->size(); ++i) {
      const StatsDelta& d = sampler->at(i);
      PerfettoCounterSample s;
      s.time = d.time;
      s.cycles = d.cycles;
      s.headroom_low_events = d.headroom_low_events;
      options.counter_samples.push_back(s);
    }
  }
  return ExportPerfettoJson(sink.events().data(), sink.size(), options, out);
}

}  // namespace obs
}  // namespace emeralds
