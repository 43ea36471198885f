#include "src/obs/trace_replay.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "src/base/flat_table.h"
#include "src/core/tcb.h"
#include "src/hal/cycles.h"

namespace emeralds {
namespace obs {
namespace {

// Thread ids are pool indices (config.max_threads, typically <= a few
// hundred); anything past this is a corrupted input, and visitors ignore it
// rather than size per-thread tables by it.
constexpr int32_t kMaxThreadId = 65535;
// kContextSwitch / kThreadExit stamp their core in arg2 (0 on single-core
// traces); anything past this marks a corrupted event.
constexpr int32_t kMaxCoreId = 255;

std::string Describe(const char* fmt, long long a, long long b, long long c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// The cursor every visitor shares: the event index, the per-core runner
// table, events dropped ahead of the first record, and sink-reset markers
// passed. It carries all of it from one Feed to the next.
class TraceReplay {
 public:
  static constexpr uint64_t kUnknown = UINT64_MAX;
  // Which thread a core runs, as far as the records show.
  struct CoreRunner {
    int32_t thread = -1;  // -1 = idle
    // epochs() when the records established `thread`: from the start when
    // nothing was dropped (every core starts idle), else at the core's
    // first switch. The postmortem engine forgets runners at a sink reset,
    // so it trusts only `since == epochs()`.
    uint64_t since = kUnknown;
    bool known() const { return since != kUnknown; }
  };

  explicit TraceReplay(uint64_t dropped_events) : dropped_(dropped_events) {}

  // Hands every event of `batch` to each visitor in argument order. Visitors
  // see the runner table as it was before the event. Their OnEvent is
  // always_inline, so all of their work shares one loop body (an out-of-line
  // call per event made the standalone analyzer ~1.7x slower). Locals drive
  // the loop: members the visitors' calls could reach would be reloaded on
  // every event.
  template <typename... Visitors>
  void Feed(std::span<const TraceEvent> batch, Visitors&... visitors) {
    const TraceEvent* const events = batch.data();
    const size_t count = batch.size();
    const size_t first = index_;
    for (size_t i = 0; i < count; ++i) {
      index_ = first + i;
      (visitors.OnEvent(*this, events[i]), ...);
      Advance(events[i]);
    }
    index_ = first + count;
    if (count > 0) {
      last_time_ = events[count - 1].time;
    }
  }

  // Calls each visitor's Finish once every batch is fed.
  template <typename... Visitors>
  void Finish(Visitors&... visitors) {
    (visitors.Finish(*this), ...);
  }

  // Of the event being visited, counted from the first record fed.
  size_t index() const { return index_; }
  uint64_t dropped_events() const { return dropped_; }
  // kTraceEpoch markers before the current event; all of them in Finish.
  uint64_t epochs() const { return epochs_; }
  // Nothing dropped and no sink reset; final only in Finish.
  bool whole_run() const { return dropped_ == 0 && epochs_ == 0; }
  // Time of the last record fed.
  Instant last_time() const { return last_time_; }
  const std::vector<CoreRunner>& cores() const { return cores_; }

  // The slot of `core`, created idle on first use; nullptr past kMaxCoreId.
  // Visitors only read it.
  CoreRunner* Core(int32_t core) {
    if (core < 0 || core > kMaxCoreId) {
      return nullptr;
    }
    if (static_cast<size_t>(core) >= cores_.size()) {
      cores_.resize(static_cast<size_t>(core) + 1,
                    CoreRunner{-1, dropped_ == 0 ? epochs_ : kUnknown});
    }
    return &cores_[static_cast<size_t>(core)];
  }

 private:
  void Advance(const TraceEvent& e) {
    switch (e.type) {
      case TraceEventType::kContextSwitch:
        if (CoreRunner* c = Core(e.arg2)) {
          *c = CoreRunner{e.arg1, epochs_};
        }
        break;
      case TraceEventType::kThreadExit:
        // ExitThread clears the running thread without a switch event; the
        // next switch legitimately reports idle as outgoing.
        if (e.arg0 >= 0 && e.arg0 <= kMaxThreadId) {
          CoreRunner* c = Core(e.arg2);
          if (c != nullptr && c->known() && c->thread == e.arg0) {
            c->thread = -1;
          }
        }
        break;
      case TraceEventType::kTraceEpoch:
        ++epochs_;
        break;
      default:
        break;
    }
  }

  uint64_t dropped_;
  size_t index_ = 0;  // between batches: the number of records fed
  Instant last_time_;
  uint64_t epochs_ = 0;
  std::vector<CoreRunner> cores_;
};

// Folds the window into its digest, one FoldTraceEvent per event, and
// counts the events by type.
struct WindowDigest {
  uint64_t hash = kFnv1aOffsetBasis;
  std::array<uint64_t, kNumTraceEventTypes> records_by_type{};
  void OnEvent(TraceReplay&, const TraceEvent& e) {
    hash = FoldTraceEvent(hash, e);
    ++records_by_type[static_cast<size_t>(e.type)];
  }
  void Finish(TraceReplay&) {}
};

// --- Trace invariants and per-task metrics (AnalyzeTrace) -----------------

class TraceAnalyzerVisitor {
 public:
  [[gnu::always_inline]] void OnEvent(TraceReplay& replay, const TraceEvent& e) {
    const size_t i = replay.index();
    if (e.type != TraceEventType::kJobRelease) [[likely]] {
      if (e.time < high_water_) [[unlikely]] {
        Violate(InvariantKind::kNonMonotoneTime, i,
                Describe("time went back %lld us (event %lld)", (high_water_ - e.time).micros(),
                         static_cast<long long>(i)));
      }
      high_water_ = std::max(high_water_, e.time);
    }

    // Chain and epoch events carry a token origin / epoch number in arg0,
    // not a thread id — never grow a task track from them. kOverheadSpan
    // packs (bucket, core) into arg0.
    const bool arg0_is_thread = e.type != TraceEventType::kChainEmit &&
                                e.type != TraceEventType::kChainConsume &&
                                e.type != TraceEventType::kTraceEpoch &&
                                e.type != TraceEventType::kOverheadSpan;
    Track* t0 = arg0_is_thread ? track(e.arg0) : nullptr;
    TaskMetrics* m0 = t0 != nullptr ? &out_.tasks[e.arg0] : nullptr;

    switch (e.type) {
      case TraceEventType::kContextSwitch: {
        ++out_.context_switches;
        const TraceReplay::CoreRunner* core = replay.Core(e.arg2);
        if (core != nullptr && core->known() && e.arg0 != core->thread) {
          Violate(InvariantKind::kSwitchPairing, i,
                  Describe("switch out of thread %lld but thread %lld was running", e.arg0,
                           core->thread));
        }
        if (t0 != nullptr) {  // outgoing
          m0->run_time += e.time - t0->run_start;
          if (t0->job_open && !t0->blocked) {
            ++m0->preemptions;
          }
        }
        Track* in = track(e.arg1);
        if (in != nullptr) {
          ++out_.tasks[e.arg1].switches_in;
          in->run_start = e.time;
          if (in->blocked) {
            Violate(InvariantKind::kBlockedThreadRan, i,
                    Describe("thread %lld switched in while blocked on semaphore %lld", e.arg1,
                             in->blocked_sem));
            in->blocked = false;
          }
        }
        break;
      }
      case TraceEventType::kJobRelease:
        ++out_.jobs_released;
        if (m0 != nullptr) {
          ++m0->releases;
          uint64_t job = static_cast<uint64_t>(e.arg1);
          if (t0->have_release_number && job <= t0->last_release_number) {
            Violate(InvariantKind::kJobNumberRegression, i,
                    Describe("thread %lld released job %lld out of order", e.arg0, e.arg1));
          }
          t0->have_release_number = true;
          t0->last_release_number = job;
          t0->job_open = true;
          t0->job_number = job;
          t0->job_release = e.time;
        }
        break;
      case TraceEventType::kJobComplete:
        ++out_.jobs_completed;
        if (m0 != nullptr) {
          if (t0->blocked) {
            Violate(InvariantKind::kBlockedThreadRan, i,
                    Describe("thread %lld completed job %lld while blocked", e.arg0, e.arg1));
            t0->blocked = false;
          }
          if (t0->job_open && t0->job_number == static_cast<uint64_t>(e.arg1)) {
            ++m0->completes;
            m0->response.Add(e.time - t0->job_release);
            t0->job_open = false;
          } else if (replay.dropped_events() == 0 || t0->have_release_number) {
            // With a truncated window, pre-window job state is unknown;
            // pairing is checked only once the window establishes it.
            Violate(InvariantKind::kCompleteWithoutRelease, i,
                    Describe("thread %lld completed job %lld with no matching release", e.arg0,
                             e.arg1));
          }
        }
        break;
      case TraceEventType::kDeadlineMiss:
        ++out_.deadline_misses;
        if (m0 != nullptr) {
          ++m0->deadline_misses;
        }
        break;
      case TraceEventType::kSemAcquire:
        ++out_.sem_acquires;
        if (m0 != nullptr) {
          ++m0->sem_acquires;
          if (t0->blocked) {
            if (t0->blocked_sem == e.arg1) {
              m0->blocking.Add(e.time - t0->block_start);
            } else {
              Violate(InvariantKind::kBlockedThreadRan, i,
                      Describe("thread %lld acquired semaphore %lld while blocked on another",
                               e.arg0, e.arg1));
            }
            t0->blocked = false;
          }
        }
        break;
      case TraceEventType::kSemAcquireBlock:
        ++out_.sem_blocks;
        if (m0 != nullptr) {
          ++m0->sem_blocks;
          if (t0->blocked) {
            Violate(InvariantKind::kBlockedThreadRan, i,
                    Describe("thread %lld blocked on semaphore %lld while already blocked",
                             e.arg0, e.arg1));
          }
          t0->blocked = true;
          t0->blocked_sem = e.arg1;
          t0->block_start = e.time;
        }
        break;
      case TraceEventType::kSemCseEarlyPi:
        ++out_.cse_early_pi;
        if (m0 != nullptr) {
          ++m0->cse_early_pi;
        }
        break;
      case TraceEventType::kPiInherit: {
        // arg0 = holder (receives priority), arg1 = donor. track() may grow
        // the vectors and invalidate t0/m0, so establish both tracks first
        // and re-index instead of reusing the stale pointers.
        bool have_donor = track(e.arg1) != nullptr;
        Track* holder = track(e.arg0);
        int donor_depth = have_donor ? tracks_[e.arg1].pi_depth : 0;
        if (holder != nullptr) {
          TaskMetrics& hm = out_.tasks[e.arg0];
          ++hm.pi_received;
          holder->pi_depth = std::max(holder->pi_depth, donor_depth + 1);
          hm.max_pi_depth = std::max(hm.max_pi_depth, holder->pi_depth);
          out_.max_pi_chain_depth = std::max(out_.max_pi_chain_depth, holder->pi_depth);
        }
        if (have_donor) {
          ++out_.tasks[e.arg1].pi_donated;
        }
        break;
      }
      case TraceEventType::kPiRestore:
        if (t0 != nullptr) {
          t0->pi_depth = 0;
        }
        break;
      case TraceEventType::kMsgSend:
        ++out_.msg_sends;
        break;
      case TraceEventType::kMsgRecv:
        ++out_.msg_recvs;
        break;
      case TraceEventType::kPiChainLimit:
        // A refused acquire: the thread did not block, so no track state
        // changes — only the stream-wide count for reconciliation.
        ++out_.pi_chain_limit;
        break;
      case TraceEventType::kHeadroomLow:
        ++out_.headroom_low;
        if (m0 != nullptr) {
          ++m0->headroom_low;
        }
        break;
      case TraceEventType::kChainEmit:
        ++out_.chain_emits;
        break;
      case TraceEventType::kChainConsume:
        ++out_.chain_consumes;
        break;
      case TraceEventType::kOverheadSpan:
        // Kernel-overhead attribution rider for the postmortem engine; the
        // analyzer only counts it (the span retroactively covers time that
        // elapsed before this event's timestamp).
        ++out_.overhead_spans;
        break;
      case TraceEventType::kThreadBlock:
        // Scheduler-level wait marker (kSemAcquireBlock already drives the
        // blocking histogram; this event also covers period waits, sleeps,
        // mailbox/condvar/IRQ waits). Counted only — the postmortem engine
        // is the consumer that classifies by reason.
        ++out_.thread_blocks;
        break;
      case TraceEventType::kThreadReady:
        ++out_.thread_readies;
        break;
      case TraceEventType::kThreadExit:
        if (t0 != nullptr) {
          const TraceReplay::CoreRunner* core = replay.Core(e.arg2);
          if (core != nullptr && core->known() && core->thread == e.arg0) {
            m0->run_time += e.time - t0->run_start;
          }
          t0->job_open = false;
          t0->blocked = false;
        }
        break;
      case TraceEventType::kSemRelease:
      case TraceEventType::kIrq:
      case TraceEventType::kTraceEpoch:
        // A sink reset marker needs no per-track reset: the retained window
        // only ever starts at or after it. The cursor counts the markers.
        break;
    }
  }

  void Finish(TraceReplay& replay) {
    out_.dropped_events = replay.dropped_events();
    out_.trace_epochs = replay.epochs();
    // Close the books at the window edge.
    for (const Track& t : tracks_) {
      if (t.blocked) {
        ++out_.unresolved_blocks_at_end;
      }
    }
    for (const TraceReplay::CoreRunner& core : replay.cores()) {
      if (core.known() && core.thread >= 0 && static_cast<size_t>(core.thread) < tracks_.size()) {
        out_.tasks[core.thread].run_time += replay.last_time() - tracks_[core.thread].run_start;
      }
    }
  }

  TraceAnalysis& analysis() { return out_; }

 private:
  struct Track {
    bool job_open = false;
    uint64_t job_number = 0;
    Instant job_release;
    bool have_release_number = false;
    uint64_t last_release_number = 0;
    bool blocked = false;
    int32_t blocked_sem = -1;
    Instant block_start;
    Instant run_start;
    int pi_depth = 0;
  };

  Track* track(int32_t id) {
    if (id < 0 || id > kMaxThreadId) {
      return nullptr;
    }
    if (static_cast<size_t>(id) >= tracks_.size()) {
      tracks_.resize(id + 1);
      out_.tasks.resize(id + 1);
    }
    if (!out_.tasks[id].seen) {
      out_.tasks[id].seen = true;
      out_.tasks[id].thread_id = id;
    }
    return &tracks_[id];
  }

  void Violate(InvariantKind kind, size_t index, std::string detail) {
    out_.violations.push_back(TraceViolation{kind, index, std::move(detail)});
  }

  TraceAnalysis out_;
  std::vector<Track> tracks_;
  // Latest non-release timestamp so far; starts below every event.
  Instant high_water_ = Instant::FromNanos(INT64_MIN);
};

// --- Causal-token conservation and declared chains (AnalyzeChains) --------

// Matches each chain event as it is fed. Per token origin it keeps only what
// a later event can still match: whether the origin was minted, the first
// emit of each (endpoint, hop) with a consumed bit, and each declared
// chain's instance in flight, all in flat tables. A consume stores nothing,
// unless it is an orphan seen while the window still looks whole (Orphan).
class ChainVisitor {
 public:
  explicit ChainVisitor(const std::vector<ResolvedChain>& specs) : specs_(specs) {}

  [[gnu::always_inline]] void OnEvent(TraceReplay& replay, const TraceEvent& e) {
    if (e.type == TraceEventType::kChainEmit || e.type == TraceEventType::kChainConsume) {
      Match(replay, e);
    }
  }

  void Finish(TraceReplay& replay) {
    Setup();
    // A kTraceEpoch marker means the sink was Reset: dropped() restarted
    // from zero but tokens banked before the reset can surface afterwards,
    // so the window is not the whole run even when nothing was dropped.
    out_.complete_window = replay.whole_run();
    const ptrdiff_t streamed = static_cast<ptrdiff_t>(out_.violations.size());
    for (const Orphan& o : orphans_) {
      if (!out_.complete_window) {
        ++out_.orphan_hops;
      } else {
        Violate(ChainViolationKind::kOrphanConsume, o.index,
                Describe("consume of origin %lld hop %lld at endpoint %lld with no matching emit",
                         o.origin, o.hop, o.endpoint));
      }
    }
    std::inplace_merge(out_.violations.begin(), out_.violations.begin() + streamed,
                       out_.violations.end(), [](const auto& a, const auto& b) {
                         return a.event_index < b.event_index;
                       });
    out_.unconsumed_emits = emits_.size() - consumed_;
    for (Tracker& t : trackers_) {
      out_.chains[t.spec].incomplete = t.live.size();
    }
  }

  ChainAnalysis& analysis() { return out_; }

 private:
  struct OriginSlot {
    uint32_t origin;
    bool empty() const { return origin == 0; }
    bool Same(const OriginSlot& k) const { return origin == k.origin; }
    uint64_t Hash() const { return origin * kFibonacciHash; }
  };

  // The first emit of an (origin, endpoint, hop): a consume of (endpoint,
  // hop + 1) matches it, and one emit may be consumed many times
  // (state-message re-reads, broadcasts).
  struct EmitKey : OriginSlot {
    int32_t endpoint;
    uint8_t hop;
    bool consumed;
    bool Same(const EmitKey& k) const {
      return origin == k.origin && endpoint == k.endpoint && hop == k.hop;
    }
    uint64_t Hash() const {
      return (uint64_t{static_cast<uint32_t>(endpoint)} << 32 | origin) * kFibonacciHash +
             (uint64_t{hop} << 48);
    }
  };

  // The minted flags of the 32 origins o with o | 31 == origin.
  struct MintedOrigins : OriginSlot {
    uint32_t bits;
  };

  // One declared chain's traversal by an origin, in flight. Stage k of an
  // instance whose head emit carried hop `base_hop` is emitted at hop
  // base_hop + k and consumed at hop base_hop + k + 1; enforcing the hops
  // exactly keeps re-emits of the same origin elsewhere from interleaving.
  // The payload is its timeline: stage k's emit time at 2k and its consume
  // time at 2k + 1; the final consume completes the instance. Until stage k
  // is emitted, entry 2k holds the consumer of stage k - 1, the emit's actor.
  struct Instance : OriginSlot {
    uint16_t filled;  // payload entries written: odd while a consume is awaited
    uint8_t base_hop;
  };

  struct Tracker {
    size_t spec;
    FlatTable<Instance> live;  // keyed by origin
  };

  // A consume with no visible emit, seen while nothing was dropped and no
  // epoch had passed: Finish makes it a violation if the window stays
  // whole, else an orphan hop.
  struct Orphan {
    size_t index;
    uint32_t origin;
    int32_t endpoint;
    int hop;
  };

  // Out of line: chain events are under a tenth of a node's records, so the
  // fused loop body stays small.
  [[gnu::noinline]] void Match(const TraceReplay& replay, const TraceEvent& e) {
    const bool consume = e.type == TraceEventType::kChainConsume;
    const uint32_t origin = static_cast<uint32_t>(e.arg0);
    const int32_t endpoint = e.arg1;
    const int hop = ChainHopOf(e.arg2);
    const size_t index = replay.index();
    if (origin == 0 || hop > kMaxChainHops) {
      Violate(ChainViolationKind::kMalformedToken, index,
              Describe("origin %lld hop %lld at endpoint %lld", origin, hop, endpoint));
      return;
    }
    ++(consume ? out_.chain_consumes : out_.chain_emits);
    if (consume && hop == 0) {
      Violate(ChainViolationKind::kMalformedToken, index,
              Describe("consume at hop 0 (origin %lld, endpoint %lld)", origin, endpoint));
      return;
    }
    const uint8_t emit_hop = static_cast<uint8_t>(consume ? hop - 1 : hop);
    if (!consume) {
      if (hop == 0) {
        uint32_t& minted = minted_.Insert({{origin | 31}, 0})->bits;
        const uint32_t bit = 1u << (origin & 31);
        if ((minted & bit) != 0) {
          Violate(ChainViolationKind::kOriginReuse, index,
                  Describe("origin %lld minted again at endpoint %lld (hop %lld)", origin,
                           endpoint, hop));
        } else {
          minted |= bit;
          ++out_.origins_minted;
        }
      }
      emits_.Insert({{origin}, endpoint, emit_hop, false});
    } else if (EmitKey* emit = emits_.Find({{origin}, endpoint, emit_hop, false})) {
      consumed_ += emit->consumed ? 0 : 1;
      emit->consumed = true;
    } else if (hop == kMaxChainHops) {
      // At the hop ceiling the producing side drops the token instead of
      // advancing it (ChainConsume's saturation path), so a capped consume
      // legitimately has no in-window emit even in a complete window.
      // Degrade to a counted orphan rather than a conservation violation.
      ++out_.saturated_hops;
    } else if (replay.whole_run()) {
      orphans_.push_back(Orphan{index, origin, endpoint, hop});
    } else {
      ++out_.orphan_hops;  // the emit predates the retained window
    }
    Setup();
    for (Tracker& t : trackers_) {
      Advance(t, consume, origin, endpoint, hop, ChainActorOf(e.arg2), e.time);
    }
  }

  void Advance(Tracker& t, bool consume, uint32_t origin, int32_t endpoint, int hop, int actor,
               Instant time) {
    const std::vector<ResolvedChainStage>& stages = specs_[t.spec].stages;
    if (std::none_of(stages.begin(), stages.end(),
                     [&](const ResolvedChainStage& s) { return s.endpoint == endpoint; })) {
      return;
    }
    // Only an emit at the first stage may start an instance.
    const Instance key{{origin}, 0, static_cast<uint8_t>(hop)};
    Instance* in = !consume && endpoint == stages[0].endpoint ? t.live.Insert(key) : t.live.Find(key);
    if (in == nullptr) {
      return;
    }
    int64_t* times = t.live.payload(in);
    if (in->filled == 0) {
      times[in->filled++] = time.nanos();
      return;
    }
    const int k = in->filled / 2;  // the stage awaited
    const ResolvedChainStage& stage = stages[k];
    if (consume != (in->filled % 2 == 1) || endpoint != stage.endpoint) {
      return;
    }
    if (!consume) {
      if (hop == in->base_hop + k && actor == times[in->filled]) {
        times[in->filled++] = time.nanos();
      }
    } else if (hop != in->base_hop + k + 1 ||
               (stage.consumer_tid >= 0 && actor != stage.consumer_tid)) {
      return;
    } else if (static_cast<size_t>(k) + 1 < stages.size()) {
      times[in->filled++] = time.nanos();
      times[in->filled] = actor;
    } else {
      Complete(out_.chains[t.spec], origin, times, time);
      t.live.Erase(in);
    }
  }

  // Adds an instance whose final stage was consumed at `end`. The gaps of
  // its timeline alternate a stage's queue time and its consumer's exec
  // time, so they telescope to e2e exactly. Instances complete in event
  // order, so the records kept are the window's first overruns.
  static void Complete(ChainReport& report, uint32_t origin, const int64_t* times, Instant end) {
    const size_t last = 2 * report.hops.size() - 1;  // the final consume's entry
    const auto at = [&](size_t i) { return i < last ? Instant::FromNanos(times[i]) : end; };
    const Duration e2e = end - at(0);
    ++report.completed;
    report.e2e.Add(e2e);
    ChainOverrunRecord* rec = nullptr;
    if (report.deadline.nanos() > 0 && e2e > report.deadline) {
      ++report.overruns;
      if (report.overrun_records.size() < kMaxChainOverrunRecords) {
        rec = &report.overrun_records.emplace_back(ChainOverrunRecord{origin, at(0), e2e, {}, {}});
      } else {
        ++report.overrun_records_dropped;
      }
    }
    for (size_t i = 0; i < last; ++i) {
      const Duration gap = at(i + 1) - at(i);
      ChainHopStats& hop = report.hops[i / 2];
      (i % 2 == 0 ? hop.queue : hop.exec).Add(gap);
      if (rec != nullptr) {
        (i % 2 == 0 ? rec->hop_queue_ns : rec->hop_exec_ns).push_back(gap.nanos());
      }
    }
  }

  // The report rows and trackers, built once the specs are known: the fleet
  // builds its evaluator before Kernel::Start() resolves them.
  void Setup() {
    if (ready_) {
      return;
    }
    ready_ = true;
    for (size_t s = 0; s < specs_.size(); ++s) {
      const ResolvedChain& spec = specs_[s];
      ChainReport& r = out_.chains.emplace_back();
      r.name = spec.name;
      r.deadline = spec.deadline;
      r.resolved = spec.resolved;
      for (const ResolvedChainStage& st : spec.stages) {
        r.hops.emplace_back().endpoint = st.endpoint;
        r.hops.back().consumer_tid = st.consumer_tid;
      }
      if (spec.resolved && !spec.stages.empty()) {  // else a report row, no instances
        trackers_.push_back(Tracker{s, FlatTable<Instance>(2 * spec.stages.size() - 1)});
      }
    }
  }

  void Violate(ChainViolationKind kind, size_t index, std::string detail) {
    out_.violations.push_back(ChainViolation{kind, index, std::move(detail)});
  }

  const std::vector<ResolvedChain>& specs_;
  ChainAnalysis out_;
  bool ready_ = false;
  FlatTable<EmitKey> emits_;
  FlatTable<MintedOrigins> minted_;
  uint64_t consumed_ = 0;  // emit keys some consume matched
  std::vector<Orphan> orphans_;
  std::vector<Tracker> trackers_;
};

// --- Deadline-miss postmortem (AnalyzePostmortem) --------------------------

// The ledger fields kernel overhead is billed to, in SpanSums::field order.
constexpr std::array<int64_t LatenessLedger::*, 5> kOverheadFields = {
    &LatenessLedger::irq_ns, &LatenessLedger::ipi_ns, &LatenessLedger::timer_svc_ns,
    &LatenessLedger::sched_ns, &LatenessLedger::syscall_ns};

// What kOverheadSpan records carved out of the gaps they end: the sum of
// min(gap, span), negative on a corrupt span, and of its positive parts, in
// total and per kOverheadFields entry.
struct SpanSums {
  int64_t carved = 0;
  int64_t positive = 0;
  std::array<int64_t, kOverheadFields.size()> field{};

  SpanSums Since(const SpanSums& snap) const {
    SpanSums d{carved - snap.carved, positive - snap.positive, {}};
    for (size_t f = 0; f < field.size(); ++f) {
      d.field[f] = field[f] - snap.field[f];
    }
    return d;
  }
};

constexpr SpanSums kNoSpans{};

// The kOverheadFields entry a cycle bucket's overhead is billed to.
size_t OverheadField(int bucket) {
  switch (static_cast<CycleBucket>(bucket)) {
    case CycleBucket::kIrq:
      return 0;
    case CycleBucket::kIpi:
      return 1;
    case CycleBucket::kTimerSvc:
      return 2;
    case CycleBucket::kSchedSelect:
    case CycleBucket::kSchedBlock:
    case CycleBucket::kSchedUnblock:
    case CycleBucket::kSchedParse:
    case CycleBucket::kContextSwitch:
      return 3;
    default:
      // Traps, semaphore/PI/IPC bookkeeping, stats sampling.
      return 4;
  }
}

// Adds one span's carve of a gap; its positive part is billed to the span's
// bucket.
void AddOverhead(SpanSums& sums, int bucket, int64_t part) {
  sums.carved += part;
  if (part > 0) {
    sums.positive += part;
    sums.field[OverheadField(bucket)] += part;
  }
}

// Largest single ledger component, named. Per-preemptor and per-lock shares
// compete individually so "preempted by t3" can win over a bulk category.
std::string TopBlame(const LatenessLedger& l) {
  const char* label = "none";
  char buf[48];
  int64_t best = 0;
  auto consider = [&](const char* name, int64_t v) {
    if (v > best) {
      best = v;
      label = name;
    }
  };
  consider("carry_in", l.carry_in_ns);
  consider("release_latency", l.release_latency_ns);
  consider("self_suspend", l.self_suspend_ns);
  consider("irq", l.irq_ns);
  consider("ipi", l.ipi_ns);
  consider("timer_svc", l.timer_svc_ns);
  consider("sched", l.sched_ns);
  consider("syscall", l.syscall_ns);
  consider("own_overrun", l.own_overrun_ns);
  consider("own_expected", l.own_expected_ns);
  consider("unattributed", l.unattributed_ns);
  for (const auto& [tid, ns] : l.preemptor_ns) {
    if (ns > best) {
      best = ns;
      std::snprintf(buf, sizeof(buf), "preempted_by:t%d", tid);
      label = buf;
    }
  }
  for (const auto& [sem, ns] : l.lock_ns) {
    if (ns > best) {
      best = ns;
      std::snprintf(buf, sizeof(buf), "blocked_on:S%d", sem);
      label = buf;
    }
  }
  return label;
}

// Attribution is gap-based: every open job's time from its release to its
// completion is classified by the victim's scheduler state, with the spans
// kOverheadSpan records carve out of the gaps on its core billed as overhead.
// That classification can change only at a record naming the thread (switch
// in or out, release, complete, block, ready, CSE early PI, exit), at a
// switch or exit on its core while it is runnable, and at a sink reset, so a
// job is settled only there: the cursor time since its last settle, less
// what the spans on its core carved meanwhile, goes to its state. Every
// settled job's attribution cursor `jc` sits at the stream cursor, so each
// gap is the same for all of them and per-core running sums of the carves,
// snapshotted at each settle, give every job's share exactly. A job released
// ahead of the cursor is walked record by record until the cursor reaches
// its `jc`.
class PostmortemVisitor {
 public:
  [[gnu::always_inline]] void OnEvent(TraceReplay& replay, const TraceEvent& e) {
    if (e.type != TraceEventType::kJobRelease) {
      // kJobRelease is exempt: it carries the retroactive nominal release.
      // A span carves min(gap, span) out of the gap it ends on its core; the
      // clamp keeps microsecond-truncated CSV replays exact, since a span can
      // only shrink to its gap, never overdraw it.
      if (e.type == TraceEventType::kOverheadSpan && have_cursor_ && e.time > cursor_) {
        const size_t core = static_cast<size_t>(OverheadSpanCore(e.arg0));
        if (core >= core_spans_.size()) {
          core_spans_.resize(core + 1);
        }
        AddOverhead(core_spans_[core], OverheadSpanBucket(e.arg0),
                    std::min<int64_t>((e.time - cursor_).nanos(), e.arg1));
      }
      if (!have_cursor_ || e.time > cursor_) {
        cursor_ = e.time;
        have_cursor_ = true;
      }
      if (!ahead_tids_.empty()) [[unlikely]] {
        WalkAhead(replay, e);
      }
    }

    switch (e.type) {
      case TraceEventType::kContextSwitch: {
        // The cursor records the new runner once every visitor has seen it.
        const bool core_ok = e.arg2 >= 0 && e.arg2 <= kMaxCoreId;
        if (core_ok) {
          SettleCore(replay, e.arg2);
        }
        Thread* in = track(e.arg1);
        if (in != nullptr) {
          Settle(replay, e.arg1, *in);
          if (core_ok) {
            in->core = e.arg2;
          }
          in->blocked = false;  // a blocked thread cannot be switched in
          Resnap(*in);
        }
        Thread* outg = track(e.arg0);
        if (outg != nullptr && core_ok) {
          Settle(replay, e.arg0, *outg);
          outg->core = e.arg2;
          Resnap(*outg);
        }
        break;
      }
      case TraceEventType::kJobRelease: {
        Thread* th = track(e.arg0);
        if (th == nullptr) {
          break;
        }
        // A release over a still-open job only happens on corrupted or
        // truncated streams; discard the stale job, settled first so that
        // any runner slot it touches is created in this epoch.
        Settle(replay, e.arg0, *th);
        CloseOpenJob(e.arg0, *th);
        OpenJob& job = th->job;
        job.open = true;
        job.number = static_cast<uint64_t>(e.arg1);
        job.release = e.time;
        if (e.arg2 > 0) {
          job.has_deadline = true;
          job.budget_ns = e.arg2;
        } else if (e.arg2 < 0) {
          job.has_deadline = true;
          job.budget_ns = -static_cast<int64_t>(e.arg2) * 1000;
        }
        Instant prev = th->have_last_complete ? th->last_complete : e.time;
        Instant base = std::max(e.time, prev);
        Instant jc0 = base;
        if (have_cursor_ && cursor_ > jc0) {
          jc0 = cursor_;
        }
        job.jc = jc0;
        LatenessLedger& l = job.ledger;
        if (prev > e.time) {
          l.carry_in_ns = (prev - e.time).nanos();
        }
        int64_t latency = (jc0 - base).nanos();
        const bool truncated = replay.dropped_events() > 0 || replay.epochs() > 0;
        if (!th->have_last_complete && truncated) {
          // Pre-window history is unknown: the lump between the retroactive
          // release and the stream cursor cannot be attributed honestly.
          l.unattributed_ns += latency;
        } else {
          l.release_latency_ns += latency;
        }
        open_tids_.push_back(e.arg0);
        job.synced = have_cursor_ && jc0 == cursor_;
        if (job.synced) {
          job.snap = SpansOn(th->core);
        } else {
          ahead_tids_.push_back(e.arg0);
        }
        break;
      }
      case TraceEventType::kJobComplete: {
        Thread* th = track(e.arg0);
        if (th == nullptr) {
          break;
        }
        Settle(replay, e.arg0, *th);
        if (th->job.open && th->job.number == static_cast<uint64_t>(e.arg1)) {
          FinalizeJob(e.arg0, *th, e.time);
        } else {
          // Complete with no visible release (truncated window): remember
          // the completion so the next release's carry-in is still exact.
          CloseOpenJob(e.arg0, *th);
          th->have_last_complete = true;
          th->last_complete = e.time;
          th->last_number = static_cast<uint64_t>(e.arg1);
          th->last_has_deadline = false;
          th->last_counted = false;
        }
        break;
      }
      case TraceEventType::kDeadlineMiss: {
        Thread* th = track(e.arg0);
        if (th == nullptr) {
          break;
        }
        if (th->job.open && th->job.number == static_cast<uint64_t>(e.arg1)) {
          th->job.missed_early = true;
        } else if (th->have_last_complete && th->last_number == static_cast<uint64_t>(e.arg1)) {
          // The completion-path miss lands just after kJobComplete. Already
          // counted via the deadline check at finalize — unless the trace
          // carried no deadline, where the event is the only miss signal.
          if (!th->last_counted && !th->last_has_deadline) {
            ++out_.deadline_unknown;
            th->last_counted = true;
          }
        } else {
          ++out_.unmatched_misses;
        }
        break;
      }
      case TraceEventType::kThreadBlock: {
        Thread* th = track(e.arg0);
        if (th != nullptr) {
          Settle(replay, e.arg0, *th);
          th->blocked = true;
          th->reason = static_cast<BlockReason>(e.arg1);
          th->blocked_obj = e.arg2;
        }
        break;
      }
      case TraceEventType::kThreadReady: {
        Thread* th = track(e.arg0);
        if (th != nullptr) {
          Settle(replay, e.arg0, *th);
          th->blocked = false;
          th->reason = BlockReason::kNone;
          th->blocked_obj = -1;
          if (e.arg2 >= 0 && e.arg2 <= kMaxCoreId) {
            th->core = e.arg2;
          }
          Resnap(*th);
        }
        break;
      }
      case TraceEventType::kSemCseEarlyPi: {
        // The woken thread stays blocked, but its wait flips from the period
        // grid to the contended lock — from here the time is PI blocking.
        Thread* th = track(e.arg0);
        if (th != nullptr) {
          Settle(replay, e.arg0, *th);
          th->blocked = true;
          th->reason = BlockReason::kWaitSem;
          th->blocked_obj = e.arg1;
        }
        break;
      }
      case TraceEventType::kThreadExit: {
        // The cursor idles the core once every visitor has seen the exit.
        if (e.arg2 >= 0 && e.arg2 <= kMaxCoreId) {
          SettleCore(replay, e.arg2);
        }
        Thread* th = track(e.arg0);
        if (th != nullptr) {
          Settle(replay, e.arg0, *th);
          CloseOpenJob(e.arg0, *th);
          th->blocked = false;
        }
        break;
      }
      case TraceEventType::kTraceEpoch:
        // Mid-run sink reset: every open job and scheduler state predates a
        // discarded window. Start over, truncated; the cursor's epoch count
        // makes every runner established so far unknown. The jobs are
        // settled first, so each runner slot a settle creates is created in
        // this epoch, as a record-by-record walk would create it.
        for (int32_t tid : std::vector<int32_t>(open_tids_)) {
          Settle(replay, tid, threads_[tid]);
          CloseOpenJob(tid, threads_[tid]);
        }
        for (Thread& th : threads_) {
          th.blocked = false;
        }
        break;
      default:
        break;
    }
  }

  void Finish(TraceReplay& replay) {
    out_.window_truncated = !replay.whole_run();
    // Horizon: jobs still open are incomplete; a passed deadline among them
    // is a known miss without a completion to attribute.
    for (int32_t tid : open_tids_) {
      const OpenJob& job = threads_[tid].job;
      bool missed = job.missed_early;
      if (!missed && job.has_deadline) {
        missed = (replay.last_time() - job.release).nanos() > job.budget_ns;
      }
      if (missed) {
        ++out_.incomplete_misses;
      }
    }
  }

  PostmortemAnalysis& analysis() { return out_; }

 private:
  // A job currently between release and completion, with its attribution
  // cursor and accumulating ledger.
  struct OpenJob {
    bool open = false;
    uint64_t number = 0;
    Instant release;           // nominal (retroactive) release instant
    bool has_deadline = false;
    int64_t budget_ns = 0;     // relative deadline
    bool missed_early = false; // kDeadlineMiss arrived while still open
    Instant jc;                // attribution cursor: time before jc is classified
    // jc had reached the stream cursor at the last settle; else the job is
    // in ahead_tids_ and walked record by record.
    bool synced = false;
    SpanSums snap;             // its core's span sums at the last settle
    int64_t own_exec_ns = 0;   // scheduled time, split at finalize vs the EWMA
    int64_t measured_cost_ns = 0;  // own_exec + overhead billed while running
    LatenessLedger ledger;
  };

  struct Thread {
    int core = 0;
    bool blocked = false;
    BlockReason reason = BlockReason::kNone;
    int32_t blocked_obj = -1;
    bool have_last_complete = false;
    Instant last_complete;
    uint64_t last_number = 0;
    bool last_has_deadline = false;
    bool last_counted = false;  // the finalized job was already counted missed
    bool ewma_seeded = false;
    int64_t ewma_ns = 0;  // analyzer-side replay of the kernel's cost EWMA
    OpenJob job;
  };

  Thread* track(int32_t id) {
    if (id < 0 || id > kMaxThreadId) {
      return nullptr;
    }
    if (static_cast<size_t>(id) >= threads_.size()) {
      threads_.resize(id + 1);
    }
    return &threads_[id];
  }

  const SpanSums& SpansOn(int core) const {
    return static_cast<size_t>(core) < core_spans_.size() ? core_spans_[core] : kNoSpans;
  }

  // Classifies `elapsed` ns of the job's time by the victim's state, given
  // what spans on its core carved out of it; an exact partition of the
  // elapsed time, so per-job sums telescope by construction.
  void Bill(TraceReplay& replay, int32_t tid, Thread& th, int64_t elapsed, const SpanSums& spans) {
    if (elapsed <= 0) {
      return;
    }
    OpenJob& job = th.job;
    LatenessLedger& l = job.ledger;
    if (th.blocked) {
      switch (th.reason) {
        case BlockReason::kWaitSem:
        case BlockReason::kPreAcquire:
          l.lock_blocked_ns += elapsed;
          if (th.blocked_obj >= 0) {
            l.lock_ns[th.blocked_obj] += elapsed;
          }
          break;
        case BlockReason::kWaitPeriod:
          // Released but the wake has not landed yet (timer service / CSE
          // release window): still latency of getting the job going.
          l.release_latency_ns += elapsed;
          break;
        default:
          l.self_suspend_ns += elapsed;
          break;
      }
      return;
    }
    for (size_t f = 0; f < kOverheadFields.size(); ++f) {
      l.*kOverheadFields[f] += spans.field[f];
    }
    // The runner the window established on the victim's core, forgotten at
    // a sink reset.
    const TraceReplay::CoreRunner* core = replay.Core(th.core);
    const bool known = core != nullptr && core->since == replay.epochs();
    const int32_t runner = core != nullptr ? core->thread : -1;
    const int64_t residue = elapsed - spans.carved;
    if (residue > 0) {
      if (known && runner == tid) {
        job.own_exec_ns += residue;
        job.measured_cost_ns += residue;
      } else if (known && runner >= 0) {
        l.preemption_ns += residue;
        l.preemptor_ns[runner] += residue;
      } else if (known) {
        // Ready with an idle core: the scheduler is in transit.
        l.sched_ns += residue;
      } else {
        l.unattributed_ns += residue;
      }
    }
    if (known && runner == tid) {
      // Overhead billed while scheduled counts toward the measured job
      // cost, matching the kernel's bill-to-current EWMA semantics.
      job.measured_cost_ns += spans.positive;
    }
  }

  // Bills a synced job's time since its last settle, up to the cursor.
  void Settle(TraceReplay& replay, int32_t tid, Thread& th) {
    OpenJob& job = th.job;
    if (!job.open || !job.synced) {
      return;
    }
    const SpanSums& now = SpansOn(th.core);
    Bill(replay, tid, th, (cursor_ - job.jc).nanos(), now.Since(job.snap));
    job.jc = cursor_;
    job.snap = now;
  }

  // Settles the runnable jobs on `core`, whose runner is about to change.
  void SettleCore(TraceReplay& replay, int core) {
    for (int32_t tid : open_tids_) {
      Thread& th = threads_[tid];
      if (th.core == core && !th.blocked) {
        Settle(replay, tid, th);
      }
    }
  }

  // After a settled job's thread changed core, its sums are the new core's.
  void Resnap(Thread& th) {
    if (th.job.open && th.job.synced) {
      th.job.snap = SpansOn(th.core);
    }
  }

  // Classifies each ahead job's gap up to `e`, carving `e` if it is a span on
  // the job's core; a job whose jc the cursor reached joins the settled ones.
  void WalkAhead(TraceReplay& replay, const TraceEvent& e) {
    std::erase_if(ahead_tids_, [&](int32_t tid) {
      Thread& th = threads_[tid];
      OpenJob& job = th.job;
      const int64_t g = (e.time - job.jc).nanos();
      if (g > 0) {
        SpanSums spans;
        if (e.type == TraceEventType::kOverheadSpan && OverheadSpanCore(e.arg0) == th.core) {
          AddOverhead(spans, OverheadSpanBucket(e.arg0), std::min<int64_t>(g, e.arg1));
        }
        Bill(replay, tid, th, g, spans);
        job.jc = e.time;
      }
      job.synced = job.jc == cursor_;
      if (job.synced) {
        job.snap = SpansOn(th.core);
      }
      return job.synced;
    });
  }

  // Removes a job that is no longer open from the open lists.
  void Forget(int32_t tid, const OpenJob& job) {
    open_tids_.erase(std::find(open_tids_.begin(), open_tids_.end(), tid));
    if (!job.synced) {
      ahead_tids_.erase(std::find(ahead_tids_.begin(), ahead_tids_.end(), tid));
    }
  }

  // Drops an open job without a completion; a passed deadline counts it as
  // an incomplete miss.
  void CloseOpenJob(int32_t tid, Thread& th) {
    if (!th.job.open) {
      return;
    }
    bool missed = th.job.missed_early;
    if (!missed && th.job.has_deadline && have_cursor_) {
      missed = (cursor_ - th.job.release).nanos() > th.job.budget_ns;
    }
    if (missed) {
      ++out_.incomplete_misses;
    }
    Forget(tid, th.job);
    th.job = OpenJob();
  }

  void FinalizeJob(int32_t tid, Thread& th, Instant completion) {
    OpenJob& job = th.job;
    LatenessLedger& l = job.ledger;
    int64_t response = (completion - job.release).nanos();
    // Split scheduled execution against the replayed EWMA. The split
    // partitions own_exec exactly, so conservation never depends on the
    // predictor's accuracy.
    int64_t expected = th.ewma_seeded ? th.ewma_ns : job.measured_cost_ns;
    l.own_expected_ns = std::min(job.own_exec_ns, std::max<int64_t>(0, expected));
    l.own_overrun_ns = job.own_exec_ns - l.own_expected_ns;
    if (th.ewma_seeded) {
      th.ewma_ns += (job.measured_cost_ns - th.ewma_ns) / 4;
    } else {
      th.ewma_ns = job.measured_cost_ns;
      th.ewma_seeded = true;
    }

    bool missed = job.missed_early || (job.has_deadline && response > job.budget_ns);
    th.have_last_complete = true;
    th.last_complete = completion;
    th.last_number = job.number;
    th.last_has_deadline = job.has_deadline;
    th.last_counted = missed;
    if (missed && !job.has_deadline) {
      // Legacy trace (no encoded deadline): the miss is real but the
      // tardiness target is unknown, so it is counted, not attributed.
      ++out_.deadline_unknown;
    } else if (missed) {
      int64_t sum = l.sum_ns();
      bool conserved = sum == response;
      if (!conserved) {
        ++out_.conservation_failures;
        ++out_.blame.conservation_failures;
      }
      ++out_.misses_analyzed;
      ++out_.blame.misses_analyzed;
      int64_t tardiness = response - job.budget_ns;
      out_.blame.tardiness_ns += tardiness;
      out_.blame.unattributed_ns += l.unattributed_ns;
      ++out_.blame.victim_misses[tid];
      out_.blame.victim_tardiness_ns[tid] += tardiness;
      for (const auto& [k, v] : l.preemptor_ns) {
        out_.blame.preemptor_ns[k] += v;
      }
      for (const auto& [k, v] : l.lock_ns) {
        out_.blame.lock_ns[k] += v;
      }
      if (out_.misses.size() < kMaxJobPostmortems) {
        JobPostmortem rec;
        rec.thread_id = tid;
        rec.job_number = job.number;
        rec.release = job.release;
        rec.completion = completion;
        rec.has_deadline = true;
        rec.deadline_budget_ns = job.budget_ns;
        rec.response_ns = response;
        rec.tardiness_ns = tardiness;
        rec.conserved = conserved;
        rec.ledger = l;
        rec.top_blame = TopBlame(rec.ledger);
        out_.misses.push_back(std::move(rec));
      } else {
        ++out_.records_dropped;
      }
    }
    Forget(tid, job);
    th.job = OpenJob();
  }

  PostmortemAnalysis out_;
  std::vector<Thread> threads_;
  std::vector<int32_t> open_tids_;
  std::vector<int32_t> ahead_tids_;  // open jobs not yet synced, walked per record
  std::vector<SpanSums> core_spans_;  // per core, from the first record
  Instant cursor_;  // max non-release event time processed so far
  bool have_cursor_ = false;
};

// One analysis alone on the shared cursor.
template <typename Visitor>
auto RunAlone(std::span<const TraceEvent> window, uint64_t dropped_events, Visitor visitor) {
  TraceReplay replay(dropped_events);
  replay.Feed(window, visitor);
  replay.Finish(visitor);
  return std::move(visitor.analysis());
}

}  // namespace

struct TraceEvaluator::Passes {
  Passes(uint64_t dropped_events, const std::vector<ResolvedChain>& specs)
      : replay(dropped_events), chains(specs) {}

  TraceReplay replay;
  WindowDigest digest;
  TraceAnalyzerVisitor trace;
  ChainVisitor chains;
  PostmortemVisitor postmortem;
};

TraceEvaluator::TraceEvaluator(uint64_t dropped_events, const std::vector<ResolvedChain>& specs)
    : passes_(std::make_unique<Passes>(dropped_events, specs)) {}

TraceEvaluator::~TraceEvaluator() = default;

void TraceEvaluator::Feed(std::span<const TraceEvent> batch) {
  Passes& p = *passes_;
  p.replay.Feed(batch, p.digest, p.trace, p.chains, p.postmortem);
}

TraceEvaluation TraceEvaluator::Finish() {
  Passes& p = *passes_;
  p.replay.Finish(p.digest, p.trace, p.chains, p.postmortem);
  return TraceEvaluation{p.digest.hash, p.digest.records_by_type, std::move(p.trace.analysis()),
                         std::move(p.chains.analysis()), std::move(p.postmortem.analysis())};
}

TraceAnalysis AnalyzeTrace(const TraceEvent* events, size_t count, uint64_t dropped_events) {
  return RunAlone({events, count}, dropped_events, TraceAnalyzerVisitor());
}

TraceAnalysis AnalyzeTrace(const TraceSink& sink) {
  return AnalyzeTrace(sink.events().data(), sink.size(), sink.dropped());
}

ChainAnalysis AnalyzeChains(const TraceEvent* events, size_t count, uint64_t dropped_events,
                            const std::vector<ResolvedChain>& specs) {
  return RunAlone({events, count}, dropped_events, ChainVisitor(specs));
}

ChainAnalysis AnalyzeChains(const TraceSink& sink, const std::vector<ResolvedChain>& specs) {
  return AnalyzeChains(sink.events().data(), sink.size(), sink.dropped(), specs);
}

PostmortemAnalysis AnalyzePostmortem(const TraceEvent* events, size_t count,
                                     uint64_t dropped_events) {
  return RunAlone({events, count}, dropped_events, PostmortemVisitor());
}

PostmortemAnalysis AnalyzePostmortem(const TraceSink& sink) {
  return AnalyzePostmortem(sink.events().data(), sink.size(), sink.dropped());
}

TraceEvaluation EvaluateTrace(std::span<const TraceEvent> window, uint64_t dropped_events,
                              const std::vector<ResolvedChain>& specs) {
  TraceEvaluator evaluator(dropped_events, specs);
  evaluator.Feed(window);
  return evaluator.Finish();
}

TraceEvaluation EvaluateTrace(const TraceSink& sink, const std::vector<ResolvedChain>& specs) {
  return EvaluateTrace(sink.events(), sink.dropped(), specs);
}

}  // namespace obs
}  // namespace emeralds
