// Execution tracing.
//
// The trace sink records timestamped kernel events (context switches, job
// releases, deadline misses, semaphore operations) into a bounded window.
// Figure 2's schedule trace, many integration tests, and the src/obs/
// observability pipeline (Perfetto export, trace analyzer) are built on it.

#ifndef SRC_HAL_TRACE_H_
#define SRC_HAL_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "src/base/assert.h"
#include "src/base/time.h"

namespace emeralds {

enum class TraceEventType : uint8_t {
  kContextSwitch,   // arg0 = outgoing thread id (-1 = idle), arg1 = incoming
  kJobRelease,      // arg0 = thread id, arg1 = job number
  kJobComplete,     // arg0 = thread id, arg1 = job number
  kDeadlineMiss,    // arg0 = thread id, arg1 = job number
  kSemAcquire,      // arg0 = thread id, arg1 = semaphore id
  kSemAcquireBlock, // arg0 = thread id, arg1 = semaphore id
  kSemRelease,      // arg0 = thread id, arg1 = semaphore id
  kSemCseEarlyPi,   // arg0 = thread id, arg1 = semaphore id (saved switch)
  kPiInherit,       // arg0 = holder thread id, arg1 = donor thread id
  kPiRestore,       // arg0 = holder thread id, arg1 = semaphore id
  kIrq,             // arg0 = line
  kMsgSend,         // arg0 = thread id, arg1 = object id
  kMsgRecv,         // arg0 = thread id, arg1 = object id
  kThreadExit,      // arg0 = thread id
  kPiChainLimit,    // arg0 = thread id, arg1 = semaphore id (depth cap hit)
  kHeadroomLow,     // arg0 = thread id, arg1 = predicted slack in us (signed)
  kChainEmit,       // arg0 = token origin, arg1 = packed endpoint, arg2 = hop/actor
  kChainConsume,    // arg0 = token origin, arg1 = packed endpoint, arg2 = hop/actor
  kTraceEpoch,      // arg0 = epoch number (ring was reset; window starts here)
  kOverheadSpan,    // arg0 = OverheadSpanPack(bucket, core), arg1 = span ns,
                    // arg2 = current thread id + 1 (0 = none). Recorded at the
                    // *end* of every non-user, non-idle clock advance so the
                    // postmortem engine can classify kernel overhead exactly.
  kThreadBlock,     // arg0 = thread id, arg1 = BlockReason (non-sem waits)
  kThreadReady,     // arg0 = thread id, arg1 = BlockReason it was blocked under
};

// One past the last enumerator. Keep in sync when adding event types; the
// round-trip test over [0, kNumTraceEventTypes) catches a missing name.
inline constexpr int kNumTraceEventTypes =
    static_cast<int>(TraceEventType::kThreadReady) + 1;

// kOverheadSpan arg0 packing: cycle bucket in the high byte region, core id
// in the low byte. Both fit comfortably (16 buckets, <= 8 cores).
constexpr int32_t OverheadSpanPack(int bucket, int core) {
  return static_cast<int32_t>((static_cast<uint32_t>(bucket) << 8) |
                              (static_cast<uint32_t>(core) & 0xffu));
}
constexpr int OverheadSpanBucket(int32_t packed) {
  return static_cast<int>(static_cast<uint32_t>(packed) >> 8);
}
constexpr int OverheadSpanCore(int32_t packed) {
  return static_cast<int>(static_cast<uint32_t>(packed) & 0xffu);
}

// --- Causal event-chain encoding -----------------------------------------
//
// kChainEmit / kChainConsume carry a causal token through three packed int32
// args so the chain analyzer (src/obs/chains.h) can reconstruct end-to-end
// dataflow across queueing boundaries:
//   arg0: token origin id (minted from 1, monotone per run; 0 is invalid)
//   arg1: producing/consuming endpoint, ChainEndpointPack(kind, channel id)
//   arg2: ChainHopPack(hop, actor) — hop count plus the acting thread.
// An emit records the producer-side token (origin, hop); its matching
// consume records (origin, hop + 1) and names the consuming thread. Consume
// events may be recorded while the kernel still runs in producer or ISR
// context (direct handoffs), so the actor is always explicit in arg2 and is
// never the thread the trace replayer believes is running.

enum class ChainEndpointKind : int {
  kIrq = 1,   // channel id = IRQ line
  kRelease,   // channel id = thread id (periodic job release)
  kSem,       // channel id = semaphore id (counting handoff)
  kCondvar,   // channel id = condvar id
  kMailbox,   // channel id = mailbox id
  kSmsg,      // channel id = state-message buffer id
};

const char* ChainEndpointKindToString(ChainEndpointKind kind);

constexpr int32_t ChainEndpointPack(ChainEndpointKind kind, int channel_id) {
  return static_cast<int32_t>((static_cast<uint32_t>(kind) << 24) |
                              (static_cast<uint32_t>(channel_id) & 0xffffffu));
}
constexpr ChainEndpointKind ChainEndpointKindOf(int32_t packed) {
  return static_cast<ChainEndpointKind>((static_cast<uint32_t>(packed) >> 24) & 0x7fu);
}
constexpr int ChainEndpointChannel(int32_t packed) {
  return static_cast<int>(static_cast<uint32_t>(packed) & 0xffffffu);
}

// arg2 packing: hop in the high half, actor thread id (+1, so 0 means "no
// thread" — ISR context) in the low half.
constexpr int32_t ChainHopPack(int hop, int actor_thread_id) {
  return static_cast<int32_t>((static_cast<uint32_t>(hop & 0x7fff) << 16) |
                              (static_cast<uint32_t>(actor_thread_id + 1) & 0xffffu));
}
constexpr int ChainHopOf(int32_t packed) {
  return static_cast<int>((static_cast<uint32_t>(packed) >> 16) & 0x7fffu);
}
// -1 when the event was recorded from ISR context (no acting thread).
constexpr int ChainActorOf(int32_t packed) {
  return static_cast<int>(static_cast<uint32_t>(packed) & 0xffffu) - 1;
}

// Hop counts are capped so cyclic pipelines cannot grow tokens without
// bound; a token that reaches the cap is dropped instead of propagated.
inline constexpr int kMaxChainHops = 255;

// The causal token itself: carried in the producing thread's TCB, stamped
// into channel storage (mailbox message, state-message slot, counting-sem
// handoff slot) at emit, and moved onto the consuming thread's TCB at
// consume with the hop count bumped. origin == 0 means "no token".
struct CausalToken {
  uint32_t origin = 0;
  uint16_t hop = 0;
  // Mint instant, stamped when the origin token is created and carried
  // unchanged through every hop: the streaming chain-e2e histogram is
  // final-consume-time minus mint. Not traced and not digested — purely a
  // telemetry rider.
  Instant mint;
  bool valid() const { return origin != 0; }
  void clear() {
    origin = 0;
    hop = 0;
    mint = Instant();
  }
};

const char* TraceEventTypeToString(TraceEventType type);

// Inverse of TraceEventTypeToString; false when `name` is not an event name.
// The trace CSV importer (src/obs/trace_csv.h) is built on it.
bool TraceEventTypeFromString(const char* name, TraceEventType* out);

struct TraceEvent {
  Instant time;
  TraceEventType type = TraceEventType::kContextSwitch;
  int32_t arg0 = 0;
  int32_t arg1 = 0;
  int32_t arg2 = 0;
};

// FNV-1a over `len` bytes, continuing from `hash` (start a fresh digest from
// kFnv1aOffsetBasis). The per-node and per-seed digests are built on it.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline uint64_t Fnv1a(uint64_t hash, const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Folds one event into an FNV-1a `hash`: the time in whole microseconds
// (int64), the type (int32), then arg0..arg2. A trace digest is this fold
// over the retained window, oldest first; the per-node and per-seed digests
// start from it.
inline uint64_t FoldTraceEvent(uint64_t hash, const TraceEvent& e) {
  const int64_t us = e.time.micros();
  const int32_t type = static_cast<int32_t>(e.type);
  hash = Fnv1a(hash, &us, sizeof(us));
  hash = Fnv1a(hash, &type, sizeof(type));
  hash = Fnv1a(hash, &e.arg0, sizeof(e.arg0));
  hash = Fnv1a(hash, &e.arg1, sizeof(e.arg1));
  return Fnv1a(hash, &e.arg2, sizeof(e.arg2));
}

// Writes `events` as CSV (header time_us,event,arg0,arg1,arg2, one row per
// event), then a "# dropped=N" comment line when `dropped` > 0: the format
// obs::ImportTraceCsv reads back. Returns the number of data rows written.
size_t WriteTraceCsv(std::FILE* out, std::span<const TraceEvent> events, uint64_t dropped);

// The retained window is the last `capacity` records, oldest first, held
// contiguously so replays read it in place (events()). `capacity` is only a
// retention bound: until the window wraps, storage grows by push_back, so it
// holds fewer than twice the records made and less than 2 * capacity. Once
// the window is full, each record evicts the oldest by advancing first_, and
// when first_ reaches `capacity` the evicted prefix is erased in one move.
// The first eviction reserves 2 * capacity records, and the window plus an
// evicted prefix never exceeds 2 * capacity - 1 records, so storage never
// grows past 2 * capacity.
class TraceSink {
 public:
  // `capacity` == 0 disables recording entirely (counting still works).
  explicit TraceSink(size_t capacity) : capacity_(capacity) {}

  void Record(Instant time, TraceEventType type, int32_t arg0, int32_t arg1,
              int32_t arg2 = 0) {
    ++total_recorded_;
    if (capacity_ == 0) {
      ++dropped_;
      return;
    }
    // Evicting inline matters: a wrapped window evicts on every record.
    if (events_.size() - first_ == capacity_) {
      ++dropped_;
      if (events_.capacity() < 2 * capacity_) {
        events_.reserve(2 * capacity_);
      }
      if (++first_ == capacity_) {
        Compact();
      }
    }
    events_.push_back(TraceEvent{time, type, arg0, arg1, arg2});
  }

  // Oldest-first access to the retained window.
  size_t size() const { return events_.size() - first_; }
  const TraceEvent& at(size_t index) const {
    EM_ASSERT(index < size());
    return events_[first_ + index];
  }
  std::span<const TraceEvent> events() const {
    return std::span<const TraceEvent>(events_).subspan(first_);
  }

  // Bytes of event storage currently allocated (at most
  // 2 * capacity * sizeof(TraceEvent)).
  size_t storage_bytes() const { return events_.capacity() * sizeof(TraceEvent); }

  uint64_t total_recorded() const { return total_recorded_; }

  // Events recorded but neither retained nor drained: window evictions plus
  // everything recorded while retention is disabled. total_recorded() ==
  // size() + dropped() + the records Drain() emptied. Non-zero means the
  // retained window is a *suffix* of the run and derived metrics
  // (histograms, invariant checks) describe only that window.
  uint64_t dropped() const { return dropped_; }

  void Clear() {
    events_.clear();
    first_ = 0;
    total_recorded_ = 0;
    dropped_ = 0;
    epochs_ = 0;
  }

  // Deliberate mid-run restart of the retained window: discards the window
  // contents, clears the dropped() counter (the discard was intentional, not
  // overflow), and records a kTraceEpoch marker as the new window's first
  // event so downstream consumers can tell "window was reset here" apart from
  // "events were lost to overflow". total_recorded() keeps counting across
  // resets. Unlike Clear(), which wipes the sink back to construction state,
  // Reset() is the one to call while a run is in flight.
  void Reset(Instant now) {
    events_.clear();
    first_ = 0;
    dropped_ = 0;
    ++epochs_;
    Record(now, TraceEventType::kTraceEpoch, static_cast<int32_t>(epochs_), 0);
  }

  // Empties the window once its consumer has read every record in it (a
  // fleet node feeds each slice's records to its evaluator), and keeps the
  // storage for the records that follow. Drained records count as neither
  // retained nor dropped. A sink that dropped records must not be drained:
  // its consumer would take a truncated run for a whole one.
  void Drain() {
    EM_ASSERT_MSG(dropped_ == 0, "drained a trace window that dropped records");
    events_.clear();
    first_ = 0;
  }

  // Number of Reset() calls since construction / Clear().
  uint64_t epochs() const { return epochs_; }

  // Writes a human-readable dump of the retained events to `out`
  // (default stdout), followed by a drop note when events were lost.
  void Dump(std::FILE* out = stdout) const;

  // Writes the retained window and its drop count with WriteTraceCsv, for
  // external plotting (Gantt charts of the schedule) and trace_inspect
  // replay. Returns the number of data rows written.
  size_t ExportCsv(std::FILE* out) const { return WriteTraceCsv(out, events(), dropped_); }

 private:
  // Erases the evicted prefix [0, first_).
  void Compact();

  size_t capacity_;
  std::vector<TraceEvent> events_;  // [first_, size) is the retained window
  size_t first_ = 0;
  uint64_t total_recorded_ = 0;
  uint64_t dropped_ = 0;
  uint64_t epochs_ = 0;
};

}  // namespace emeralds

#endif  // SRC_HAL_TRACE_H_
