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
#include <memory>
#include <span>

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

// FNV-1a over `len` bytes, continuing from `hash`. Its one caller is
// BlameTotals::Digest: every blame_digest ever reported is built on it, and
// the benchmark's outcome references pin them. New digests use FoldWord.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline uint64_t Fnv1a(uint64_t hash, const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// One 64-bit step of the run digests: xor `word` in, multiply by the odd
// constant 2^64 / golden ratio, then fold the high half into the low. Each
// of the three operations is a bijection, so for a given `hash` two
// different words always leave different results, and for a given word two
// different hashes do too. Start a digest from kFnv1aOffsetBasis.
inline uint64_t FoldWord(uint64_t hash, uint64_t word) {
  hash ^= word;
  hash *= 0x9e3779b97f4a7c15ULL;
  return hash ^ (hash >> 32);
}

// Folds one event into a digest as three FoldWord steps: the time in whole
// microseconds; arg0 in the low half of a word with the type in the high
// half; arg1 in the low half of a word with arg2 in the high half. Every
// field lands in exactly one word, so changing any one field changes the
// result. The type must stay in the high half: a multiply passes a
// difference in bit 63 through unchanged, and the fold then copies it to
// bit 31, so with the type low and arg0 high, flipping the sign bits of
// arg0, arg1 and arg2 together would cancel. A trace digest is this fold
// over the window, oldest first, from kFnv1aOffsetBasis; the per-node and
// per-seed digests start from it.
inline uint64_t FoldTraceEvent(uint64_t hash, const TraceEvent& e) {
  const uint64_t type = static_cast<uint8_t>(e.type);
  hash = FoldWord(hash, static_cast<uint64_t>(e.time.micros()));
  hash = FoldWord(hash, static_cast<uint32_t>(e.arg0) | type << 32);
  return FoldWord(hash, static_cast<uint32_t>(e.arg1) |
                            static_cast<uint64_t>(static_cast<uint32_t>(e.arg2)) << 32);
}

// Writes `events` as CSV (header time_us,event,arg0,arg1,arg2, one row per
// event), then a "# dropped=N" comment line when `dropped` > 0: the format
// obs::ImportTraceCsv reads back. Returns the number of data rows written.
size_t WriteTraceCsv(std::FILE* out, std::span<const TraceEvent> events, uint64_t dropped);

// The retained window is the last `capacity` records. Recording is one
// compare and one store into the next slot; growth, the wrap and a disabled
// sink take the out-of-line slow path. Storage grows by doubling with the
// records made, up to exactly `capacity` slots, and is never touched before a
// record is written to it. A full window is a ring: each record overwrites
// the oldest in place, so it allocates and moves nothing after its first
// wrap. Readers see the window oldest first: at(i) indexes the ring, and
// events() rotates a wrapped ring into place once and returns it as one span.
// Rotating changes where the records sit, not the window, so events() is
// const; like every other member it must not race with another call on the
// same sink.
class TraceSink {
 public:
  // `capacity` == 0 disables recording entirely (counting still works).
  explicit TraceSink(size_t capacity) : capacity_(capacity) {}
  // The ring pointers point into storage the sink owns.
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void Record(Instant time, TraceEventType type, int32_t arg0, int32_t arg1,
              int32_t arg2 = 0) {
    if (next_ == end_) [[unlikely]] {
      RecordSlow(TraceEvent{time, type, arg0, arg1, arg2});
      return;
    }
    *next_++ = TraceEvent{time, type, arg0, arg1, arg2};
  }

  // Oldest-first access to the retained window.
  size_t size() const { return wrapped_ ? capacity_ : static_cast<size_t>(next_ - slots()); }
  const TraceEvent& at(size_t index) const {
    EM_ASSERT(index < size());
    // A wrapped ring's oldest record is the one the next record overwrites.
    size_t slot = (wrapped_ ? static_cast<size_t>(next_ - slots()) : 0) + index;
    if (slot >= capacity_) {
      slot -= capacity_;
    }
    return slots()[slot];
  }
  std::span<const TraceEvent> events() const {
    if (wrapped_ && next_ != slots() && next_ != end_) {
      RotateOldestFirst();
    }
    return std::span<const TraceEvent>(slots(), size());
  }

  // Bytes of event storage currently allocated (at most
  // capacity * sizeof(TraceEvent)).
  size_t storage_bytes() const {
    return static_cast<size_t>(end_ - slots()) * sizeof(TraceEvent);
  }

  uint64_t total_recorded() const { return recorded_ + static_cast<uint64_t>(next_ - slots()); }

  // Events recorded but neither retained, drained nor discarded by Reset():
  // window evictions plus everything recorded while retention is disabled.
  // It is derived, not counted: total_recorded() minus size() minus the
  // records Drain() emptied and Reset() discarded. Non-zero means the
  // retained window is a *suffix* of the run and derived metrics
  // (histograms, invariant checks) describe only that window.
  uint64_t dropped() const { return total_recorded() - size() - discarded_; }

  // Wipes the sink back to construction state; the storage stays.
  void Clear();

  // Deliberate mid-run restart of the retained window: discards the window
  // contents, clears the dropped() counter (the discard was intentional, not
  // overflow), and records a kTraceEpoch marker as the new window's first
  // event so downstream consumers can tell "window was reset here" apart from
  // "events were lost to overflow". total_recorded() keeps counting across
  // resets. Unlike Clear(), which wipes the sink back to construction state,
  // Reset() is the one to call while a run is in flight.
  void Reset(Instant now);

  // Empties the window once its consumer has read every record in it (a
  // fleet node feeds each slice's records to its evaluator), and keeps the
  // storage for the records that follow. Drained records count as neither
  // retained nor dropped. A sink that dropped records must not be drained:
  // its consumer would take a truncated run for a whole one.
  void Drain();

  // Number of Reset() calls since construction / Clear().
  uint64_t epochs() const { return epochs_; }

  // Writes a human-readable dump of the retained events to `out`
  // (default stdout), followed by a drop note when events were lost.
  void Dump(std::FILE* out = stdout) const;

  // Writes the retained window and its drop count with WriteTraceCsv, for
  // external plotting (Gantt charts of the schedule) and trace_inspect
  // replay. Returns the number of data rows written.
  size_t ExportCsv(std::FILE* out) const { return WriteTraceCsv(out, events(), dropped()); }

 private:
  struct FreeSlots {
    void operator()(TraceEvent* slots) const { ::operator delete(slots); }
  };

  TraceEvent* slots() const { return slots_.get(); }
  // Stores `e` when next_ == end_: grows the storage, wraps a full window,
  // or only counts the record on a disabled sink.
  void RecordSlow(const TraceEvent& e);
  // Moves a wrapped ring's oldest record to slot 0.
  void RotateOldestFirst() const;
  // Empties the window, keeping its storage; total_recorded() is unchanged.
  void EmptyWindow();

  size_t capacity_;
  // Raw storage: slots are written only by Record, never initialized ahead.
  std::unique_ptr<TraceEvent, FreeSlots> slots_;
  TraceEvent* end_ = nullptr;  // one past the last allocated slot
  // The slot the next record goes to. Until the window wraps, the window is
  // [slots(), next_); once wrapped_, all capacity_ slots hold it, oldest at
  // next_ (or at slots() when next_ == end_).
  mutable TraceEvent* next_ = nullptr;
  bool wrapped_ = false;
  // Records made before the current pass over the slots: total_recorded()
  // adds next_ - slots().
  mutable uint64_t recorded_ = 0;
  // Records Drain() emptied and Reset() discarded.
  uint64_t discarded_ = 0;
  uint64_t epochs_ = 0;
};

}  // namespace emeralds

#endif  // SRC_HAL_TRACE_H_
