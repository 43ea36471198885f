// Causal event-chain reconstruction: schema "emeralds.obs.chains/1".
//
// The kernel stamps every producing operation (IRQ dispatch, job release,
// counting-sem handoff, condvar wake, mailbox send, state-message write) with
// a causal token — an origin id plus a hop count — and carries it through
// blocking and wakeup into the consumer's next work, emitting paired
// kChainEmit/kChainConsume trace events. This analyzer replays those events
// to (a) enforce token conservation (every consume matches a visible emit,
// hop counts advance by exactly one, origins are minted once) and (b)
// reconstruct instances of user-declared chains (KernelConfig::chains,
// resolved by the kernel into endpoint ids), producing end-to-end latency and
// per-hop queueing/execution breakdowns plus chain-deadline overrun counts.
//
// Truncation-aware like the trace analyzer: with a suffix window (dropped
// events, or a sink Reset whose epoch marker shows pre-window state was
// discarded) a consume whose emit fell outside the window is counted as an
// orphan hop, never reported as a violation.

#ifndef SRC_OBS_CHAINS_H_
#define SRC_OBS_CHAINS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/log2_histogram.h"
#include "src/core/config.h"
#include "src/hal/trace.h"

namespace emeralds {

class TraceSink;

namespace obs {

inline constexpr const char* kObsChainsSchema = "emeralds.obs.chains/1";

enum class ChainViolationKind {
  // A kChainConsume with no matching kChainEmit (same origin and endpoint,
  // hop exactly one less) in a complete window. In a truncated window this
  // degrades to the orphan_hops counter instead.
  kOrphanConsume,
  // A second hop-0 emit for an origin already minted inside the window:
  // origins are mint-once, so this is cross-chain token leakage.
  kOriginReuse,
  // A chain event carrying a hop count past kMaxChainHops, or a consume at
  // hop 0 / an event with the invalid origin 0 — states the kernel never
  // records, so the stream is corrupted.
  kMalformedToken,
};

const char* ChainViolationKindToString(ChainViolationKind kind);

struct ChainViolation {
  ChainViolationKind kind;
  size_t event_index;  // position in the analyzed window
  std::string detail;
};

// Per-stage latency breakdown of one declared chain. `queue` is the time a
// token waited at this stage (emit -> consume); `exec` is the consumer's
// processing time before it produced at the next stage (consume here -> emit
// there), empty for the final stage. By construction the end-to-end latency
// of every completed instance equals the sum of its per-stage queue and exec
// samples exactly (the intervals telescope).
struct ChainHopStats {
  int32_t endpoint = 0;   // ChainEndpointPack value for this stage
  int consumer_tid = -1;  // declared consumer (-1 = any)
  Log2Histogram queue;
  Log2Histogram exec;
};

// One SLO-overrunning instance, retained verbatim for the postmortem report.
// The per-hop queue/exec intervals telescope: their sum equals e2e exactly,
// so every overrun carries its own exact lateness decomposition.
struct ChainOverrunRecord {
  uint32_t origin = 0;  // token origin of the overrunning instance
  Instant start;        // first emit
  Duration e2e;         // first emit -> final consume
  std::vector<int64_t> hop_queue_ns;  // one per stage
  std::vector<int64_t> hop_exec_ns;   // one per stage boundary (stages - 1)
};

// Per-chain cap on retained overrun records; overflow only bumps the
// dropped counter (the histograms still see every instance).
inline constexpr size_t kMaxChainOverrunRecords = 32;

struct ChainReport {
  std::string name;
  Duration deadline;       // zero = no SLO declared
  bool resolved = false;   // spec resolved against live kernel objects
  uint64_t completed = 0;  // instances that traversed every stage in-window
  uint64_t incomplete = 0; // instances started but unfinished at window end
  uint64_t overruns = 0;   // completed instances with e2e > deadline
  Log2Histogram e2e;       // first emit -> final consume
  std::vector<ChainHopStats> hops;
  std::vector<ChainOverrunRecord> overrun_records;  // first kMax... overruns
  uint64_t overrun_records_dropped = 0;             // overruns past the cap
};

struct ChainAnalysis {
  // True when the window is the whole run: no ring overflow and no sink
  // Reset marker. Only then are orphan consumes violations.
  bool complete_window = false;
  uint64_t chain_emits = 0;
  uint64_t chain_consumes = 0;
  uint64_t origins_minted = 0;    // hop-0 emits observed in-window
  uint64_t orphan_hops = 0;       // consumes whose emit fell outside the window
  uint64_t saturated_hops = 0;    // consumes at the kMaxChainHops cap with no
                                  // visible emit: the producer's token hit the
                                  // hop ceiling and was dropped, so the hop is
                                  // counted, never a conservation violation
  uint64_t unconsumed_emits = 0;  // emits never picked up (banked/overwritten
                                  // tokens, unread slots) — informational
  std::vector<ChainReport> chains;  // one per spec, same order
  std::vector<ChainViolation> violations;

  bool ok() const { return violations.empty(); }
};

// Replays `events[0..count)` (oldest first) on the shared trace replay
// (src/obs/trace_replay.h). `dropped_events` is TraceSink::dropped();
// `specs` is Kernel::resolved_chains() (or a hand-built list when replaying
// a CSV offline). Unresolved specs still get a ChainReport row
// (resolved = false, no instances).
ChainAnalysis AnalyzeChains(const TraceEvent* events, size_t count, uint64_t dropped_events,
                            const std::vector<ResolvedChain>& specs);

// Convenience overload over a live sink's retained window.
ChainAnalysis AnalyzeChains(const TraceSink& sink, const std::vector<ResolvedChain>& specs);

// Renders the analysis as a JSON object body (no surrounding document):
// used both embedded as the "chains" section of emeralds.obs.run/1 and in
// the standalone report below.
void AppendChainsSection(class Json& j, const ChainAnalysis& analysis);

// Standalone report document with schema "emeralds.obs.chains/1".
std::string BuildChainsReport(const std::string& label, const ChainAnalysis& analysis);
bool WriteChainsReportFile(const std::string& path, const std::string& label,
                           const ChainAnalysis& analysis);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_CHAINS_H_
