// One pass over a trace for every analysis of it, fed in batches.
//
// The replay walks the records oldest first and hands each one to the
// window digest and record count, the trace analyzer (AnalyzeTrace), the
// chain analyzer (AnalyzeChains) and the postmortem engine
// (AnalyzePostmortem). One cursor
// holds what they all need: the event index, the per-core runner table, the
// thread/core id guards, events dropped ahead of the first record and
// sink-reset epoch markers. The cursor and every visitor carry their state
// from one batch to the next, so a window fed whole, one record at a time or
// in the slices a fleet node records between drains yields the same
// TraceEvaluation. The visitors are bound at compile time, so one loop body
// holds all their work. The digest costs three multiplies per record
// (FoldTraceEvent), so the fused pass costs about what the three analyses
// cost alone. Each Analyze* call runs its own visitor alone on the same
// cursor and returns what EvaluateTrace returns for it.

#ifndef SRC_OBS_TRACE_REPLAY_H_
#define SRC_OBS_TRACE_REPLAY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/hal/trace.h"
#include "src/obs/chains.h"
#include "src/obs/postmortem.h"
#include "src/obs/trace_analyzer.h"

namespace emeralds {
namespace obs {

// Everything a node's evaluation reads from its trace.
struct TraceEvaluation {
  // FoldTraceEvent over the records, oldest first, from kFnv1aOffsetBasis.
  uint64_t window_digest = 0;
  // The records fed, counted by TraceEventType: a deterministic work
  // counter, so a changed record mix is a changed run.
  std::array<uint64_t, kNumTraceEventTypes> records_by_type{};
  TraceAnalysis trace;
  ChainAnalysis chains;
  PostmortemAnalysis postmortem;
};

// The digest and the three analyses, fed in batches: Feed() each run of new
// records, oldest first, any number of times, then Finish() once. Event
// indices (violations, overrun order) count from the first record fed.
// `dropped_events` counts records lost ahead of the first one fed
// (TraceSink::dropped() for a window evaluated whole); `specs` is
// Kernel::resolved_chains() (empty when replaying a CSV offline) and must
// outlive the evaluator.
class TraceEvaluator {
 public:
  TraceEvaluator(uint64_t dropped_events, const std::vector<ResolvedChain>& specs);
  ~TraceEvaluator();
  TraceEvaluator(const TraceEvaluator&) = delete;
  TraceEvaluator& operator=(const TraceEvaluator&) = delete;

  void Feed(std::span<const TraceEvent> batch);
  TraceEvaluation Finish();

 private:
  struct Passes;
  std::unique_ptr<Passes> passes_;
};

// One TraceEvaluator fed the whole window at once.
TraceEvaluation EvaluateTrace(std::span<const TraceEvent> window, uint64_t dropped_events,
                              const std::vector<ResolvedChain>& specs);
TraceEvaluation EvaluateTrace(const TraceSink& sink, const std::vector<ResolvedChain>& specs);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_TRACE_REPLAY_H_
