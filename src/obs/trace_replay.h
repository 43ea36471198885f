// One pass over a trace window for every analysis of it.
//
// The replay walks the window once, oldest first, and hands each event to
// the window digest, the trace analyzer (AnalyzeTrace), the chain analyzer
// (AnalyzeChains) and the postmortem engine (AnalyzePostmortem). One cursor
// holds what they all need: the event index, the per-core runner table, the
// thread/core id guards, events dropped ahead of the window and sink-reset
// epoch markers. The visitors are bound at compile time, so one loop body
// holds all their work, and the digest's dependent multiply chain hides most
// of the analyses' cost. Each Analyze* call runs its own visitor alone on
// the same cursor and returns what EvaluateTrace returns for it.

#ifndef SRC_OBS_TRACE_REPLAY_H_
#define SRC_OBS_TRACE_REPLAY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/hal/trace.h"
#include "src/obs/chains.h"
#include "src/obs/postmortem.h"
#include "src/obs/trace_analyzer.h"

namespace emeralds {
namespace obs {

// Everything a node's evaluation reads from its trace window.
struct TraceEvaluation {
  uint64_t window_digest = 0;  // FoldTraceEvent over the window, from kFnv1aOffsetBasis
  TraceAnalysis trace;
  ChainAnalysis chains;
  PostmortemAnalysis postmortem;
};

// `dropped_events` is TraceSink::dropped(); `specs` is
// Kernel::resolved_chains() (empty when replaying a CSV offline).
TraceEvaluation EvaluateTrace(std::span<const TraceEvent> window, uint64_t dropped_events,
                              const std::vector<ResolvedChain>& specs);
TraceEvaluation EvaluateTrace(const TraceSink& sink, const std::vector<ResolvedChain>& specs);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_TRACE_REPLAY_H_
