#include "src/hal/trace.h"

#include <cstdio>
#include <cstring>

namespace emeralds {

const char* TraceEventTypeToString(TraceEventType type) {
  switch (type) {
    case TraceEventType::kContextSwitch:
      return "context_switch";
    case TraceEventType::kJobRelease:
      return "job_release";
    case TraceEventType::kJobComplete:
      return "job_complete";
    case TraceEventType::kDeadlineMiss:
      return "deadline_miss";
    case TraceEventType::kSemAcquire:
      return "sem_acquire";
    case TraceEventType::kSemAcquireBlock:
      return "sem_acquire_block";
    case TraceEventType::kSemRelease:
      return "sem_release";
    case TraceEventType::kSemCseEarlyPi:
      return "sem_cse_early_pi";
    case TraceEventType::kPiInherit:
      return "pi_inherit";
    case TraceEventType::kPiRestore:
      return "pi_restore";
    case TraceEventType::kIrq:
      return "irq";
    case TraceEventType::kMsgSend:
      return "msg_send";
    case TraceEventType::kMsgRecv:
      return "msg_recv";
    case TraceEventType::kThreadExit:
      return "thread_exit";
    case TraceEventType::kPiChainLimit:
      return "pi_chain_limit";
    case TraceEventType::kHeadroomLow:
      return "headroom_low";
    case TraceEventType::kChainEmit:
      return "chain_emit";
    case TraceEventType::kChainConsume:
      return "chain_consume";
    case TraceEventType::kTraceEpoch:
      return "trace_epoch";
    case TraceEventType::kOverheadSpan:
      return "overhead_span";
    case TraceEventType::kThreadBlock:
      return "thread_block";
    case TraceEventType::kThreadReady:
      return "thread_ready";
  }
  return "?";
}

const char* ChainEndpointKindToString(ChainEndpointKind kind) {
  switch (kind) {
    case ChainEndpointKind::kIrq:
      return "irq";
    case ChainEndpointKind::kRelease:
      return "release";
    case ChainEndpointKind::kSem:
      return "sem";
    case ChainEndpointKind::kCondvar:
      return "cv";
    case ChainEndpointKind::kMailbox:
      return "mbox";
    case ChainEndpointKind::kSmsg:
      return "smsg";
  }
  return "?";
}

bool TraceEventTypeFromString(const char* name, TraceEventType* out) {
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    TraceEventType type = static_cast<TraceEventType>(i);
    if (std::strcmp(name, TraceEventTypeToString(type)) == 0) {
      *out = type;
      return true;
    }
  }
  return false;
}

void TraceSink::Compact() {
  events_.erase(events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(first_));
  first_ = 0;
}

size_t WriteTraceCsv(std::FILE* out, std::span<const TraceEvent> events, uint64_t dropped) {
  std::fprintf(out, "time_us,event,arg0,arg1,arg2\n");
  for (const TraceEvent& e : events) {
    std::fprintf(out, "%lld,%s,%d,%d,%d\n", static_cast<long long>(e.time.micros()),
                 TraceEventTypeToString(e.type), e.arg0, e.arg1, e.arg2);
  }
  if (dropped > 0) {
    std::fprintf(out, "# dropped=%llu\n", static_cast<unsigned long long>(dropped));
  }
  return events.size();
}

void TraceSink::Dump(std::FILE* out) const {
  for (size_t i = 0; i < size(); ++i) {
    const TraceEvent& e = at(i);
    std::fprintf(out, "%12.3fms  %-18s %4d %4d %4d\n", e.time.millis_f(),
                 TraceEventTypeToString(e.type), e.arg0, e.arg1, e.arg2);
  }
  if (dropped_ > 0) {
    std::fprintf(out, "(%llu of %llu events dropped; window shows the most recent %zu)\n",
                 static_cast<unsigned long long>(dropped_),
                 static_cast<unsigned long long>(total_recorded_), size());
  }
}

}  // namespace emeralds
