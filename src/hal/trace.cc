#include "src/hal/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <new>

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

void TraceSink::RecordSlow(const TraceEvent& e) {
  if (capacity_ == 0) {
    ++recorded_;
    return;
  }
  const size_t held = static_cast<size_t>(end_ - slots());
  if (held < capacity_) {
    // Double, as a vector would, so an unbounded window's storage is the
    // power of two above its largest fill.
    const size_t grown = held == 0 ? 1 : (held > capacity_ / 2 ? capacity_ : 2 * held);
    auto* storage = static_cast<TraceEvent*>(::operator new(grown * sizeof(TraceEvent)));
    std::copy(slots(), next_, storage);
    next_ = storage + (next_ - slots());
    end_ = storage + grown;
    slots_.reset(storage);
  } else {
    // Full: the oldest record is in slot 0 (the first pass filled the slots
    // in order, and every later pass ends here too), so overwrite it.
    recorded_ += held;
    next_ = slots();
    wrapped_ = true;
  }
  *next_++ = e;
}

void TraceSink::RotateOldestFirst() const {
  std::rotate(slots(), next_, end_);
  recorded_ += static_cast<uint64_t>(next_ - slots());
  next_ = slots();
}

void TraceSink::EmptyWindow() {
  recorded_ += static_cast<uint64_t>(next_ - slots());
  next_ = slots();
  wrapped_ = false;
}

void TraceSink::Clear() {
  EmptyWindow();
  recorded_ = 0;
  discarded_ = 0;
  epochs_ = 0;
}

void TraceSink::Reset(Instant now) {
  EmptyWindow();
  discarded_ = recorded_;
  ++epochs_;
  Record(now, TraceEventType::kTraceEpoch, static_cast<int32_t>(epochs_), 0);
}

void TraceSink::Drain() {
  EM_ASSERT_MSG(dropped() == 0, "drained a trace window that dropped records");
  discarded_ += size();
  EmptyWindow();
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
  if (dropped() > 0) {
    std::fprintf(out, "(%llu of %llu events dropped; window shows the most recent %zu)\n",
                 static_cast<unsigned long long>(dropped()),
                 static_cast<unsigned long long>(total_recorded()), size());
  }
}

}  // namespace emeralds
