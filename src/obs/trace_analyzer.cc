#include "src/obs/trace_analyzer.h"

#include <cstdio>

namespace emeralds {
namespace obs {
namespace {

// Thread ids are pool indices (config.max_threads, typically <= a few
// hundred); anything past this is a corrupted input and its events are
// ignored rather than sized into the metrics vectors.
constexpr int kMaxThreadId = 65535;

struct ThreadTrack {
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

std::string Describe(const char* fmt, long long a, long long b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

const char* InvariantKindToString(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kNonMonotoneTime:
      return "non_monotone_time";
    case InvariantKind::kSwitchPairing:
      return "switch_pairing";
    case InvariantKind::kBlockedThreadRan:
      return "blocked_thread_ran";
    case InvariantKind::kCompleteWithoutRelease:
      return "complete_without_release";
    case InvariantKind::kJobNumberRegression:
      return "job_number_regression";
  }
  return "?";
}

TraceAnalysis AnalyzeTrace(const TraceEvent* events, size_t count, uint64_t dropped_events) {
  TraceAnalysis out;
  out.dropped_events = dropped_events;
  // With a truncated window, pre-window job state is unknown; pairing checks
  // start only once the window itself establishes it.
  const bool complete_window = dropped_events == 0;

  std::vector<ThreadTrack> tracks;
  auto track = [&](int32_t id) -> ThreadTrack* {
    if (id < 0 || id > kMaxThreadId) {
      return nullptr;
    }
    if (static_cast<size_t>(id) >= tracks.size()) {
      tracks.resize(id + 1);
      out.tasks.resize(id + 1);
    }
    if (!out.tasks[id].seen) {
      out.tasks[id].seen = true;
      out.tasks[id].thread_id = id;
    }
    return &tracks[id];
  };
  auto violate = [&](InvariantKind kind, size_t index, std::string detail) {
    out.violations.push_back(TraceViolation{kind, index, std::move(detail)});
  };

  // Per-core run tracking: kContextSwitch / kThreadExit stamp their core id
  // in arg2 (0 on single-core traces, so old captures analyze unchanged).
  // Slots grow lazily; an absurd core id marks a corrupted event, and its
  // pairing checks are skipped rather than sized into the vectors.
  constexpr int32_t kMaxCoreId = 255;
  std::vector<int32_t> running;
  std::vector<char> running_known;
  auto core_slot = [&](int32_t core) -> int32_t {
    if (core < 0 || core > kMaxCoreId) {
      return -1;
    }
    if (static_cast<size_t>(core) >= running.size()) {
      // A complete trace starts idle on every core.
      running.resize(core + 1, -1);
      running_known.resize(core + 1, complete_window ? 1 : 0);
    }
    return core;
  };
  Instant high_water;
  bool have_high_water = false;
  Instant last_time;

  for (size_t i = 0; i < count; ++i) {
    const TraceEvent& e = events[i];
    last_time = e.time;
    if (e.type != TraceEventType::kJobRelease) {
      if (have_high_water && e.time < high_water) {
        violate(InvariantKind::kNonMonotoneTime, i,
                Describe("time went back %lld us (event %lld)", (high_water - e.time).micros(),
                         static_cast<long long>(i)));
      }
      if (!have_high_water || e.time > high_water) {
        high_water = e.time;
        have_high_water = true;
      }
    }

    // Chain and epoch events carry a token origin / epoch number in arg0,
    // not a thread id — never grow a task track from them. kOverheadSpan
    // packs (bucket, core) into arg0.
    const bool arg0_is_thread = e.type != TraceEventType::kChainEmit &&
                                e.type != TraceEventType::kChainConsume &&
                                e.type != TraceEventType::kTraceEpoch &&
                                e.type != TraceEventType::kOverheadSpan;
    ThreadTrack* t0 = arg0_is_thread ? track(e.arg0) : nullptr;
    TaskMetrics* m0 = t0 != nullptr ? &out.tasks[e.arg0] : nullptr;

    switch (e.type) {
      case TraceEventType::kContextSwitch: {
        ++out.context_switches;
        const int32_t c = core_slot(e.arg2);
        if (c >= 0 && running_known[c] && e.arg0 != running[c]) {
          violate(InvariantKind::kSwitchPairing, i,
                  Describe("switch out of thread %lld but thread %lld was running", e.arg0,
                           running[c]));
        }
        if (t0 != nullptr) {  // outgoing
          m0->run_time += e.time - t0->run_start;
          if (t0->job_open && !t0->blocked) {
            ++m0->preemptions;
          }
        }
        ThreadTrack* in = track(e.arg1);
        if (in != nullptr) {
          ++out.tasks[e.arg1].switches_in;
          in->run_start = e.time;
          if (in->blocked) {
            violate(InvariantKind::kBlockedThreadRan, i,
                    Describe("thread %lld switched in while blocked on semaphore %lld", e.arg1,
                             in->blocked_sem));
            in->blocked = false;
          }
        }
        if (c >= 0) {
          running[c] = e.arg1;
          running_known[c] = 1;
        }
        break;
      }
      case TraceEventType::kJobRelease:
        ++out.jobs_released;
        if (m0 != nullptr) {
          ++m0->releases;
          uint64_t job = static_cast<uint64_t>(e.arg1);
          if (t0->have_release_number && job <= t0->last_release_number) {
            violate(InvariantKind::kJobNumberRegression, i,
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
        ++out.jobs_completed;
        if (m0 != nullptr) {
          if (t0->blocked) {
            violate(InvariantKind::kBlockedThreadRan, i,
                    Describe("thread %lld completed job %lld while blocked", e.arg0, e.arg1));
            t0->blocked = false;
          }
          if (t0->job_open && t0->job_number == static_cast<uint64_t>(e.arg1)) {
            ++m0->completes;
            m0->response.Add(e.time - t0->job_release);
            t0->job_open = false;
          } else if (complete_window || t0->have_release_number) {
            violate(InvariantKind::kCompleteWithoutRelease, i,
                    Describe("thread %lld completed job %lld with no matching release", e.arg0,
                             e.arg1));
          }
        }
        break;
      case TraceEventType::kDeadlineMiss:
        ++out.deadline_misses;
        if (m0 != nullptr) {
          ++m0->deadline_misses;
        }
        break;
      case TraceEventType::kSemAcquire:
        ++out.sem_acquires;
        if (m0 != nullptr) {
          ++m0->sem_acquires;
          if (t0->blocked) {
            if (t0->blocked_sem == e.arg1) {
              m0->blocking.Add(e.time - t0->block_start);
            } else {
              violate(InvariantKind::kBlockedThreadRan, i,
                      Describe("thread %lld acquired semaphore %lld while blocked on another",
                               e.arg0, e.arg1));
            }
            t0->blocked = false;
          }
        }
        break;
      case TraceEventType::kSemAcquireBlock:
        ++out.sem_blocks;
        if (m0 != nullptr) {
          ++m0->sem_blocks;
          if (t0->blocked) {
            violate(InvariantKind::kBlockedThreadRan, i,
                    Describe("thread %lld blocked on semaphore %lld while already blocked",
                             e.arg0, e.arg1));
          }
          t0->blocked = true;
          t0->blocked_sem = e.arg1;
          t0->block_start = e.time;
        }
        break;
      case TraceEventType::kSemRelease:
        break;
      case TraceEventType::kSemCseEarlyPi:
        ++out.cse_early_pi;
        if (m0 != nullptr) {
          ++m0->cse_early_pi;
        }
        break;
      case TraceEventType::kPiInherit: {
        // arg0 = holder (receives priority), arg1 = donor. track() may grow
        // the vectors and invalidate t0/m0, so establish both tracks first
        // and re-index instead of reusing the stale pointers.
        bool have_donor = track(e.arg1) != nullptr;
        ThreadTrack* holder = track(e.arg0);
        int donor_depth = have_donor ? tracks[e.arg1].pi_depth : 0;
        if (holder != nullptr) {
          TaskMetrics& hm = out.tasks[e.arg0];
          ++hm.pi_received;
          if (donor_depth + 1 > holder->pi_depth) {
            holder->pi_depth = donor_depth + 1;
          }
          if (holder->pi_depth > hm.max_pi_depth) {
            hm.max_pi_depth = holder->pi_depth;
          }
          if (holder->pi_depth > out.max_pi_chain_depth) {
            out.max_pi_chain_depth = holder->pi_depth;
          }
        }
        if (have_donor) {
          ++out.tasks[e.arg1].pi_donated;
        }
        break;
      }
      case TraceEventType::kPiRestore:
        if (t0 != nullptr) {
          t0->pi_depth = 0;
        }
        break;
      case TraceEventType::kIrq:
        break;
      case TraceEventType::kMsgSend:
        ++out.msg_sends;
        break;
      case TraceEventType::kMsgRecv:
        ++out.msg_recvs;
        break;
      case TraceEventType::kPiChainLimit:
        // A refused acquire: the thread did not block, so no track state
        // changes — only the stream-wide count for reconciliation.
        ++out.pi_chain_limit;
        break;
      case TraceEventType::kHeadroomLow:
        ++out.headroom_low;
        if (m0 != nullptr) {
          ++m0->headroom_low;
        }
        break;
      case TraceEventType::kChainEmit:
        ++out.chain_emits;
        break;
      case TraceEventType::kChainConsume:
        ++out.chain_consumes;
        break;
      case TraceEventType::kTraceEpoch:
        // A sink reset marker: everything before it in wall time was
        // discarded, but the retained window only ever starts at or after
        // the marker, so no per-track state needs resetting here.
        ++out.trace_epochs;
        break;
      case TraceEventType::kOverheadSpan:
        // Kernel-overhead attribution rider for the postmortem engine; the
        // replay state machine only counts it (the span retroactively covers
        // time that elapsed before this event's timestamp).
        ++out.overhead_spans;
        break;
      case TraceEventType::kThreadBlock:
        // Scheduler-level wait marker (kSemAcquireBlock already drives the
        // blocking histogram; this event also covers period waits, sleeps,
        // mailbox/condvar/IRQ waits). Counted only — the postmortem engine
        // is the consumer that classifies by reason.
        ++out.thread_blocks;
        break;
      case TraceEventType::kThreadReady:
        ++out.thread_readies;
        break;
      case TraceEventType::kThreadExit:
        if (t0 != nullptr) {
          const int32_t c = core_slot(e.arg2);
          if (c >= 0 && running_known[c] && running[c] == e.arg0) {
            m0->run_time += e.time - t0->run_start;
            // ExitThread clears the running thread without a switch event;
            // the next switch legitimately reports idle as outgoing.
            running[c] = -1;
          }
          t0->job_open = false;
          t0->blocked = false;
        }
        break;
    }
  }

  // Close the books at the window edge.
  for (size_t id = 0; id < tracks.size(); ++id) {
    if (tracks[id].blocked) {
      ++out.unresolved_blocks_at_end;
    }
  }
  for (size_t c = 0; c < running.size(); ++c) {
    if (running_known[c] && running[c] >= 0 && static_cast<size_t>(running[c]) < tracks.size()) {
      out.tasks[running[c]].run_time += last_time - tracks[running[c]].run_start;
    }
  }
  return out;
}

TraceAnalysis AnalyzeTrace(const TraceSink& sink) {
  return AnalyzeTrace(sink.events().data(), sink.size(), sink.dropped());
}

}  // namespace obs
}  // namespace emeralds
