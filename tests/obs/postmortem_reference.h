// Test-only reference for the postmortem engine: the original per-event walk,
// which classifies the gap of every open job at every record. The production
// engine (PostmortemVisitor in src/obs/trace_replay.cc) settles each job only
// where its classification can change, from per-core sums of what overhead
// spans carved; postmortem_differential_test.cc requires every
// PostmortemAnalysis field of the two to be equal.
//
// The walk reads the runner table the shared replay cursor keeps, so the
// reference keeps its own copy with the cursor's rules: a core's slot is
// created idle the first time anything touches it, established from the
// start when nothing was dropped ahead of the window and unknown otherwise,
// and the walk trusts a runner only in the epoch that established it. The
// walk touches a slot whenever it classifies a positive gap of a job that is
// not blocked, so which epoch first touched it is part of the output.

#ifndef TESTS_OBS_POSTMORTEM_REFERENCE_H_
#define TESTS_OBS_POSTMORTEM_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/tcb.h"
#include "src/hal/cycles.h"
#include "src/obs/postmortem.h"

namespace emeralds {
namespace obs {
namespace reference {

class PostmortemWalk {
 public:
  explicit PostmortemWalk(uint64_t dropped_events) : dropped_(dropped_events) {}

  void OnEvent(const TraceEvent& e) {
    Visit(e);
    Advance(e);
  }

  PostmortemAnalysis Finish(Instant last_time) {
    out_.window_truncated = dropped_ != 0 || epochs_ != 0;
    for (int32_t tid : open_tids_) {
      const OpenJob& job = threads_[tid].job;
      bool missed = job.missed_early;
      if (!missed && job.has_deadline) {
        missed = (last_time - job.release).nanos() > job.budget_ns;
      }
      if (missed) {
        ++out_.incomplete_misses;
      }
    }
    return std::move(out_);
  }

 private:
  static constexpr int32_t kMaxThreadId = 65535;
  static constexpr int32_t kMaxCoreId = 255;
  static constexpr uint64_t kUnknown = UINT64_MAX;

  struct CoreRunner {
    int32_t thread = -1;
    uint64_t since = kUnknown;
    bool known() const { return since != kUnknown; }
  };

  struct OpenJob {
    bool open = false;
    uint64_t number = 0;
    Instant release;
    bool has_deadline = false;
    int64_t budget_ns = 0;
    bool missed_early = false;
    Instant jc;
    int64_t own_exec_ns = 0;
    int64_t measured_cost_ns = 0;
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
    bool last_counted = false;
    bool ewma_seeded = false;
    int64_t ewma_ns = 0;
    OpenJob job;
  };

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

  void Advance(const TraceEvent& e) {
    switch (e.type) {
      case TraceEventType::kContextSwitch:
        if (CoreRunner* c = Core(e.arg2)) {
          *c = CoreRunner{e.arg1, epochs_};
        }
        break;
      case TraceEventType::kThreadExit:
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

  static void AddOverhead(LatenessLedger& ledger, int bucket, int64_t ns) {
    switch (static_cast<CycleBucket>(bucket)) {
      case CycleBucket::kIrq:
        ledger.irq_ns += ns;
        break;
      case CycleBucket::kIpi:
        ledger.ipi_ns += ns;
        break;
      case CycleBucket::kTimerSvc:
        ledger.timer_svc_ns += ns;
        break;
      case CycleBucket::kSchedSelect:
      case CycleBucket::kSchedBlock:
      case CycleBucket::kSchedUnblock:
      case CycleBucket::kSchedParse:
      case CycleBucket::kContextSwitch:
        ledger.sched_ns += ns;
        break;
      default:
        ledger.syscall_ns += ns;
        break;
    }
  }

  static std::string TopBlame(const LatenessLedger& l) {
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

  Thread* track(int32_t id) {
    if (id < 0 || id > kMaxThreadId) {
      return nullptr;
    }
    if (static_cast<size_t>(id) >= threads_.size()) {
      threads_.resize(id + 1);
    }
    return &threads_[id];
  }

  void Visit(const TraceEvent& e) {
    if (e.type != TraceEventType::kJobRelease) {
      for (int32_t tid : open_tids_) {
        Attribute(tid, threads_[tid], e);
      }
      if (!have_cursor_ || e.time > cursor_) {
        cursor_ = e.time;
        have_cursor_ = true;
      }
    }

    switch (e.type) {
      case TraceEventType::kContextSwitch: {
        Thread* in = track(e.arg1);
        if (in != nullptr) {
          if (e.arg2 >= 0 && e.arg2 <= kMaxCoreId) {
            in->core = e.arg2;
          }
          in->blocked = false;
        }
        Thread* outg = track(e.arg0);
        if (outg != nullptr && e.arg2 >= 0 && e.arg2 <= kMaxCoreId) {
          outg->core = e.arg2;
        }
        break;
      }
      case TraceEventType::kJobRelease: {
        Thread* th = track(e.arg0);
        if (th == nullptr) {
          break;
        }
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
        const bool truncated = dropped_ > 0 || epochs_ > 0;
        if (!th->have_last_complete && truncated) {
          l.unattributed_ns += latency;
        } else {
          l.release_latency_ns += latency;
        }
        open_tids_.push_back(e.arg0);
        break;
      }
      case TraceEventType::kJobComplete: {
        Thread* th = track(e.arg0);
        if (th == nullptr) {
          break;
        }
        if (th->job.open && th->job.number == static_cast<uint64_t>(e.arg1)) {
          FinalizeJob(e.arg0, *th, e.time);
        } else {
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
          th->blocked = true;
          th->reason = static_cast<BlockReason>(e.arg1);
          th->blocked_obj = e.arg2;
        }
        break;
      }
      case TraceEventType::kThreadReady: {
        Thread* th = track(e.arg0);
        if (th != nullptr) {
          th->blocked = false;
          th->reason = BlockReason::kNone;
          th->blocked_obj = -1;
          if (e.arg2 >= 0 && e.arg2 <= kMaxCoreId) {
            th->core = e.arg2;
          }
        }
        break;
      }
      case TraceEventType::kSemCseEarlyPi: {
        Thread* th = track(e.arg0);
        if (th != nullptr) {
          th->blocked = true;
          th->reason = BlockReason::kWaitSem;
          th->blocked_obj = e.arg1;
        }
        break;
      }
      case TraceEventType::kThreadExit: {
        Thread* th = track(e.arg0);
        if (th != nullptr) {
          CloseOpenJob(e.arg0, *th);
          th->blocked = false;
        }
        break;
      }
      case TraceEventType::kTraceEpoch:
        for (int32_t tid : std::vector<int32_t>(open_tids_)) {
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

  void Attribute(int32_t tid, Thread& th, const TraceEvent& e) {
    OpenJob& job = th.job;
    int64_t g = (e.time - job.jc).nanos();
    if (g <= 0) {
      return;
    }
    LatenessLedger& l = job.ledger;
    if (th.blocked) {
      switch (th.reason) {
        case BlockReason::kWaitSem:
        case BlockReason::kPreAcquire:
          l.lock_blocked_ns += g;
          if (th.blocked_obj >= 0) {
            l.lock_ns[th.blocked_obj] += g;
          }
          break;
        case BlockReason::kWaitPeriod:
          l.release_latency_ns += g;
          break;
        default:
          l.self_suspend_ns += g;
          break;
      }
      job.jc = e.time;
      return;
    }
    auto runner_known = [&](const CoreRunner* core) {
      return core != nullptr && core->since == epochs_;
    };
    const bool span_here =
        e.type == TraceEventType::kOverheadSpan && OverheadSpanCore(e.arg0) == th.core;
    int64_t span_part = span_here ? std::min<int64_t>(g, e.arg1) : 0;
    if (span_part > 0) {
      AddOverhead(l, OverheadSpanBucket(e.arg0), span_part);
    }
    int64_t residue = g - span_part;
    if (residue > 0) {
      const CoreRunner* core = Core(th.core);
      bool known = runner_known(core);
      int32_t runner = core != nullptr ? core->thread : -1;
      if (known && runner == tid) {
        job.own_exec_ns += residue;
        job.measured_cost_ns += residue;
      } else if (known && runner >= 0) {
        l.preemption_ns += residue;
        l.preemptor_ns[runner] += residue;
      } else if (known) {
        l.sched_ns += residue;
      } else {
        l.unattributed_ns += residue;
      }
    }
    if (span_part > 0) {
      const CoreRunner* core = Core(th.core);
      if (runner_known(core) && core->thread == tid) {
        job.measured_cost_ns += span_part;
      }
    }
    job.jc = e.time;
  }

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
    th.job = OpenJob();
    open_tids_.erase(std::find(open_tids_.begin(), open_tids_.end(), tid));
  }

  void FinalizeJob(int32_t tid, Thread& th, Instant completion) {
    OpenJob& job = th.job;
    LatenessLedger& l = job.ledger;
    int64_t response = (completion - job.release).nanos();
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
    th.job = OpenJob();
    open_tids_.erase(std::find(open_tids_.begin(), open_tids_.end(), tid));
  }

  uint64_t dropped_;
  uint64_t epochs_ = 0;
  std::vector<CoreRunner> cores_;
  PostmortemAnalysis out_;
  std::vector<Thread> threads_;
  std::vector<int32_t> open_tids_;
  Instant cursor_;
  bool have_cursor_ = false;
};

// The per-event walk over `events[0..count)`, oldest first; `dropped_events`
// as for AnalyzePostmortem.
inline PostmortemAnalysis ReferenceAnalyzePostmortem(const TraceEvent* events, size_t count,
                                                     uint64_t dropped_events) {
  PostmortemWalk walk(dropped_events);
  for (size_t i = 0; i < count; ++i) {
    walk.OnEvent(events[i]);
  }
  return walk.Finish(count > 0 ? events[count - 1].time : Instant());
}

}  // namespace reference
}  // namespace obs
}  // namespace emeralds

#endif  // TESTS_OBS_POSTMORTEM_REFERENCE_H_
