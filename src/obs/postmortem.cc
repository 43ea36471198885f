#include "src/obs/postmortem.h"

#include <algorithm>
#include <cstdio>

#include "src/core/tcb.h"
#include "src/hal/cycles.h"
#include "src/obs/json_writer.h"
#include "src/obs/perfetto_export.h"

namespace emeralds {
namespace obs {
namespace {

constexpr int kMaxThreadId = 65535;
constexpr int32_t kMaxCoreId = 255;

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
  int64_t own_exec_ns = 0;   // scheduled time, split at finalize vs the EWMA
  int64_t measured_cost_ns = 0;  // own_exec + overhead billed while running
  LatenessLedger ledger;
};

struct PmThread {
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

void AddOverhead(LatenessLedger& ledger, int bucket, int64_t ns) {
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
      // Traps, semaphore/PI/IPC bookkeeping, stats sampling.
      ledger.syscall_ns += ns;
      break;
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

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void BlameTotals::Merge(const BlameTotals& other) {
  misses_analyzed += other.misses_analyzed;
  conservation_failures += other.conservation_failures;
  tardiness_ns += other.tardiness_ns;
  unattributed_ns += other.unattributed_ns;
  for (const auto& [k, v] : other.victim_misses) {
    victim_misses[k] += v;
  }
  for (const auto& [k, v] : other.victim_tardiness_ns) {
    victim_tardiness_ns[k] += v;
  }
  for (const auto& [k, v] : other.preemptor_ns) {
    preemptor_ns[k] += v;
  }
  for (const auto& [k, v] : other.lock_ns) {
    lock_ns[k] += v;
  }
}

uint64_t BlameTotals::Digest() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  h = FnvMix(h, misses_analyzed);
  h = FnvMix(h, conservation_failures);
  h = FnvMix(h, static_cast<uint64_t>(tardiness_ns));
  h = FnvMix(h, static_cast<uint64_t>(unattributed_ns));
  auto mix_map = [&](const auto& m) {
    h = FnvMix(h, m.size());
    for (const auto& [k, v] : m) {
      h = FnvMix(h, static_cast<uint64_t>(k));
      h = FnvMix(h, static_cast<uint64_t>(v));
    }
  };
  mix_map(victim_misses);
  mix_map(victim_tardiness_ns);
  mix_map(preemptor_ns);
  mix_map(lock_ns);
  return h;
}

PostmortemAnalysis AnalyzePostmortem(const TraceEvent* events, size_t count,
                                     uint64_t dropped_events) {
  PostmortemAnalysis out;
  bool truncated = dropped_events > 0;
  out.window_truncated = truncated;

  std::vector<PmThread> threads;
  std::vector<int32_t> open_tids;
  auto track = [&](int32_t id) -> PmThread* {
    if (id < 0 || id > kMaxThreadId) {
      return nullptr;
    }
    if (static_cast<size_t>(id) >= threads.size()) {
      threads.resize(id + 1);
    }
    return &threads[id];
  };

  std::vector<int32_t> running;
  std::vector<char> running_known;
  auto core_slot = [&](int32_t core) -> int32_t {
    if (core < 0 || core > kMaxCoreId) {
      return -1;
    }
    if (static_cast<size_t>(core) >= running.size()) {
      // A complete trace starts idle on every core.
      running.resize(core + 1, -1);
      running_known.resize(core + 1, dropped_events == 0 ? 1 : 0);
    }
    return core;
  };

  Instant cursor;       // max non-release event time processed so far
  bool have_cursor = false;
  Instant last_time;

  // Classifies the gap (job.jc, T] for one open job; exact partition of the
  // gap, so per-job sums telescope by construction.
  auto attribute = [&](int32_t tid, PmThread& th, Instant t, bool is_span, int span_core,
                       int span_bucket, int64_t span_ns) {
    OpenJob& job = th.job;
    int64_t g = (t - job.jc).nanos();
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
          // Released but the wake has not landed yet (timer service / CSE
          // release window): still latency of getting the job going.
          l.release_latency_ns += g;
          break;
        default:
          l.self_suspend_ns += g;
          break;
      }
    } else {
      // The min() clamp keeps microsecond-truncated CSV replays exact: a
      // span can only shrink to the gap, never overdraw it.
      int64_t span_part =
          (is_span && span_core == th.core) ? std::min(g, span_ns) : 0;
      if (span_part > 0) {
        AddOverhead(l, span_bucket, span_part);
      }
      int64_t residue = g - span_part;
      if (residue > 0) {
        int32_t c = core_slot(th.core);
        bool known = c >= 0 && running_known[c];
        int32_t runner = c >= 0 ? running[c] : -1;
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
      if (span_part > 0) {
        int32_t c = core_slot(th.core);
        if (c >= 0 && running_known[c] && running[c] == tid) {
          // Overhead billed while scheduled counts toward the measured job
          // cost, matching the kernel's bill-to-current EWMA semantics.
          job.measured_cost_ns += span_part;
        }
      }
    }
    job.jc = t;
  };

  auto close_open_job = [&](int32_t tid, PmThread& th, bool count_incomplete_miss) {
    if (!th.job.open) {
      return;
    }
    if (count_incomplete_miss) {
      bool missed = th.job.missed_early;
      if (!missed && th.job.has_deadline && have_cursor) {
        missed = (cursor - th.job.release).nanos() > th.job.budget_ns;
      }
      if (missed) {
        ++out.incomplete_misses;
      }
    }
    th.job = OpenJob();
    open_tids.erase(std::find(open_tids.begin(), open_tids.end(), tid));
  };

  auto finalize_job = [&](int32_t tid, PmThread& th, Instant completion) {
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

    bool missed = job.missed_early ||
                  (job.has_deadline && response > job.budget_ns);
    th.have_last_complete = true;
    th.last_complete = completion;
    th.last_number = job.number;
    th.last_has_deadline = job.has_deadline;
    th.last_counted = missed;
    if (missed) {
      if (!job.has_deadline) {
        // Legacy trace (no encoded deadline): the miss is real but the
        // tardiness target is unknown, so it is counted, not attributed.
        ++out.deadline_unknown;
      } else {
        int64_t sum = l.sum_ns();
        bool conserved = sum == response;
        if (!conserved) {
          ++out.conservation_failures;
          ++out.blame.conservation_failures;
        }
        ++out.misses_analyzed;
        ++out.blame.misses_analyzed;
        int64_t tardiness = response - job.budget_ns;
        out.blame.tardiness_ns += tardiness;
        out.blame.unattributed_ns += l.unattributed_ns;
        ++out.blame.victim_misses[tid];
        out.blame.victim_tardiness_ns[tid] += tardiness;
        for (const auto& [k, v] : l.preemptor_ns) {
          out.blame.preemptor_ns[k] += v;
        }
        for (const auto& [k, v] : l.lock_ns) {
          out.blame.lock_ns[k] += v;
        }
        if (out.misses.size() < kMaxJobPostmortems) {
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
          out.misses.push_back(std::move(rec));
        } else {
          ++out.records_dropped;
        }
      }
    }
    th.job = OpenJob();
    open_tids.erase(std::find(open_tids.begin(), open_tids.end(), tid));
  };

  for (size_t i = 0; i < count; ++i) {
    const TraceEvent& e = events[i];
    last_time = e.time;
    if (e.type != TraceEventType::kJobRelease) {
      // Gap attribution for every open job up to this event's time.
      // kJobRelease is exempt: it carries the retroactive nominal release.
      bool is_span = e.type == TraceEventType::kOverheadSpan;
      int span_core = is_span ? OverheadSpanCore(e.arg0) : -1;
      int span_bucket = is_span ? OverheadSpanBucket(e.arg0) : -1;
      int64_t span_ns = is_span ? e.arg1 : 0;
      for (int32_t tid : open_tids) {
        attribute(tid, threads[tid], e.time, is_span, span_core, span_bucket, span_ns);
      }
      if (!have_cursor || e.time > cursor) {
        cursor = e.time;
        have_cursor = true;
      }
    }

    switch (e.type) {
      case TraceEventType::kContextSwitch: {
        int32_t c = core_slot(e.arg2);
        if (c >= 0) {
          running[c] = e.arg1;
          running_known[c] = 1;
        }
        PmThread* in = track(e.arg1);
        if (in != nullptr) {
          if (e.arg2 >= 0 && e.arg2 <= kMaxCoreId) {
            in->core = e.arg2;
          }
          in->blocked = false;  // a blocked thread cannot be switched in
        }
        PmThread* outg = track(e.arg0);
        if (outg != nullptr && e.arg2 >= 0 && e.arg2 <= kMaxCoreId) {
          outg->core = e.arg2;
        }
        break;
      }
      case TraceEventType::kJobRelease: {
        PmThread* th = track(e.arg0);
        if (th == nullptr) {
          break;
        }
        // A release over a still-open job only happens on corrupted or
        // truncated streams; discard the stale job.
        close_open_job(e.arg0, *th, true);
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
        if (have_cursor && cursor > jc0) {
          jc0 = cursor;
        }
        job.jc = jc0;
        LatenessLedger& l = job.ledger;
        if (prev > e.time) {
          l.carry_in_ns = (prev - e.time).nanos();
        }
        int64_t latency = (jc0 - base).nanos();
        if (!th->have_last_complete && truncated) {
          // Pre-window history is unknown: the lump between the retroactive
          // release and the stream cursor cannot be attributed honestly.
          l.unattributed_ns += latency;
        } else {
          l.release_latency_ns += latency;
        }
        open_tids.push_back(e.arg0);
        break;
      }
      case TraceEventType::kJobComplete: {
        PmThread* th = track(e.arg0);
        if (th == nullptr) {
          break;
        }
        if (th->job.open && th->job.number == static_cast<uint64_t>(e.arg1)) {
          finalize_job(e.arg0, *th, e.time);
        } else {
          // Complete with no visible release (truncated window): remember
          // the completion so the next release's carry-in is still exact.
          close_open_job(e.arg0, *th, true);
          th->have_last_complete = true;
          th->last_complete = e.time;
          th->last_number = static_cast<uint64_t>(e.arg1);
          th->last_has_deadline = false;
          th->last_counted = false;
        }
        break;
      }
      case TraceEventType::kDeadlineMiss: {
        PmThread* th = track(e.arg0);
        if (th == nullptr) {
          break;
        }
        if (th->job.open && th->job.number == static_cast<uint64_t>(e.arg1)) {
          th->job.missed_early = true;
        } else if (th->have_last_complete &&
                   th->last_number == static_cast<uint64_t>(e.arg1)) {
          // The completion-path miss lands just after kJobComplete. Already
          // counted via the deadline check at finalize — unless the trace
          // carried no deadline, where the event is the only miss signal.
          if (!th->last_counted && !th->last_has_deadline) {
            ++out.deadline_unknown;
            th->last_counted = true;
          }
        } else {
          ++out.unmatched_misses;
        }
        break;
      }
      case TraceEventType::kThreadBlock: {
        PmThread* th = track(e.arg0);
        if (th != nullptr) {
          th->blocked = true;
          th->reason = static_cast<BlockReason>(e.arg1);
          th->blocked_obj = e.arg2;
        }
        break;
      }
      case TraceEventType::kThreadReady: {
        PmThread* th = track(e.arg0);
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
        // The woken thread stays blocked, but its wait flips from the period
        // grid to the contended lock — from here the time is PI blocking.
        PmThread* th = track(e.arg0);
        if (th != nullptr) {
          th->blocked = true;
          th->reason = BlockReason::kWaitSem;
          th->blocked_obj = e.arg1;
        }
        break;
      }
      case TraceEventType::kThreadExit: {
        PmThread* th = track(e.arg0);
        if (th != nullptr) {
          close_open_job(e.arg0, *th, true);
          th->blocked = false;
          int32_t c = core_slot(e.arg2);
          if (c >= 0 && running_known[c] && running[c] == e.arg0) {
            running[c] = -1;
          }
        }
        break;
      }
      case TraceEventType::kTraceEpoch:
        // Mid-run sink reset: every open job and scheduler state predates a
        // discarded window. Start over, truncated.
        truncated = true;
        out.window_truncated = true;
        for (int32_t tid : std::vector<int32_t>(open_tids)) {
          close_open_job(tid, threads[tid], true);
        }
        for (PmThread& th : threads) {
          th.blocked = false;
        }
        for (size_t c = 0; c < running.size(); ++c) {
          running_known[c] = 0;
        }
        break;
      default:
        break;
    }
  }

  // Horizon: jobs still open are incomplete; a passed deadline among them is
  // a known miss without a completion to attribute.
  for (int32_t tid : std::vector<int32_t>(open_tids)) {
    PmThread& th = threads[tid];
    bool missed = th.job.missed_early;
    if (!missed && th.job.has_deadline) {
      missed = (last_time - th.job.release).nanos() > th.job.budget_ns;
    }
    if (missed) {
      ++out.incomplete_misses;
    }
    th.job = OpenJob();
  }
  return out;
}

PostmortemAnalysis AnalyzePostmortem(const TraceSink& sink) {
  return AnalyzePostmortem(sink.events().data(), sink.size(), sink.dropped());
}

namespace {

void AppendLedger(Json& j, const LatenessLedger& l) {
  j.OpenObject();
  j.Int("carry_in_ns", l.carry_in_ns);
  j.Int("release_latency_ns", l.release_latency_ns);
  j.Int("preemption_ns", l.preemption_ns);
  j.Int("lock_blocked_ns", l.lock_blocked_ns);
  j.Int("self_suspend_ns", l.self_suspend_ns);
  j.Int("irq_ns", l.irq_ns);
  j.Int("ipi_ns", l.ipi_ns);
  j.Int("timer_svc_ns", l.timer_svc_ns);
  j.Int("sched_ns", l.sched_ns);
  j.Int("syscall_ns", l.syscall_ns);
  j.Int("own_expected_ns", l.own_expected_ns);
  j.Int("own_overrun_ns", l.own_overrun_ns);
  j.Int("unattributed_ns", l.unattributed_ns);
  j.Int("sum_ns", l.sum_ns());
  j.Key("preemptors");
  j.OpenArray();
  for (const auto& [tid, ns] : l.preemptor_ns) {
    j.OpenObject();
    j.Int("thread", tid);
    j.Int("ns", ns);
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("locks");
  j.OpenArray();
  for (const auto& [sem, ns] : l.lock_ns) {
    j.OpenObject();
    j.Int("sem", sem);
    j.Int("ns", ns);
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

}  // namespace

void AppendBlameTotals(Json& j, const BlameTotals& b) {
  j.OpenObject();
  j.Int("misses_analyzed", static_cast<int64_t>(b.misses_analyzed));
  j.Int("conservation_failures", static_cast<int64_t>(b.conservation_failures));
  j.Int("tardiness_ns", b.tardiness_ns);
  j.Int("unattributed_ns", b.unattributed_ns);
  j.Key("victims");
  j.OpenArray();
  for (const auto& [tid, n] : b.victim_misses) {
    j.OpenObject();
    j.Int("thread", tid);
    j.Int("misses", static_cast<int64_t>(n));
    auto it = b.victim_tardiness_ns.find(tid);
    j.Int("tardiness_ns", it != b.victim_tardiness_ns.end() ? it->second : 0);
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("preemptors");
  j.OpenArray();
  for (const auto& [tid, ns] : b.preemptor_ns) {
    j.OpenObject();
    j.Int("thread", tid);
    j.Int("blamed_ns", ns);
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("locks");
  j.OpenArray();
  for (const auto& [sem, ns] : b.lock_ns) {
    j.OpenObject();
    j.Int("sem", sem);
    j.Int("blamed_ns", ns);
    j.CloseObject();
  }
  j.CloseArray();
  j.CloseObject();
}

void AppendPostmortemSection(Json& j, const PostmortemAnalysis& a, const ChainAnalysis* chains) {
  j.OpenObject();
  j.Bool("window_truncated", a.window_truncated);
  j.Int("misses_analyzed", static_cast<int64_t>(a.misses_analyzed));
  j.Int("records_dropped", static_cast<int64_t>(a.records_dropped));
  j.Int("incomplete_misses", static_cast<int64_t>(a.incomplete_misses));
  j.Int("unmatched_misses", static_cast<int64_t>(a.unmatched_misses));
  j.Int("deadline_unknown", static_cast<int64_t>(a.deadline_unknown));
  j.Int("conservation_failures", static_cast<int64_t>(a.conservation_failures));
  j.Key("blame");
  AppendBlameTotals(j, a.blame);
  j.Key("misses");
  j.OpenArray();
  for (const JobPostmortem& m : a.misses) {
    j.OpenObject();
    j.Int("thread", m.thread_id);
    j.Int("job", static_cast<int64_t>(m.job_number));
    j.Number("release_us", static_cast<double>(m.release.nanos()) / 1e3);
    j.Number("completion_us", static_cast<double>(m.completion.nanos()) / 1e3);
    j.Int("deadline_budget_ns", m.deadline_budget_ns);
    j.Int("response_ns", m.response_ns);
    j.Int("tardiness_ns", m.tardiness_ns);
    j.Bool("conserved", m.conserved);
    j.String("top_blame", m.top_blame);
    j.Key("ledger");
    AppendLedger(j, m.ledger);
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("chain_overruns");
  j.OpenArray();
  if (chains != nullptr) {
    for (const ChainReport& c : chains->chains) {
      for (const ChainOverrunRecord& r : c.overrun_records) {
        j.OpenObject();
        j.String("chain", c.name);
        j.Int("origin", static_cast<int64_t>(r.origin));
        j.Number("start_us", static_cast<double>(r.start.nanos()) / 1e3);
        j.Int("e2e_ns", r.e2e.nanos());
        j.Int("deadline_ns", c.deadline.nanos());
        j.Int("overrun_ns", r.e2e.nanos() - c.deadline.nanos());
        j.Key("hop_queue_ns");
        j.OpenArray();
        for (int64_t q : r.hop_queue_ns) {
          j.IntElem(q);
        }
        j.CloseArray();
        j.Key("hop_exec_ns");
        j.OpenArray();
        for (int64_t x : r.hop_exec_ns) {
          j.IntElem(x);
        }
        j.CloseArray();
        j.CloseObject();
      }
    }
  }
  j.CloseArray();
  int64_t chain_records_dropped = 0;
  if (chains != nullptr) {
    for (const ChainReport& c : chains->chains) {
      chain_records_dropped += static_cast<int64_t>(c.overrun_records_dropped);
    }
  }
  j.Int("chain_overrun_records_dropped", chain_records_dropped);
  j.CloseObject();
}

std::string BuildPostmortemReport(const std::string& label, const PostmortemAnalysis& analysis,
                                  const ChainAnalysis* chains) {
  Json j;
  j.OpenObject();
  j.String("schema", kObsPostmortemSchema);
  j.String("label", label);
  j.Key("report");
  AppendPostmortemSection(j, analysis, chains);
  j.CloseObject();
  return j.str() + "\n";
}

void PrintPostmortem(std::FILE* out, const PostmortemAnalysis& a, const ChainAnalysis* chains) {
  std::fprintf(out, "postmortem: %llu miss(es) analyzed%s",
               static_cast<unsigned long long>(a.misses_analyzed),
               a.window_truncated ? " (window truncated)" : "");
  if (a.incomplete_misses > 0 || a.unmatched_misses > 0 || a.deadline_unknown > 0) {
    std::fprintf(out, ", %llu incomplete, %llu unmatched, %llu without deadline",
                 static_cast<unsigned long long>(a.incomplete_misses),
                 static_cast<unsigned long long>(a.unmatched_misses),
                 static_cast<unsigned long long>(a.deadline_unknown));
  }
  std::fprintf(out, "\n");
  if (a.conservation_failures > 0) {
    std::fprintf(out, "  CONSERVATION FAILURES: %llu ledger(s) did not telescope\n",
                 static_cast<unsigned long long>(a.conservation_failures));
  }
  for (const JobPostmortem& m : a.misses) {
    std::fprintf(out, "  t%d job %llu: late by %.3f us (response %.3f us, budget %.3f us)%s\n",
                 m.thread_id, static_cast<unsigned long long>(m.job_number),
                 static_cast<double>(m.tardiness_ns) / 1e3,
                 static_cast<double>(m.response_ns) / 1e3,
                 static_cast<double>(m.deadline_budget_ns) / 1e3,
                 m.conserved ? "" : "  [NOT CONSERVED]");
    const LatenessLedger& l = m.ledger;
    auto line = [&](const char* name, int64_t ns) {
      if (ns > 0) {
        std::fprintf(out, "    %-16s %12.3f us  (%5.1f%%)\n", name,
                     static_cast<double>(ns) / 1e3,
                     m.response_ns > 0 ? 100.0 * static_cast<double>(ns) /
                                             static_cast<double>(m.response_ns)
                                       : 0.0);
      }
    };
    line("carry_in", l.carry_in_ns);
    line("release_latency", l.release_latency_ns);
    for (const auto& [tid, ns] : l.preemptor_ns) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "preempt by t%d", tid);
      line(buf, ns);
    }
    for (const auto& [sem, ns] : l.lock_ns) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "blocked on S%d", sem);
      line(buf, ns);
    }
    line("self_suspend", l.self_suspend_ns);
    line("irq", l.irq_ns);
    line("ipi", l.ipi_ns);
    line("timer_svc", l.timer_svc_ns);
    line("sched", l.sched_ns);
    line("syscall", l.syscall_ns);
    line("own_expected", l.own_expected_ns);
    line("own_overrun", l.own_overrun_ns);
    line("unattributed", l.unattributed_ns);
    std::fprintf(out, "    top blame: %s\n", m.top_blame.c_str());
  }
  if (a.records_dropped > 0) {
    std::fprintf(out, "  (%llu further miss record(s) past the cap)\n",
                 static_cast<unsigned long long>(a.records_dropped));
  }
  if (chains != nullptr) {
    for (const ChainReport& c : chains->chains) {
      for (const ChainOverrunRecord& r : c.overrun_records) {
        std::fprintf(out, "  chain '%s' origin %u: e2e %.3f us over %.3f us deadline\n",
                     c.name.c_str(), r.origin, r.e2e.micros_f(), c.deadline.micros_f());
        for (size_t k = 0; k < r.hop_queue_ns.size(); ++k) {
          std::fprintf(out, "    hop %zu: queue %.3f us%s\n", k,
                       static_cast<double>(r.hop_queue_ns[k]) / 1e3, "");
          if (k < r.hop_exec_ns.size()) {
            std::fprintf(out, "    hop %zu: exec  %.3f us\n", k,
                         static_cast<double>(r.hop_exec_ns[k]) / 1e3);
          }
        }
      }
      if (c.overrun_records_dropped > 0) {
        std::fprintf(out, "  chain '%s': %llu overrun record(s) past the cap\n", c.name.c_str(),
                     static_cast<unsigned long long>(c.overrun_records_dropped));
      }
    }
  }
}

std::vector<PerfettoAnnotationSlice> PostmortemAnnotations(const PostmortemAnalysis& a) {
  std::vector<PerfettoAnnotationSlice> slices;
  slices.reserve(a.misses.size());
  for (const JobPostmortem& m : a.misses) {
    PerfettoAnnotationSlice s;
    s.begin = m.release;
    s.duration = Duration::FromNanos(m.response_ns);
    s.thread_id = m.thread_id;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "LATE job %llu: +%.1f us, top: %s",
                  static_cast<unsigned long long>(m.job_number),
                  static_cast<double>(m.tardiness_ns) / 1e3, m.top_blame.c_str());
    s.name = buf;
    slices.push_back(std::move(s));
  }
  return slices;
}

}  // namespace obs
}  // namespace emeralds
