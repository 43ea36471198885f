// Seeded trace streams and field-by-field comparisons shared by the obs
// differential tests (chains_reference_test.cc, trace_evaluator_test.cc,
// postmortem_differential_test.cc).

#ifndef TESTS_OBS_TRACE_STREAMS_H_
#define TESTS_OBS_TRACE_STREAMS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/log2_histogram.h"
#include "src/base/rng.h"
#include "src/hal/cycles.h"
#include "src/hal/trace.h"
#include "src/obs/chains.h"
#include "src/obs/postmortem.h"

namespace emeralds {
namespace obs {

inline void ExpectHistogramsEqual(const Log2Histogram& a, const Log2Histogram& b,
                                  const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.total(), b.total()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  for (int i = 0; i < Log2Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(a.bucket(i), b.bucket(i)) << what << " bucket " << i;
  }
}

// Every field, including the order of violations and overrun records.
inline void ExpectChainAnalysesEqual(const ChainAnalysis& got, const ChainAnalysis& want,
                                     const std::string& what) {
  EXPECT_EQ(got.complete_window, want.complete_window) << what;
  EXPECT_EQ(got.chain_emits, want.chain_emits) << what;
  EXPECT_EQ(got.chain_consumes, want.chain_consumes) << what;
  EXPECT_EQ(got.origins_minted, want.origins_minted) << what;
  EXPECT_EQ(got.orphan_hops, want.orphan_hops) << what;
  EXPECT_EQ(got.saturated_hops, want.saturated_hops) << what;
  EXPECT_EQ(got.unconsumed_emits, want.unconsumed_emits) << what;
  ASSERT_EQ(got.violations.size(), want.violations.size()) << what;
  for (size_t i = 0; i < got.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind) << what << " violation " << i;
    EXPECT_EQ(got.violations[i].event_index, want.violations[i].event_index)
        << what << " violation " << i;
    EXPECT_EQ(got.violations[i].detail, want.violations[i].detail) << what << " violation " << i;
  }
  ASSERT_EQ(got.chains.size(), want.chains.size()) << what;
  for (size_t c = 0; c < got.chains.size(); ++c) {
    const ChainReport& g = got.chains[c];
    const ChainReport& w = want.chains[c];
    const std::string chain = what + " chain " + w.name;
    EXPECT_EQ(g.name, w.name) << chain;
    EXPECT_EQ(g.deadline, w.deadline) << chain;
    EXPECT_EQ(g.resolved, w.resolved) << chain;
    EXPECT_EQ(g.completed, w.completed) << chain;
    EXPECT_EQ(g.incomplete, w.incomplete) << chain;
    EXPECT_EQ(g.overruns, w.overruns) << chain;
    EXPECT_EQ(g.overrun_records_dropped, w.overrun_records_dropped) << chain;
    ExpectHistogramsEqual(g.e2e, w.e2e, chain + " e2e");
    ASSERT_EQ(g.hops.size(), w.hops.size()) << chain;
    for (size_t h = 0; h < g.hops.size(); ++h) {
      EXPECT_EQ(g.hops[h].endpoint, w.hops[h].endpoint) << chain;
      EXPECT_EQ(g.hops[h].consumer_tid, w.hops[h].consumer_tid) << chain;
      ExpectHistogramsEqual(g.hops[h].queue, w.hops[h].queue, chain + " queue");
      ExpectHistogramsEqual(g.hops[h].exec, w.hops[h].exec, chain + " exec");
    }
    ASSERT_EQ(g.overrun_records.size(), w.overrun_records.size()) << chain;
    for (size_t r = 0; r < g.overrun_records.size(); ++r) {
      const ChainOverrunRecord& gr = g.overrun_records[r];
      const ChainOverrunRecord& wr = w.overrun_records[r];
      EXPECT_EQ(gr.origin, wr.origin) << chain << " record " << r;
      EXPECT_EQ(gr.start, wr.start) << chain << " record " << r;
      EXPECT_EQ(gr.e2e, wr.e2e) << chain << " record " << r;
      EXPECT_EQ(gr.hop_queue_ns, wr.hop_queue_ns) << chain << " record " << r;
      EXPECT_EQ(gr.hop_exec_ns, wr.hop_exec_ns) << chain << " record " << r;
    }
  }
}

inline void ExpectBlameEqual(const BlameTotals& got, const BlameTotals& want,
                             const std::string& what) {
  EXPECT_EQ(got.misses_analyzed, want.misses_analyzed) << what;
  EXPECT_EQ(got.conservation_failures, want.conservation_failures) << what;
  EXPECT_EQ(got.tardiness_ns, want.tardiness_ns) << what;
  EXPECT_EQ(got.unattributed_ns, want.unattributed_ns) << what;
  EXPECT_EQ(got.victim_misses, want.victim_misses) << what;
  EXPECT_EQ(got.victim_tardiness_ns, want.victim_tardiness_ns) << what;
  EXPECT_EQ(got.preemptor_ns, want.preemptor_ns) << what;
  EXPECT_EQ(got.lock_ns, want.lock_ns) << what;
  EXPECT_EQ(got.Digest(), want.Digest()) << what;
}

inline void ExpectLedgersEqual(const LatenessLedger& got, const LatenessLedger& want,
                        const std::string& what) {
  EXPECT_EQ(got.carry_in_ns, want.carry_in_ns) << what;
  EXPECT_EQ(got.release_latency_ns, want.release_latency_ns) << what;
  EXPECT_EQ(got.preemption_ns, want.preemption_ns) << what;
  EXPECT_EQ(got.lock_blocked_ns, want.lock_blocked_ns) << what;
  EXPECT_EQ(got.self_suspend_ns, want.self_suspend_ns) << what;
  EXPECT_EQ(got.irq_ns, want.irq_ns) << what;
  EXPECT_EQ(got.ipi_ns, want.ipi_ns) << what;
  EXPECT_EQ(got.timer_svc_ns, want.timer_svc_ns) << what;
  EXPECT_EQ(got.sched_ns, want.sched_ns) << what;
  EXPECT_EQ(got.syscall_ns, want.syscall_ns) << what;
  EXPECT_EQ(got.own_expected_ns, want.own_expected_ns) << what;
  EXPECT_EQ(got.own_overrun_ns, want.own_overrun_ns) << what;
  EXPECT_EQ(got.unattributed_ns, want.unattributed_ns) << what;
  EXPECT_EQ(got.preemptor_ns, want.preemptor_ns) << what;
  EXPECT_EQ(got.lock_ns, want.lock_ns) << what;
}

inline void ExpectPostmortemsEqual(const PostmortemAnalysis& got, const PostmortemAnalysis& want,
                            const std::string& what) {
  EXPECT_EQ(got.window_truncated, want.window_truncated) << what;
  EXPECT_EQ(got.misses_analyzed, want.misses_analyzed) << what;
  EXPECT_EQ(got.records_dropped, want.records_dropped) << what;
  EXPECT_EQ(got.incomplete_misses, want.incomplete_misses) << what;
  EXPECT_EQ(got.unmatched_misses, want.unmatched_misses) << what;
  EXPECT_EQ(got.deadline_unknown, want.deadline_unknown) << what;
  EXPECT_EQ(got.conservation_failures, want.conservation_failures) << what;
  ExpectBlameEqual(got.blame, want.blame, what + " blame");
  ASSERT_EQ(got.misses.size(), want.misses.size()) << what;
  for (size_t m = 0; m < got.misses.size(); ++m) {
    const JobPostmortem& g = got.misses[m];
    const JobPostmortem& w = want.misses[m];
    const std::string miss = what + " miss " + std::to_string(m);
    EXPECT_EQ(g.thread_id, w.thread_id) << miss;
    EXPECT_EQ(g.job_number, w.job_number) << miss;
    EXPECT_EQ(g.release, w.release) << miss;
    EXPECT_EQ(g.completion, w.completion) << miss;
    EXPECT_EQ(g.has_deadline, w.has_deadline) << miss;
    EXPECT_EQ(g.deadline_budget_ns, w.deadline_budget_ns) << miss;
    EXPECT_EQ(g.response_ns, w.response_ns) << miss;
    EXPECT_EQ(g.tardiness_ns, w.tardiness_ns) << miss;
    EXPECT_EQ(g.conserved, w.conserved) << miss;
    EXPECT_EQ(g.top_blame, w.top_blame) << miss;
    ExpectLedgersEqual(g.ledger, w.ledger, miss + " ledger");
  }
}

inline constexpr int32_t kEndpoints[] = {
    ChainEndpointPack(ChainEndpointKind::kIrq, 3),
    ChainEndpointPack(ChainEndpointKind::kSem, 1),
    ChainEndpointPack(ChainEndpointKind::kMailbox, 0),
    ChainEndpointPack(ChainEndpointKind::kSmsg, 2),
};

inline int32_t RandomEndpoint(Rng& rng) { return kEndpoints[rng.UniformInt(0, 3)]; }

// A chain event stream with valid multi-stage tokens, orphans, origin reuse,
// malformed tokens, hop-255 saturation, multi-consume, epoch markers and
// unrelated events. Up to four traversals are in flight at once, so tokens
// of different origins interleave and complete out of origin order.
inline std::vector<TraceEvent> RandomChainStream(Rng& rng, size_t count) {
  struct Walk {
    uint32_t origin;
    int hop;
    int actor;
    int32_t endpoint;
    int64_t stages_left;
    bool emitted;
  };
  std::vector<TraceEvent> events;
  std::vector<Walk> walks;
  int64_t now_us = 0;
  auto push = [&](TraceEventType type, int32_t a0, int32_t a1, int32_t a2) {
    now_us += rng.UniformInt(0, 40);
    events.push_back(TraceEvent{Instant() + Microseconds(now_us), type, a0, a1, a2});
  };
  uint32_t next_origin = 1;
  while (events.size() < count) {
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 55 && (walks.empty() || (walks.size() < 4 && rng.Bernoulli(0.3)))) {
      // Mint: mostly a fresh origin, sometimes an origin already used.
      const uint32_t origin = rng.Bernoulli(0.15)
                                  ? static_cast<uint32_t>(rng.UniformInt(1, next_origin))
                                  : next_origin++;
      walks.push_back(Walk{origin, rng.Bernoulli(0.05) ? kMaxChainHops - 1 : 0, -1,
                           RandomEndpoint(rng), rng.UniformInt(1, 4), false});
    } else if (roll < 55) {
      // Advance one in-flight traversal by an emit or its consume(s).
      const size_t w =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(walks.size()) - 1));
      Walk& walk = walks[w];
      bool done = false;
      if (!walk.emitted) {
        push(TraceEventType::kChainEmit, static_cast<int32_t>(walk.origin), walk.endpoint,
             ChainHopPack(walk.hop, walk.actor));
        walk.emitted = true;
        done = rng.Bernoulli(0.1);  // an emit nobody consumes
      } else {
        const int64_t readers = rng.Bernoulli(0.15) ? 2 : 1;
        for (int64_t r = 0; r < readers; ++r) {
          walk.actor = static_cast<int>(rng.UniformInt(1, 3));
          push(TraceEventType::kChainConsume, static_cast<int32_t>(walk.origin), walk.endpoint,
               ChainHopPack(walk.hop + 1, walk.actor));
        }
        ++walk.hop;
        walk.emitted = false;
        walk.endpoint = rng.Bernoulli(0.7) ? kEndpoints[walk.hop % 4] : RandomEndpoint(rng);
        done = --walk.stages_left == 0 || walk.hop >= kMaxChainHops;
      }
      if (done) {
        walks.erase(walks.begin() + static_cast<ptrdiff_t>(w));
      }
    } else if (roll < 65) {
      // Orphan or saturated consume: no matching emit anywhere.
      const int hop = rng.Bernoulli(0.3) ? kMaxChainHops : static_cast<int>(rng.UniformInt(1, 6));
      push(TraceEventType::kChainConsume, static_cast<int32_t>(rng.UniformInt(1, next_origin + 3)),
           RandomEndpoint(rng), ChainHopPack(hop, static_cast<int>(rng.UniformInt(-1, 3))));
    } else if (roll < 70) {
      // Malformed: origin 0, hop past the cap, or a consume at hop 0.
      const int64_t kind = rng.UniformInt(0, 2);
      const int32_t origin = kind == 0 ? 0 : static_cast<int32_t>(rng.UniformInt(1, next_origin));
      const int hop = kind == 1 ? static_cast<int>(rng.UniformInt(kMaxChainHops + 1, 400)) : 0;
      const TraceEventType type = kind == 2 || rng.Bernoulli(0.5) ? TraceEventType::kChainConsume
                                                                  : TraceEventType::kChainEmit;
      push(type, origin, RandomEndpoint(rng), ChainHopPack(hop, 1));
    } else if (roll < 72) {
      push(TraceEventType::kTraceEpoch, static_cast<int32_t>(rng.UniformInt(1, 3)), 0, 0);
    } else {
      push(TraceEventType::kOverheadSpan, OverheadSpanPack(1, 0), 500, 0);
    }
  }
  return events;
}

// A chain stream with scheduler traffic mixed in: switches, releases with
// and without deadlines (some stamped before the records around them, as the
// kernel stamps a job's nominal release), completions (some of the wrong
// job), misses, semaphore and scheduler waits, PI, overhead spans (some of
// negative length) and exits for four threads on `cores` cores (1 to 4),
// with core ids out of range now and then, plus sink-reset epochs, the chain
// stream's malformed tokens and occasional time regressions. Every analysis
// finds violations, misses or ledgers in it.
inline std::vector<TraceEvent> RandomTraceStream(Rng& rng, size_t count, int cores) {
  const std::vector<TraceEvent> chain_events = RandomChainStream(rng, count / 3);
  std::vector<TraceEvent> events;
  size_t next_chain = 0;
  int64_t now_ns = 0;
  uint64_t jobs[4] = {};
  auto tid = [&] { return static_cast<int32_t>(rng.UniformInt(0, 3)); };
  // A core of the stream; now and then one past them or an id no core has.
  auto core = [&] {
    const int64_t roll = rng.UniformInt(0, 49);
    if (roll < 3) {
      return roll == 0 ? -1 : roll == 1 ? 300 : cores;
    }
    return static_cast<int32_t>(rng.UniformInt(0, cores - 1));
  };
  auto push = [&](TraceEventType type, int32_t a0, int32_t a1, int32_t a2) {
    now_ns += rng.UniformInt(0, 30000);
    events.push_back(TraceEvent{Instant::FromNanos(now_ns), type, a0, a1, a2});
  };
  while (events.size() < count) {
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 25 && next_chain < chain_events.size()) {
      const TraceEvent& e = chain_events[next_chain++];
      push(e.type, e.arg0, e.arg1, e.arg2);
    } else if (roll < 35) {
      const int32_t in = static_cast<int32_t>(rng.UniformInt(-1, 3));
      push(TraceEventType::kContextSwitch, static_cast<int32_t>(rng.UniformInt(-1, 3)), in, core());
    } else if (roll < 45) {
      const int32_t t = tid();
      const int64_t kind = rng.UniformInt(0, 2);
      const int32_t deadline = kind == 0   ? 0
                               : kind == 1 ? static_cast<int32_t>(rng.UniformInt(50, 400)) * 1000
                                           : -static_cast<int32_t>(rng.UniformInt(50, 400));
      push(TraceEventType::kJobRelease, t, static_cast<int32_t>(++jobs[t]), deadline);
      if (rng.Bernoulli(0.5)) {  // stamped at its nominal release, before the cursor
        const int64_t before = rng.UniformInt(0, 60000);
        events.back().time = Instant::FromNanos(std::max<int64_t>(0, now_ns - before));
      }
    } else if (roll < 55) {
      const int32_t t = tid();
      push(TraceEventType::kJobComplete, t,
           static_cast<int32_t>(jobs[t] - (rng.Bernoulli(0.1) ? 1 : 0)), 0);
    } else if (roll < 58) {
      const int32_t t = tid();
      push(TraceEventType::kDeadlineMiss, t, static_cast<int32_t>(jobs[t]), 0);
    } else if (roll < 66) {
      static constexpr TraceEventType kSem[] = {TraceEventType::kSemAcquire,
                                                TraceEventType::kSemAcquireBlock,
                                                TraceEventType::kSemRelease,
                                                TraceEventType::kSemCseEarlyPi};
      push(kSem[rng.UniformInt(0, 3)], tid(), static_cast<int32_t>(rng.UniformInt(0, 2)), 0);
    } else if (roll < 74) {
      const bool block = rng.Bernoulli(0.5);
      push(block ? TraceEventType::kThreadBlock : TraceEventType::kThreadReady, tid(),
           static_cast<int32_t>(rng.UniformInt(0, 8)),
           block ? static_cast<int32_t>(rng.UniformInt(-1, 1)) : core());
    } else if (roll < 76) {
      push(rng.Bernoulli(0.5) ? TraceEventType::kPiInherit : TraceEventType::kPiRestore, tid(),
           tid(), 0);
    } else if (roll < 77) {
      push(TraceEventType::kTraceEpoch, static_cast<int32_t>(rng.UniformInt(1, 3)), 0, 0);
    } else if (roll < 92) {
      const int32_t span = rng.Bernoulli(0.05) ? static_cast<int32_t>(rng.UniformInt(-20000, -1))
                                                : static_cast<int32_t>(rng.UniformInt(0, 20000));
      push(TraceEventType::kOverheadSpan,
           OverheadSpanPack(static_cast<int>(rng.UniformInt(0, kNumCycleBuckets - 1)), core()),
           span, static_cast<int32_t>(rng.UniformInt(0, 4)));
    } else if (roll < 94) {
      push(TraceEventType::kThreadExit, tid(), 0, core());
    } else if (roll < 96) {
      now_ns = std::max<int64_t>(0, now_ns - rng.UniformInt(1000, 90000));
      push(TraceEventType::kMsgSend, tid(), 0, 0);
    } else {
      push(TraceEventType::kHeadroomLow, tid(), static_cast<int32_t>(rng.UniformInt(-50, 50)),
           0);
    }
  }
  return events;
}

inline std::vector<ResolvedChain> RandomSpecs(Rng& rng) {
  std::vector<ResolvedChain> specs;
  const int64_t n = rng.UniformInt(0, 4);
  for (int64_t i = 0; i < n; ++i) {
    ResolvedChain spec;
    spec.name = "c" + std::to_string(i);
    spec.deadline = Microseconds(rng.UniformInt(0, 3) * 40);
    spec.resolved = !rng.Bernoulli(0.1);
    const int64_t stages = rng.UniformInt(0, 3);
    for (int64_t s = 0; s < stages; ++s) {
      spec.stages.push_back(ResolvedChainStage{
          RandomEndpoint(rng), rng.Bernoulli(0.5) ? -1 : static_cast<int>(rng.UniformInt(1, 3))});
    }
    specs.push_back(spec);
  }
  // One wide-open spec, so completions and overruns past the record cap occur.
  ResolvedChain wide;
  wide.name = "wide";
  wide.deadline = Microseconds(1);
  wide.resolved = true;
  wide.stages.push_back(ResolvedChainStage{kEndpoints[0], -1});
  wide.stages.push_back(ResolvedChainStage{kEndpoints[1], -1});
  specs.push_back(wide);
  return specs;
}

// Specs built from a window's own traffic: each origin's hop-0 endpoint, the
// thread that consumed it, the endpoint that thread re-emitted on, and that
// hop's consumer. Tight deadlines push overruns past the record cap.
inline std::vector<ResolvedChain> SpecsFromTraffic(const std::vector<TraceEvent>& events) {
  std::map<uint32_t, std::vector<const TraceEvent*>> by_origin;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kChainEmit || e.type == TraceEventType::kChainConsume) {
      by_origin[static_cast<uint32_t>(e.arg0)].push_back(&e);
    }
  }
  std::set<std::tuple<int32_t, int, int32_t, int>> patterns;
  for (const auto& [origin, list] : by_origin) {
    if (list.size() < 4 || list[0]->type != TraceEventType::kChainEmit ||
        list[1]->type != TraceEventType::kChainConsume ||
        list[2]->type != TraceEventType::kChainEmit ||
        list[3]->type != TraceEventType::kChainConsume) {
      continue;
    }
    patterns.insert({list[0]->arg1, ChainActorOf(list[1]->arg2), list[2]->arg1,
                     ChainActorOf(list[3]->arg2)});
  }
  std::vector<ResolvedChain> specs;
  for (const auto& [e0, c0, e1, c1] : patterns) {
    if (specs.size() >= 6) {
      break;
    }
    ResolvedChain two;
    two.name = "two" + std::to_string(specs.size());
    two.deadline = Microseconds(specs.size() % 2 == 0 ? 1 : 300);
    two.resolved = true;
    two.stages = {ResolvedChainStage{e0, c0}, ResolvedChainStage{e1, specs.size() % 3 ? c1 : -1}};
    specs.push_back(two);
    ResolvedChain one;
    one.name = "one" + std::to_string(specs.size());
    one.deadline = Microseconds(1);
    one.resolved = true;
    one.stages = {ResolvedChainStage{e0, -1}};
    specs.push_back(one);
  }
  ResolvedChain ghost;
  ghost.name = "ghost";
  specs.push_back(ghost);
  return specs;
}

}  // namespace obs
}  // namespace emeralds

#endif  // TESTS_OBS_TRACE_STREAMS_H_
