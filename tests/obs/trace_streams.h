// Seeded trace streams and field-by-field comparisons shared by the obs
// differential tests (chains_reference_test.cc, trace_evaluator_test.cc).

#ifndef TESTS_OBS_TRACE_STREAMS_H_
#define TESTS_OBS_TRACE_STREAMS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/hal/trace.h"
#include "src/obs/chains.h"
#include "src/obs/histogram.h"

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
