// Test-only reference for the chain analyzer: the original map-based
// algorithm, one pass in trace order with a std::map of in-flight instances
// per spec and a std::map/std::set for token conservation. The production
// analyzer (src/obs/chains.cc) groups chain events by origin instead; the
// differential tests in chains_test.cc require every ChainAnalysis field of
// the two to be equal.

#ifndef TESTS_OBS_CHAINS_REFERENCE_H_
#define TESTS_OBS_CHAINS_REFERENCE_H_

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/obs/chains.h"

namespace emeralds {
namespace obs {
namespace reference {

inline std::string Describe(const char* fmt, long long a, long long b, long long c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

struct Instance {
  uint16_t base_hop = 0;
  size_t next_stage = 0;
  bool awaiting_consume = false;  // else awaiting the next stage's emit
  int carrier_tid = -1;           // consumer of the previous stage
  std::vector<Instant> stage_emit;
  std::vector<Instant> stage_consume;
};

struct SpecState {
  std::map<uint32_t, Instance> instances;  // keyed by token origin
};

inline void CompleteInstance(ChainReport& report, uint32_t origin, const Instance& inst) {
  const size_t stages = report.hops.size();
  ++report.completed;
  Duration e2e = inst.stage_consume[stages - 1] - inst.stage_emit[0];
  report.e2e.Add(e2e);
  const bool overrun = report.deadline.nanos() > 0 && e2e > report.deadline;
  if (overrun) {
    ++report.overruns;
  }
  ChainOverrunRecord rec;
  if (overrun) {
    rec.origin = origin;
    rec.start = inst.stage_emit[0];
    rec.e2e = e2e;
  }
  for (size_t k = 0; k < stages; ++k) {
    Duration queue = inst.stage_consume[k] - inst.stage_emit[k];
    report.hops[k].queue.Add(queue);
    if (overrun) {
      rec.hop_queue_ns.push_back(queue.nanos());
    }
    if (k + 1 < stages) {
      Duration exec = inst.stage_emit[k + 1] - inst.stage_consume[k];
      report.hops[k].exec.Add(exec);
      if (overrun) {
        rec.hop_exec_ns.push_back(exec.nanos());
      }
    }
  }
  if (overrun) {
    if (report.overrun_records.size() < kMaxChainOverrunRecords) {
      report.overrun_records.push_back(std::move(rec));
    } else {
      ++report.overrun_records_dropped;
    }
  }
}

inline ChainAnalysis ReferenceAnalyzeChains(const TraceEvent* events, size_t count,
                                            uint64_t dropped_events,
                                            const std::vector<ResolvedChain>& specs) {
  ChainAnalysis out;

  // A kTraceEpoch marker means the sink was Reset: dropped() restarted from
  // zero but tokens banked before the reset can surface afterwards, so the
  // window is not the whole run even when dropped_events == 0.
  bool epoch_seen = false;
  for (size_t i = 0; i < count; ++i) {
    if (events[i].type == TraceEventType::kTraceEpoch) {
      epoch_seen = true;
      break;
    }
  }
  out.complete_window = dropped_events == 0 && !epoch_seen;

  std::vector<ChainReport> reports;
  std::vector<SpecState> states(specs.size());
  reports.reserve(specs.size());
  for (const ResolvedChain& spec : specs) {
    ChainReport r;
    r.name = spec.name;
    r.deadline = spec.deadline;
    r.resolved = spec.resolved;
    for (const ResolvedChainStage& st : spec.stages) {
      ChainHopStats h;
      h.endpoint = st.endpoint;
      h.consumer_tid = st.consumer_tid;
      r.hops.push_back(std::move(h));
    }
    reports.push_back(std::move(r));
  }

  // Conservation bookkeeping: emits seen (and whether each was consumed at
  // least once), keyed exactly — multi-consume of one emit is legitimate
  // (state-message re-reads, condvar broadcast).
  std::map<std::tuple<uint32_t, int32_t, uint16_t>, bool> emits_seen;
  std::set<uint32_t> minted;

  auto violate = [&](ChainViolationKind kind, size_t index, std::string detail) {
    out.violations.push_back(ChainViolation{kind, index, std::move(detail)});
  };

  for (size_t i = 0; i < count; ++i) {
    const TraceEvent& e = events[i];
    if (e.type != TraceEventType::kChainEmit && e.type != TraceEventType::kChainConsume) {
      continue;
    }
    const uint32_t origin = static_cast<uint32_t>(e.arg0);
    const int32_t endpoint = e.arg1;
    const uint16_t hop = ChainHopOf(e.arg2);
    const int actor = ChainActorOf(e.arg2);

    if (origin == 0 || hop > kMaxChainHops) {
      violate(ChainViolationKind::kMalformedToken, i,
              Describe("origin %lld hop %lld at endpoint %lld", origin, hop, endpoint));
      continue;
    }

    if (e.type == TraceEventType::kChainEmit) {
      ++out.chain_emits;
      if (hop == 0) {
        if (!minted.insert(origin).second) {
          violate(ChainViolationKind::kOriginReuse, i,
                  Describe("origin %lld minted again at endpoint %lld (hop %lld)",
                           origin, endpoint, hop));
        } else {
          ++out.origins_minted;
        }
      }
      emits_seen.emplace(std::make_tuple(origin, endpoint, hop), false);

      for (size_t s = 0; s < specs.size(); ++s) {
        if (!specs[s].resolved || specs[s].stages.empty()) {
          continue;
        }
        auto it = states[s].instances.find(origin);
        if (it == states[s].instances.end()) {
          if (endpoint == specs[s].stages[0].endpoint) {
            Instance inst;
            inst.base_hop = hop;
            inst.next_stage = 0;
            inst.awaiting_consume = true;
            inst.stage_emit.resize(specs[s].stages.size());
            inst.stage_consume.resize(specs[s].stages.size());
            inst.stage_emit[0] = e.time;
            states[s].instances.emplace(origin, std::move(inst));
          }
        } else {
          Instance& inst = it->second;
          if (!inst.awaiting_consume &&
              endpoint == specs[s].stages[inst.next_stage].endpoint &&
              hop == inst.base_hop + inst.next_stage && actor == inst.carrier_tid) {
            inst.stage_emit[inst.next_stage] = e.time;
            inst.awaiting_consume = true;
          }
        }
      }
      continue;
    }

    // kChainConsume
    ++out.chain_consumes;
    if (hop == 0) {
      violate(ChainViolationKind::kMalformedToken, i,
              Describe("consume at hop 0 (origin %lld, endpoint %lld)", origin, endpoint, 0));
      continue;
    }
    auto emit_it =
        emits_seen.find(std::make_tuple(origin, endpoint, static_cast<uint16_t>(hop - 1)));
    if (emit_it == emits_seen.end()) {
      if (hop == kMaxChainHops) {
        // At the hop ceiling the producing side drops the token instead of
        // advancing it (ChainConsume's saturation path), so a capped consume
        // legitimately has no in-window emit even in a complete window.
        // Degrade to a counted orphan rather than a conservation violation.
        ++out.saturated_hops;
      } else if (out.complete_window) {
        violate(ChainViolationKind::kOrphanConsume, i,
                Describe("consume of origin %lld hop %lld at endpoint %lld with no matching emit",
                         origin, hop, endpoint));
      } else {
        ++out.orphan_hops;  // the emit predates the retained window
      }
    } else {
      emit_it->second = true;
    }

    for (size_t s = 0; s < specs.size(); ++s) {
      if (!specs[s].resolved || specs[s].stages.empty()) {
        continue;
      }
      auto it = states[s].instances.find(origin);
      if (it == states[s].instances.end()) {
        continue;
      }
      Instance& inst = it->second;
      const ResolvedChainStage& stage = specs[s].stages[inst.next_stage];
      if (!inst.awaiting_consume || endpoint != stage.endpoint ||
          hop != inst.base_hop + inst.next_stage + 1 ||
          (stage.consumer_tid >= 0 && actor != stage.consumer_tid)) {
        continue;
      }
      inst.stage_consume[inst.next_stage] = e.time;
      inst.carrier_tid = actor;
      if (inst.next_stage + 1 == specs[s].stages.size()) {
        CompleteInstance(reports[s], origin, inst);
        states[s].instances.erase(it);
      } else {
        ++inst.next_stage;
        inst.awaiting_consume = false;
      }
    }
  }

  for (size_t s = 0; s < specs.size(); ++s) {
    reports[s].incomplete = states[s].instances.size();
  }
  for (const auto& entry : emits_seen) {
    if (!entry.second) {
      ++out.unconsumed_emits;
    }
  }
  out.chains = std::move(reports);
  return out;
}

}  // namespace reference
}  // namespace obs
}  // namespace emeralds

#endif  // TESTS_OBS_CHAINS_REFERENCE_H_
