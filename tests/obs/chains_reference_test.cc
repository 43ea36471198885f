// Differential tests for the chain analyzer: the origin-grouped production
// analyzer against the map-based reference (chains_reference.h), field by
// field, on seeded random chain streams, torture-run windows and a live
// overloaded fleet node.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/kernel.h"
#include "src/fleet/fleet.h"
#include "src/fuzz/torture.h"
#include "src/obs/chains.h"
#include "src/obs/trace_csv.h"
#include "tests/obs/chains_reference.h"
#include "tests/obs/trace_streams.h"

namespace emeralds {
namespace obs {
namespace {

void ExpectMatchesReference(const std::vector<TraceEvent>& events, uint64_t dropped,
                            const std::vector<ResolvedChain>& specs, const std::string& what) {
  ChainAnalysis got = AnalyzeChains(events.data(), events.size(), dropped, specs);
  ChainAnalysis want =
      reference::ReferenceAnalyzeChains(events.data(), events.size(), dropped, specs);
  ExpectChainAnalysesEqual(got, want, what);
}

TEST(ChainReferenceTest, RandomStreamsMatchTheReference) {
  uint64_t completed = 0;
  uint64_t records_dropped = 0;
  std::set<ChainViolationKind> kinds;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    std::vector<TraceEvent> events =
        RandomChainStream(rng, static_cast<size_t>(rng.UniformInt(0, 1500)));
    std::vector<ResolvedChain> specs = RandomSpecs(rng);
    const uint64_t dropped = rng.Bernoulli(0.3) ? static_cast<uint64_t>(rng.UniformInt(1, 99)) : 0;
    const std::string what = "seed " + std::to_string(seed);
    ExpectMatchesReference(events, dropped, specs, what);
    ChainAnalysis a = AnalyzeChains(events.data(), events.size(), dropped, specs);
    for (const ChainReport& c : a.chains) {
      completed += c.completed;
      records_dropped += c.overrun_records_dropped;
    }
    for (const ChainViolation& v : a.violations) {
      kinds.insert(v.kind);
    }
    // A truncated suffix of the same stream.
    if (!events.empty()) {
      std::vector<TraceEvent> suffix(
          events.begin() + rng.UniformInt(0, static_cast<int64_t>(events.size()) - 1),
          events.end());
      ExpectMatchesReference(suffix, dropped + 1, specs, what + " suffix");
    }
    if (HasFailure()) {
      return;
    }
  }
  // The streams reach completion, the overrun-record cap and every
  // violation kind.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(records_dropped, 0u);
  EXPECT_EQ(kinds.size(), 3u);
}

TEST(ChainReferenceTest, TortureWindowsMatchTheReference) {
  const std::string path = testing::TempDir() + "emeralds_chain_reference.csv";
  uint64_t completed = 0;
  uint64_t records_dropped = 0;
  uint64_t orphan_hops = 0;
  for (bool tiny : {false, true}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      fuzz::TortureOptions options;
      options.seed = seed;
      options.ops = 2000;
      options.num_cores = static_cast<int>(1 + seed % 2);
      options.tiny_trace_ring = tiny;
      ASSERT_TRUE(fuzz::ExportTortureTraceCsv(options, path));
      std::FILE* f = std::fopen(path.c_str(), "r");
      ASSERT_NE(f, nullptr);
      TraceCsvImport import;
      std::string error;
      ASSERT_TRUE(ImportTraceCsv(f, &import, &error)) << error;
      std::fclose(f);
      ASSERT_EQ(import.dropped > 0, tiny);
      std::vector<ResolvedChain> specs = SpecsFromTraffic(import.events);
      const std::string what = fuzz::ReproCommand(options);
      ExpectMatchesReference(import.events, import.dropped, specs, what);
      ChainAnalysis a =
          AnalyzeChains(import.events.data(), import.events.size(), import.dropped, specs);
      orphan_hops += a.orphan_hops;
      for (const ChainReport& c : a.chains) {
        completed += c.completed;
        records_dropped += c.overrun_records_dropped;
      }
    }
  }
  std::remove(path.c_str());
  // The windows reach instance completion and truncation orphans.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(orphan_hops, 0u);
}

// A live node's window with its declared chains, whole and cut to a suffix;
// the overloaded node overruns its SLOs more often than records are kept.
TEST(ChainReferenceTest, OverloadedFleetNodeMatchesTheReference) {
  fleet::FleetOptions opt;
  opt.instances = 4;
  opt.seed = 5;
  opt.run_duration = Milliseconds(400);
  opt.overload_node = 2;
  for (int index : {0, 2}) {
    fleet::InspectNode(opt, index, [&](const Kernel& kernel, const fleet::NodeResult& r) {
      const std::vector<ResolvedChain>& specs = kernel.resolved_chains();
      std::vector<TraceEvent> window(kernel.trace().events().begin(),
                                     kernel.trace().events().end());
      const std::string what = "node " + std::to_string(index);
      ExpectMatchesReference(window, kernel.trace().dropped(), specs, what);
      std::vector<TraceEvent> suffix(window.begin() + static_cast<ptrdiff_t>(window.size() / 3),
                                     window.end());
      ExpectMatchesReference(suffix, 1, specs, what + " suffix");
      if (index == opt.overload_node) {
        EXPECT_GT(r.chain_overruns, kMaxChainOverrunRecords);
      }
    });
  }
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
