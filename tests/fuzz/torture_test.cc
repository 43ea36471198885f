// Fixed-seed regression tests over the torture harness: a small sweep that
// must stay clean, the streamed evaluation against one pass, determinism
// (same seed => same digest), the tiny-ring truncation contract,
// fault-injection coverage, the shrinking bisector, and the pinned Perfetto
// JSON of one torture window.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/kernel.h"
#include "src/fuzz/torture.h"
#include "src/hal/trace.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/postmortem.h"
#include "src/obs/trace_csv.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace fuzz {
namespace {

TEST(TortureTest, FixedSeedSweepIsClean) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TortureOptions options;
    options.seed = seed;
    options.ops = 3000;
    TortureResult result = RunTorture(options);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.failure << "\n  repro: "
                           << ReproCommand(options);
    EXPECT_EQ(result.violations, 0u);
    EXPECT_EQ(result.fault_mismatches, 0u);
    EXPECT_TRUE(result.reconciliation.checked);
    EXPECT_TRUE(result.reconciliation.ok());
    EXPECT_EQ(result.ops_executed, options.ops);
    // Fourth oracle: the cycle ledger must conserve exactly and nothing may
    // have advanced the clock outside a charging path.
    EXPECT_TRUE(result.cycles_conserved) << "seed " << seed << ": residual "
                                         << result.cycle_residual_ns << " ns, unattributed "
                                         << result.cycle_unattributed_ns << " ns";
    EXPECT_EQ(result.cycle_residual_ns, 0);
    EXPECT_EQ(result.cycle_unattributed_ns, 0);
    // Fifth oracle: causal-token conservation. Untruncated runs must have no
    // chain violations and no orphan hops, and the topology's declared
    // chains must actually complete instances.
    EXPECT_EQ(result.chain_violations, 0u) << "seed " << seed;
    EXPECT_EQ(result.chain_orphan_hops, 0u) << "seed " << seed;
    EXPECT_GT(result.chain_origins, 0u) << "seed " << seed;
    EXPECT_GT(result.chain_completed, 0u) << "seed " << seed;
  }
}

// The same sweep at 2 and 4 virtual cores. All six oracles stay enforced;
// cycle conservation in particular is checked per core AND fleet-summed
// inside RunTorture, so a single tick leaking between cores fails the run.
TEST(TortureTest, MultiCoreSweepIsClean) {
  for (int cores : {2, 4}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      TortureOptions options;
      options.seed = seed;
      options.ops = 2000;
      options.num_cores = cores;
      TortureResult result = RunTorture(options);
      EXPECT_TRUE(result.ok) << "cores=" << cores << " seed=" << seed << ": " << result.failure
                             << "\n  repro: " << ReproCommand(options);
      EXPECT_EQ(result.violations, 0u) << "cores=" << cores << " seed=" << seed;
      EXPECT_EQ(result.fault_mismatches, 0u);
      EXPECT_TRUE(result.cycles_conserved)
          << "cores=" << cores << " seed=" << seed << ": residual "
          << result.cycle_residual_ns << " ns";
      EXPECT_EQ(result.cycle_residual_ns, 0);
      EXPECT_EQ(result.cycle_unattributed_ns, 0);
      EXPECT_EQ(result.chain_violations, 0u) << "cores=" << cores << " seed=" << seed;
    }
  }
}

// Sixth oracle at scale: conservation of lateness over 500 seeds at each of
// 1, 2, and 4 cores. Every deadline miss in every run must carry a ledger
// that telescopes exactly, and because each run is evaluated over its whole
// trace, not one nanosecond may land in the unattributed bucket and not one
// miss may go unmatched. The sweep also proves the oracle is not vacuous:
// these workloads miss deadlines constantly.
TEST(TortureTest, LatenessConservationSweep) {
  for (int cores : {1, 2, 4}) {
    uint64_t misses_total = 0;
    int complete_windows = 0;
    for (uint64_t seed = 1; seed <= 500; ++seed) {
      TortureOptions options;
      options.seed = seed;
      options.ops = 600;
      options.num_cores = cores;
      TortureResult result = RunTorture(options);
      ASSERT_TRUE(result.ok) << "cores=" << cores << " seed=" << seed << ": " << result.failure
                             << "\n  repro: " << ReproCommand(options);
      // Conservation is unconditional; the zero-unattributed / zero-unmatched
      // demands bind on complete windows (RunTorture's oracle 6 enforces them
      // there too — these assertions pin the contract in the test).
      ASSERT_EQ(result.postmortem_conservation_failures, 0u)
          << "cores=" << cores << " seed=" << seed;
      if (result.trace_dropped == 0) {
        ++complete_windows;
        ASSERT_EQ(result.postmortem_unattributed_ns, 0)
            << "cores=" << cores << " seed=" << seed;
        ASSERT_EQ(result.postmortem_unmatched, 0u) << "cores=" << cores << " seed=" << seed;
      }
      misses_total += result.postmortem_misses;
    }
    // The sweep must not be vacuous: every window complete, and the
    // workloads miss deadlines constantly.
    EXPECT_EQ(complete_windows, 500) << "cores=" << cores;
    EXPECT_GT(misses_total, 100u) << "cores=" << cores
                                  << ": sweep produced too few misses to exercise the oracle";
  }
}

// RunTorture evaluates each slice's records and then drains them. One
// EvaluateTrace pass over the whole window InspectTorture keeps, folded with
// the same kernel counters, must give the same oracle inputs: the torture
// twin of the fleet's InspectNode cross-check. Seed 246 at 1 core makes
// more than 96 trace records per op, and the tiny-ring runs evaluate only
// their retained suffix.
TEST(TortureTest, StreamedEvaluationMatchesOnePass) {
  std::vector<TortureOptions> runs;
  for (int cores : {1, 2, 4}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      TortureOptions options;
      options.seed = seed;
      options.num_cores = cores;
      runs.push_back(options);
    }
  }
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    TortureOptions options;
    options.seed = seed;
    options.tiny_trace_ring = true;
    runs.push_back(options);
  }
  TortureOptions heavy;
  heavy.seed = 246;
  heavy.ops = 2000;
  runs.push_back(heavy);

  for (const TortureOptions& options : runs) {
    SCOPED_TRACE(ReproCommand(options));
    TortureResult streamed = RunTorture(options);
    EXPECT_TRUE(streamed.ok) << streamed.failure;
    InspectTorture(options, [&](const Kernel& kernel) {
      obs::TraceEvaluation eval = obs::EvaluateTrace(kernel.trace(), kernel.resolved_chains());
      EXPECT_EQ(streamed.trace_digest, obs::FoldKernelCounters(eval.window_digest, kernel.stats()));
      EXPECT_EQ(streamed.trace_retained, kernel.trace().size());
      EXPECT_EQ(streamed.trace_dropped, kernel.trace().dropped());
      EXPECT_EQ(streamed.violations, eval.trace.violations.size());
      obs::Reconciliation reconciliation = obs::ComputeReconciliation(eval.trace, kernel.stats());
      EXPECT_EQ(streamed.reconciliation.checked, reconciliation.checked);
      EXPECT_EQ(streamed.reconciliation.ok(), reconciliation.ok());
      uint64_t completed = 0;
      for (const obs::ChainReport& c : eval.chains.chains) {
        completed += c.completed;
      }
      EXPECT_EQ(streamed.chain_violations, eval.chains.violations.size());
      EXPECT_EQ(streamed.chain_orphan_hops, eval.chains.orphan_hops);
      EXPECT_EQ(streamed.chain_completed, completed);
      EXPECT_EQ(streamed.chain_origins, eval.chains.origins_minted);
      const obs::PostmortemAnalysis& pm = eval.postmortem;
      EXPECT_EQ(streamed.postmortem_misses, pm.misses_analyzed);
      EXPECT_EQ(streamed.postmortem_conservation_failures, pm.conservation_failures);
      EXPECT_EQ(streamed.postmortem_unattributed_ns, pm.blame.unattributed_ns);
      EXPECT_EQ(streamed.postmortem_unmatched, pm.unmatched_misses);
      EXPECT_EQ(streamed.postmortem_incomplete, pm.incomplete_misses);
    });
    if (options.seed == heavy.seed) {
      EXPECT_GT(streamed.trace_retained, static_cast<uint64_t>(heavy.ops) * 96);
      EXPECT_EQ(streamed.trace_dropped, 0u);
      EXPECT_TRUE(streamed.reconciliation.checked);
    }
  }
}

TEST(TortureTest, MultiCoreSameSeedIsBitDeterministic) {
  TortureOptions options;
  options.seed = 42;
  options.ops = 2000;
  options.num_cores = 2;
  TortureResult a = RunTorture(options);
  TortureResult b = RunTorture(options);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.ops_executed, b.ops_executed);
  EXPECT_EQ(a.virtual_time, b.virtual_time);
}

// Pins what a run's evaluation produces on a fixed seed list: the trace
// digest plus the chain and postmortem outcomes, at 1, 2 and 4 cores and on
// truncated windows. A host-side rewrite of the trace replays must leave
// this value unchanged. A change of the digest's encoding (FoldTraceEvent,
// FoldKernelCounters) moves it; re-pin it only after showing, with old and
// new folds computed side by side, that the old -> new map of run digests
// is one-to-one and nothing but digests changed.
TEST(TortureTest, DigestsMatchGolden) {
  uint64_t hash = kFnv1aOffsetBasis;
  uint64_t orphan_hops = 0;
  uint64_t misses = 0;
  auto fold = [&hash](uint64_t v) { hash = FoldWord(hash, v); };
  auto run = [&](const TortureOptions& options) {
    TortureResult r = RunTorture(options);
    EXPECT_TRUE(r.ok) << ReproCommand(options) << ": " << r.failure;
    fold(r.trace_digest);
    fold(r.chain_completed);
    fold(r.chain_orphan_hops);
    fold(r.postmortem_misses);
    fold(static_cast<uint64_t>(r.postmortem_unattributed_ns));
    orphan_hops += r.chain_orphan_hops;
    misses += r.postmortem_misses;
  };
  for (int cores : {1, 2, 4}) {
    for (uint64_t seed = 1; seed <= 24; ++seed) {
      TortureOptions options;
      options.seed = seed;
      options.ops = 2000;
      options.num_cores = cores;
      run(options);
    }
  }
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TortureOptions options;
    options.seed = seed;
    options.ops = 2000;
    options.tiny_trace_ring = true;
    run(options);
  }
  // The pinned runs reach truncated chains and analyzed misses.
  EXPECT_GT(orphan_hops, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(hash, 0xc8d477a4e53eed42ULL);
}

TEST(TortureTest, ReproCommandNamesNumCores) {
  TortureOptions options;
  options.seed = 3;
  options.num_cores = 2;
  EXPECT_NE(ReproCommand(options).find("--num-cores=2"), std::string::npos);
  options.num_cores = 1;
  EXPECT_EQ(ReproCommand(options).find("--num-cores"), std::string::npos);
}

TEST(TortureTest, SameSeedIsBitDeterministic) {
  TortureOptions options;
  options.seed = 42;
  options.ops = 2000;
  TortureResult a = RunTorture(options);
  TortureResult b = RunTorture(options);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.ops_executed, b.ops_executed);
  EXPECT_EQ(a.trace_retained, b.trace_retained);
  EXPECT_EQ(a.virtual_time, b.virtual_time);
}

TEST(TortureTest, DifferentSeedsDiverge) {
  TortureOptions a_opt;
  a_opt.seed = 1;
  a_opt.ops = 1000;
  TortureOptions b_opt = a_opt;
  b_opt.seed = 2;
  EXPECT_NE(RunTorture(a_opt).trace_digest, RunTorture(b_opt).trace_digest);
}

TEST(TortureTest, OpLimitPrefixIsStable) {
  // The shrinking contract: a capped run executes exactly the eligible
  // prefix of the same schedule, deterministically.
  TortureOptions options;
  options.seed = 9;
  options.ops = 1500;
  options.op_limit = 300;
  TortureResult a = RunTorture(options);
  TortureResult b = RunTorture(options);
  EXPECT_EQ(a.ops_executed, 300);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
}

TEST(TortureTest, TinyRingTruncationRefusesReconciliation) {
  TortureOptions options;
  options.seed = 3;
  options.ops = 3000;
  options.tiny_trace_ring = true;
  TortureResult result = RunTorture(options);
  // The deliberately tiny ring must overflow, the analyzer must stay
  // violation-free on the retained window, and reconciliation must refuse
  // to compare against a truncated trace.
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.trace_dropped, 0u);
  EXPECT_FALSE(result.reconciliation.checked);
  // The cycle-conservation oracle reads kernel counters, not the trace, so
  // it stays enforced even when the ring truncated.
  EXPECT_TRUE(result.cycles_conserved);
  EXPECT_EQ(result.cycle_residual_ns, 0);
  EXPECT_EQ(result.cycle_unattributed_ns, 0);
  // Token conservation degrades on truncation: consumes whose emits were
  // overwritten become counted orphan hops, never violations.
  EXPECT_EQ(result.chain_violations, 0u);
}

TEST(TortureTest, FaultInjectionCoversAllFaultKinds) {
  // Across a few seeds, every fault op kind must actually execute and every
  // injected fault must have come back with its contract status (otherwise
  // fault_mismatches would be non-zero and ok would be false).
  uint64_t bad_handle = 0;
  uint64_t permission = 0;
  uint64_t oversized = 0;
  uint64_t truncations = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    TortureOptions options;
    options.seed = seed;
    options.ops = 4000;
    TortureResult result = RunTorture(options);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.failure;
    bad_handle += result.coverage.op_counts[static_cast<int>(OpKind::kFaultBadHandle)];
    permission += result.coverage.op_counts[static_cast<int>(OpKind::kFaultPermission)];
    oversized += result.coverage.op_counts[static_cast<int>(OpKind::kFaultOversized)];
    truncations += result.stats.mailbox_truncations;
    EXPECT_EQ(result.fault_mismatches, 0u);
  }
  EXPECT_GT(bad_handle, 0u);
  EXPECT_GT(permission, 0u);
  EXPECT_GT(oversized, 0u);
  // Short receive buffers are part of the schedule, so truncations happen.
  EXPECT_GT(truncations, 0u);
}

TEST(TortureTest, CoverageCountsMatchBudget) {
  TortureOptions options;
  options.seed = 5;
  options.ops = 2000;
  TortureResult result = RunTorture(options);
  ASSERT_TRUE(result.ok) << result.failure;
  uint64_t total = 0;
  for (int i = 0; i < kNumOpKinds; ++i) {
    total += result.coverage.op_counts[i];
  }
  EXPECT_EQ(total, static_cast<uint64_t>(result.ops_executed));
}

TEST(TortureTest, BisectFindsSmallestFailingBudget) {
  // Synthetic monotone predicate: fails at >= 137.
  int calls = 0;
  int found = BisectSmallestFailing(10000, [&](int limit) {
    ++calls;
    return limit >= 137;
  });
  EXPECT_EQ(found, 137);
  EXPECT_LE(calls, 16);  // log2(10000) + slack, not a linear scan

  // Degenerate edges: always-failing shrinks to 1; the bisector never
  // probes outside [1, hi].
  EXPECT_EQ(BisectSmallestFailing(50, [](int) { return true; }), 1);
}

TEST(TortureTest, ReproCommandRoundTrips) {
  TortureOptions options;
  options.seed = 77;
  options.ops = 1234;
  options.op_limit = 99;
  options.tiny_trace_ring = true;
  options.num_cores = 4;
  EXPECT_EQ(ReproCommand(options),
            "torture --seed=77 --ops=1234 --op-limit=99 --tiny-ring --num-cores=4");
}

TEST(TortureTest, ReportCarriesSchemaAndRuns) {
  TortureOptions options;
  options.seed = 1;
  options.ops = 500;
  TortureResult result = RunTorture(options);
  std::string report = BuildTortureReport({options}, {result});
  EXPECT_NE(report.find("\"schema\": \"emeralds.fuzz.torture/1\""), std::string::npos);
  EXPECT_NE(report.find("\"runs\""), std::string::npos);
  EXPECT_NE(report.find("\"reconciliation\""), std::string::npos);
  EXPECT_NE(report.find("\"totals\""), std::string::npos);
  EXPECT_NE(report.find("\"repro\""), std::string::npos);
  EXPECT_NE(report.find("\"chains\""), std::string::npos);
}

// The Perfetto JSON trace_inspect --perfetto writes for one torture window
// (threads exit in it; late jobs become postmortem annotations), folded into
// one pinned digest. The exporter's rewrite as a TraceReplay visitor must
// keep these bytes.
TEST(PerfettoPinTest, TortureWindow) {
  TortureOptions options;
  options.seed = 5;
  options.ops = 2000;
  std::string csv_path = testing::TempDir() + "emeralds_perfetto_pin.csv";
  ASSERT_TRUE(ExportTortureTraceCsv(options, csv_path));
  std::FILE* csv = std::fopen(csv_path.c_str(), "r");
  ASSERT_NE(csv, nullptr);
  obs::TraceCsvImport import;
  std::string error;
  bool imported = obs::ImportTraceCsv(csv, &import, &error);
  std::fclose(csv);
  std::remove(csv_path.c_str());
  ASSERT_TRUE(imported) << error;

  obs::PerfettoExportOptions po;
  po.dropped_events = import.dropped;
  po.annotations = obs::PostmortemAnnotations(
      obs::EvaluateTrace(import.events, import.dropped, {}).postmortem);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  obs::ExportPerfettoJson(import.events.data(), import.events.size(), po, out);
  std::rewind(out);
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0) {
    text.append(buf, n);
  }
  std::fclose(out);
  EXPECT_EQ(import.events.size(), 22443u);
  EXPECT_EQ(text.size(), 775333u);
  EXPECT_EQ(Fnv1a(kFnv1aOffsetBasis, text.data(), text.size()), 0xaf46f2bd38988e64ULL);
}

}  // namespace
}  // namespace fuzz
}  // namespace emeralds
