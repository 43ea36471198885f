// Perf-regression gate tests, each on a committed baseline mutated in place:
// an injected scheduler-bucket regression beyond tolerance must fail,
// within-tolerance drift must not, the user/idle buckets and wall-clock
// throughput must stay ungated across different runs, a changed fleet,
// cycle-ledger or SMP run digest, a changed breakdown and a changed fleet
// record mix must fail, a ledger that moves under an equal run digest must
// fail, and a report that fails its own check is never compared: the gate
// names its side and the member.

#include "bench/bench_compare.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "tests/bench/report_fixtures.h"

namespace emeralds {
namespace bench {
namespace {

std::string Joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line + "\n";
  }
  return out;
}

bool Has(const std::vector<std::string>& lines, const std::string& text) {
  for (const std::string& line : lines) {
    if (line.find(text) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// The failures other than a changed run digest's.
std::vector<std::string> FailuresBesidesDigest(const CompareResult& r) {
  std::vector<std::string> rest;
  for (const std::string& failure : r.failures) {
    if (failure.find("digest differs") == std::string::npos) {
      rest.push_back(failure);
    }
  }
  return rest;
}

// Removes member `key` from `obj`; fails the test when it is absent.
void Erase(JsonValue& obj, const std::string& key) {
  EXPECT_EQ(std::erase_if(obj.object, [&](const auto& m) { return m.first == key; }), 1u) << key;
}

// --- emeralds.obs.cycles/1 (BENCH_cycles.json) ---

constexpr const char* kOtherRun = "0x0000000000000001";

// BENCH_cycles.json with `ns` moved from bucket `from` to bucket `to`, so the
// ledger still conserves, under run digest `digest` (the baseline's when
// null).
JsonValue CyclesMoved(const char* from, const char* to, double ns,
                      const char* digest = nullptr) {
  JsonValue doc = Load("BENCH_cycles.json");
  At(AtPath(doc, "cycles.buckets_ns"), from).number -= ns;
  At(AtPath(doc, "cycles.buckets_ns"), to).number += ns;
  if (digest != nullptr) {
    At(doc, "digest").string = digest;
  }
  return doc;
}

TEST(BenchCompareCyclesTest, IdenticalReportsPass) {
  JsonValue doc = Load("BENCH_cycles.json");
  CompareResult r = CompareReports(doc, doc);
  EXPECT_TRUE(r.ok) << Joined(r.failures);
  EXPECT_TRUE(r.failures.empty());
}

TEST(BenchCompareCyclesTest, FivePercentSchedulerRegressionFails) {
  JsonValue base = Load("BENCH_cycles.json");
  ASSERT_EQ(AtPath(base, "cycles.buckets_ns.sched_select").number, 6438900.0);
  // +5% on sched_select, paid for out of idle so the candidate still
  // conserves and elapsed still matches, in a different run: only the
  // digest and the regression should trip.
  CompareResult r = CompareReports(base, CyclesMoved("idle", "sched_select", 321945, kOtherRun));
  EXPECT_FALSE(r.ok);
  const std::vector<std::string> rest = FailuresBesidesDigest(r);
  EXPECT_EQ(r.failures.size(), 2u) << Joined(r.failures);
  ASSERT_EQ(rest.size(), 1u) << Joined(r.failures);
  EXPECT_NE(rest[0].find("bucket sched_select regressed"), std::string::npos) << rest[0];
}

TEST(BenchCompareCyclesTest, WithinToleranceGrowthPasses) {
  // +2% on sched_select is inside the 3% gate; it surfaces as a note only.
  CompareResult r = CompareReports(Load("BENCH_cycles.json"),
                                   CyclesMoved("idle", "sched_select", 128778, kOtherRun));
  EXPECT_TRUE(FailuresBesidesDigest(r).empty()) << Joined(r.failures);
  EXPECT_TRUE(Has(r.notes, "bucket sched_select: 6567678 ns vs baseline 6438900 ns"))
      << Joined(r.notes);
}

TEST(BenchCompareCyclesTest, UserAndIdleBucketsAreNotGated) {
  // The workload itself got 10% more expensive (user up, idle down): not the
  // kernel's regression to gate.
  CompareResult r = CompareReports(Load("BENCH_cycles.json"),
                                   CyclesMoved("idle", "user", 168284000, kOtherRun));
  EXPECT_TRUE(FailuresBesidesDigest(r).empty()) << Joined(r.failures);
}

TEST(BenchCompareCyclesTest, UnconservedCandidateFails) {
  JsonValue cand = Load("BENCH_cycles.json");
  AtPath(cand, "cycles.conserved").boolean = false;
  CompareResult r = CompareReports(Load("BENCH_cycles.json"), cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_EQ(r.failures[0], "candidate fails its own check: cycles conserved is false");
}

TEST(BenchCompareCyclesTest, ElapsedMismatchFails) {
  // A different virtual-time horizon means the runs are not comparable (the
  // extra nanosecond is idle, so the candidate still conserves).
  JsonValue longer = Load("BENCH_cycles.json");
  AtPath(longer, "cycles.elapsed_ns").number += 1;
  AtPath(longer, "cycles.buckets_ns.idle").number += 1;
  CompareResult r = CompareReports(Load("BENCH_cycles.json"), longer);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("elapsed_ns differs"), std::string::npos) << r.failures[0];
}

TEST(BenchCompareCyclesTest, DigestChangeFailsAndNamesTheRegenerateCommand) {
  // The same ledger from a different simulated run: only the digest sees it.
  JsonValue base = Load("BENCH_cycles.json");
  JsonValue cand = base;
  At(cand, "digest").string = "0x2222222222222222";
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("cycle ledger run digest differs"), std::string::npos)
      << r.failures[0];
  EXPECT_NE(r.failures[0].find("EMERALDS_BENCH_JSON=BENCH_cycles.json build/bench/bench_cycles"),
            std::string::npos)
      << r.failures[0];
  // An equal digest passes; a candidate without one fails its own check.
  EXPECT_TRUE(CompareReports(base, base).ok);
  Erase(cand, "digest");
  r = CompareReports(base, cand);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("candidate fails its own check: digest is missing"),
            std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareCyclesTest, EqualDigestDemandsAnEqualLedger) {
  // One nanosecond moved from user to idle: ungated between different runs,
  // but under an equal digest the run is the same, so the accounting moved.
  JsonValue base = Load("BENCH_cycles.json");
  CompareResult other = CompareReports(base, CyclesMoved("user", "idle", 1, kOtherRun));
  EXPECT_TRUE(FailuresBesidesDigest(other).empty()) << Joined(other.failures);
  CompareResult r = CompareReports(base, CyclesMoved("user", "idle", 1));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 2u) << Joined(r.failures);
  for (const std::string& f : r.failures) {
    EXPECT_NE(f.find("under an equal run digest"), std::string::npos) << f;
    EXPECT_NE(f.find("time accounting changed"), std::string::npos) << f;
  }
  EXPECT_TRUE(Has(r.failures, "bucket idle 235620951"));
}

TEST(BenchCompareCyclesTest, EqualDigestHoldsCoreAndTaskRowsExactly) {
  JsonValue base = Load("BENCH_cycles.json");
  JsonValue task = base;
  AtPath(task, "tasks[0].overhead_ns").number += 1;
  CompareResult r = CompareReports(base, task);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("tasks[0].overhead_ns"), std::string::npos) << r.failures[0];
  JsonValue core = base;
  AtPath(core, "cycles.cores[0].ledger_total_ns").number += 1;
  r = CompareReports(base, core);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("cores[0].ledger_total_ns"), std::string::npos) << r.failures[0];
}

// A scheduler band's time is not among the buckets, so only the band row
// shows this move: under an equal digest it fails as a changed ledger.
TEST(BenchCompareCyclesTest, EqualDigestHoldsSchedulerBandsExactly) {
  JsonValue base = Load("BENCH_cycles.json");
  JsonValue cand = base;
  AtPath(cand, "cycles.sched_bands[0].select_ns").number *= 1.05;
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("sched_bands[0].select_ns 4423230 vs baseline 4212600 under an "
                               "equal run digest"),
            std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareCyclesTest, SchemaMismatchFails) {
  CompareResult r = CompareReports(Load("BENCH_cycles.json"), Load("BENCH_smp.json"));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("schema mismatch"), std::string::npos) << r.failures[0];
}

// --- emeralds.bench.breakdown/1 (BENCH_breakdown.json) ---

TEST(BenchCompareBreakdownTest, IdenticalReportsPass) {
  JsonValue doc = Load("BENCH_breakdown.json");
  CompareResult r = CompareReports(doc, doc);
  EXPECT_TRUE(r.ok) << Joined(r.failures);
}

TEST(BenchCompareBreakdownTest, FullEvalsRegressionFails) {
  JsonValue cand = Load("BENCH_breakdown.json");
  ASSERT_EQ(AtPath(cand, "points[1].evals.full_evals").number, 1162.0);
  AtPath(cand, "points[1].evals.full_evals").number = 1220;  // +5%
  CompareResult r = CompareReports(Load("BENCH_breakdown.json"), cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("n=10: full_evals regressed"), std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareBreakdownTest, EvalReductionShrinkFails) {
  JsonValue cand = Load("BENCH_breakdown.json");
  AtPath(cand, "points[1].eval_reduction").number *= 0.95;
  CompareResult r = CompareReports(Load("BENCH_breakdown.json"), cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("n=10: eval_reduction regressed"), std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareBreakdownTest, WallClockThroughputIsNotGated) {
  // Half the throughput (a slower machine) is a note, never a failure.
  JsonValue cand = Load("BENCH_breakdown.json");
  AtPath(cand, "points[1].workloads_per_sec").number /= 2;
  CompareResult r = CompareReports(Load("BENCH_breakdown.json"), cand);
  EXPECT_TRUE(r.ok) << Joined(r.failures);
  EXPECT_TRUE(Has(r.notes, "n=10: workloads_per_sec")) << Joined(r.notes);
}

TEST(BenchCompareBreakdownTest, ChangedBreakdownFailsAndNamesThePoint) {
  JsonValue base = Load("BENCH_breakdown.json");
  JsonValue cand = base;
  JsonValue& pct = AtPath(cand, "points[1].avg_breakdown_pct");
  ASSERT_EQ(At(pct, "CSD-3").number, 98.79632813);
  // The same evaluation count with a breakdown one digit off still fails.
  At(pct, "CSD-3").number = 98.79632814;
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("n=10: CSD-3 avg_breakdown_pct 98.79632814 vs baseline "
                               "98.79632813"),
            std::string::npos)
      << r.failures[0];
  // A candidate missing a policy fails the comparison; one missing the whole
  // section fails its own check.
  Erase(pct, "CSD-3");
  r = CompareReports(base, cand);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("n=10: CSD-3 avg_breakdown_pct present only in the baseline"),
            std::string::npos)
      << r.failures[0];
  Erase(AtPath(cand, "points[1]"), "avg_breakdown_pct");
  r = CompareReports(base, cand);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("candidate fails its own check: "
                               "points[1].avg_breakdown_pct is missing"),
            std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareBreakdownTest, ReferenceMismatchFailsTheCandidate) {
  JsonValue cand = Load("BENCH_breakdown.json");
  AtPath(cand, "points[0].reference_mismatches").number = 1;
  CompareResult r = CompareReports(Load("BENCH_breakdown.json"), cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_EQ(r.failures[0], "candidate fails its own check: reference_mismatches = 1 at n = 5");
}

// --- emeralds.fleet.run/1 (BENCH_fleet.json) ---

TEST(BenchCompareFleetTest, IdenticalReportsPass) {
  JsonValue doc = Load("BENCH_fleet.json");
  CompareResult r = CompareReports(doc, doc);
  EXPECT_TRUE(r.ok) << Joined(r.failures);
}

TEST(BenchCompareFleetTest, DigestChangeFailsAndNamesTheRegenerateCommand) {
  // Same aggregates, different per-node traces: the tolerance on the event
  // counts cannot see it, the digest gate must.
  JsonValue cand = Load("BENCH_fleet.json");
  At(cand, "fleet_digest").string = "0x9dc8f6c1e3b4c499";
  CompareResult r = CompareReports(Load("BENCH_fleet.json"), cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("fleet_digest differs"), std::string::npos) << r.failures[0];
  EXPECT_NE(r.failures[0].find("EMERALDS_BENCH_JSON=BENCH_fleet.json build/bench/bench_fleet"),
            std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareFleetTest, HostEvaluateCostIsNotGated) {
  // Host CPU per node evaluation depends on the machine: a hundredfold rise
  // is neither a failure nor a note.
  JsonValue cand = Load("BENCH_fleet.json");
  AtPath(cand, "host_evaluate.cpu_ns_total").number *= 100;
  CompareResult r = CompareReports(Load("BENCH_fleet.json"), cand);
  EXPECT_TRUE(r.ok) << Joined(r.failures);
  EXPECT_FALSE(Has(r.notes, "host_evaluate"));
}

TEST(BenchCompareFleetTest, TraceStorageGrowthFails) {
  JsonValue base = Load("BENCH_fleet.json");
  ASSERT_EQ(AtPath(base, "trace.storage_bytes_max").number, 12288.0);
  // +4% per-node trace memory: over the 3% tolerance.
  JsonValue cand = base;
  AtPath(cand, "trace.storage_bytes_max").number = 12780;
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("trace.storage_bytes_max grew"), std::string::npos)
      << r.failures[0];

  // Shrinking is a note; losing the field fails the candidate's own check.
  AtPath(cand, "trace.storage_bytes_max").number = 6144;
  r = CompareReports(base, cand);
  EXPECT_TRUE(r.ok) << Joined(r.failures);
  EXPECT_TRUE(Has(r.notes, "trace.storage_bytes_max: 6144 vs baseline 12288"));
  Erase(At(cand, "trace"), "storage_bytes_max");
  r = CompareReports(base, cand);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("candidate fails its own check: trace.storage_bytes_max is "
                               "missing"),
            std::string::npos)
      << r.failures[0];
}

// The trace record mix gates exactly, naming the type and both counts; a
// digest failure over an equal mix says the records are unchanged.
TEST(BenchCompareFleetTest, RecordMixChangeFailsAndAnEqualMixIsNamedInTheDigestFailure) {
  JsonValue base = Load("BENCH_fleet.json");
  JsonValue cand = base;
  JsonValue& mix = AtPath(cand, "trace.records_by_type");
  ASSERT_EQ(At(mix, "msg_send").number, 2164.0);
  At(mix, "msg_send").number += 1;
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("trace records of type msg_send: 2165 vs baseline 2164"),
            std::string::npos)
      << r.failures[0];

  // Same records by type, different digest: the failure says so.
  cand = base;
  At(cand, "fleet_digest").string = "0x2222222222222222";
  r = CompareReports(base, cand);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("fleet_digest differs"), std::string::npos) << r.failures[0];
  EXPECT_NE(r.failures[0].find("the trace records are unchanged"), std::string::npos)
      << r.failures[0];

  // A changed mix and digest: two failures, and the digest one does not
  // claim the records are unchanged.
  AtPath(cand, "trace.records_by_type.context_switch").number += 1;
  r = CompareReports(base, cand);
  ASSERT_EQ(r.failures.size(), 2u) << Joined(r.failures);
  EXPECT_NE(r.failures[1].find("per-node traces changed"), std::string::npos) << r.failures[1];

  // Losing the section fails the candidate's own check.
  Erase(At(cand, "trace"), "records_by_type");
  r = CompareReports(base, cand);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("candidate fails its own check: trace.records_by_type is "
                               "missing"),
            std::string::npos)
      << r.failures[0];
}

// --- emeralds.bench.smp/1 (BENCH_smp.json) ---

TEST(BenchCompareSmpTest, DigestChangeFails) {
  JsonValue base = Load("BENCH_smp.json");
  CompareResult same = CompareReports(base, base);
  EXPECT_TRUE(same.ok) << Joined(same.failures);
  JsonValue cand = base;
  AtPath(cand, "throughput[1].digest").string = "0x3333333333333333";
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("2-core run digest differs"), std::string::npos) << r.failures[0];
  EXPECT_NE(r.failures[0].find("EMERALDS_BENCH_JSON=BENCH_smp.json build/bench/bench_smp"),
            std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareSmpTest, EqualDigestDemandsAnEqualLedger) {
  JsonValue base = Load("BENCH_smp.json");
  JsonValue cand = base;
  AtPath(cand, "throughput[1].idle_ns").number += 1;
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("2-core run idle_ns 2998101 vs baseline 2998100 under an equal "
                               "run digest"),
            std::string::npos)
      << r.failures[0];
  // Between different runs the same move is inside the tolerance: only the
  // digest fails.
  AtPath(cand, "throughput[1].digest").string = "0x3333333333333333";
  CompareResult other = CompareReports(base, cand);
  ASSERT_EQ(other.failures.size(), 1u) << Joined(other.failures);
  EXPECT_NE(other.failures[0].find("2-core run digest differs"), std::string::npos)
      << other.failures[0];
}

// A core ledger that is not its elapsed time fails the candidate's own
// check; one moved together with its elapsed time passes that check, and
// under an equal digest fails as a changed ledger.
TEST(BenchCompareSmpTest, EqualDigestHoldsEachCoreLedgerExactly) {
  JsonValue base = Load("BENCH_smp.json");
  JsonValue cand = base;
  AtPath(cand, "throughput[1].cores[0].ledger_total_ns").number *= 1.05;
  CompareResult r = CompareReports(base, cand);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("candidate fails its own check: smp 2-core run, core 0: "
                               "ledger_total_ns 2100000000 is not elapsed_ns 2000000000"),
            std::string::npos)
      << r.failures[0];

  AtPath(cand, "throughput[1].cores[0].elapsed_ns").number *= 1.05;
  r = CompareReports(base, cand);
  ASSERT_EQ(r.failures.size(), 1u) << Joined(r.failures);
  EXPECT_NE(r.failures[0].find("2-core run cores[0].ledger_total_ns 2100000000 vs baseline "
                               "2000000000 under an equal run digest"),
            std::string::npos)
      << r.failures[0];
}

// --- reports that fail their own check ---

// In each pair the baseline lacks a member its check requires (the first
// pair's candidate too): the gate names the side and the member instead of
// comparing, whatever the candidate holds.
TEST(BenchCompareUncheckedTest, ReportsThatFailTheirOwnCheckAreNotCompared) {
  struct Pair {
    JsonValue baseline;
    JsonValue candidate;
    const char* failure;
  };
  std::vector<Pair> pairs;

  // 1. No per-core rows on either side.
  JsonValue no_cores = Load("BENCH_cycles.json");
  Erase(At(no_cores, "cycles"), "cores");
  pairs.push_back({no_cores, no_cores, "baseline fails its own check: cycles.cores is missing"});

  // 2. A baseline without a run digest against another run.
  JsonValue no_digest = Load("BENCH_cycles.json");
  JsonValue other_run = no_digest;
  Erase(no_digest, "digest");
  At(other_run, "digest").string = kOtherRun;
  pairs.push_back({no_digest, other_run, "baseline fails its own check: digest is missing"});

  // 3. No task row's user time on either side.
  JsonValue no_user = Load("BENCH_cycles.json");
  for (JsonValue& task : At(no_user, "tasks").array) {
    Erase(task, "user_ns");
  }
  pairs.push_back({no_user, no_user, "baseline fails its own check: tasks[0].user_ns is missing"});

  // 4. A fleet baseline without telemetry against a doubled chain e2e p99.
  JsonValue no_telemetry = Load("BENCH_fleet.json");
  JsonValue slower = no_telemetry;
  Erase(no_telemetry, "telemetry");
  AtPath(slower, "telemetry.chains[0].e2e.p99_us").number *= 2;
  pairs.push_back({no_telemetry, slower, "baseline fails its own check: telemetry is missing"});

  // 5. No breakdown on either side.
  JsonValue no_pct = Load("BENCH_breakdown.json");
  for (JsonValue& point : At(no_pct, "points").array) {
    Erase(point, "avg_breakdown_pct");
  }
  pairs.push_back(
      {no_pct, no_pct, "baseline fails its own check: points[0].avg_breakdown_pct is missing"});

  // 6. An SMP baseline without row digests against other runs with more user
  // time.
  JsonValue no_row_digests = Load("BENCH_smp.json");
  JsonValue other_rows = no_row_digests;
  for (JsonValue& row : At(no_row_digests, "throughput").array) {
    Erase(row, "digest");
  }
  for (JsonValue& row : At(other_rows, "throughput").array) {
    At(row, "digest").string = "0x4444444444444444";
    At(row, "user_ns").number += 1;
  }
  pairs.push_back({no_row_digests, other_rows,
                   "baseline fails its own check: throughput[0].digest is missing"});

  for (const Pair& pair : pairs) {
    CompareResult r = CompareReports(pair.baseline, pair.candidate);
    EXPECT_FALSE(r.ok) << pair.failure;
    ASSERT_FALSE(r.failures.empty()) << pair.failure;
    EXPECT_EQ(r.failures[0].rfind(pair.failure, 0), 0u) << Joined(r.failures);
    for (const std::string& failure : r.failures) {
      EXPECT_NE(failure.find(" fails its own check: "), std::string::npos) << failure;
    }
  }
}

TEST(BenchCompareFilesTest, MissingFileIsAnIoFailure) {
  CompareResult r = CompareReportFiles("/nonexistent/base.json", "/nonexistent/cand.json");
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures[0].find("cannot open"), std::string::npos) << r.failures[0];
}

}  // namespace
}  // namespace bench
}  // namespace emeralds
