// Perf-regression gate tests: an injected scheduler-bucket regression beyond
// tolerance must fail, within-tolerance drift must pass, the user/idle
// buckets and wall-clock throughput must stay ungated across different
// runs, a changed fleet, cycle-ledger or SMP run digest, a changed
// breakdown and a changed fleet record mix must fail, a ledger that moves
// under an equal run digest must fail, and a candidate that violates its
// own invariants must never pass.

#include <string>

#include <gtest/gtest.h>

#include "bench/bench_compare.h"
#include "src/base/json.h"

namespace emeralds {
namespace bench {
namespace {

JsonValue Parse(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(JsonParse(text, &doc, &error)) << error;
  return doc;
}

// A minimal but conserved emeralds.obs.cycles/1 document. The caller picks
// the scheduler-select, user, and idle buckets; everything else is fixed so
// elapsed always matches across variants (sum = 2'000'000'000 by
// construction when select + user + idle == 1'940'000'000).
std::string CyclesDoc(long long select_ns, long long user_ns, long long idle_ns,
                      bool conserved = true) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"schema\":\"emeralds.obs.cycles/1\",\"cycles\":{"
                "\"epoch_ns\":0,\"elapsed_ns\":2000000000,"
                "\"ledger_total_ns\":2000000000,\"residual_ns\":0,"
                "\"conserved\":%s,\"clock_conserved\":true,"
                "\"clock_unattributed_ns\":0,\"headroom_low_events\":7,"
                "\"buckets_ns\":{\"user\":%lld,\"sched_select\":%lld,"
                "\"sched_block\":20000000,\"context_switch\":30000000,"
                "\"syscall\":10000000,\"idle\":%lld}}}",
                conserved ? "true" : "false", user_ns, select_ns, idle_ns);
  return buf;
}

// `doc` with a top-level "digest" member.
std::string WithDigest(const std::string& doc, const char* digest) {
  return "{\"digest\":\"" + std::string(digest) + "\"," + doc.substr(1);
}

TEST(BenchCompareCyclesTest, IdenticalReportsPass) {
  JsonValue doc = Parse(CyclesDoc(60000000, 900000000, 980000000));
  CompareResult r = CompareReports(doc, doc);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_TRUE(r.failures.empty());
}

TEST(BenchCompareCyclesTest, FivePercentSchedulerRegressionFails) {
  JsonValue base = Parse(CyclesDoc(60000000, 900000000, 980000000));
  // +5% on sched_select, paid for out of idle so the candidate still
  // conserves and elapsed still matches: only the regression should trip.
  JsonValue cand = Parse(CyclesDoc(63000000, 900000000, 977000000));
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("sched_select"), std::string::npos) << r.failures[0];
  EXPECT_NE(r.failures[0].find("regressed"), std::string::npos) << r.failures[0];
}

TEST(BenchCompareCyclesTest, WithinToleranceGrowthPasses) {
  JsonValue base = Parse(CyclesDoc(60000000, 900000000, 980000000));
  // +2% on sched_select is inside the 3% gate; it surfaces as a note only.
  JsonValue cand = Parse(CyclesDoc(61200000, 900000000, 978800000));
  CompareResult r = CompareReports(base, cand);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_FALSE(r.notes.empty());
}

TEST(BenchCompareCyclesTest, UserAndIdleBucketsAreNotGated) {
  JsonValue base = Parse(CyclesDoc(60000000, 900000000, 980000000));
  // The workload itself got 10% more expensive (user up, idle down): not the
  // kernel's regression to gate.
  JsonValue cand = Parse(CyclesDoc(60000000, 990000000, 890000000));
  CompareResult r = CompareReports(base, cand);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
}

TEST(BenchCompareCyclesTest, UnconservedCandidateFails) {
  JsonValue base = Parse(CyclesDoc(60000000, 900000000, 980000000));
  JsonValue cand = Parse(CyclesDoc(60000000, 900000000, 980000000, /*conserved=*/false));
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures[0].find("not conserved"), std::string::npos) << r.failures[0];
}

TEST(BenchCompareCyclesTest, ElapsedMismatchFails) {
  JsonValue base = Parse(CyclesDoc(60000000, 900000000, 980000000));
  std::string longer = CyclesDoc(60000000, 900000000, 980000000);
  // A different virtual-time horizon means the runs are not comparable.
  size_t pos = longer.find("\"elapsed_ns\":2000000000");
  ASSERT_NE(pos, std::string::npos);
  longer.replace(pos, 23, "\"elapsed_ns\":2000000001");
  CompareResult r = CompareReports(base, Parse(longer));
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures[0].find("elapsed_ns differs"), std::string::npos) << r.failures[0];
}

TEST(BenchCompareCyclesTest, DigestChangeFailsAndNamesTheRegenerateCommand) {
  // The same ledger from a different simulated run: only the digest sees it.
  const std::string doc = CyclesDoc(60000000, 900000000, 980000000);
  JsonValue base = Parse(WithDigest(doc, "0x1111111111111111"));
  CompareResult r = CompareReports(base, Parse(WithDigest(doc, "0x2222222222222222")));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("cycle ledger run digest differs"), std::string::npos)
      << r.failures[0];
  EXPECT_NE(r.failures[0].find("EMERALDS_BENCH_JSON=BENCH_cycles.json build/bench/bench_cycles"),
            std::string::npos)
      << r.failures[0];
  // An equal digest passes; a candidate without one fails.
  EXPECT_TRUE(CompareReports(base, base).ok);
  EXPECT_FALSE(CompareReports(base, Parse(doc)).ok);
}

TEST(BenchCompareCyclesTest, EqualDigestDemandsAnEqualLedger) {
  // One nanosecond moved from user to idle: ungated between different runs,
  // but under an equal digest the run is the same, so the accounting moved.
  const std::string base_doc = CyclesDoc(60000000, 900000000, 980000000);
  const std::string cand_doc = CyclesDoc(60000000, 899999999, 980000001);
  EXPECT_TRUE(CompareReports(Parse(base_doc), Parse(cand_doc)).ok);
  CompareResult r = CompareReports(Parse(WithDigest(base_doc, "0x1111111111111111")),
                                   Parse(WithDigest(cand_doc, "0x1111111111111111")));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 2u);
  bool named_idle = false;
  for (const std::string& f : r.failures) {
    EXPECT_NE(f.find("under an equal run digest"), std::string::npos) << f;
    EXPECT_NE(f.find("time accounting changed"), std::string::npos) << f;
    named_idle = named_idle || f.find("bucket idle 980000001") != std::string::npos;
  }
  EXPECT_TRUE(named_idle);
}

// CyclesDoc(60000000, 900000000, 980000000) with one core row and one task
// row.
std::string CyclesDocWithRows(long long core_total_ns, long long task_overhead_ns) {
  const std::string doc = CyclesDoc(60000000, 900000000, 980000000);
  char rows[256];
  std::snprintf(rows, sizeof(rows),
                ",\"cores\":[{\"core\":0,\"ledger_total_ns\":%lld}]},"
                "\"tasks\":[{\"id\":0,\"user_ns\":900000000,\"overhead_ns\":%lld}]}",
                core_total_ns, task_overhead_ns);
  return doc.substr(0, doc.size() - 2) + rows;
}

TEST(BenchCompareCyclesTest, EqualDigestHoldsCoreAndTaskRowsExactly) {
  const char* digest = "0x1111111111111111";
  JsonValue base = Parse(WithDigest(CyclesDocWithRows(2000000000, 100), digest));
  EXPECT_TRUE(CompareReports(base, base).ok);
  CompareResult task = CompareReports(
      base, Parse(WithDigest(CyclesDocWithRows(2000000000, 101), digest)));
  ASSERT_EQ(task.failures.size(), 1u);
  EXPECT_NE(task.failures[0].find("tasks[0].overhead_ns"), std::string::npos)
      << task.failures[0];
  CompareResult core = CompareReports(
      base, Parse(WithDigest(CyclesDocWithRows(2000000001, 100), digest)));
  ASSERT_EQ(core.failures.size(), 1u);
  EXPECT_NE(core.failures[0].find("cores[0].ledger_total_ns"), std::string::npos)
      << core.failures[0];
  // Without digests the rows are not gated.
  EXPECT_TRUE(CompareReports(Parse(CyclesDocWithRows(2000000000, 100)),
                             Parse(CyclesDocWithRows(2000000001, 101)))
                  .ok);
}

TEST(BenchCompareCyclesTest, SchemaMismatchFails) {
  JsonValue cycles = Parse(CyclesDoc(60000000, 900000000, 980000000));
  JsonValue other = Parse("{\"schema\":\"emeralds.obs.run/1\"}");
  CompareResult r = CompareReports(cycles, other);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures[0].find("schema mismatch"), std::string::npos) << r.failures[0];
}

// --- emeralds.bench.breakdown/1 ---

std::string BreakdownDoc(long long full_evals, double eval_reduction, double wps,
                         long long mismatches = 0) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"schema\":\"emeralds.bench.breakdown/1\",\"points\":[{"
                "\"n\":10,\"reference_mismatches\":%lld,"
                "\"evals\":{\"full_evals\":%lld},"
                "\"eval_reduction\":%.3f,\"workloads_per_sec\":%.1f}]}",
                mismatches, full_evals, eval_reduction, wps);
  return buf;
}

TEST(BenchCompareBreakdownTest, IdenticalReportsPass) {
  JsonValue doc = Parse(BreakdownDoc(1000, 0.800, 5000));
  EXPECT_TRUE(CompareReports(doc, doc).ok);
}

TEST(BenchCompareBreakdownTest, FullEvalsRegressionFails) {
  JsonValue base = Parse(BreakdownDoc(1000, 0.800, 5000));
  JsonValue cand = Parse(BreakdownDoc(1050, 0.800, 5000));
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures[0].find("full_evals regressed"), std::string::npos) << r.failures[0];
}

TEST(BenchCompareBreakdownTest, EvalReductionShrinkFails) {
  JsonValue base = Parse(BreakdownDoc(1000, 0.800, 5000));
  JsonValue cand = Parse(BreakdownDoc(1000, 0.760, 5000));
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures[0].find("eval_reduction regressed"), std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareBreakdownTest, WallClockThroughputIsNotGated) {
  JsonValue base = Parse(BreakdownDoc(1000, 0.800, 5000));
  // Half the throughput (a slower machine) is a note, never a failure.
  JsonValue cand = Parse(BreakdownDoc(1000, 0.800, 2500));
  CompareResult r = CompareReports(base, cand);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_FALSE(r.notes.empty());
}

// `doc` with its point's "avg_breakdown_pct" set to the object `pct`.
std::string WithBreakdownPct(const std::string& doc, const std::string& pct) {
  const std::string at = "\"n\":10,";
  const size_t cut = doc.find(at) + at.size();
  return doc.substr(0, cut) + "\"avg_breakdown_pct\":" + pct + "," + doc.substr(cut);
}

TEST(BenchCompareBreakdownTest, ChangedBreakdownFailsAndNamesThePoint) {
  const std::string doc = BreakdownDoc(1000, 0.800, 5000);
  JsonValue base = Parse(WithBreakdownPct(doc, "{\"CSD-3\":98.79632813,\"EDF\":97.5}"));
  EXPECT_TRUE(CompareReports(base, base).ok);
  // The same evaluation count with a breakdown one digit off still fails.
  CompareResult r = CompareReports(
      base, Parse(WithBreakdownPct(doc, "{\"CSD-3\":98.79632814,\"EDF\":97.5}")));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("n=10: CSD-3 avg_breakdown_pct 98.79632814 vs baseline "
                               "98.79632813"),
            std::string::npos)
      << r.failures[0];
  // A candidate missing a policy, or the whole section, fails too.
  CompareResult missing = CompareReports(base, Parse(WithBreakdownPct(doc, "{\"EDF\":97.5}")));
  EXPECT_FALSE(missing.ok);
  ASSERT_EQ(missing.failures.size(), 1u);
  EXPECT_NE(missing.failures[0].find("CSD-3 avg_breakdown_pct present only in the baseline"),
            std::string::npos)
      << missing.failures[0];
  EXPECT_FALSE(CompareReports(base, Parse(doc)).ok);
}

TEST(BenchCompareBreakdownTest, ReferenceMismatchFailsTheCandidate) {
  JsonValue base = Parse(BreakdownDoc(1000, 0.800, 5000));
  JsonValue cand = Parse(BreakdownDoc(1000, 0.800, 5000, /*mismatches=*/1));
  EXPECT_FALSE(CompareReports(base, cand).ok);
}

// --- emeralds.fleet.run/1 ---

// `extra` is spliced in as further top-level members (leading comma).
std::string FleetDoc(const char* fleet_digest, const char* extra = "") {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"schema\":\"emeralds.fleet.run/1\",\"instances\":64,\"seed\":1,"
                "\"run_duration_ms\":100,\"slice_ms\":5,\"nodes_failed\":0,"
                "\"events_total\":122157,\"events_per_virtual_sec\":19086,"
                "\"fleet_digest\":\"%s\"%s}",
                fleet_digest, extra);
  return buf;
}

bool HasNote(const CompareResult& r, const char* text) {
  for (const std::string& note : r.notes) {
    if (note.find(text) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(BenchCompareFleetTest, IdenticalReportsPass) {
  JsonValue doc = Parse(FleetDoc("0x694861b1cb5ac0b9"));
  CompareResult r = CompareReports(doc, doc);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
}

TEST(BenchCompareFleetTest, DigestChangeFailsAndNamesTheRegenerateCommand) {
  // Same aggregates, different per-node traces: the tolerance on the event
  // counts cannot see it, the digest gate must.
  JsonValue base = Parse(FleetDoc("0x694861b1cb5ac0b9"));
  JsonValue cand = Parse(FleetDoc("0x9dc8f6c1e3b4c499"));
  CompareResult r = CompareReports(base, cand);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("fleet_digest differs"), std::string::npos) << r.failures[0];
  EXPECT_NE(r.failures[0].find("EMERALDS_BENCH_JSON=BENCH_fleet.json build/bench/bench_fleet"),
            std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareFleetTest, HostEvaluateCostIsNotGated) {
  // Host CPU per node evaluation depends on the machine: a hundredfold rise
  // is neither a failure nor a note.
  JsonValue base =
      Parse(FleetDoc("0x694861b1cb5ac0b9", ",\"host_evaluate\":{\"cpu_ns_total\":1000000}"));
  JsonValue cand =
      Parse(FleetDoc("0x694861b1cb5ac0b9", ",\"host_evaluate\":{\"cpu_ns_total\":100000000}"));
  CompareResult r = CompareReports(base, cand);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_FALSE(HasNote(r, "host_evaluate"));
}

TEST(BenchCompareFleetTest, TraceStorageGrowthFails) {
  JsonValue base =
      Parse(FleetDoc("0x694861b1cb5ac0b9", ",\"trace\":{\"storage_bytes_max\":196608}"));
  // +4% per-node trace memory: over the 3% tolerance.
  JsonValue grown =
      Parse(FleetDoc("0x694861b1cb5ac0b9", ",\"trace\":{\"storage_bytes_max\":204480}"));
  CompareResult r = CompareReports(base, grown);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("trace.storage_bytes_max grew"), std::string::npos)
      << r.failures[0];

  // Shrinking is a note; losing the field is a failure.
  JsonValue shrunk =
      Parse(FleetDoc("0x694861b1cb5ac0b9", ",\"trace\":{\"storage_bytes_max\":98304}"));
  r = CompareReports(base, shrunk);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_TRUE(HasNote(r, "trace.storage_bytes_max: 98304 vs baseline 196608"));
  EXPECT_FALSE(CompareReports(base, Parse(FleetDoc("0x694861b1cb5ac0b9"))).ok);
}

// The trace record mix gates exactly, naming the type and both counts; a
// digest failure over an equal mix says the records are unchanged.
TEST(BenchCompareFleetTest, RecordMixChangeFailsAndAnEqualMixIsNamedInTheDigestFailure) {
  const char* mix = ",\"trace\":{\"records_by_type\":{\"context_switch\":100,\"irq\":5}}";
  JsonValue base = Parse(FleetDoc("0x1111111111111111", mix));
  CompareResult same = CompareReports(base, base);
  EXPECT_TRUE(same.ok) << (same.failures.empty() ? "" : same.failures[0]);

  JsonValue more_irqs = Parse(FleetDoc(
      "0x1111111111111111", ",\"trace\":{\"records_by_type\":{\"context_switch\":100,\"irq\":6}}"));
  CompareResult r = CompareReports(base, more_irqs);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("trace records of type irq: 6 vs baseline 5"), std::string::npos)
      << r.failures[0];

  // A type only the candidate has counts against 0.
  JsonValue new_type = Parse(FleetDoc(
      "0x1111111111111111",
      ",\"trace\":{\"records_by_type\":{\"context_switch\":100,\"irq\":5,\"msg_send\":2}}"));
  r = CompareReports(base, new_type);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("trace records of type msg_send: 2 vs baseline 0"),
            std::string::npos)
      << r.failures[0];

  // Same records by type, different digest: the failure says so.
  r = CompareReports(base, Parse(FleetDoc("0x2222222222222222", mix)));
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("fleet_digest differs"), std::string::npos) << r.failures[0];
  EXPECT_NE(r.failures[0].find("the trace records are unchanged"), std::string::npos)
      << r.failures[0];

  // A changed mix and digest: two failures, and the digest one does not
  // claim the records are unchanged.
  r = CompareReports(base, Parse(FleetDoc("0x2222222222222222",
                                          ",\"trace\":{\"records_by_type\":{"
                                          "\"context_switch\":101,\"irq\":5}}")));
  ASSERT_EQ(r.failures.size(), 2u);
  EXPECT_NE(r.failures[1].find("per-node traces changed"), std::string::npos) << r.failures[1];

  // Losing the section fails.
  r = CompareReports(base, Parse(FleetDoc("0x1111111111111111")));
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("baseline has trace.records_by_type but the candidate does not"),
            std::string::npos)
      << r.failures[0];
}

// --- emeralds.bench.smp/1 ---

// A 1- and 2-core throughput report; the caller picks the 2-core run digest
// and idle time.
std::string SmpDoc(const char* two_core_digest, long long two_core_idle_ns = 0) {
  return std::string(
             "{\"schema\":\"emeralds.bench.smp/1\",\"ratio_2core\":2.0,\"throughput\":["
             "{\"num_cores\":1,\"user_ns\":600000000,\"idle_ns\":0,\"ipis\":0,"
             "\"jobs_completed\":200,\"conserved\":true,\"digest\":\"0x1111111111111111\"},"
             "{\"num_cores\":2,\"user_ns\":1200000000,\"idle_ns\":") +
         std::to_string(two_core_idle_ns) +
         ",\"ipis\":40,\"jobs_completed\":400,\"conserved\":true,\"digest\":\"" +
         two_core_digest +
         "\"}],\"admission\":{\"points\":[{\"admitted_1core\":3,\"admitted_2core\":5,"
         "\"admitted_4core\":8}]}}";
}

TEST(BenchCompareSmpTest, DigestChangeFails) {
  JsonValue base = Parse(SmpDoc("0x2222222222222222"));
  CompareResult same = CompareReports(base, base);
  EXPECT_TRUE(same.ok) << (same.failures.empty() ? "" : same.failures[0]);
  CompareResult r = CompareReports(base, Parse(SmpDoc("0x3333333333333333")));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("2-core run digest differs"), std::string::npos) << r.failures[0];
  EXPECT_NE(r.failures[0].find("EMERALDS_BENCH_JSON=BENCH_smp.json build/bench/bench_smp"),
            std::string::npos)
      << r.failures[0];
}

TEST(BenchCompareSmpTest, EqualDigestDemandsAnEqualLedger) {
  JsonValue base = Parse(SmpDoc("0x2222222222222222", 1000000));
  CompareResult r = CompareReports(base, Parse(SmpDoc("0x2222222222222222", 1000001)));
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("2-core run idle_ns 1000001 vs baseline 1000000 under an equal "
                               "run digest"),
            std::string::npos)
      << r.failures[0];
  // Between different runs the same move is inside the tolerance: only the
  // digest fails.
  CompareResult other = CompareReports(base, Parse(SmpDoc("0x3333333333333333", 1000001)));
  ASSERT_EQ(other.failures.size(), 1u);
  EXPECT_NE(other.failures[0].find("2-core run digest differs"), std::string::npos)
      << other.failures[0];
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
