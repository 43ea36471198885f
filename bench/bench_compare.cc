#include "bench/bench_compare.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <string>

#include "bench/bench_json_check.h"

namespace emeralds {
namespace bench {
namespace {

// Maximum relative growth of a gated metric before the gate fails: 3%, so an
// injected 5% scheduler-bucket regression reliably fails.
constexpr double kRelTolerance = 0.03;
// Absolute per-bucket slack for cycle buckets: keeps near-zero buckets (a few
// charges in total) from tripping on one extra operation. Small against any
// real bucket.
constexpr double kAbsSlackNs = 20000;

void Failf(CompareResult* r, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  r->failures.push_back(buf);
}

void Notef(CompareResult* r, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  r->notes.push_back(buf);
}

// Runs the report's own check; each FAIL line becomes a failure naming the
// side. Returns true when the report passes.
bool PassesOwnCheck(const char* side, const JsonValue& report, CompareResult* r) {
  const JsonCheckResult check = CheckReport(side, report);
  // A failed check logs only "FAIL: <reason>" lines.
  std::istringstream log(check.log);
  for (std::string line; !check.ok && std::getline(log, line);) {
    Failf(r, "%s fails its own check: %s", side, line.erase(0, 6).c_str());
  }
  return check.ok;
}

// A run's "digest" (its trace window folded with its kernel counters) gates
// exactly: any change of simulated behaviour moves it, even one that keeps
// every other value inside its tolerance. Returns true when the digests are
// equal. The digest folds every kOverheadSpan record, which holds each
// charge's bucket and amount, so under an equal digest a ledger can move
// only if the accounting changed: the callers then hold the ledgers
// exactly, user and idle included.
bool CompareDigest(const JsonValue& baseline, const JsonValue& candidate, const char* what,
                   const char* regenerate, CompareResult* r) {
  const std::string& base = Get(baseline, "digest").string;
  const std::string& cand = Get(candidate, "digest").string;
  if (base != cand) {
    Failf(r, "%s digest differs (baseline %s vs candidate %s): simulated behaviour changed; if "
             "intended, regenerate the baseline with %s",
          what, base.c_str(), cand.c_str(), regenerate);
  }
  return base == cand;
}

void ExpectSameLedger(const std::string& what, double base, double cand, CompareResult* r) {
  if (cand != base) {
    Failf(r, "%s %.0f vs baseline %.0f under an equal run digest: the simulated run is "
             "unchanged, so the time accounting changed",
          what.c_str(), cand, base);
  }
}

// --- emeralds.obs.cycles/1 ---

// Same-digest rows of array `key` in `base` and `cand`, matched by index:
// each of `fields` must be equal. A failure names the rows `what` + key.
void CompareRowsExactly(const std::string& what, const JsonValue& base, const JsonValue& cand,
                        const char* key, std::initializer_list<const char*> fields,
                        CompareResult* r) {
  const auto& base_rows = Get(base, key).array;
  const auto& cand_rows = Get(cand, key).array;
  if (base_rows.size() != cand_rows.size()) {
    Failf(r, "%s%s: %zu rows vs baseline %zu under an equal run digest", what.c_str(), key,
          cand_rows.size(), base_rows.size());
    return;
  }
  for (size_t i = 0; i < base_rows.size(); ++i) {
    for (const char* field : fields) {
      ExpectSameLedger(what + key + "[" + std::to_string(i) + "]." + field,
                       Num(base_rows[i], field), Num(cand_rows[i], field), r);
    }
  }
}

// Same-digest runs: every bucket, every core's ledger total, every
// scheduler band's select, block and unblock time, and every task row's
// user and overhead time must be equal.
void CompareLedgersExactly(const JsonValue& baseline, const JsonValue& candidate,
                           CompareResult* r) {
  const JsonValue& base_c = Get(baseline, "cycles");
  const JsonValue& cand_c = Get(candidate, "cycles");
  const JsonValue& cand_b = Get(cand_c, "buckets_ns");
  for (const auto& [name, base] : Get(base_c, "buckets_ns").object) {
    ExpectSameLedger("bucket " + name, base.number, Num(cand_b, name.c_str()), r);
  }
  CompareRowsExactly("", base_c, cand_c, "cores", {"ledger_total_ns"}, r);
  CompareRowsExactly("", base_c, cand_c, "sched_bands", {"select_ns", "block_ns", "unblock_ns"},
                     r);
  CompareRowsExactly("", baseline, candidate, "tasks", {"user_ns", "overhead_ns"}, r);
}

void CompareCycles(const JsonValue& baseline, const JsonValue& candidate,
                   CompareResult* r) {
  const bool same_run =
      CompareDigest(baseline, candidate, "cycle ledger run",
                    "EMERALDS_BENCH_JSON=BENCH_cycles.json build/bench/bench_cycles", r);
  const JsonValue& base_c = Get(baseline, "cycles");
  const JsonValue& cand_c = Get(candidate, "cycles");
  const double base_elapsed = Num(base_c, "elapsed_ns");
  const double cand_elapsed = Num(cand_c, "elapsed_ns");
  if (base_elapsed != cand_elapsed) {
    Failf(r, "elapsed_ns differs: baseline %.0f vs candidate %.0f (virtual time is "
             "deterministic; regenerate the baseline if the workload changed)",
          base_elapsed, cand_elapsed);
    return;
  }
  if (same_run) {
    CompareLedgersExactly(baseline, candidate, r);
  }
  // Both sides carry one entry per bucket: each candidate bucket gates
  // against the baseline's, except user time, which belongs to the workload,
  // idle, the complement (a faster kernel means *more* idle), and
  // unattributed, which must be zero anyway (conservation covers it).
  const JsonValue& base_b = Get(base_c, "buckets_ns");
  for (const auto& [name, value] : Get(cand_c, "buckets_ns").object) {
    if (name == "user" || name == "idle" || name == "unattributed") {
      continue;
    }
    const double cand = value.number;
    const double base = Num(base_b, name.c_str());
    const double ceiling = base * (1.0 + kRelTolerance) + kAbsSlackNs;
    if (cand > ceiling) {
      Failf(r, "bucket %s regressed: %.0f ns vs baseline %.0f ns (+%.1f%%, ceiling %.0f)",
            name.c_str(), cand, base, base > 0 ? 100.0 * (cand - base) / base : 0.0, ceiling);
    } else if (cand != base) {
      Notef(r, "bucket %s: %.0f ns vs baseline %.0f ns (within tolerance)", name.c_str(), cand,
            base);
    }
  }
}

// --- emeralds.bench.breakdown/1 ---

// A point's average breakdown per policy gates exactly: the search is
// deterministic, so a faster search must return the same breakdowns at the
// same evaluation count. A policy on one side only is a difference too.
void CompareBreakdownPct(const JsonValue& base, const JsonValue& cand, double n,
                         CompareResult* r) {
  const JsonValue& base_pct = Get(base, "avg_breakdown_pct");
  const JsonValue& cand_pct = Get(cand, "avg_breakdown_pct");
  for (const auto& [policy, b] : base_pct.object) {
    const JsonValue* c = cand_pct.Find(policy);
    if (c == nullptr) {
      Failf(r, "n=%.0f: %s avg_breakdown_pct present only in the baseline", n, policy.c_str());
    } else if (b.number != c->number) {
      Failf(r, "n=%.0f: %s avg_breakdown_pct %.10g vs baseline %.10g (the search is "
               "deterministic; a changed breakdown is a changed verdict)",
            n, policy.c_str(), c->number, b.number);
    }
  }
  for (const auto& [policy, c] : cand_pct.object) {
    if (base_pct.Find(policy) == nullptr) {
      Failf(r, "n=%.0f: %s avg_breakdown_pct present only in the candidate", n, policy.c_str());
    }
  }
}

void CompareBreakdown(const JsonValue& baseline, const JsonValue& candidate,
                      CompareResult* r) {
  const auto& base_p = Get(baseline, "points").array;
  const auto& cand_p = Get(candidate, "points").array;
  if (base_p.size() != cand_p.size()) {
    Failf(r, "point count differs: baseline %zu vs candidate %zu (pin EMERALDS_WORKLOADS to "
             "the baseline's value)",
          base_p.size(), cand_p.size());
    return;
  }
  for (size_t i = 0; i < base_p.size(); ++i) {
    const JsonValue& base = base_p[i];
    const JsonValue& cand = cand_p[i];
    const double n = Num(base, "n");
    if (n != Num(cand, "n")) {
      Failf(r, "point %zu: n differs (baseline %.0f vs candidate %.0f)", i, n, Num(cand, "n"));
      continue;
    }
    CompareBreakdownPct(base, cand, n, r);
    const double base_full = Num(Get(base, "evals"), "full_evals");
    const double cand_full = Num(Get(cand, "evals"), "full_evals");
    if (cand_full > base_full * (1.0 + kRelTolerance)) {
      Failf(r, "n=%.0f: full_evals regressed %.0f -> %.0f (+%.1f%%)", n, base_full, cand_full,
            base_full > 0 ? 100.0 * (cand_full - base_full) / base_full : 0.0);
    }
    const double base_red = Num(base, "eval_reduction");
    const double cand_red = Num(cand, "eval_reduction");
    if (cand_red < base_red * (1.0 - kRelTolerance)) {
      Failf(r, "n=%.0f: eval_reduction regressed %.3f -> %.3f", n, base_red, cand_red);
    }
    // Wall-clock throughput is machine-dependent: informational only.
    const double base_wps = Num(base, "workloads_per_sec");
    const double cand_wps = Num(cand, "workloads_per_sec");
    if (base_wps > 0 && cand_wps > 0 && std::fabs(cand_wps - base_wps) > 0.25 * base_wps) {
      Notef(r, "n=%.0f: workloads_per_sec %.0f vs baseline %.0f (not gated)", n, cand_wps,
            base_wps);
    }
  }
}

// --- emeralds.fleet.run/1 ---

// The fleet's trace record mix (trace.records_by_type, one count per event
// type on both sides) gates exactly: the fleet is deterministic, so a
// changed count is a changed run, and growth is trace bloat. Returns true
// when the mixes are equal.
bool CompareRecordMix(const JsonValue& baseline, const JsonValue& candidate, CompareResult* r) {
  const JsonValue& cand = Get(Get(candidate, "trace"), "records_by_type");
  bool equal = true;
  for (const auto& [type, base] : Get(Get(baseline, "trace"), "records_by_type").object) {
    const double cand_count = Num(cand, type.c_str());
    if (cand_count != base.number) {
      Failf(r, "trace records of type %s: %.0f vs baseline %.0f (the record mix is "
               "deterministic; a changed count is a changed run)",
            type.c_str(), cand_count, base.number);
      equal = false;
    }
  }
  return equal;
}

void CompareFleet(const JsonValue& baseline, const JsonValue& candidate,
                  CompareResult* r) {
  // The run configuration must match, or the aggregates are incomparable.
  for (const char* key : {"instances", "seed", "run_duration_ms", "slice_ms"}) {
    const double base = Num(baseline, key);
    const double cand = Num(candidate, key);
    if (base != cand) {
      Failf(r, "%s differs: baseline %.0f vs candidate %.0f (regenerate the baseline if the "
               "fleet configuration changed)",
            key, base, cand);
      return;
    }
  }
  // Deterministic aggregates: any drift means simulated behavior changed, so
  // hold them to the relative tolerance in both directions.
  for (const char* key : {"events_total", "events_per_virtual_sec"}) {
    const double base = Num(baseline, key);
    const double cand = Num(candidate, key);
    if (std::fabs(cand - base) > base * kRelTolerance) {
      Failf(r, "%s drifted: %.0f vs baseline %.0f (%+.1f%%, tolerance %.0f%%; the fleet is "
               "deterministic — regenerate the baseline if the workload changed)",
            key, cand, base, 100.0 * (cand - base) / base, 100.0 * kRelTolerance);
    } else if (cand != base) {
      Notef(r, "%s: %.0f vs baseline %.0f (within tolerance)", key, cand, base);
    }
  }
  // The fleet digest covers every node's trace, so any change in simulated
  // behavior moves it — the aggregate tolerance above cannot mask it. When
  // the record mix is equal, the failure says so: the same records by type
  // with a different digest means their contents, or the digest's
  // encoding, changed.
  const bool same_mix = CompareRecordMix(baseline, candidate, r);
  const std::string& base_digest = Get(baseline, "fleet_digest").string;
  const std::string& cand_digest = Get(candidate, "fleet_digest").string;
  if (base_digest != cand_digest) {
    Failf(r, "fleet_digest differs (baseline %s vs candidate %s): %s; if the change is "
             "intended, regenerate the baseline with "
             "EMERALDS_BENCH_JSON=BENCH_fleet.json build/bench/bench_fleet",
          base_digest.c_str(), cand_digest.c_str(),
          same_mix ? "the trace records are unchanged (trace.records_by_type is equal), so "
                     "their contents or the digest's encoding changed"
                   : "per-node traces changed");
  }
  for (const char* key : {"deadline_misses", "chain_overruns"}) {
    const double base = Num(baseline, key);
    const double cand = Num(candidate, key);
    if (cand != base) {
      Notef(r, "%s: %.0f vs baseline %.0f (not gated)", key, cand, base);
    }
  }
  // Merged fleet telemetry percentiles: bucket-exact over the union of every
  // node's samples and deterministic, so the chain e2e percentile tables are
  // held to the same relative tolerance as the event aggregates.
  const auto& cand_chains = Get(Get(candidate, "telemetry"), "chains").array;
  for (const JsonValue& base_chain : Get(Get(baseline, "telemetry"), "chains").array) {
    const std::string& name = Get(base_chain, "name").string;
    const auto cand_chain =
        std::find_if(cand_chains.begin(), cand_chains.end(),
                     [&](const JsonValue& c) { return Get(c, "name").string == name; });
    if (cand_chain == cand_chains.end()) {
      Failf(r, "telemetry chain \"%s\" missing from candidate", name.c_str());
      continue;
    }
    const JsonValue& be = Get(base_chain, "e2e");
    const JsonValue& ce = Get(*cand_chain, "e2e");
    for (const char* key : {"p50_us", "p90_us", "p99_us"}) {
      const double base = Num(be, key);
      const double cand = Num(ce, key);
      if (std::fabs(cand - base) > base * kRelTolerance) {
        Failf(r, "chain \"%s\" %s drifted: %.0f vs baseline %.0f (%+.1f%%, tolerance %.0f%%)",
              name.c_str(), key, cand, base, base > 0 ? 100.0 * (cand - base) / base : 0.0,
              100.0 * kRelTolerance);
      } else if (cand != base) {
        Notef(r, "chain \"%s\" %s: %.0f vs baseline %.0f (within tolerance)", name.c_str(), key,
              cand, base);
      }
    }
  }
  // Trace memory per node is a deterministic work counter: the largest
  // node's window storage may not grow past the relative tolerance.
  const double base_storage = Num(Get(baseline, "trace"), "storage_bytes_max");
  const double cand_storage = Num(Get(candidate, "trace"), "storage_bytes_max");
  if (cand_storage > base_storage * (1.0 + kRelTolerance)) {
    Failf(r, "trace.storage_bytes_max grew: %.0f vs baseline %.0f (%+.1f%%, tolerance %.0f%%)",
          cand_storage, base_storage,
          base_storage > 0 ? 100.0 * (cand_storage - base_storage) / base_storage : 0.0,
          100.0 * kRelTolerance);
  } else if (cand_storage != base_storage) {
    Notef(r, "trace.storage_bytes_max: %.0f vs baseline %.0f (within tolerance)", cand_storage,
          base_storage);
  }
  // Wall-clock throughput is machine-dependent: informational only.
  const double base_wps = Num(baseline, "events_per_wall_sec");
  const double cand_wps = Num(candidate, "events_per_wall_sec");
  if (base_wps > 0 && cand_wps > 0 && std::fabs(cand_wps - base_wps) > 0.25 * base_wps) {
    Notef(r, "events_per_wall_sec %.0f vs baseline %.0f (not gated)", cand_wps, base_wps);
  }
}

// --- emeralds.bench.smp/1 ---

void CompareSmp(const JsonValue& baseline, const JsonValue& candidate,
                CompareResult* r) {
  // The run is pure virtual time, so the throughput integers are
  // deterministic: any drift means partitioned-SMP behavior changed.
  const auto& base_rows = Get(baseline, "throughput").array;
  const auto& cand_rows = Get(candidate, "throughput").array;
  if (base_rows.size() != cand_rows.size()) {
    Failf(r, "throughput row count differs: baseline %zu vs candidate %zu", base_rows.size(),
          cand_rows.size());
    return;
  }
  for (size_t i = 0; i < base_rows.size(); ++i) {
    const JsonValue& base = base_rows[i];
    const JsonValue& cand = cand_rows[i];
    const double cores = Num(base, "num_cores");
    if (cores != Num(cand, "num_cores")) {
      Failf(r, "row %zu: num_cores differs (baseline %.0f vs candidate %.0f)", i, cores,
            Num(cand, "num_cores"));
      continue;
    }
    char what[32];
    std::snprintf(what, sizeof(what), "%.0f-core run", cores);
    const bool same_run = CompareDigest(
        base, cand, what, "EMERALDS_BENCH_JSON=BENCH_smp.json build/bench/bench_smp", r);
    for (const char* key : {"user_ns", "idle_ns", "ipis", "jobs_completed"}) {
      const double base_v = Num(base, key);
      const double cand_v = Num(cand, key);
      if (same_run && std::string(key) != "jobs_completed") {
        ExpectSameLedger(std::string(what) + " " + key, base_v, cand_v, r);
      } else if (std::fabs(cand_v - base_v) > std::fabs(base_v) * kRelTolerance) {
        Failf(r, "%.0f-core %s drifted: %.0f vs baseline %.0f (virtual time is deterministic; "
                 "regenerate the baseline if the workload changed)",
              cores, key, cand_v, base_v);
      } else if (cand_v != base_v) {
        Notef(r, "%.0f-core %s: %.0f vs baseline %.0f (within tolerance)", cores, key, cand_v,
              base_v);
      }
    }
    if (same_run) {
      CompareRowsExactly(std::string(what) + " ", base, cand, "cores", {"ledger_total_ns"}, r);
    }
  }
  // The checker holds the absolute 1.7x floor; the scaling may not fall
  // against the baseline either.
  const double ratio2 = Num(candidate, "ratio_2core");
  const double base_ratio2 = Num(baseline, "ratio_2core");
  if (ratio2 < base_ratio2 * (1.0 - kRelTolerance)) {
    Failf(r, "ratio_2core regressed: %.3f vs baseline %.3f", ratio2, base_ratio2);
  }
  // Admission counts are exact: the workloads and search are seeded.
  const auto& base_pts = Get(Get(baseline, "admission"), "points").array;
  const auto& cand_pts = Get(Get(candidate, "admission"), "points").array;
  if (base_pts.size() != cand_pts.size()) {
    Failf(r, "admission point count differs: baseline %zu vs candidate %zu", base_pts.size(),
          cand_pts.size());
    return;
  }
  for (size_t i = 0; i < base_pts.size(); ++i) {
    for (const char* key : {"admitted_1core", "admitted_2core", "admitted_4core"}) {
      const double base_v = Num(base_pts[i], key);
      const double cand_v = Num(cand_pts[i], key);
      if (base_v != cand_v) {
        Failf(r, "admission point %zu: %s differs (%.0f vs baseline %.0f; the sweep is "
                 "seeded — regenerate the baseline if the search changed)",
              i, key, cand_v, base_v);
      }
    }
  }
}

}  // namespace

CompareResult CompareReports(const JsonValue& baseline, const JsonValue& candidate) {
  CompareResult r;
  // Both reports pass their own check first, so every member read below is
  // one the shape table requires.
  const bool baseline_ok = PassesOwnCheck("baseline", baseline, &r);
  if (!PassesOwnCheck("candidate", candidate, &r) || !baseline_ok) {
    return r;
  }
  const std::string& schema = Get(baseline, "schema").string;
  if (schema != Get(candidate, "schema").string) {
    Failf(&r, "schema mismatch: baseline %s vs candidate %s", schema.c_str(),
          Get(candidate, "schema").string.c_str());
    return r;
  }
  if (schema == "emeralds.obs.cycles/1") {
    CompareCycles(baseline, candidate, &r);
  } else if (schema == "emeralds.bench.breakdown/1") {
    CompareBreakdown(baseline, candidate, &r);
  } else if (schema == "emeralds.fleet.run/1") {
    CompareFleet(baseline, candidate, &r);
  } else if (schema == "emeralds.bench.smp/1") {
    CompareSmp(baseline, candidate, &r);
  } else {
    Failf(&r, "schema %s is not gated by bench_compare", schema.c_str());
  }
  r.ok = r.failures.empty();
  return r;
}

CompareResult CompareReportFiles(const std::string& baseline_path,
                                 const std::string& candidate_path) {
  CompareResult r;
  JsonValue docs[2];
  const std::string* paths[2] = {&baseline_path, &candidate_path};
  for (int i = 0; i < 2; ++i) {
    std::string text;
    if (!ReadFile(*paths[i], &text)) {
      Failf(&r, "cannot open %s", paths[i]->c_str());
      return r;
    }
    std::string error;
    if (!JsonParse(text, &docs[i], &error)) {
      Failf(&r, "%s does not parse: %s", paths[i]->c_str(), error.c_str());
      return r;
    }
  }
  return CompareReports(docs[0], docs[1]);
}

}  // namespace bench
}  // namespace emeralds
