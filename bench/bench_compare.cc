#include "bench/bench_compare.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>

namespace emeralds {
namespace bench {
namespace {

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

double NumberOr(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->type == JsonValue::Type::kNumber ? v->number : fallback;
}

bool BoolOr(const JsonValue& obj, const char* key, bool fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->type == JsonValue::Type::kBool ? v->boolean : fallback;
}

const char* StringOr(const JsonValue& obj, const char* key, const char* fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->type == JsonValue::Type::kString ? v->string.c_str() : fallback;
}

// A run's "digest" (its trace window folded with its kernel counters) gates
// exactly: any change of simulated behaviour moves it, even one that keeps
// every other value inside its tolerance. Baselines written before runs
// carried a digest are not gated on it.
void CompareDigest(const JsonValue& baseline, const JsonValue& candidate, const char* what,
                   const char* regenerate, CompareResult* r) {
  const char* base = StringOr(baseline, "digest", nullptr);
  const char* cand = StringOr(candidate, "digest", "(none)");
  if (base != nullptr && std::string(base) != cand) {
    Failf(r, "%s digest differs (baseline %s vs candidate %s): simulated behaviour changed; if "
             "intended, regenerate the baseline with %s",
          what, base, cand, regenerate);
  }
}

// --- emeralds.obs.cycles/1 ---

// Buckets excluded from the growth gate: user time belongs to the workload,
// idle is the complement (a faster kernel means *more* idle), and
// unattributed must be zero anyway (conservation covers it).
bool GatedBucket(const std::string& name) {
  return name != "user" && name != "idle" && name != "unattributed";
}

void CompareCycles(const JsonValue& baseline, const JsonValue& candidate,
                   const CompareOptions& opt, CompareResult* r) {
  const JsonValue* base_c = baseline.Find("cycles");
  const JsonValue* cand_c = candidate.Find("cycles");
  if (base_c == nullptr || cand_c == nullptr) {
    Failf(r, "cycles section missing (baseline %s, candidate %s)",
          base_c != nullptr ? "present" : "absent", cand_c != nullptr ? "present" : "absent");
    return;
  }
  if (!BoolOr(*cand_c, "conserved", false) || !BoolOr(*cand_c, "clock_conserved", false)) {
    Failf(r, "candidate ledger not conserved (residual %.0f ns, unattributed %.0f ns)",
          NumberOr(*cand_c, "residual_ns", -1), NumberOr(*cand_c, "clock_unattributed_ns", -1));
  }
  CompareDigest(baseline, candidate, "cycle ledger run",
                "EMERALDS_BENCH_JSON=BENCH_cycles.json build/bench/bench_cycles", r);
  double base_elapsed = NumberOr(*base_c, "elapsed_ns", -1);
  double cand_elapsed = NumberOr(*cand_c, "elapsed_ns", -2);
  if (base_elapsed != cand_elapsed) {
    Failf(r, "elapsed_ns differs: baseline %.0f vs candidate %.0f (virtual time is "
             "deterministic; regenerate the baseline if the workload changed)",
          base_elapsed, cand_elapsed);
    return;
  }
  const JsonValue* base_b = base_c->Find("buckets_ns");
  const JsonValue* cand_b = cand_c->Find("buckets_ns");
  if (base_b == nullptr || base_b->type != JsonValue::Type::kObject || cand_b == nullptr ||
      cand_b->type != JsonValue::Type::kObject) {
    Failf(r, "buckets_ns object missing");
    return;
  }
  // Candidate buckets gate against the baseline; buckets only in one side
  // compare against zero.
  for (const auto& kv : cand_b->object) {
    if (!GatedBucket(kv.first)) {
      continue;
    }
    double cand = kv.second.number;
    double base = NumberOr(*base_b, kv.first.c_str(), 0.0);
    double ceiling = base * (1.0 + opt.rel_tolerance) + static_cast<double>(opt.abs_slack_ns);
    if (cand > ceiling) {
      Failf(r, "bucket %s regressed: %.0f ns vs baseline %.0f ns (+%.1f%%, ceiling %.0f)",
            kv.first.c_str(), cand, base, base > 0 ? 100.0 * (cand - base) / base : 0.0,
            ceiling);
    } else if (cand != base) {
      Notef(r, "bucket %s: %.0f ns vs baseline %.0f ns (within tolerance)", kv.first.c_str(),
            cand, base);
    }
  }
  for (const auto& kv : base_b->object) {
    if (GatedBucket(kv.first) && cand_b->Find(kv.first) == nullptr && kv.second.number != 0.0) {
      Notef(r, "bucket %s present only in baseline (%.0f ns)", kv.first.c_str(),
            kv.second.number);
    }
  }
}

// --- emeralds.bench.breakdown/1 ---

void CompareBreakdown(const JsonValue& baseline, const JsonValue& candidate,
                      const CompareOptions& opt, CompareResult* r) {
  const JsonValue* base_p = baseline.Find("points");
  const JsonValue* cand_p = candidate.Find("points");
  if (base_p == nullptr || base_p->type != JsonValue::Type::kArray || cand_p == nullptr ||
      cand_p->type != JsonValue::Type::kArray) {
    Failf(r, "points array missing");
    return;
  }
  if (base_p->array.size() != cand_p->array.size()) {
    Failf(r, "point count differs: baseline %zu vs candidate %zu (pin EMERALDS_WORKLOADS to "
             "the baseline's value)",
          base_p->array.size(), cand_p->array.size());
    return;
  }
  for (size_t i = 0; i < base_p->array.size(); ++i) {
    const JsonValue& base = base_p->array[i];
    const JsonValue& cand = cand_p->array[i];
    double n = NumberOr(base, "n", -1);
    if (n != NumberOr(cand, "n", -2)) {
      Failf(r, "point %zu: n differs (baseline %.0f vs candidate %.0f)", i, n,
            NumberOr(cand, "n", -2));
      continue;
    }
    if (NumberOr(cand, "reference_mismatches", -1) != 0.0) {
      Failf(r, "n=%.0f: candidate has %.0f reference mismatches", n,
            NumberOr(cand, "reference_mismatches", -1));
    }
    const JsonValue* base_e = base.Find("evals");
    const JsonValue* cand_e = cand.Find("evals");
    double base_full = base_e != nullptr ? NumberOr(*base_e, "full_evals", -1) : -1;
    double cand_full = cand_e != nullptr ? NumberOr(*cand_e, "full_evals", -1) : -1;
    if (base_full < 0 || cand_full < 0) {
      Failf(r, "n=%.0f: evals.full_evals missing", n);
    } else if (cand_full > base_full * (1.0 + opt.rel_tolerance)) {
      Failf(r, "n=%.0f: full_evals regressed %.0f -> %.0f (+%.1f%%)", n, base_full, cand_full,
            base_full > 0 ? 100.0 * (cand_full - base_full) / base_full : 0.0);
    }
    double base_red = NumberOr(base, "eval_reduction", 0.0);
    double cand_red = NumberOr(cand, "eval_reduction", 0.0);
    if (cand_red < base_red * (1.0 - opt.rel_tolerance)) {
      Failf(r, "n=%.0f: eval_reduction regressed %.3f -> %.3f", n, base_red, cand_red);
    }
    // Wall-clock throughput is machine-dependent: informational only.
    double base_wps = NumberOr(base, "workloads_per_sec", 0.0);
    double cand_wps = NumberOr(cand, "workloads_per_sec", 0.0);
    if (base_wps > 0 && cand_wps > 0 && std::fabs(cand_wps - base_wps) > 0.25 * base_wps) {
      Notef(r, "n=%.0f: workloads_per_sec %.0f vs baseline %.0f (not gated)", n, cand_wps,
            base_wps);
    }
  }
}

// --- emeralds.fleet.run/1 ---

// The fleet's trace record mix (trace.records_by_type) gates exactly: the
// fleet is deterministic, so a changed count is a changed run, and growth is
// trace bloat. A type on one side only counts 0 on the other. Returns true
// when the baseline has the mix and the candidate's equals it.
bool CompareRecordMix(const JsonValue& baseline, const JsonValue& candidate, CompareResult* r) {
  auto mix_of = [](const JsonValue& report) -> const JsonValue* {
    const JsonValue* trace = report.Find("trace");
    const JsonValue* mix = trace != nullptr ? trace->Find("records_by_type") : nullptr;
    return mix != nullptr && mix->type == JsonValue::Type::kObject ? mix : nullptr;
  };
  const JsonValue* base = mix_of(baseline);
  const JsonValue* cand = mix_of(candidate);
  if (base == nullptr) {
    return false;
  }
  if (cand == nullptr) {
    Failf(r, "baseline has trace.records_by_type but the candidate does not");
    return false;
  }
  bool equal = true;
  auto check = [&](const std::string& type) {
    double base_count = NumberOr(*base, type.c_str(), 0.0);
    double cand_count = NumberOr(*cand, type.c_str(), 0.0);
    if (cand_count != base_count) {
      Failf(r, "trace records of type %s: %.0f vs baseline %.0f (the record mix is "
               "deterministic; a changed count is a changed run)",
            type.c_str(), cand_count, base_count);
      equal = false;
    }
  };
  for (const auto& member : base->object) {
    check(member.first);
  }
  for (const auto& member : cand->object) {
    if (base->Find(member.first) == nullptr) {
      check(member.first);
    }
  }
  return equal;
}

void CompareFleet(const JsonValue& baseline, const JsonValue& candidate,
                  const CompareOptions& opt, CompareResult* r) {
  // The candidate must pass its own oracles before any baseline comparison.
  double failed = NumberOr(candidate, "nodes_failed", -1);
  if (failed != 0.0) {
    Failf(r, "candidate has %.0f failed node(s): %s", failed,
          StringOr(candidate, "first_failure", "?"));
  }
  // The run configuration must match, or the aggregates are incomparable.
  for (const char* key : {"instances", "seed", "run_duration_ms", "slice_ms"}) {
    double base = NumberOr(baseline, key, -1);
    double cand = NumberOr(candidate, key, -2);
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
    double base = NumberOr(baseline, key, -1);
    double cand = NumberOr(candidate, key, -2);
    if (base <= 0 || cand <= 0) {
      Failf(r, "%s missing or non-positive", key);
      continue;
    }
    if (std::fabs(cand - base) > base * opt.rel_tolerance) {
      Failf(r, "%s drifted: %.0f vs baseline %.0f (%+.1f%%, tolerance %.0f%%; the fleet is "
               "deterministic — regenerate the baseline if the workload changed)",
            key, cand, base, 100.0 * (cand - base) / base, 100.0 * opt.rel_tolerance);
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
  if (std::string(StringOr(baseline, "fleet_digest", "?")) !=
      StringOr(candidate, "fleet_digest", "??")) {
    Failf(r, "fleet_digest differs (baseline %s vs candidate %s): %s; if the change is "
             "intended, regenerate the baseline with "
             "EMERALDS_BENCH_JSON=BENCH_fleet.json build/bench/bench_fleet",
          StringOr(baseline, "fleet_digest", "?"), StringOr(candidate, "fleet_digest", "??"),
          same_mix ? "the trace records are unchanged (trace.records_by_type is equal), so "
                     "their contents or the digest's encoding changed"
                   : "per-node traces changed");
  }
  for (const char* key : {"deadline_misses", "chain_overruns"}) {
    double base = NumberOr(baseline, key, 0.0);
    double cand = NumberOr(candidate, key, 0.0);
    if (cand != base) {
      Notef(r, "%s: %.0f vs baseline %.0f (not gated)", key, cand, base);
    }
  }
  // Merged fleet telemetry percentiles: bucket-exact over the union of every
  // node's samples and deterministic, so when both reports carry the section
  // the chain e2e percentile tables are held to the same relative tolerance
  // as the event aggregates.
  const JsonValue* base_tel = baseline.Find("telemetry");
  const JsonValue* cand_tel = candidate.Find("telemetry");
  if (base_tel != nullptr && cand_tel == nullptr) {
    Failf(r, "baseline has a telemetry section but the candidate does not");
  } else if (base_tel != nullptr && cand_tel != nullptr) {
    const JsonValue* base_chains = base_tel->Find("chains");
    const JsonValue* cand_chains = cand_tel->Find("chains");
    if (base_chains != nullptr && base_chains->type == JsonValue::Type::kArray &&
        cand_chains != nullptr && cand_chains->type == JsonValue::Type::kArray) {
      for (const JsonValue& bc : base_chains->array) {
        const char* name = StringOr(bc, "name", "?");
        const JsonValue* cc = nullptr;
        for (const JsonValue& c : cand_chains->array) {
          if (std::string(StringOr(c, "name", "")) == name) {
            cc = &c;
            break;
          }
        }
        if (cc == nullptr) {
          Failf(r, "telemetry chain \"%s\" missing from candidate", name);
          continue;
        }
        const JsonValue* be = bc.Find("e2e");
        const JsonValue* ce = cc->Find("e2e");
        if (be == nullptr || ce == nullptr) {
          Failf(r, "telemetry chain \"%s\" missing e2e histogram", name);
          continue;
        }
        for (const char* key : {"p50_us", "p90_us", "p99_us"}) {
          double base = NumberOr(*be, key, -1);
          double cand = NumberOr(*ce, key, -2);
          if (base < 0 || cand < 0) {
            Failf(r, "telemetry chain \"%s\" missing %s", name, key);
            continue;
          }
          if (std::fabs(cand - base) > base * opt.rel_tolerance) {
            Failf(r, "chain \"%s\" %s drifted: %.0f vs baseline %.0f (%+.1f%%, tolerance "
                     "%.0f%%)",
                  name, key, cand, base, base > 0 ? 100.0 * (cand - base) / base : 0.0,
                  100.0 * opt.rel_tolerance);
          } else if (cand != base) {
            Notef(r, "chain \"%s\" %s: %.0f vs baseline %.0f (within tolerance)", name, key,
                  cand, base);
          }
        }
      }
    }
  }
  // Trace memory per node is a deterministic work counter: the largest
  // node's window storage may not grow past the relative tolerance.
  auto storage_bytes_max = [](const JsonValue& report) {
    const JsonValue* trace = report.Find("trace");
    return trace != nullptr ? NumberOr(*trace, "storage_bytes_max", -1) : -1;
  };
  double base_storage = storage_bytes_max(baseline);
  double cand_storage = storage_bytes_max(candidate);
  if (base_storage >= 0 && cand_storage < 0) {
    Failf(r, "baseline has trace.storage_bytes_max but the candidate does not");
  } else if (base_storage >= 0 && cand_storage > base_storage * (1.0 + opt.rel_tolerance)) {
    Failf(r, "trace.storage_bytes_max grew: %.0f vs baseline %.0f (%+.1f%%, tolerance %.0f%%)",
          cand_storage, base_storage,
          base_storage > 0 ? 100.0 * (cand_storage - base_storage) / base_storage : 0.0,
          100.0 * opt.rel_tolerance);
  } else if (base_storage >= 0 && cand_storage != base_storage) {
    Notef(r, "trace.storage_bytes_max: %.0f vs baseline %.0f (within tolerance)", cand_storage,
          base_storage);
  }
  // Wall-clock throughput is machine-dependent: informational only.
  double base_wps = NumberOr(baseline, "events_per_wall_sec", 0.0);
  double cand_wps = NumberOr(candidate, "events_per_wall_sec", 0.0);
  if (base_wps > 0 && cand_wps > 0 && std::fabs(cand_wps - base_wps) > 0.25 * base_wps) {
    Notef(r, "events_per_wall_sec %.0f vs baseline %.0f (not gated)", cand_wps, base_wps);
  }
}

// --- emeralds.bench.smp/1 ---

void CompareSmp(const JsonValue& baseline, const JsonValue& candidate,
                const CompareOptions& opt, CompareResult* r) {
  // The run is pure virtual time, so the throughput integers are
  // deterministic: any drift means partitioned-SMP behavior changed.
  const JsonValue* base_rows = baseline.Find("throughput");
  const JsonValue* cand_rows = candidate.Find("throughput");
  if (base_rows == nullptr || base_rows->type != JsonValue::Type::kArray ||
      cand_rows == nullptr || cand_rows->type != JsonValue::Type::kArray) {
    Failf(r, "throughput array missing");
    return;
  }
  if (base_rows->array.size() != cand_rows->array.size()) {
    Failf(r, "throughput row count differs: baseline %zu vs candidate %zu",
          base_rows->array.size(), cand_rows->array.size());
    return;
  }
  for (size_t i = 0; i < base_rows->array.size(); ++i) {
    const JsonValue& base = base_rows->array[i];
    const JsonValue& cand = cand_rows->array[i];
    double cores = NumberOr(base, "num_cores", -1);
    if (cores != NumberOr(cand, "num_cores", -2)) {
      Failf(r, "row %zu: num_cores differs (baseline %.0f vs candidate %.0f)", i, cores,
            NumberOr(cand, "num_cores", -2));
      continue;
    }
    if (!BoolOr(cand, "conserved", false)) {
      Failf(r, "%.0f-core candidate run is not cycle-conserved", cores);
    }
    char what[32];
    std::snprintf(what, sizeof(what), "%.0f-core run", cores);
    CompareDigest(base, cand, what, "EMERALDS_BENCH_JSON=BENCH_smp.json build/bench/bench_smp", r);
    for (const char* key : {"user_ns", "idle_ns", "ipis", "jobs_completed"}) {
      double base_v = NumberOr(base, key, -1);
      double cand_v = NumberOr(cand, key, -2);
      if (std::fabs(cand_v - base_v) > std::fabs(base_v) * opt.rel_tolerance) {
        Failf(r, "%.0f-core %s drifted: %.0f vs baseline %.0f (virtual time is deterministic; "
                 "regenerate the baseline if the workload changed)",
              cores, key, cand_v, base_v);
      } else if (cand_v != base_v) {
        Notef(r, "%.0f-core %s: %.0f vs baseline %.0f (within tolerance)", cores, key, cand_v,
              base_v);
      }
    }
  }
  // The scaling floor is absolute, not a baseline delta.
  double ratio2 = NumberOr(candidate, "ratio_2core", -1);
  if (ratio2 < 1.7) {
    Failf(r, "2-core user-cycle scaling is %.3fx (floor 1.7x)", ratio2);
  }
  double base_ratio2 = NumberOr(baseline, "ratio_2core", 0.0);
  if (base_ratio2 > 0 && ratio2 < base_ratio2 * (1.0 - opt.rel_tolerance)) {
    Failf(r, "ratio_2core regressed: %.3f vs baseline %.3f", ratio2, base_ratio2);
  }
  // Admission counts are exact: the workloads and search are seeded.
  const JsonValue* base_adm = baseline.Find("admission");
  const JsonValue* cand_adm = candidate.Find("admission");
  const JsonValue* base_pts =
      base_adm != nullptr ? base_adm->Find("points") : nullptr;
  const JsonValue* cand_pts =
      cand_adm != nullptr ? cand_adm->Find("points") : nullptr;
  if (base_pts == nullptr || base_pts->type != JsonValue::Type::kArray || cand_pts == nullptr ||
      cand_pts->type != JsonValue::Type::kArray ||
      base_pts->array.size() != cand_pts->array.size()) {
    Failf(r, "admission points missing or count differs");
    return;
  }
  for (size_t i = 0; i < base_pts->array.size(); ++i) {
    for (const char* key : {"admitted_1core", "admitted_2core", "admitted_4core"}) {
      double base_v = NumberOr(base_pts->array[i], key, -1);
      double cand_v = NumberOr(cand_pts->array[i], key, -2);
      if (base_v != cand_v) {
        Failf(r, "admission point %zu: %s differs (%.0f vs baseline %.0f; the sweep is "
                 "seeded — regenerate the baseline if the search changed)",
              i, key, cand_v, base_v);
      }
    }
  }
}

}  // namespace

CompareResult CompareReports(const JsonValue& baseline, const JsonValue& candidate,
                             const CompareOptions& options) {
  CompareResult r;
  const JsonValue* base_schema = baseline.Find("schema");
  const JsonValue* cand_schema = candidate.Find("schema");
  if (base_schema == nullptr || cand_schema == nullptr ||
      base_schema->type != JsonValue::Type::kString ||
      cand_schema->type != JsonValue::Type::kString) {
    Failf(&r, "schema tag missing");
    return r;
  }
  if (base_schema->string != cand_schema->string) {
    Failf(&r, "schema mismatch: baseline %s vs candidate %s", base_schema->string.c_str(),
          cand_schema->string.c_str());
    return r;
  }
  if (base_schema->string == "emeralds.obs.cycles/1") {
    CompareCycles(baseline, candidate, options, &r);
  } else if (base_schema->string == "emeralds.bench.breakdown/1") {
    CompareBreakdown(baseline, candidate, options, &r);
  } else if (base_schema->string == "emeralds.fleet.run/1") {
    CompareFleet(baseline, candidate, options, &r);
  } else if (base_schema->string == "emeralds.bench.smp/1") {
    CompareSmp(baseline, candidate, options, &r);
  } else {
    Failf(&r, "schema %s is not gated by bench_compare", base_schema->string.c_str());
  }
  r.ok = r.failures.empty();
  return r;
}

CompareResult CompareReportFiles(const std::string& baseline_path,
                                 const std::string& candidate_path,
                                 const CompareOptions& options) {
  CompareResult r;
  JsonValue docs[2];
  const std::string* paths[2] = {&baseline_path, &candidate_path};
  for (int i = 0; i < 2; ++i) {
    std::FILE* f = std::fopen(paths[i]->c_str(), "rb");
    if (f == nullptr) {
      Failf(&r, "cannot open %s", paths[i]->c_str());
      return r;
    }
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, got);
    }
    std::fclose(f);
    std::string error;
    if (!JsonParse(text, &docs[i], &error)) {
      Failf(&r, "%s does not parse: %s", paths[i]->c_str(), error.c_str());
      return r;
    }
  }
  return CompareReports(docs[0], docs[1], options);
}

}  // namespace bench
}  // namespace emeralds
