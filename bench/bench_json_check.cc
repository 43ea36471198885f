#include "bench/bench_json_check.h"

#include <cstdarg>
#include <cstdio>
#include <initializer_list>
#include <utility>

#include "src/hal/trace.h"

namespace emeralds {
namespace bench {
namespace {

// One report's check. A gate that rejects appends its FAIL line(s) to the
// log and ends the check; a report that passes every gate gets one OK line.
class Checker {
 public:
  JsonCheckResult Run(const char* path, const JsonValue& root);

 private:
  [[gnu::format(printf, 2, 3)]] void Fail(const char* format, ...);
  [[gnu::format(printf, 2, 3)]] void Ok(const char* format, ...);
  void Append(const char* prefix, const char* format, va_list args);

  int Dispatch(const char* path, const JsonValue& root);
  bool RequireNumbers(const JsonValue& obj, const char* section,
                      std::initializer_list<const char*> keys);
  bool RequireDigest(const JsonValue& obj, const char* ctx);
  bool RequireHistogram(const JsonValue& obj, const char* ctx, const char* key);
  bool CheckCyclesSection(const JsonValue& cycles, const char* ctx);
  bool CheckChainsSection(const JsonValue& chains, const char* ctx);
  bool CheckPostmortemSection(const JsonValue& pm, const char* ctx, bool forensic = false);
  bool CheckTelemetrySection(const JsonValue& telemetry, const char* ctx,
                             const JsonValue& root);
  bool CheckTimeseriesSection(const JsonValue& ts, const char* ctx, const JsonValue* totals);
  bool CheckAlertsSection(const JsonValue& alerts, const char* ctx);
  int CheckObsChains(const char* path, const JsonValue& root);
  int CheckObsCycles(const char* path, const JsonValue& root);
  int CheckObsRun(const char* path, const JsonValue& root);
  int CheckFuzzTorture(const char* path, const JsonValue& root);
  int CheckFleetRun(const char* path, const JsonValue& root);
  int CheckObsBlackBox(const char* path, const JsonValue& root);
  int CheckBenchSmp(const char* path, const JsonValue& root);
  int CheckBreakdown(const char* path, const JsonValue& root);

  std::string log_;
};

void Checker::Append(const char* prefix, const char* format, va_list args) {
  va_list sizing;
  va_copy(sizing, args);
  const int length = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  log_ += prefix;
  if (length > 0) {
    const size_t at = log_.size();
    log_.resize(at + static_cast<size_t>(length) + 1);
    std::vsnprintf(&log_[at], static_cast<size_t>(length) + 1, format, args);
    log_.resize(at + static_cast<size_t>(length));
  }
}

void Checker::Fail(const char* format, ...) {
  va_list args;
  va_start(args, format);
  Append("FAIL: ", format, args);
  va_end(args);
}

void Checker::Ok(const char* format, ...) {
  va_list args;
  va_start(args, format);
  Append("OK: ", format, args);
  va_end(args);
}

JsonCheckResult Checker::Run(const char* path, const JsonValue& root) {
  JsonCheckResult result;
  result.ok = Dispatch(path, root) == 0;
  result.log = std::move(log_);
  return result;
}

bool Checker::RequireNumbers(const JsonValue& obj, const char* section,
                    std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kNumber) {
      Fail("%s missing numeric \"%s\"\n", section, key);
      return false;
    }
  }
  return true;
}

// A run digest: "0x" and 16 lowercase hex digits.
bool Checker::RequireDigest(const JsonValue& obj, const char* ctx) {
  const JsonValue* v = obj.Find("digest");
  if (v == nullptr || v->type != JsonValue::Type::kString || v->string.size() != 18 ||
      v->string.compare(0, 2, "0x") != 0 ||
      v->string.find_first_not_of("0123456789abcdef", 2) != std::string::npos) {
    Fail("%s missing \"digest\" (0x and 16 hex digits)\n", ctx);
    return false;
  }
  return true;
}

// Substantive validation of a "cycles" section (embedded in obs.run or the
// standalone obs.cycles document): conservation must be asserted AND the
// integers must back it up (residual exactly zero, ledger total == elapsed).
bool Checker::CheckCyclesSection(const JsonValue& cycles, const char* ctx) {
  if (!RequireNumbers(cycles, ctx,
                      {"epoch_ns", "elapsed_ns", "ledger_total_ns", "residual_ns",
                       "clock_unattributed_ns", "headroom_low_events"})) {
    return false;
  }
  const JsonValue* buckets = cycles.Find("buckets_ns");
  if (buckets == nullptr || buckets->type != JsonValue::Type::kObject) {
    Fail("%s missing buckets_ns object\n", ctx);
    return false;
  }
  const JsonValue* bands = cycles.Find("sched_bands");
  if (bands == nullptr || bands->type != JsonValue::Type::kArray) {
    Fail("%s missing sched_bands array\n", ctx);
    return false;
  }
  for (const char* key : {"conserved", "clock_conserved"}) {
    const JsonValue* v = cycles.Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kBool) {
      Fail("%s missing bool \"%s\"\n", ctx, key);
      return false;
    }
    if (!v->boolean) {
      Fail("%s %s is false\n", ctx, key);
      return false;
    }
  }
  if (cycles.Find("residual_ns")->number != 0.0 ||
      cycles.Find("clock_unattributed_ns")->number != 0.0) {
    Fail("%s residual_ns=%g clock_unattributed_ns=%g (must be 0)\n", ctx,
         cycles.Find("residual_ns")->number, cycles.Find("clock_unattributed_ns")->number);
    return false;
  }
  double sum = 0.0;
  for (const auto& kv : buckets->object) {
    if (kv.second.type != JsonValue::Type::kNumber) {
      Fail("%s bucket \"%s\" not numeric\n", ctx, kv.first.c_str());
      return false;
    }
    sum += kv.second.number;
  }
  if (sum != cycles.Find("elapsed_ns")->number) {
    Fail("%s bucket sum %g != elapsed %g\n", ctx, sum, cycles.Find("elapsed_ns")->number);
    return false;
  }
  return true;
}

bool Checker::RequireHistogram(const JsonValue& obj, const char* ctx, const char* key) {
  const JsonValue* h = obj.Find(key);
  if (h == nullptr || h->type != JsonValue::Type::kObject) {
    Fail("%s missing histogram \"%s\"\n", ctx, key);
    return false;
  }
  return RequireNumbers(*h, ctx, {"count", "min_us", "max_us", "mean_us", "p99_us", "total_us"});
}

// Substantive validation of a "chains" section (embedded in obs.run or the
// standalone obs.chains document). The violations list must be empty — a
// token-conservation breach (orphan consume in a complete window, origin
// reuse, malformed token) fails the check outright. Orphan hops are allowed
// only when the window is incomplete (ring truncation / epoch reset).
bool Checker::CheckChainsSection(const JsonValue& chains, const char* ctx) {
  if (!RequireNumbers(chains, ctx,
                      {"chain_emits", "chain_consumes", "origins_minted", "orphan_hops",
                       "unconsumed_emits"})) {
    return false;
  }
  const JsonValue* complete = chains.Find("complete_window");
  if (complete == nullptr || complete->type != JsonValue::Type::kBool) {
    Fail("%s missing bool \"complete_window\"\n", ctx);
    return false;
  }
  const JsonValue* violations = chains.Find("violations");
  if (violations == nullptr || violations->type != JsonValue::Type::kArray) {
    Fail("%s missing violations array\n", ctx);
    return false;
  }
  if (!violations->array.empty()) {
    const JsonValue* kind = violations->array[0].Find("kind");
    Fail("%s has %zu chain violation(s), first kind: %s\n", ctx, violations->array.size(),
         kind != nullptr ? kind->string.c_str() : "?");
    return false;
  }
  if (complete->boolean && chains.Find("orphan_hops")->number != 0.0) {
    Fail("%s complete window but orphan_hops = %g\n", ctx, chains.Find("orphan_hops")->number);
    return false;
  }
  const JsonValue* list = chains.Find("chains");
  if (list == nullptr || list->type != JsonValue::Type::kArray) {
    Fail("%s missing chains array\n", ctx);
    return false;
  }
  for (const JsonValue& chain : list->array) {
    const JsonValue* name = chain.Find("name");
    const JsonValue* resolved = chain.Find("resolved");
    if (name == nullptr || name->type != JsonValue::Type::kString || resolved == nullptr ||
        resolved->type != JsonValue::Type::kBool) {
      Fail("%s chain missing name/resolved\n", ctx);
      return false;
    }
    if (!RequireNumbers(chain, "chain", {"deadline_us", "completed", "incomplete", "overruns"}) ||
        !RequireHistogram(chain, name->string.c_str(), "e2e")) {
      return false;
    }
    const JsonValue* hops = chain.Find("hops");
    if (hops == nullptr || hops->type != JsonValue::Type::kArray) {
      Fail("chain \"%s\" missing hops array\n", name->string.c_str());
      return false;
    }
    for (const JsonValue& hop : hops->array) {
      const JsonValue* kind = hop.Find("endpoint_kind");
      if (kind == nullptr || kind->type != JsonValue::Type::kString ||
          !RequireNumbers(hop, "hop", {"endpoint_id", "consumer_tid"}) ||
          !RequireHistogram(hop, "hop", "queue") || !RequireHistogram(hop, "hop", "exec")) {
        return false;
      }
    }
  }
  return true;
}

int Checker::CheckObsChains(const char* path, const JsonValue& root) {
  const JsonValue* report = root.Find("report");
  if (report == nullptr || report->type != JsonValue::Type::kObject) {
    Fail("missing \"report\" object\n");
    return 1;
  }
  if (!CheckChainsSection(*report, "report")) {
    return 1;
  }
  Ok("%s (chains report, %zu chain(s), 0 violations)\n", path,
     report->Find("chains")->array.size());
  return 0;
}

int Checker::CheckObsCycles(const char* path, const JsonValue& root) {
  if (!RequireDigest(root, "cycles report")) {
    return 1;
  }
  const JsonValue* cycles = root.Find("cycles");
  if (cycles == nullptr || cycles->type != JsonValue::Type::kObject) {
    Fail("missing \"cycles\" object\n");
    return 1;
  }
  if (!CheckCyclesSection(*cycles, "cycles")) {
    return 1;
  }
  const JsonValue* tasks = root.Find("tasks");
  if (tasks == nullptr || tasks->type != JsonValue::Type::kArray) {
    Fail("missing tasks array\n");
    return 1;
  }
  for (const JsonValue& task : tasks->array) {
    if (!RequireNumbers(task, "task",
                        {"id", "jobs_completed", "user_ns", "overhead_ns", "cost_ewma_ns",
                         "headroom_min_ns", "headroom_low_events"})) {
      return 1;
    }
  }
  Ok("%s (cycles report, %zu task rows, conserved)\n", path, tasks->array.size());
  return 0;
}

// The deadline-miss postmortem section (schema emeralds.obs.postmortem/1
// standalone, or embedded as "postmortem"). Substantive: conservation of
// lateness is an invariant, so any ledger that failed to telescope fails the
// check, and a complete window must leave nothing unattributed and no miss
// unmatched. `forensic` relaxes the substantive gates (black-box bundles
// record sick runs on purpose) but keeps the shape checks.
bool Checker::CheckPostmortemSection(const JsonValue& pm, const char* ctx, bool forensic) {
  if (!RequireNumbers(pm, ctx,
                      {"misses_analyzed", "records_dropped", "incomplete_misses",
                       "unmatched_misses", "deadline_unknown", "conservation_failures"})) {
    return false;
  }
  const JsonValue* truncated = pm.Find("window_truncated");
  if (truncated == nullptr || truncated->type != JsonValue::Type::kBool) {
    Fail("%s missing bool window_truncated\n", ctx);
    return false;
  }
  const JsonValue* blame = pm.Find("blame");
  if (blame == nullptr ||
      !RequireNumbers(*blame, "postmortem blame",
                      {"misses_analyzed", "conservation_failures", "tardiness_ns",
                       "unattributed_ns"})) {
    return false;
  }
  for (const char* key : {"victims", "preemptors", "locks"}) {
    const JsonValue* table = blame->Find(key);
    if (table == nullptr || table->type != JsonValue::Type::kArray) {
      Fail("%s blame missing \"%s\" table\n", ctx, key);
      return false;
    }
  }
  const JsonValue* misses = pm.Find("misses");
  if (misses == nullptr || misses->type != JsonValue::Type::kArray) {
    Fail("%s missing misses array\n", ctx);
    return false;
  }
  for (const JsonValue& m : misses->array) {
    if (!RequireNumbers(m, "postmortem miss",
                        {"thread", "job", "response_ns", "tardiness_ns"})) {
      return false;
    }
    const JsonValue* conserved = m.Find("conserved");
    const JsonValue* ledger = m.Find("ledger");
    if (conserved == nullptr || conserved->type != JsonValue::Type::kBool ||
        ledger == nullptr || ledger->type != JsonValue::Type::kObject) {
      Fail("%s miss missing conserved/ledger\n", ctx);
      return false;
    }
    if (!forensic && !conserved->boolean) {
      Fail("%s miss ledger did not telescope\n", ctx);
      return false;
    }
  }
  const JsonValue* overruns = pm.Find("chain_overruns");
  if (overruns == nullptr || overruns->type != JsonValue::Type::kArray) {
    Fail("%s missing chain_overruns array\n", ctx);
    return false;
  }
  if (forensic) {
    return true;
  }
  if (pm.Find("conservation_failures")->number != 0.0) {
    Fail("%s has %g conservation failures\n", ctx, pm.Find("conservation_failures")->number);
    return false;
  }
  if (!truncated->boolean && (blame->Find("unattributed_ns")->number != 0.0 ||
                              pm.Find("unmatched_misses")->number != 0.0)) {
    Fail("%s complete window left %g ns unattributed, %g unmatched\n", ctx,
         blame->Find("unattributed_ns")->number, pm.Find("unmatched_misses")->number);
    return false;
  }
  return true;
}

int Checker::CheckObsRun(const char* path, const JsonValue& root) {
  for (const char* section : {"trace", "kernel_stats", "cycles", "analysis", "reconciliation",
                              "chains", "postmortem", "snapshots"}) {
    const JsonValue* v = root.Find(section);
    if (v == nullptr || v->type != JsonValue::Type::kObject) {
      Fail("missing \"%s\" object\n", section);
      return 1;
    }
  }
  const JsonValue* tasks = root.Find("tasks");
  if (tasks == nullptr || tasks->type != JsonValue::Type::kArray) {
    Fail("missing tasks array\n");
    return 1;
  }
  if (!RequireNumbers(*root.Find("trace"), "trace", {"total_recorded", "retained", "dropped"}) ||
      !RequireNumbers(*root.Find("kernel_stats"), "kernel_stats",
                      {"context_switches", "jobs_completed", "deadline_misses", "sem_acquires",
                       "cse_switches_saved"}) ||
      !RequireNumbers(*root.Find("analysis"), "analysis",
                      {"context_switches", "jobs_completed", "sem_blocks"})) {
    return 1;
  }
  if (!CheckCyclesSection(*root.Find("cycles"), "cycles")) {
    return 1;
  }
  if (!CheckChainsSection(*root.Find("chains"), "chains")) {
    return 1;
  }
  if (!CheckPostmortemSection(*root.Find("postmortem"), "postmortem")) {
    return 1;
  }
  const JsonValue* violations = root.Find("analysis")->Find("violations");
  if (violations == nullptr || violations->type != JsonValue::Type::kArray) {
    Fail("analysis missing violations array\n");
    return 1;
  }
  if (!violations->array.empty()) {
    const JsonValue* kind = violations->array[0].Find("kind");
    Fail("%zu trace invariant violation(s), first kind: %s\n", violations->array.size(),
         kind != nullptr ? kind->string.c_str() : "?");
    return 1;
  }
  const JsonValue& recon = *root.Find("reconciliation");
  for (const char* key : {"context_switches_match", "deadline_misses_match",
                          "jobs_completed_match", "cse_early_pi_match", "headroom_low_match",
                          "chain_events_match"}) {
    const JsonValue* v = recon.Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kBool) {
      Fail("reconciliation missing bool \"%s\"\n", key);
      return 1;
    }
    if (!v->boolean) {
      Fail("reconciliation %s is false\n", key);
      return 1;
    }
  }
  Ok("%s (obs run, %zu task rows, 0 violations)\n", path, tasks->array.size());
  return 0;
}

int Checker::CheckFuzzTorture(const char* path, const JsonValue& root) {
  const JsonValue* runs = root.Find("runs");
  if (runs == nullptr || runs->type != JsonValue::Type::kArray || runs->array.empty()) {
    Fail("missing or empty runs array\n");
    return 1;
  }
  uint64_t ops = 0;
  for (const JsonValue& run : runs->array) {
    if (!RequireNumbers(run, "run", {"seed", "ops_executed", "violations", "fault_mismatches"})) {
      return 1;
    }
    const JsonValue* ok = run.Find("ok");
    if (ok == nullptr || ok->type != JsonValue::Type::kBool) {
      Fail("run missing bool \"ok\"\n");
      return 1;
    }
    const JsonValue* repro = run.Find("repro");
    if (!ok->boolean) {
      Fail("torture seed %g failed; repro: %s\n", run.Find("seed")->number,
           repro != nullptr ? repro->string.c_str() : "?");
      return 1;
    }
    // Only a --tiny-ring window evicts. Every other run is evaluated over its
    // whole trace, so a drop there means its oracles saw a truncated run.
    const JsonValue* trace = run.Find("trace");
    if (trace == nullptr || !RequireNumbers(*trace, "trace", {"retained", "dropped"})) {
      Fail("run missing trace {retained, dropped}\n");
      return 1;
    }
    bool tiny_ring = repro != nullptr && repro->string.find("--tiny-ring") != std::string::npos;
    if (!tiny_ring && trace->Find("dropped")->number > 0.0) {
      Fail("seed %g dropped %g trace records without --tiny-ring\n", run.Find("seed")->number,
           trace->Find("dropped")->number);
      return 1;
    }
    if (run.Find("violations")->number != 0.0 || run.Find("fault_mismatches")->number != 0.0) {
      Fail("seed %g has violations/fault mismatches\n", run.Find("seed")->number);
      return 1;
    }
    const JsonValue* recon = run.Find("reconciliation");
    if (recon == nullptr || recon->Find("checked") == nullptr || recon->Find("ok") == nullptr) {
      Fail("run missing reconciliation {checked, ok}\n");
      return 1;
    }
    // Fourth oracle: the cycle ledger must be conserved on every run,
    // including truncated-ring ones where reconciliation refuses to check.
    const JsonValue* cyc = run.Find("cycles");
    const JsonValue* conserved = cyc != nullptr ? cyc->Find("conserved") : nullptr;
    if (conserved == nullptr || conserved->type != JsonValue::Type::kBool) {
      Fail("run missing cycles.conserved\n");
      return 1;
    }
    if (!conserved->boolean) {
      Fail("seed %g cycle ledger not conserved\n", run.Find("seed")->number);
      return 1;
    }
    // Fifth oracle: causal-token conservation. Every run must carry the
    // chains object and report zero conservation violations.
    const JsonValue* chains = run.Find("chains");
    if (chains == nullptr ||
        !RequireNumbers(*chains, "chains", {"violations", "orphan_hops", "completed", "origins"})) {
      Fail("run missing chains {violations, orphan_hops, ...}\n");
      return 1;
    }
    if (chains->Find("violations")->number != 0.0) {
      Fail("seed %g has chain-token conservation violations\n", run.Find("seed")->number);
      return 1;
    }
    // Sixth oracle: conservation of lateness. Every analyzed miss's ledger
    // must telescope exactly; a single failed ledger fails the sweep.
    const JsonValue* pm = run.Find("postmortem");
    if (pm == nullptr ||
        !RequireNumbers(*pm, "postmortem",
                        {"misses_analyzed", "conservation_failures", "unattributed_ns",
                         "unmatched", "incomplete"})) {
      Fail("run missing postmortem {misses_analyzed, ...}\n");
      return 1;
    }
    if (pm->Find("conservation_failures")->number != 0.0) {
      Fail("seed %g has lateness-conservation failures\n", run.Find("seed")->number);
      return 1;
    }
    ops += static_cast<uint64_t>(run.Find("ops_executed")->number);
  }
  const JsonValue* totals = root.Find("totals");
  if (totals == nullptr || !RequireNumbers(*totals, "totals", {"runs", "failed", "ops_executed"})) {
    return 1;
  }
  if (totals->Find("failed")->number != 0.0) {
    Fail("totals.failed = %g\n", totals->Find("failed")->number);
    return 1;
  }
  Ok("%s (torture sweep, %zu runs, %llu ops, 0 failures)\n", path, runs->array.size(),
     static_cast<unsigned long long>(ops));
  return 0;
}

// The merged fleet telemetry section (schema emeralds.fleet.telemetry/1):
// exact-bucket percentile tables over the whole fleet. Structural plus the
// one substantive check that matters — the merge must cover every node, so
// its counters equal the report's own totals.
bool Checker::CheckTelemetrySection(const JsonValue& telemetry, const char* ctx,
                                    const JsonValue& root) {
  const JsonValue* schema = telemetry.Find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::kString ||
      schema->string != "emeralds.fleet.telemetry/1") {
    Fail("%s schema is not emeralds.fleet.telemetry/1\n", ctx);
    return false;
  }
  if (!RequireNumbers(telemetry, ctx,
                      {"jobs_completed", "deadline_misses", "chain_overruns",
                       "stats_snapshot_drops"})) {
    return false;
  }
  for (const char* key : {"jobs_completed", "deadline_misses", "chain_overruns"}) {
    if (telemetry.Find(key)->number != root.Find(key)->number) {
      Fail("%s %s=%g but the report's total is %g\n", ctx, key, telemetry.Find(key)->number,
           root.Find(key)->number);
      return false;
    }
  }
  const JsonValue* core_cycles = telemetry.Find("core_cycles_us");
  if (core_cycles == nullptr || core_cycles->type != JsonValue::Type::kArray ||
      core_cycles->array.empty()) {
    Fail("%s missing core_cycles_us array\n", ctx);
    return false;
  }
  const JsonValue* headroom = telemetry.Find("headroom");
  if (headroom == nullptr ||
      !RequireNumbers(*headroom, "telemetry headroom",
                      {"min_us", "min_node", "low_events_total"})) {
    return false;
  }
  const JsonValue* cycles = telemetry.Find("cycles");
  if (cycles == nullptr || cycles->Find("buckets_us") == nullptr ||
      cycles->Find("shares") == nullptr) {
    Fail("%s missing cycles {buckets_us, shares}\n", ctx);
    return false;
  }
  if (!RequireHistogram(telemetry, ctx, "response")) {
    return false;
  }
  const JsonValue* chains = telemetry.Find("chains");
  if (chains == nullptr || chains->type != JsonValue::Type::kArray) {
    Fail("%s missing chains array\n", ctx);
    return false;
  }
  for (const JsonValue& chain : chains->array) {
    const JsonValue* name = chain.Find("name");
    if (name == nullptr || name->type != JsonValue::Type::kString ||
        !RequireNumbers(chain, "telemetry chain",
                        {"deadline_min_us", "deadline_max_us", "completed", "overruns",
                         "incomplete_instances"}) ||
        !RequireHistogram(chain, name->string.c_str(), "e2e")) {
      return false;
    }
    const JsonValue* hops = chain.Find("hops");
    if (hops == nullptr || hops->type != JsonValue::Type::kArray) {
      Fail("telemetry chain \"%s\" missing hops\n", name->string.c_str());
      return false;
    }
    for (const JsonValue& hop : hops->array) {
      if (!RequireHistogram(hop, "telemetry hop", "queue") ||
          !RequireHistogram(hop, "telemetry hop", "exec")) {
        return false;
      }
    }
  }
  return true;
}

// The streaming window series (schema emeralds.obs.timeseries/1, embedded
// in fleet.run as "timeseries" or standalone). Substantive checks: the
// series must sit on the fixed window grid (start == index * width, end
// within one width), and — when no samples were lost — the per-window
// deltas must telescope back to the whole-run totals the `totals` object
// (or enclosing fleet report) carries.
bool Checker::CheckTimeseriesSection(const JsonValue& ts, const char* ctx,
                                     const JsonValue* totals) {
  const JsonValue* schema = ts.Find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::kString ||
      schema->string != "emeralds.obs.timeseries/1") {
    Fail("%s schema is not emeralds.obs.timeseries/1\n", ctx);
    return false;
  }
  if (!RequireNumbers(ts, ctx, {"window_us", "windows", "lost_samples", "gap_windows"})) {
    return false;
  }
  const JsonValue* series = ts.Find("series");
  if (series == nullptr || series->type != JsonValue::Type::kArray) {
    Fail("%s missing series array\n", ctx);
    return false;
  }
  if (series->array.size() != static_cast<size_t>(ts.Find("windows")->number)) {
    Fail("%s windows=%g but series has %zu entries\n", ctx, ts.Find("windows")->number,
         series->array.size());
    return false;
  }
  const double width = ts.Find("window_us")->number;
  double last_index = -1.0;
  double gaps = 0.0;
  double jobs = 0.0;
  double misses = 0.0;
  for (const JsonValue& w : series->array) {
    if (!RequireNumbers(w, "window",
                        {"index", "start_us", "end_us", "samples", "jobs_released",
                         "jobs_completed", "deadline_misses", "context_switches",
                         "interrupts", "timer_dispatches", "chain_origins",
                         "chain_e2e_completed", "chain_e2e_overruns",
                         "stats_snapshot_drops"})) {
      return false;
    }
    const JsonValue* gap = w.Find("gap");
    if (gap == nullptr || gap->type != JsonValue::Type::kBool) {
      Fail("%s window missing bool \"gap\"\n", ctx);
      return false;
    }
    if (!RequireHistogram(w, "window", "response") ||
        !RequireHistogram(w, "window", "chain_e2e") ||
        !RequireHistogram(w, "window", "headroom")) {
      return false;
    }
    const double index = w.Find("index")->number;
    const double start = w.Find("start_us")->number;
    const double end = w.Find("end_us")->number;
    if (index <= last_index || start != index * width || end <= start ||
        end > start + width) {
      Fail("%s window off the grid (index %g start %g end %g width %g)\n", ctx, index, start, end,
           width);
      return false;
    }
    last_index = index;
    if (gap->boolean) {
      gaps += 1.0;
    }
    jobs += w.Find("jobs_completed")->number;
    misses += w.Find("deadline_misses")->number;
  }
  if (gaps != ts.Find("gap_windows")->number) {
    Fail("%s gap_windows=%g but %g windows are marked\n", ctx, ts.Find("gap_windows")->number,
         gaps);
    return false;
  }
  // Telescoping: lossless series must reproduce the whole-run totals.
  if (totals != nullptr && ts.Find("lost_samples")->number == 0.0) {
    const JsonValue* total_jobs = totals->Find("jobs_completed");
    const JsonValue* total_misses = totals->Find("deadline_misses");
    if (total_jobs != nullptr && total_jobs->number != jobs) {
      Fail("%s window jobs sum to %g, run total is %g\n", ctx, jobs, total_jobs->number);
      return false;
    }
    if (total_misses != nullptr && total_misses->number != misses) {
      Fail("%s window misses sum to %g, run total is %g\n", ctx, misses, total_misses->number);
      return false;
    }
  }
  return true;
}

// The alert stream: every event well-formed, the fired count backed up by
// the stream, and the stream ordered by window (the determinism contract —
// an unordered stream would make the bit-identical comparison meaningless).
bool Checker::CheckAlertsSection(const JsonValue& alerts, const char* ctx) {
  if (!RequireNumbers(alerts, ctx, {"events", "fired"})) {
    return false;
  }
  const JsonValue* config = alerts.Find("config");
  if (config == nullptr || config->type != JsonValue::Type::kObject ||
      !RequireNumbers(*config, "alerts config",
                      {"fast_windows", "slow_windows", "miss_budget_ppm",
                       "miss_burn_threshold", "chain_budget_ppm", "chain_burn_threshold",
                       "outlier_floor"})) {
    return false;
  }
  const JsonValue* stream = alerts.Find("stream");
  if (stream == nullptr || stream->type != JsonValue::Type::kArray) {
    Fail("%s missing stream array\n", ctx);
    return false;
  }
  if (stream->array.size() != static_cast<size_t>(alerts.Find("events")->number)) {
    Fail("%s events=%g but stream has %zu entries\n", ctx, alerts.Find("events")->number,
         stream->array.size());
    return false;
  }
  double fired = 0.0;
  double last_window = -1e18;
  for (const JsonValue& e : stream->array) {
    if (!RequireNumbers(e, "alert event", {"node", "window", "time_us", "value", "total"})) {
      return false;
    }
    const JsonValue* rule = e.Find("rule");
    const JsonValue* state = e.Find("state");
    if (rule == nullptr || rule->type != JsonValue::Type::kString || state == nullptr ||
        state->type != JsonValue::Type::kString ||
        (state->string != "firing" && state->string != "resolved")) {
      Fail("%s event missing rule/state\n", ctx);
      return false;
    }
    if (e.Find("window")->number < last_window) {
      Fail("%s stream not ordered by window\n", ctx);
      return false;
    }
    last_window = e.Find("window")->number;
    if (state->string == "firing") {
      fired += 1.0;
    }
  }
  if (fired != alerts.Find("fired")->number) {
    Fail("%s fired=%g but stream has %g firing events\n", ctx, alerts.Find("fired")->number, fired);
    return false;
  }
  return true;
}

// The fleet report must carry zero failed nodes and positive deterministic
// aggregates.
int Checker::CheckFleetRun(const char* path, const JsonValue& root) {
  if (!RequireNumbers(root, "fleet",
                      {"instances", "workers", "seed", "run_duration_ms", "slice_ms",
                       "events_total", "virtual_ms_total", "events_per_virtual_sec",
                       "jobs_completed", "deadline_misses", "timer_dispatches",
                       "chain_completed", "chain_overruns", "nodes_total", "nodes_failed",
                       "wall_seconds", "events_per_wall_sec"})) {
    return 1;
  }
  for (const char* key : {"fleet_digest", "label"}) {
    const JsonValue* v = root.Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kString) {
      Fail("fleet missing string \"%s\"\n", key);
      return 1;
    }
  }
  // Every fleet run measures its evaluation cost and carries telemetry, a
  // window series and an alert stream.
  for (const char* key : {"host_evaluate", "telemetry", "timeseries", "alerts"}) {
    if (root.Find(key) == nullptr) {
      Fail("fleet missing \"%s\" section\n", key);
      return 1;
    }
  }
  if (root.Find("nodes_failed")->number != 0.0) {
    const JsonValue* failure = root.Find("first_failure");
    Fail("%g fleet node(s) failed their oracles: %s\n", root.Find("nodes_failed")->number,
         failure != nullptr ? failure->string.c_str() : "?");
    return 1;
  }
  if (root.Find("nodes_total")->number <= 0.0 || root.Find("events_total")->number <= 0.0 ||
      root.Find("events_per_virtual_sec")->number <= 0.0) {
    Fail("fleet ran no nodes or produced no events\n");
    return 1;
  }
  const JsonValue* schedulers = root.Find("schedulers");
  if (schedulers == nullptr || schedulers->type != JsonValue::Type::kObject) {
    Fail("fleet missing schedulers object\n");
    return 1;
  }
  // Host evaluation cost: never gated.
  if (!RequireNumbers(*root.Find("host_evaluate"), "fleet host_evaluate",
                      {"cpu_ns_total", "cpu_ns_max", "slowest_node"})) {
    return 1;
  }
  const JsonValue* fleet_trace = root.Find("trace");
  if (fleet_trace == nullptr ||
      !RequireNumbers(*fleet_trace, "fleet trace",
                      {"storage_bytes_max", "storage_bytes_worst_node"})) {
    return 1;
  }
  // The fleet's record mix: one count per event type, and no other key.
  const JsonValue* mix = fleet_trace->Find("records_by_type");
  if (mix == nullptr || mix->type != JsonValue::Type::kObject ||
      mix->object.size() != static_cast<size_t>(kNumTraceEventTypes)) {
    Fail("fleet trace missing records_by_type {%d event types}\n", kNumTraceEventTypes);
    return 1;
  }
  for (int t = 0; t < kNumTraceEventTypes; ++t) {
    if (!RequireNumbers(*mix, "fleet trace records_by_type",
                        {TraceEventTypeToString(static_cast<TraceEventType>(t))})) {
      return 1;
    }
  }
  const JsonValue* triage = root.Find("triage");
  if (triage == nullptr || triage->type != JsonValue::Type::kObject ||
      triage->Find("metrics") == nullptr ||
      triage->Find("metrics")->type != JsonValue::Type::kArray ||
      triage->Find("outlier_nodes") == nullptr) {
    Fail("fleet missing triage {metrics, outlier_nodes}\n");
    return 1;
  }
  const JsonValue* top_blame = triage->Find("top_blame");
  if (top_blame == nullptr ||
      !RequireNumbers(*top_blame, "triage top_blame",
                      {"preemptor", "preemptor_ns", "lock", "lock_ns"})) {
    return 1;
  }
  // The fleet-merged blame ledger: digest-gated (the serial-vs-parallel
  // bit-identity tests compare it), zero conservation failures, and nothing
  // unattributed across any node whose window was complete.
  const JsonValue* postmortem = root.Find("postmortem");
  if (postmortem == nullptr || postmortem->type != JsonValue::Type::kObject) {
    Fail("fleet missing postmortem object\n");
    return 1;
  }
  const JsonValue* blame_digest = postmortem->Find("blame_digest");
  if (blame_digest == nullptr || blame_digest->type != JsonValue::Type::kString ||
      blame_digest->string.empty() ||
      !RequireNumbers(*postmortem, "fleet postmortem", {"incomplete_misses"})) {
    Fail("fleet postmortem missing blame_digest\n");
    return 1;
  }
  const JsonValue* fleet_blame = postmortem->Find("blame");
  if (fleet_blame == nullptr ||
      !RequireNumbers(*fleet_blame, "fleet blame",
                      {"misses_analyzed", "conservation_failures", "tardiness_ns",
                       "unattributed_ns"})) {
    return 1;
  }
  if (fleet_blame->Find("conservation_failures")->number != 0.0) {
    Fail("fleet blame ledger has %g conservation failure(s)\n",
         fleet_blame->Find("conservation_failures")->number);
    return 1;
  }
  if (!CheckTelemetrySection(*root.Find("telemetry"), "telemetry", root) ||
      !CheckTimeseriesSection(*root.Find("timeseries"), "timeseries", &root) ||
      !CheckAlertsSection(*root.Find("alerts"), "alerts")) {
    return 1;
  }
  Ok("%s (fleet run, %g nodes, %g events, 0 failures)\n", path, root.Find("nodes_total")->number,
     root.Find("events_total")->number);
  return 0;
}

// A black-box bundle report (emeralds.obs.blackbox/1) is forensic: it
// records a (possibly failing) run, so chain violations and invariant
// breaches are allowed inside it. The check is structural — the bundle must
// round-trip: label/reason/repro present, the trace accounting coherent,
// and the embedded node-telemetry block well-formed.
int Checker::CheckObsBlackBox(const char* path, const JsonValue& root) {
  for (const char* key : {"label", "reason", "repro"}) {
    const JsonValue* v = root.Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kString || v->string.empty()) {
      Fail("blackbox missing string \"%s\"\n", key);
      return 1;
    }
  }
  if (!RequireNumbers(root, "blackbox", {"virtual_time_us"})) {
    return 1;
  }
  const JsonValue* trace = root.Find("trace");
  if (trace == nullptr ||
      !RequireNumbers(*trace, "blackbox trace", {"retained", "dropped", "total_recorded"})) {
    return 1;
  }
  const JsonValue* threads = root.Find("threads");
  if (threads == nullptr || threads->type != JsonValue::Type::kArray) {
    Fail("blackbox missing threads array\n");
    return 1;
  }
  const JsonValue* stats = root.Find("stats");
  if (stats == nullptr ||
      !RequireNumbers(*stats, "blackbox stats",
                      {"context_switches", "jobs_completed", "deadline_misses",
                       "timer_dispatches", "headroom_low_events"})) {
    return 1;
  }
  const JsonValue* telemetry = root.Find("telemetry");
  if (telemetry == nullptr || telemetry->type != JsonValue::Type::kObject ||
      !RequireHistogram(*telemetry, "blackbox telemetry", "response")) {
    return 1;
  }
  const JsonValue* chains = root.Find("chains");
  if (chains == nullptr || chains->type != JsonValue::Type::kObject) {
    Fail("blackbox missing chains object\n");
    return 1;
  }
  const JsonValue* snapshots = root.Find("snapshots");
  if (snapshots == nullptr ||
      !RequireNumbers(*snapshots, "blackbox snapshots", {"count", "dropped"})) {
    return 1;
  }
  const JsonValue* postmortem = root.Find("postmortem");
  if (postmortem == nullptr || postmortem->type != JsonValue::Type::kObject ||
      !CheckPostmortemSection(*postmortem, "blackbox postmortem", /*forensic=*/true)) {
    return 1;
  }
  Ok("%s (black box \"%s\": %s)\n", path, root.Find("label")->string.c_str(),
     root.Find("reason")->string.c_str());
  return 0;
}

// The SMP report is gated substantively: every throughput row must conserve
// its ledger fleet-summed AND per core (residuals exactly zero), the 2-core
// run must deliver the 1.7x aggregate user-cycle floor over 1-core at equal
// horizon (recomputed from the integers, not just the reported ratio), and
// partitioned-CSD admission must be monotone in core count.
int Checker::CheckBenchSmp(const char* path, const JsonValue& root) {
  if (!RequireNumbers(root, "smp", {"horizon_ms", "ratio_2core", "ratio_4core"})) {
    return 1;
  }
  const JsonValue* rows = root.Find("throughput");
  if (rows == nullptr || rows->type != JsonValue::Type::kArray || rows->array.empty()) {
    Fail("smp missing throughput array\n");
    return 1;
  }
  double user_by_cores[16] = {};
  for (const JsonValue& row : rows->array) {
    if (!RequireNumbers(row, "smp throughput row",
                        {"num_cores", "user_ns", "idle_ns", "ipis", "context_switches",
                         "jobs_completed"})) {
      return 1;
    }
    if (!RequireDigest(row, "smp throughput row")) {
      return 1;
    }
    const double cores = row.Find("num_cores")->number;
    const JsonValue* conserved = row.Find("conserved");
    if (conserved == nullptr || conserved->type != JsonValue::Type::kBool ||
        !conserved->boolean) {
      Fail("smp %g-core row not conserved\n", cores);
      return 1;
    }
    const JsonValue* per_core = row.Find("cores");
    if (per_core == nullptr || per_core->type != JsonValue::Type::kArray ||
        per_core->array.size() != static_cast<size_t>(cores)) {
      Fail("smp %g-core row missing per-core ledger array\n", cores);
      return 1;
    }
    for (const JsonValue& c : per_core->array) {
      if (!RequireNumbers(c, "smp per-core ledger",
                          {"core", "elapsed_ns", "ledger_total_ns", "residual_ns"})) {
        return 1;
      }
      const JsonValue* cons = c.Find("conserved");
      if (cons == nullptr || cons->type != JsonValue::Type::kBool || !cons->boolean ||
          c.Find("residual_ns")->number != 0.0) {
        Fail("smp %g-core run, core %g: residual %g ns (must be 0)\n", cores,
             c.Find("core")->number, c.Find("residual_ns")->number);
        return 1;
      }
    }
    if (cores >= 1 && cores < 16) {
      user_by_cores[static_cast<int>(cores)] = row.Find("user_ns")->number;
    }
  }
  if (user_by_cores[1] <= 0.0 || user_by_cores[2] <= 0.0) {
    Fail("smp report lacks 1-core and 2-core throughput rows\n");
    return 1;
  }
  const double ratio2 = user_by_cores[2] / user_by_cores[1];
  if (ratio2 < 1.7) {
    Fail("2-core user-cycle throughput is %.3fx 1-core (floor 1.7x)\n", ratio2);
    return 1;
  }
  const JsonValue* admission = root.Find("admission");
  if (admission == nullptr || admission->type != JsonValue::Type::kObject) {
    Fail("smp missing admission object\n");
    return 1;
  }
  const JsonValue* points = admission->Find("points");
  if (points == nullptr || points->type != JsonValue::Type::kArray || points->array.empty()) {
    Fail("smp admission missing points array\n");
    return 1;
  }
  for (const JsonValue& p : points->array) {
    if (!RequireNumbers(p, "smp admission point",
                        {"utilization", "admitted_1core", "admitted_2core", "admitted_4core"})) {
      return 1;
    }
    const double a1 = p.Find("admitted_1core")->number;
    const double a2 = p.Find("admitted_2core")->number;
    const double a4 = p.Find("admitted_4core")->number;
    if (a2 < a1 || a4 < a2) {
      Fail("admission not monotone in cores at U=%g (1:%g 2:%g 4:%g)\n",
           p.Find("utilization")->number, a1, a2, a4);
      return 1;
    }
  }
  Ok("%s (smp: 2-core %.3fx user cycles, %zu admission points)\n", path, ratio2,
     points->array.size());
  return 0;
}

int Checker::Dispatch(const char* path, const JsonValue& root) {
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::kString) {
    Fail("missing schema tag\n");
    return 1;
  }
  if (schema->string == "emeralds.obs.run/1") {
    return CheckObsRun(path, root);
  }
  if (schema->string == "emeralds.obs.cycles/1") {
    return CheckObsCycles(path, root);
  }
  if (schema->string == "emeralds.obs.chains/1") {
    return CheckObsChains(path, root);
  }
  if (schema->string == "emeralds.fuzz.torture/1") {
    return CheckFuzzTorture(path, root);
  }
  if (schema->string == "emeralds.fleet.run/1") {
    return CheckFleetRun(path, root);
  }
  if (schema->string == "emeralds.obs.timeseries/1") {
    if (!CheckTimeseriesSection(root, "timeseries", root.Find("totals"))) {
      return 1;
    }
    Ok("%s (timeseries, %g windows)\n", path, root.Find("windows")->number);
    return 0;
  }
  if (schema->string == "emeralds.obs.blackbox/1") {
    return CheckObsBlackBox(path, root);
  }
  if (schema->string == "emeralds.obs.postmortem/1") {
    const JsonValue* label = root.Find("label");
    const JsonValue* report = root.Find("report");
    if (label == nullptr || label->type != JsonValue::Type::kString || report == nullptr ||
        report->type != JsonValue::Type::kObject) {
      Fail("postmortem missing label/report\n");
      return 1;
    }
    if (!CheckPostmortemSection(*report, "postmortem report")) {
      return 1;
    }
    Ok("%s (postmortem \"%s\", %g miss(es), ledgers conserved)\n", path, label->string.c_str(),
       report->Find("misses_analyzed")->number);
    return 0;
  }
  if (schema->string == "emeralds.bench.smp/1") {
    return CheckBenchSmp(path, root);
  }
  if (schema->string != "emeralds.bench.breakdown/1") {
    Fail("unexpected schema tag \"%s\"\n", schema->string.c_str());
    return 1;
  }
  return CheckBreakdown(path, root);
}

int Checker::CheckBreakdown(const char* path, const JsonValue& root) {
  const JsonValue* points = root.Find("points");
  if (points == nullptr || points->type != JsonValue::Type::kArray || points->array.empty()) {
    Fail("missing or empty points array\n");
    return 1;
  }
  for (const JsonValue& point : points->array) {
    for (const char* key : {"n", "wall_seconds", "workloads_per_sec", "eval_reduction",
                            "reference_mismatches"}) {
      const JsonValue* v = point.Find(key);
      if (v == nullptr || v->type != JsonValue::Type::kNumber) {
        Fail("point missing numeric \"%s\"\n", key);
        return 1;
      }
    }
    const JsonValue* evals = point.Find("evals");
    if (evals == nullptr || evals->Find("full_evals") == nullptr) {
      Fail("point missing evals.full_evals\n");
      return 1;
    }
    const JsonValue* mism = point.Find("reference_mismatches");
    if (mism->number != 0.0) {
      Fail("reference_mismatches = %g at n = %g\n", mism->number, point.Find("n")->number);
      return 1;
    }
  }
  Ok("%s (%zu points)\n", path, points->array.size());
  return 0;
}

}  // namespace

JsonCheckResult CheckReport(const std::string& path, const JsonValue& root) {
  return Checker().Run(path.c_str(), root);
}

JsonCheckResult CheckReportFile(const std::string& path) {
  JsonCheckResult result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    result.log = "FAIL: cannot open " + path + "\n";
    return result;
  }
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);

  JsonValue root;
  std::string error;
  if (!JsonParse(text, &root, &error)) {
    result.log = "FAIL: " + path + " does not parse: " + error + "\n";
    return result;
  }
  return CheckReport(path, root);
}

}  // namespace bench
}  // namespace emeralds
