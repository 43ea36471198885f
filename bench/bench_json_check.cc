#include "bench/bench_json_check.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "src/base/assert.h"
#include "src/hal/cycles.h"
#include "src/hal/trace.h"

namespace emeralds {
namespace bench {
namespace {

// --- The shape table ---
//
// A Shape lists the members one schema, or one section that several schemas
// embed, must carry. Each Rule gives a kind and a space-separated list of
// keys, found in the object(s) at `at`: a dotted path from the shape's own
// object ("" is that object itself), where "name[]" walks every element of
// array "name". The key "*" stands for every member of the object. A kObject
// rule may mount another Shape on each of its members. The walker enforces
// a shape and names the first failing path; the semantic gates below run
// only on reports that have their shape, so they read members unchecked.

enum class Kind {
  kNumber,
  kCount,  // a non-negative integer below 2^64: safe to cast to size_t
  kBool,
  kString,
  kNonEmptyString,
  kDigest,  // a run digest: "0x" and 16 lowercase hex digits
  kObject,
  kArray,
  kNonEmptyArray,
};

struct Shape;

struct Rule {
  const char* at;
  Kind kind;
  const char* keys;
  const Shape* shape = nullptr;  // kObject: the shape each member carries
};

struct Shape {
  const char* tag;  // the exact "schema" member the object carries, if any
  std::span<const Rule> rules;
};

constexpr Rule kHistogramRules[] = {
    {"", Kind::kNumber, "count min_us max_us mean_us p99_us total_us"},
};
constexpr Shape kHistogram = {nullptr, kHistogramRules};

// The flags a complete obs run must reconcile.
constexpr const char* kReconciledFlags =
    "context_switches_match deadline_misses_match jobs_completed_match cse_early_pi_match "
    "headroom_low_match chain_events_match";

// The space-separated names of `count` enumerators, as `name` spells them.
template <typename Enum>
std::string EnumNames(int count, const char* (*name)(Enum)) {
  std::string names;
  for (int i = 0; i < count; ++i) {
    names += names.empty() ? "" : " ";
    names += name(static_cast<Enum>(i));
  }
  return names;
}

// --- Sections embedded in several schemas ---

// One ledger entry per cycle bucket, by name.
const std::string kCycleBucketNames = EnumNames(kNumCycleBuckets, &CycleBucketToString);

const Rule kCyclesRules[] = {
    {"", Kind::kNumber,
     "epoch_ns elapsed_ns ledger_total_ns residual_ns clock_unattributed_ns headroom_low_events"},
    {"", Kind::kBool, "conserved clock_conserved"},
    {"", Kind::kArray, "sched_bands cores"},
    {"sched_bands[]", Kind::kNumber, "select_ns block_ns unblock_ns"},
    {"cores[]", Kind::kNumber, "ledger_total_ns"},
    {"buckets_ns", Kind::kNumber, kCycleBucketNames.c_str()},
};
const Shape kCycles = {nullptr, kCyclesRules};

constexpr Rule kChainsRules[] = {
    {"", Kind::kNumber, "chain_emits chain_consumes origins_minted orphan_hops unconsumed_emits"},
    {"", Kind::kBool, "complete_window"},
    {"", Kind::kArray, "violations chains"},
    {"violations[]", Kind::kString, "kind"},
    {"chains[]", Kind::kString, "name"},
    {"chains[]", Kind::kBool, "resolved"},
    {"chains[]", Kind::kNumber, "deadline_us completed incomplete overruns"},
    {"chains[]", Kind::kObject, "e2e", &kHistogram},
    {"chains[]", Kind::kArray, "hops"},
    {"chains[].hops[]", Kind::kString, "endpoint_kind"},
    {"chains[].hops[]", Kind::kNumber, "endpoint_id consumer_tid"},
    {"chains[].hops[]", Kind::kObject, "queue exec", &kHistogram},
};
constexpr Shape kChains = {nullptr, kChainsRules};

constexpr Rule kPostmortemRules[] = {
    {"", Kind::kNumber,
     "misses_analyzed records_dropped incomplete_misses unmatched_misses deadline_unknown "
     "conservation_failures"},
    {"", Kind::kBool, "window_truncated"},
    {"blame", Kind::kNumber, "misses_analyzed conservation_failures tardiness_ns unattributed_ns"},
    {"blame", Kind::kArray, "victims preemptors locks"},
    {"", Kind::kArray, "misses chain_overruns"},
    {"misses[]", Kind::kNumber, "thread job response_ns tardiness_ns"},
    {"misses[]", Kind::kBool, "conserved"},
    {"misses[]", Kind::kObject, "ledger"},
};
constexpr Shape kPostmortem = {nullptr, kPostmortemRules};

constexpr Rule kTelemetryRules[] = {
    {"", Kind::kNumber, "stats_snapshot_drops"},
    {"", Kind::kNonEmptyArray, "core_cycles_us"},
    {"headroom", Kind::kNumber, "min_us min_node"},
    {"cycles", Kind::kObject, "buckets_us shares"},
    {"", Kind::kObject, "response", &kHistogram},
    {"", Kind::kArray, "chains"},
    {"chains[]", Kind::kString, "name"},
    {"chains[]", Kind::kNumber,
     "deadline_min_us deadline_max_us completed overruns incomplete_instances"},
    {"chains[]", Kind::kObject, "e2e", &kHistogram},
    {"chains[].e2e", Kind::kNumber, "p50_us p90_us"},
    {"chains[]", Kind::kArray, "hops"},
    {"chains[].hops[]", Kind::kObject, "queue exec", &kHistogram},
};
constexpr Shape kTelemetry = {"emeralds.fleet.telemetry/1", kTelemetryRules};

constexpr Rule kTimeseriesRules[] = {
    {"", Kind::kNumber, "window_us lost_samples gap_windows"},
    {"", Kind::kCount, "windows"},
    {"", Kind::kArray, "series"},
    {"series[]", Kind::kNumber,
     "index start_us end_us samples jobs_released jobs_completed deadline_misses "
     "context_switches interrupts timer_dispatches chain_origins chain_e2e_completed "
     "chain_e2e_overruns stats_snapshot_drops"},
    {"series[]", Kind::kBool, "gap"},
    {"series[]", Kind::kObject, "response chain_e2e headroom", &kHistogram},
};
constexpr Shape kTimeseries = {"emeralds.obs.timeseries/1", kTimeseriesRules};

constexpr Rule kAlertsRules[] = {
    {"", Kind::kCount, "events"},
    {"", Kind::kNumber, "fired"},
    {"config", Kind::kNumber,
     "fast_windows slow_windows miss_budget_ppm miss_burn_threshold chain_budget_ppm "
     "chain_burn_threshold outlier_floor"},
    {"", Kind::kArray, "stream"},
    {"stream[]", Kind::kNumber, "node window time_us value total"},
    {"stream[]", Kind::kString, "rule state"},
};
constexpr Shape kAlerts = {nullptr, kAlertsRules};

// --- Schemas ---

constexpr Rule kObsRunRules[] = {
    {"trace", Kind::kNumber, "total_recorded retained dropped"},
    {"kernel_stats", Kind::kNumber,
     "context_switches jobs_completed deadline_misses sem_acquires cse_switches_saved"},
    {"", Kind::kObject, "cycles", &kCycles},
    {"", Kind::kArray, "tasks"},
    {"analysis", Kind::kNumber, "context_switches jobs_completed sem_blocks"},
    {"analysis", Kind::kArray, "violations"},
    {"analysis.violations[]", Kind::kString, "kind"},
    {"reconciliation", Kind::kBool, kReconciledFlags},
    {"", Kind::kObject, "chains", &kChains},
    {"", Kind::kObject, "postmortem", &kPostmortem},
    {"", Kind::kObject, "snapshots"},
};
constexpr Shape kObsRun = {"emeralds.obs.run/1", kObsRunRules};

constexpr Rule kObsCyclesRules[] = {
    {"", Kind::kDigest, "digest"},
    {"", Kind::kObject, "cycles", &kCycles},
    {"", Kind::kArray, "tasks"},
    {"tasks[]", Kind::kNumber,
     "id jobs_completed user_ns overhead_ns cost_ewma_ns headroom_min_ns headroom_low_events"},
};
constexpr Shape kObsCycles = {"emeralds.obs.cycles/1", kObsCyclesRules};

constexpr Rule kObsChainsRules[] = {
    {"", Kind::kObject, "report", &kChains},
};
constexpr Shape kObsChains = {"emeralds.obs.chains/1", kObsChainsRules};

constexpr Rule kObsPostmortemRules[] = {
    {"", Kind::kString, "label"},
    {"", Kind::kObject, "report", &kPostmortem},
};
constexpr Shape kObsPostmortem = {"emeralds.obs.postmortem/1", kObsPostmortemRules};

constexpr Rule kTortureRules[] = {
    {"", Kind::kNonEmptyArray, "runs"},
    {"runs[]", Kind::kNumber, "seed violations fault_mismatches"},
    {"runs[]", Kind::kCount, "ops_executed"},
    {"runs[]", Kind::kBool, "ok"},
    {"runs[]", Kind::kString, "repro"},
    {"runs[].trace", Kind::kNumber, "retained dropped"},
    {"runs[].reconciliation", Kind::kBool, "checked ok"},
    {"runs[].cycles", Kind::kBool, "conserved"},
    {"runs[].chains", Kind::kNumber, "violations orphan_hops completed origins"},
    {"runs[].postmortem", Kind::kNumber,
     "misses_analyzed conservation_failures unattributed_ns unmatched incomplete"},
    {"totals", Kind::kNumber, "runs failed ops_executed"},
};
constexpr Shape kTorture = {"emeralds.fuzz.torture/1", kTortureRules};

// One record count per trace event type, by name.
const std::string kEventTypeNames = EnumNames(kNumTraceEventTypes, &TraceEventTypeToString);

const Rule kFleetRunRules[] = {
    {"", Kind::kNumber,
     "instances workers seed run_duration_ms slice_ms events_total virtual_ms_total "
     "events_per_virtual_sec jobs_completed deadline_misses timer_dispatches chain_completed "
     "chain_overruns nodes_total nodes_failed wall_seconds events_per_wall_sec"},
    {"", Kind::kString, "fleet_digest label"},
    {"", Kind::kObject, "schedulers"},
    {"host_evaluate", Kind::kNumber, "cpu_ns_total cpu_ns_max slowest_node"},
    {"trace", Kind::kNumber, "storage_bytes_max storage_bytes_worst_node"},
    {"trace.records_by_type", Kind::kNumber, kEventTypeNames.c_str()},
    {"triage", Kind::kArray, "metrics outlier_nodes"},
    {"triage.top_blame", Kind::kNumber, "preemptor preemptor_ns lock lock_ns"},
    {"postmortem", Kind::kNonEmptyString, "blame_digest"},
    {"postmortem", Kind::kNumber, "incomplete_misses"},
    {"postmortem.blame", Kind::kNumber,
     "misses_analyzed conservation_failures tardiness_ns unattributed_ns"},
    {"", Kind::kObject, "telemetry", &kTelemetry},
    {"", Kind::kObject, "timeseries", &kTimeseries},
    {"", Kind::kObject, "alerts", &kAlerts},
};
const Shape kFleetRun = {"emeralds.fleet.run/1", kFleetRunRules};

constexpr Rule kBlackBoxRules[] = {
    {"", Kind::kNonEmptyString, "label reason repro"},
    {"", Kind::kNumber, "virtual_time_us"},
    {"trace", Kind::kNumber, "retained dropped total_recorded"},
    {"", Kind::kArray, "threads"},
    {"stats", Kind::kNumber,
     "context_switches jobs_completed deadline_misses timer_dispatches headroom_low_events"},
    {"telemetry", Kind::kObject, "response", &kHistogram},
    {"", Kind::kObject, "chains"},
    {"snapshots", Kind::kNumber, "count dropped"},
    {"", Kind::kObject, "postmortem", &kPostmortem},
};
constexpr Shape kBlackBox = {"emeralds.obs.blackbox/1", kBlackBoxRules};

constexpr Rule kSmpRules[] = {
    {"", Kind::kNumber, "horizon_ms ratio_2core ratio_4core"},
    {"", Kind::kNonEmptyArray, "throughput"},
    {"throughput[]", Kind::kCount, "num_cores"},
    {"throughput[]", Kind::kNumber, "user_ns idle_ns ipis context_switches jobs_completed"},
    {"throughput[]", Kind::kDigest, "digest"},
    {"throughput[]", Kind::kBool, "conserved"},
    {"throughput[]", Kind::kArray, "cores"},
    {"throughput[].cores[]", Kind::kNumber, "core elapsed_ns ledger_total_ns residual_ns"},
    {"throughput[].cores[]", Kind::kBool, "conserved"},
    {"admission", Kind::kNonEmptyArray, "points"},
    {"admission.points[]", Kind::kNumber,
     "utilization admitted_1core admitted_2core admitted_4core"},
};
constexpr Shape kSmp = {"emeralds.bench.smp/1", kSmpRules};

constexpr Rule kBreakdownRules[] = {
    {"", Kind::kNonEmptyArray, "points"},
    {"points[]", Kind::kNumber,
     "n wall_seconds workloads_per_sec eval_reduction reference_mismatches"},
    {"points[].avg_breakdown_pct", Kind::kNumber, "*"},
    {"points[].evals", Kind::kNumber, "full_evals"},
};
constexpr Shape kBreakdown = {"emeralds.bench.breakdown/1", kBreakdownRules};

// What every report carries before its schema is known.
constexpr Rule kTaggedRules[] = {
    {"", Kind::kString, "schema"},
};
constexpr Shape kTagged = {nullptr, kTaggedRules};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kNumber:
      return "a number";
    case Kind::kCount:
      return "a non-negative integer count";
    case Kind::kBool:
      return "a bool";
    case Kind::kString:
      return "a string";
    case Kind::kNonEmptyString:
      return "a non-empty string";
    case Kind::kDigest:
      return "a digest (0x and 16 hex digits)";
    case Kind::kObject:
      return "an object";
    case Kind::kArray:
      return "an array";
    case Kind::kNonEmptyArray:
      return "a non-empty array";
  }
  return "?";
}

bool Holds(const JsonValue& v, Kind kind) {
  using Type = JsonValue::Type;
  switch (kind) {
    case Kind::kNumber:
      return v.type == Type::kNumber;
    case Kind::kCount:
      return v.type == Type::kNumber && v.number >= 0.0 && v.number < std::ldexp(1.0, 64) &&
             v.number == std::floor(v.number);
    case Kind::kBool:
      return v.type == Type::kBool;
    case Kind::kString:
      return v.type == Type::kString;
    case Kind::kNonEmptyString:
      return v.type == Type::kString && !v.string.empty();
    case Kind::kDigest:
      return v.type == Type::kString && v.string.size() == 18 &&
             v.string.compare(0, 2, "0x") == 0 &&
             v.string.find_first_not_of("0123456789abcdef", 2) == std::string::npos;
    case Kind::kObject:
      return v.type == Type::kObject;
    case Kind::kArray:
      return v.type == Type::kArray;
    case Kind::kNonEmptyArray:
      return v.type == Type::kArray && !v.array.empty();
  }
  return false;
}

std::string Join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

// Calls fn on each space-separated word of `words` until fn returns false.
template <typename Fn>
bool EachWord(std::string_view words, Fn&& fn) {
  while (!words.empty()) {
    const size_t end = std::min(words.find(' '), words.size());
    if (!fn(words.substr(0, end))) {
      return false;
    }
    words.remove_prefix(std::min(end + 1, words.size()));
  }
  return true;
}

bool Flag(const JsonValue& obj, const char* key) { return Get(obj, key).boolean; }

// `value` as a report writer prints it (JsonAppendNumber's %.10g).
std::string Printed(double value) {
  std::string text;
  JsonAppendNumber(&text, value);
  return text;
}

// One report's check. A rule or gate that rejects appends its FAIL line to
// the log and ends the check; a report that passes gets one OK line.
class Checker {
 public:
  JsonCheckResult Run(const char* path, const JsonValue& root);

 private:
  [[gnu::format(printf, 2, 3)]] bool Fail(const char* format, ...);
  [[gnu::format(printf, 2, 3)]] bool Ok(const char* format, ...);
  void Append(const char* prefix, const char* format, va_list args);
  bool Check(const char* path, const JsonValue& root);

  // The walker.
  bool Walk(const JsonValue& obj, const std::string& path, const Shape& shape);
  bool Apply(const JsonValue& obj, const std::string& path, std::string_view at,
             const Rule& rule);
  bool Member(const std::string& path, const JsonValue* v, const Rule& rule);

  // The semantic gates, by section and by schema.
  bool CyclesGate(const JsonValue& cycles);
  bool ChainsGate(const JsonValue& chains, const char* ctx);
  bool PostmortemGate(const JsonValue& pm, const char* ctx);
  bool TelemetryGate(const JsonValue& telemetry, const JsonValue& root);
  bool TimeseriesGate(const JsonValue& ts, const JsonValue& root);
  bool AlertsGate(const JsonValue& alerts);
  bool ObsRunGates(const char* path, const JsonValue& root);
  bool ObsCyclesGates(const char* path, const JsonValue& root);
  bool ObsChainsGates(const char* path, const JsonValue& root);
  bool ObsPostmortemGates(const char* path, const JsonValue& root);
  bool TortureGates(const char* path, const JsonValue& root);
  bool FleetRunGates(const char* path, const JsonValue& root);
  bool BlackBoxGates(const char* path, const JsonValue& root);
  bool SmpGates(const char* path, const JsonValue& root);
  bool BreakdownGates(const char* path, const JsonValue& root);

  struct Schema {
    const Shape* shape;
    bool (Checker::*gates)(const char* path, const JsonValue& root);
  };
  static const Schema kSchemas[];

  std::string log_;
};

const Checker::Schema Checker::kSchemas[] = {
    {&kObsRun, &Checker::ObsRunGates},
    {&kObsCycles, &Checker::ObsCyclesGates},
    {&kObsChains, &Checker::ObsChainsGates},
    {&kObsPostmortem, &Checker::ObsPostmortemGates},
    {&kTorture, &Checker::TortureGates},
    {&kFleetRun, &Checker::FleetRunGates},
    {&kBlackBox, &Checker::BlackBoxGates},
    {&kSmp, &Checker::SmpGates},
    {&kBreakdown, &Checker::BreakdownGates},
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

bool Checker::Fail(const char* format, ...) {
  va_list args;
  va_start(args, format);
  Append("FAIL: ", format, args);
  va_end(args);
  return false;
}

bool Checker::Ok(const char* format, ...) {
  va_list args;
  va_start(args, format);
  Append("OK: ", format, args);
  va_end(args);
  return true;
}

JsonCheckResult Checker::Run(const char* path, const JsonValue& root) {
  JsonCheckResult result;
  result.ok = Check(path, root);
  result.log = std::move(log_);
  return result;
}

bool Checker::Check(const char* path, const JsonValue& root) {
  if (!Walk(root, "", kTagged)) {
    return false;
  }
  const std::string& tag = Get(root, "schema").string;
  for (const Schema& schema : kSchemas) {
    if (tag == schema.shape->tag) {
      return Walk(root, "", *schema.shape) && (this->*schema.gates)(path, root);
    }
  }
  return Fail("unexpected schema tag \"%s\"\n", tag.c_str());
}

bool Checker::Walk(const JsonValue& obj, const std::string& path, const Shape& shape) {
  if (shape.tag != nullptr) {
    const JsonValue* tag = obj.Find("schema");
    if (tag == nullptr || tag->type != JsonValue::Type::kString || tag->string != shape.tag) {
      return Fail("%s is not \"%s\"\n", Join(path, "schema").c_str(), shape.tag);
    }
  }
  for (const Rule& rule : shape.rules) {
    if (!Apply(obj, path, rule.at, rule)) {
      return false;
    }
  }
  return true;
}

// Follows `at` from `obj` (at `path`) and checks the rule's keys in every
// object it reaches.
bool Checker::Apply(const JsonValue& obj, const std::string& path, std::string_view at,
                    const Rule& rule) {
  if (obj.type != JsonValue::Type::kObject) {
    return Fail("%s is not an object\n", path.empty() ? "the report" : path.c_str());
  }
  if (at.empty()) {
    if (std::string_view(rule.keys) == "*") {
      for (const auto& [key, value] : obj.object) {
        if (!Member(Join(path, key), &value, rule)) {
          return false;
        }
      }
      return true;
    }
    return EachWord(rule.keys, [&](std::string_view key) {
      return Member(Join(path, key), obj.Find(std::string(key)), rule);
    });
  }
  const size_t dot = std::min(at.find('.'), at.size());
  std::string_view step = at.substr(0, dot);
  const std::string_view rest = at.substr(std::min(dot + 1, at.size()));
  const bool each = step.ends_with("[]");
  if (each) {
    step.remove_suffix(2);
  }
  const std::string where = Join(path, step);
  const JsonValue* v = obj.Find(std::string(step));
  if (!each) {
    return Member(where, v, Rule{"", Kind::kObject, ""}) && Apply(*v, where, rest, rule);
  }
  if (!Member(where, v, Rule{"", Kind::kArray, ""})) {
    return false;
  }
  for (size_t i = 0; i < v->array.size(); ++i) {
    if (!Apply(v->array[i], where + "[" + std::to_string(i) + "]", rest, rule)) {
      return false;
    }
  }
  return true;
}

// Checks one member (`v`, nullptr when absent) against the rule's kind, then
// walks the shape the rule mounts on it.
bool Checker::Member(const std::string& path, const JsonValue* v, const Rule& rule) {
  if (v == nullptr) {
    return Fail("%s is missing (want %s)\n", path.c_str(), KindName(rule.kind));
  }
  if (!Holds(*v, rule.kind)) {
    return Fail("%s is not %s\n", path.c_str(), KindName(rule.kind));
  }
  return rule.shape == nullptr || Walk(*v, path, *rule.shape);
}

// --- Section gates ---

// Conservation must be asserted AND the integers must back it up: residual
// exactly zero, nothing unattributed on the clock, and the sum of exactly one
// entry per bucket equal to the elapsed time.
bool Checker::CyclesGate(const JsonValue& cycles) {
  for (const char* key : {"conserved", "clock_conserved"}) {
    if (!Flag(cycles, key)) {
      return Fail("cycles %s is false\n", key);
    }
  }
  if (Num(cycles, "residual_ns") != 0.0 || Num(cycles, "clock_unattributed_ns") != 0.0) {
    return Fail("cycles residual_ns=%g clock_unattributed_ns=%g (must be 0)\n",
                Num(cycles, "residual_ns"), Num(cycles, "clock_unattributed_ns"));
  }
  const auto& buckets = Get(cycles, "buckets_ns").object;
  if (buckets.size() != static_cast<size_t>(kNumCycleBuckets)) {
    return Fail("cycles buckets_ns has %zu keys, want one per cycle bucket (%d)\n",
                buckets.size(), kNumCycleBuckets);
  }
  double sum = 0.0;
  for (const auto& bucket : buckets) {
    sum += bucket.second.number;
  }
  if (sum != Num(cycles, "elapsed_ns")) {
    return Fail("cycles bucket sum %g != elapsed %g\n", sum, Num(cycles, "elapsed_ns"));
  }
  return true;
}

// A token-conservation breach (orphan consume in a complete window, origin
// reuse, malformed token) fails outright. Orphan hops are allowed only when
// the window is incomplete (ring truncation / epoch reset).
bool Checker::ChainsGate(const JsonValue& chains, const char* ctx) {
  const auto& violations = Get(chains, "violations").array;
  if (!violations.empty()) {
    return Fail("%s has %zu chain violation(s), first kind: %s\n", ctx, violations.size(),
                Get(violations[0], "kind").string.c_str());
  }
  if (Flag(chains, "complete_window") && Num(chains, "orphan_hops") != 0.0) {
    return Fail("%s complete window but orphan_hops = %g\n", ctx, Num(chains, "orphan_hops"));
  }
  return true;
}

// Conservation of lateness is an invariant: every miss's ledger must
// telescope, and a complete window leaves nothing unattributed and no miss
// unmatched. Black-box bundles record sick runs on purpose, so they mount
// the postmortem shape without this gate.
bool Checker::PostmortemGate(const JsonValue& pm, const char* ctx) {
  for (const JsonValue& miss : Get(pm, "misses").array) {
    if (!Flag(miss, "conserved")) {
      return Fail("%s miss ledger did not telescope\n", ctx);
    }
  }
  if (Num(pm, "conservation_failures") != 0.0) {
    return Fail("%s has %g conservation failures\n", ctx, Num(pm, "conservation_failures"));
  }
  const JsonValue& blame = Get(pm, "blame");
  if (!Flag(pm, "window_truncated") &&
      (Num(blame, "unattributed_ns") != 0.0 || Num(pm, "unmatched_misses") != 0.0)) {
    return Fail("%s complete window left %g ns unattributed, %g unmatched\n", ctx,
                Num(blame, "unattributed_ns"), Num(pm, "unmatched_misses"));
  }
  return true;
}

// The merged fleet telemetry must cover every node: one response sample per
// completed job, and the chains' completions and overruns summing to the
// report's totals.
bool Checker::TelemetryGate(const JsonValue& telemetry, const JsonValue& root) {
  const double responses = Num(Get(telemetry, "response"), "count");
  if (responses != Num(root, "jobs_completed")) {
    return Fail("telemetry response count=%g but the report's jobs_completed is %g\n", responses,
                Num(root, "jobs_completed"));
  }
  double completed = 0.0;
  double overruns = 0.0;
  for (const JsonValue& chain : Get(telemetry, "chains").array) {
    completed += Num(chain, "completed");
    overruns += Num(chain, "overruns");
  }
  if (completed != Num(root, "chain_completed") || overruns != Num(root, "chain_overruns")) {
    return Fail("telemetry chains sum to %g completed, %g overruns but the report's totals are "
                "%g, %g\n",
                completed, overruns, Num(root, "chain_completed"), Num(root, "chain_overruns"));
  }
  return true;
}

// The fleet's window series sits on the fixed grid (start == index * width,
// end within one width), its gap count matches the marked windows, and when
// no samples were lost its per-window deltas telescope back to the run
// totals.
bool Checker::TimeseriesGate(const JsonValue& ts, const JsonValue& root) {
  const auto& series = Get(ts, "series").array;
  if (series.size() != static_cast<size_t>(Num(ts, "windows"))) {
    return Fail("timeseries windows=%g but series has %zu entries\n", Num(ts, "windows"),
                series.size());
  }
  const double width = Num(ts, "window_us");
  double last_index = -1.0;
  double gaps = 0.0;
  double jobs = 0.0;
  double misses = 0.0;
  for (const JsonValue& w : series) {
    const double index = Num(w, "index");
    const double start = Num(w, "start_us");
    const double end = Num(w, "end_us");
    if (index <= last_index || start != index * width || end <= start || end > start + width) {
      return Fail("timeseries window off the grid (index %g start %g end %g width %g)\n", index,
                  start, end, width);
    }
    last_index = index;
    gaps += Flag(w, "gap") ? 1.0 : 0.0;
    jobs += Num(w, "jobs_completed");
    misses += Num(w, "deadline_misses");
  }
  if (gaps != Num(ts, "gap_windows")) {
    return Fail("timeseries gap_windows=%g but %g windows are marked\n", Num(ts, "gap_windows"),
                gaps);
  }
  if (Num(ts, "lost_samples") == 0.0) {
    if (jobs != Num(root, "jobs_completed")) {
      return Fail("timeseries window jobs sum to %g, run total is %g\n", jobs,
                  Num(root, "jobs_completed"));
    }
    if (misses != Num(root, "deadline_misses")) {
      return Fail("timeseries window misses sum to %g, run total is %g\n", misses,
                  Num(root, "deadline_misses"));
    }
  }
  return true;
}

// The fired count is backed by the stream, and the stream is ordered by
// window: the determinism contract, since an unordered stream would make the
// bit-identical comparison meaningless.
bool Checker::AlertsGate(const JsonValue& alerts) {
  const auto& stream = Get(alerts, "stream").array;
  if (stream.size() != static_cast<size_t>(Num(alerts, "events"))) {
    return Fail("alerts events=%g but stream has %zu entries\n", Num(alerts, "events"),
                stream.size());
  }
  double fired = 0.0;
  double last_window = -1e18;
  for (const JsonValue& e : stream) {
    const std::string& state = Get(e, "state").string;
    if (state != "firing" && state != "resolved") {
      return Fail("alerts event state \"%s\" is neither firing nor resolved\n", state.c_str());
    }
    if (Num(e, "window") < last_window) {
      return Fail("alerts stream not ordered by window\n");
    }
    last_window = Num(e, "window");
    fired += state == "firing" ? 1.0 : 0.0;
  }
  if (fired != Num(alerts, "fired")) {
    return Fail("alerts fired=%g but stream has %g firing events\n", Num(alerts, "fired"), fired);
  }
  return true;
}

// --- Schema gates ---

bool Checker::ObsRunGates(const char* path, const JsonValue& root) {
  if (!CyclesGate(Get(root, "cycles")) || !ChainsGate(Get(root, "chains"), "chains") ||
      !PostmortemGate(Get(root, "postmortem"), "postmortem")) {
    return false;
  }
  const auto& violations = Get(Get(root, "analysis"), "violations").array;
  if (!violations.empty()) {
    return Fail("%zu trace invariant violation(s), first kind: %s\n", violations.size(),
                Get(violations[0], "kind").string.c_str());
  }
  const JsonValue& recon = Get(root, "reconciliation");
  const bool reconciled = EachWord(kReconciledFlags, [&](std::string_view flag) {
    const std::string key(flag);
    return Flag(recon, key.c_str()) || Fail("reconciliation %s is false\n", key.c_str());
  });
  return reconciled &&
         Ok("%s (obs run, %zu task rows, 0 violations)\n", path, Get(root, "tasks").array.size());
}

bool Checker::ObsCyclesGates(const char* path, const JsonValue& root) {
  return CyclesGate(Get(root, "cycles")) &&
         Ok("%s (cycles report, %zu task rows, conserved)\n", path,
            Get(root, "tasks").array.size());
}

bool Checker::ObsChainsGates(const char* path, const JsonValue& root) {
  const JsonValue& report = Get(root, "report");
  return ChainsGate(report, "report") &&
         Ok("%s (chains report, %zu chain(s), 0 violations)\n", path,
            Get(report, "chains").array.size());
}

bool Checker::ObsPostmortemGates(const char* path, const JsonValue& root) {
  const JsonValue& report = Get(root, "report");
  return PostmortemGate(report, "postmortem report") &&
         Ok("%s (postmortem \"%s\", %g miss(es), ledgers conserved)\n", path,
            Get(root, "label").string.c_str(), Num(report, "misses_analyzed"));
}

// Every run passes its oracles, and only a --tiny-ring window may evict:
// every other run is evaluated over its whole trace, so a drop there means
// its oracles saw a truncated run.
bool Checker::TortureGates(const char* path, const JsonValue& root) {
  const auto& runs = Get(root, "runs").array;
  uint64_t ops = 0;
  for (const JsonValue& run : runs) {
    const double seed = Num(run, "seed");
    const std::string& repro = Get(run, "repro").string;
    if (!Flag(run, "ok")) {
      return Fail("torture seed %g failed; repro: %s\n", seed, repro.c_str());
    }
    const double dropped = Num(Get(run, "trace"), "dropped");
    if (repro.find("--tiny-ring") == std::string::npos && dropped > 0.0) {
      return Fail("seed %g dropped %g trace records without --tiny-ring\n", seed, dropped);
    }
    if (Num(run, "violations") != 0.0 || Num(run, "fault_mismatches") != 0.0) {
      return Fail("seed %g has violations/fault mismatches\n", seed);
    }
    // The cycle ledger is conserved on every run, including truncated-ring
    // ones where reconciliation refuses to check.
    if (!Flag(Get(run, "cycles"), "conserved")) {
      return Fail("seed %g cycle ledger not conserved\n", seed);
    }
    if (Num(Get(run, "chains"), "violations") != 0.0) {
      return Fail("seed %g has chain-token conservation violations\n", seed);
    }
    if (Num(Get(run, "postmortem"), "conservation_failures") != 0.0) {
      return Fail("seed %g has lateness-conservation failures\n", seed);
    }
    ops += static_cast<uint64_t>(Num(run, "ops_executed"));
  }
  if (Num(Get(root, "totals"), "failed") != 0.0) {
    return Fail("totals.failed = %g\n", Num(Get(root, "totals"), "failed"));
  }
  return Ok("%s (torture sweep, %zu runs, %llu ops, 0 failures)\n", path, runs.size(),
            static_cast<unsigned long long>(ops));
}

// Zero failed nodes, positive deterministic aggregates, one record count per
// event type, a conserved fleet blame ledger, and the embedded sections'
// gates.
bool Checker::FleetRunGates(const char* path, const JsonValue& root) {
  if (Num(root, "nodes_failed") != 0.0) {
    return Fail("%g fleet node(s) failed their oracles\n", Num(root, "nodes_failed"));
  }
  if (Num(root, "nodes_total") <= 0.0 || Num(root, "events_total") <= 0.0 ||
      Num(root, "events_per_virtual_sec") <= 0.0) {
    return Fail("fleet ran no nodes or produced no events\n");
  }
  const size_t types = Get(Get(root, "trace"), "records_by_type").object.size();
  if (types != static_cast<size_t>(kNumTraceEventTypes)) {
    return Fail("fleet trace records_by_type has %zu keys, want one per event type (%d)\n", types,
                kNumTraceEventTypes);
  }
  const JsonValue& blame = Get(Get(root, "postmortem"), "blame");
  if (Num(blame, "conservation_failures") != 0.0) {
    return Fail("fleet blame ledger has %g conservation failure(s)\n",
                Num(blame, "conservation_failures"));
  }
  return TelemetryGate(Get(root, "telemetry"), root) &&
         TimeseriesGate(Get(root, "timeseries"), root) && AlertsGate(Get(root, "alerts")) &&
         Ok("%s (fleet run, %g nodes, %g events, 0 failures)\n", path, Num(root, "nodes_total"),
            Num(root, "events_total"));
}

// A black box is forensic: it records a (possibly failing) run, so it is
// checked for shape only.
bool Checker::BlackBoxGates(const char* path, const JsonValue& root) {
  return Ok("%s (black box \"%s\": %s)\n", path, Get(root, "label").string.c_str(),
            Get(root, "reason").string.c_str());
}

// Every throughput row conserves its ledger fleet-summed AND per core
// (residuals exactly zero, each core's ledger total its elapsed time), the
// 2-core run delivers the 1.7x user-cycle floor over 1-core at equal horizon
// (recomputed from the integers), the reported ratios print as the ones the
// integers give, and partitioned-CSD admission never falls with more cores.
bool Checker::SmpGates(const char* path, const JsonValue& root) {
  double user_by_cores[16] = {};
  for (const JsonValue& row : Get(root, "throughput").array) {
    const double cores = Num(row, "num_cores");
    if (!Flag(row, "conserved")) {
      return Fail("smp %g-core row not conserved\n", cores);
    }
    const auto& per_core = Get(row, "cores").array;
    if (per_core.size() != static_cast<size_t>(cores)) {
      return Fail("smp %g-core row has %zu per-core ledgers\n", cores, per_core.size());
    }
    for (const JsonValue& c : per_core) {
      if (!Flag(c, "conserved") || Num(c, "residual_ns") != 0.0) {
        return Fail("smp %g-core run, core %g: residual %g ns (must be 0)\n", cores,
                    Num(c, "core"), Num(c, "residual_ns"));
      }
      if (Num(c, "ledger_total_ns") != Num(c, "elapsed_ns")) {
        return Fail("smp %g-core run, core %g: ledger_total_ns %.0f is not elapsed_ns %.0f\n",
                    cores, Num(c, "core"), Num(c, "ledger_total_ns"), Num(c, "elapsed_ns"));
      }
    }
    if (cores >= 1 && cores < 16) {
      user_by_cores[static_cast<int>(cores)] = Num(row, "user_ns");
    }
  }
  if (user_by_cores[1] <= 0.0 || user_by_cores[2] <= 0.0 || user_by_cores[4] <= 0.0) {
    return Fail("smp report lacks 1-, 2- and 4-core throughput rows\n");
  }
  const double ratio2 = user_by_cores[2] / user_by_cores[1];
  if (ratio2 < 1.7) {
    return Fail("2-core user-cycle throughput is %.3fx 1-core (floor 1.7x)\n", ratio2);
  }
  for (int cores : {2, 4}) {
    const std::string key = "ratio_" + std::to_string(cores) + "core";
    const std::string reported = Printed(Num(root, key.c_str()));
    const std::string recomputed = Printed(user_by_cores[cores] / user_by_cores[1]);
    if (reported != recomputed) {
      return Fail("%s %s is not the %d-core/1-core user-time ratio %s\n", key.c_str(),
                  reported.c_str(), cores, recomputed.c_str());
    }
  }
  const auto& points = Get(Get(root, "admission"), "points").array;
  for (const JsonValue& p : points) {
    const double a1 = Num(p, "admitted_1core");
    const double a2 = Num(p, "admitted_2core");
    const double a4 = Num(p, "admitted_4core");
    if (a2 < a1 || a4 < a2) {
      return Fail("admission not monotone in cores at U=%g (1:%g 2:%g 4:%g)\n",
                  Num(p, "utilization"), a1, a2, a4);
    }
  }
  return Ok("%s (smp: 2-core %.3fx user cycles, %zu admission points)\n", path, ratio2,
            points.size());
}

bool Checker::BreakdownGates(const char* path, const JsonValue& root) {
  const auto& points = Get(root, "points").array;
  for (const JsonValue& point : points) {
    if (Num(point, "reference_mismatches") != 0.0) {
      return Fail("reference_mismatches = %g at n = %g\n", Num(point, "reference_mismatches"),
                  Num(point, "n"));
    }
  }
  return Ok("%s (%zu points)\n", path, points.size());
}

}  // namespace

const JsonValue& Get(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  EM_ASSERT_MSG(v != nullptr, "a gate reads \"%s\", which no shape rule requires", key);
  return *v;
}

double Num(const JsonValue& obj, const char* key) { return Get(obj, key).number; }

JsonCheckResult CheckReport(const std::string& path, const JsonValue& root) {
  return Checker().Run(path.c_str(), root);
}

JsonCheckResult CheckReportFile(const std::string& path) {
  JsonCheckResult result;
  std::string text;
  if (!ReadFile(path, &text)) {
    result.log = "FAIL: cannot open " + path + "\n";
    return result;
  }
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
