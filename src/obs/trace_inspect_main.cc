// trace_inspect: offline replay of an exported kernel trace.
//
//   trace_inspect <trace.csv> [--run <run.json>] [--perfetto <out.json>] [--chains]
//                 [--postmortem] [--postmortem-json <out.json>]
//
// Reads a TraceSink CSV export, replays it through the trace analyzer, and
// prints per-task response/blocking histograms plus preemption / PI / CSE
// counters. With --run it cross-checks the analyzer's counters against the
// kernel counters recorded in an emeralds.obs.run/1 report produced by the
// same run, and renders the report's cycle-attribution section as a
// Table 1 / Figure 3-style per-bucket breakdown (re-verifying the
// conservation invariant from the JSON integers); with --perfetto it
// additionally re-emits the window as Chrome/Perfetto trace JSON; with
// --chains it replays the causal-token stream and enforces token
// conservation (every consume matched to a visible emit, origins minted
// once) with a per-endpoint traffic summary; with --postmortem it replays
// every missed deadline through the lateness-attribution engine and prints
// each miss's telescoping blame ledger (a conservation failure on a
// complete window is an error); --postmortem-json writes the same analysis
// as a standalone emeralds.obs.postmortem/1 report (the CI artifact).
//
// Exit status: 0 clean; 1 usage / I/O / parse failure, or a run-report
// integer that is not one (fractional, or 2^63 or more in magnitude); 2
// invariant violations or a postmortem conservation failure; 3
// reconciliation mismatch or cycle-conservation failure against the run
// report.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include <map>

#include "src/base/json.h"
#include "src/obs/obs_report.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/trace_csv.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace obs {
namespace {

void PrintHistogram(const char* title, const Log2Histogram& h) {
  std::printf("    %s: n=%" PRIu64, title, h.count());
  if (h.count() == 0) {
    std::printf("\n");
    return;
  }
  std::printf("  min=%.1fus  mean=%.1fus  p99<=%.1fus  max=%.1fus\n", h.min().micros_f(),
              h.mean().micros_f(), h.PercentileBound(0.99).micros_f(), h.max().micros_f());
  uint64_t peak = 0;
  for (int b = 0; b <= h.HighestBucket(); ++b) {
    if (h.bucket(b) > peak) {
      peak = h.bucket(b);
    }
  }
  for (int b = 0; b <= h.HighestBucket(); ++b) {
    if (h.bucket(b) == 0) {
      continue;
    }
    int bar = static_cast<int>(h.bucket(b) * 40 / peak);
    std::printf("      [%8lldus, %8lldus) %-40.*s %" PRIu64 "\n",
                static_cast<long long>(Log2Histogram::BucketFloorUs(b)),
                static_cast<long long>(Log2Histogram::BucketFloorUs(b + 1)), bar,
                "########################################", h.bucket(b));
  }
}

void PrintAnalysis(const TraceAnalysis& a) {
  std::printf("trace window: %" PRIu64 " switches, %" PRIu64 "/%" PRIu64
              " jobs released/completed, %" PRIu64 " deadline misses\n",
              a.context_switches, a.jobs_released, a.jobs_completed, a.deadline_misses);
  std::printf("semaphores: %" PRIu64 " acquires, %" PRIu64 " blocks, %" PRIu64
              " CSE early-PI, max PI chain depth %d\n",
              a.sem_acquires, a.sem_blocks, a.cse_early_pi, a.max_pi_chain_depth);
  if (a.dropped_events > 0) {
    std::printf("note: %" PRIu64 " events dropped before this window; counters cover the "
                "retained suffix only\n",
                a.dropped_events);
  }
  for (const TaskMetrics& t : a.tasks) {
    if (!t.seen) {
      continue;
    }
    std::printf("  thread %d: %" PRIu64 " releases, %" PRIu64 " completes, %" PRIu64
                " misses, %" PRIu64 " preemptions, run %.1fus\n",
                t.thread_id, t.releases, t.completes, t.deadline_misses, t.preemptions,
                t.run_time.micros_f());
    if (t.sem_acquires + t.sem_blocks + t.pi_received + t.pi_donated + t.cse_early_pi > 0) {
      std::printf("    sem: %" PRIu64 " acquires, %" PRIu64 " blocks | PI: %" PRIu64
                  " received, %" PRIu64 " donated, depth %d | CSE early-PI %" PRIu64 "\n",
                  t.sem_acquires, t.sem_blocks, t.pi_received, t.pi_donated, t.max_pi_depth,
                  t.cse_early_pi);
    }
    PrintHistogram("response", t.response);
    PrintHistogram("blocking", t.blocking);
  }
  if (a.unresolved_blocks_at_end > 0) {
    std::printf("  (%" PRIu64 " thread(s) still blocked at end of window)\n",
                a.unresolved_blocks_at_end);
  }
}

// The run report's reader: every integer member goes through
// JsonNumberToInt. A bad member is reported and clears `ok`, and Main then
// exits 1.
struct RunReportReader {
  const char* path;
  bool ok = true;

  // `v`, the member `key`, as an integer in *out; false when it is bad.
  bool Value(const JsonValue& v, const char* key, int64_t* out) {
    if (JsonNumberToInt(v, out)) {
      return true;
    }
    std::fprintf(stderr, "trace_inspect: %s: bad %s (want integer)\n", path, key);
    ok = false;
    return false;
  }
  // Member `key` of `obj` as an integer: 0 when absent or bad.
  int64_t Member(const JsonValue& obj, const char* key) {
    int64_t value = 0;
    if (const JsonValue* v = obj.Find(key)) {
      Value(*v, key, &value);
    }
    return value;
  }
};

// Compares one analyzer counter against the kernel counter in the report.
bool CheckCounter(RunReportReader& in, const JsonValue& root, const char* key,
                  uint64_t analyzer_value) {
  const JsonValue* stats = root.Find("kernel_stats");
  const JsonValue* v = stats != nullptr ? stats->Find(key) : nullptr;
  if (v == nullptr) {
    std::printf("reconcile %-18s: MISSING in run report\n", key);
    return false;
  }
  int64_t kernel_value = 0;
  if (!in.Value(*v, key, &kernel_value)) {
    return false;
  }
  bool match = kernel_value == static_cast<int64_t>(analyzer_value);
  std::printf("reconcile %-18s: kernel=%" PRId64 " analyzer=%" PRIu64 " %s\n", key,
              kernel_value, analyzer_value, match ? "ok" : "MISMATCH");
  return match;
}

// Renders the run report's cycle-attribution section as the Table 1 /
// Figure 3-style breakdown and re-checks the conservation invariant from
// the JSON integers (bucket sum == elapsed, exact to the tick). Returns
// false when the section is missing, the recomputed sum disagrees with
// elapsed, or the report's own verdict is false.
bool PrintCyclesBreakdown(RunReportReader& in, const JsonValue& root) {
  const JsonValue* c = root.Find("cycles");
  if (c == nullptr || c->type != JsonValue::Type::kObject) {
    std::printf("cycles: section MISSING from run report\n");
    return false;
  }
  const JsonValue* buckets = c->Find("buckets_ns");
  if (buckets == nullptr || buckets->type != JsonValue::Type::kObject) {
    std::printf("cycles: buckets_ns MISSING from run report\n");
    return false;
  }
  int64_t elapsed = in.Member(*c, "elapsed_ns");
  std::printf("cycle attribution (%.1f us elapsed since epoch %.1f us):\n", elapsed / 1e3,
              in.Member(*c, "epoch_ns") / 1e3);
  int64_t sum = 0;
  for (const auto& kv : buckets->object) {
    int64_t ns = 0;
    in.Value(kv.second, kv.first.c_str(), &ns);
    sum += ns;
    if (ns == 0) {
      continue;
    }
    double pct = elapsed > 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(elapsed)
                             : 0.0;
    std::printf("  %-16s %12.1f us  %5.1f%%\n", kv.first.c_str(), ns / 1e3, pct);
  }
  const JsonValue* bands = c->Find("sched_bands");
  if (bands != nullptr && bands->type == JsonValue::Type::kArray && !bands->array.empty()) {
    std::printf("  scheduler cost by band:\n");
    for (const JsonValue& b : bands->array) {
      const JsonValue* label = b.Find("label");
      std::printf("    %-4s (band %lld): block %.1fus  unblock %.1fus  select %.1fus\n",
                  label != nullptr ? label->string.c_str() : "?",
                  static_cast<long long>(in.Member(b, "band")), in.Member(b, "block_ns") / 1e3,
                  in.Member(b, "unblock_ns") / 1e3, in.Member(b, "select_ns") / 1e3);
    }
  }
  const JsonValue* verdict = c->Find("conserved");
  bool reported = verdict != nullptr && verdict->type == JsonValue::Type::kBool &&
                  verdict->boolean;
  bool recomputed = sum == elapsed;
  std::printf("  conservation: ledger %.1f us vs elapsed %.1f us -> %s (report: %s)\n",
              sum / 1e3, elapsed / 1e3, recomputed ? "exact" : "VIOLATED",
              reported ? "conserved" : "NOT conserved");
  int64_t unattributed = in.Member(*c, "clock_unattributed_ns");
  if (unattributed != 0) {
    std::printf("  WARNING: %.1f us advanced outside the kernel's charging paths\n",
                unattributed / 1e3);
  }
  return recomputed && reported;
}

// The --chains view: a spec-free replay of the causal-token stream. Without
// a ChainSpec registry (a raw CSV carries none) it still checks token
// conservation and summarizes traffic per endpoint, so a corrupted or
// kernel-buggy stream fails here exactly like it does under the in-process
// analyzer. Returns false on any chain violation.
bool PrintChains(const TraceCsvImport& import, const ChainAnalysis& chains) {
  std::printf("chains: %" PRIu64 " emits, %" PRIu64 " consumes, %" PRIu64
              " origins minted%s\n",
              chains.chain_emits, chains.chain_consumes, chains.origins_minted,
              chains.complete_window ? "" : " (truncated window)");
  if (chains.orphan_hops > 0) {
    std::printf("  %" PRIu64 " orphan hop(s): emits fell outside the retained window\n",
                chains.orphan_hops);
  }
  if (chains.unconsumed_emits > 0) {
    std::printf("  %" PRIu64 " unconsumed emit(s) (banked/overwritten tokens, unread slots)\n",
                chains.unconsumed_emits);
  }
  std::map<int32_t, std::pair<uint64_t, uint64_t>> per_endpoint;  // emits, consumes
  for (const TraceEvent& e : import.events) {
    if (e.type == TraceEventType::kChainEmit) {
      ++per_endpoint[e.arg1].first;
    } else if (e.type == TraceEventType::kChainConsume) {
      ++per_endpoint[e.arg1].second;
    }
  }
  for (const auto& kv : per_endpoint) {
    std::printf("  %s:%d  %" PRIu64 " emits, %" PRIu64 " consumes\n",
                ChainEndpointKindToString(ChainEndpointKindOf(kv.first)),
                ChainEndpointChannel(kv.first), kv.second.first, kv.second.second);
  }
  if (!chains.ok()) {
    std::printf("CHAIN VIOLATIONS: %zu\n", chains.violations.size());
    for (const ChainViolation& v : chains.violations) {
      std::printf("  [%s] event %zu: %s\n", ChainViolationKindToString(v.kind), v.event_index,
                  v.detail.c_str());
    }
    return false;
  }
  std::printf("chain conservation: ok\n");
  return true;
}

constexpr const char* kUsage =
    "usage: trace_inspect <trace.csv> [--run run.json] [--perfetto out.json] [--chains]\n"
    "                     [--postmortem] [--postmortem-json out.json]\n";

int Main(int argc, char** argv) {
  const char* csv_path = nullptr;
  const char* run_path = nullptr;
  const char* perfetto_path = nullptr;
  const char* postmortem_json_path = nullptr;
  bool show_chains = false;
  bool show_postmortem = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--run") == 0 && i + 1 < argc) {
      run_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perfetto") == 0 && i + 1 < argc) {
      perfetto_path = argv[++i];
    } else if (std::strcmp(argv[i], "--postmortem-json") == 0 && i + 1 < argc) {
      postmortem_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chains") == 0) {
      show_chains = true;
    } else if (std::strcmp(argv[i], "--postmortem") == 0) {
      show_postmortem = true;
    } else if (csv_path == nullptr && argv[i][0] != '-') {
      csv_path = argv[i];
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 1;
    }
  }
  if (csv_path == nullptr) {
    std::fprintf(stderr, "%s", kUsage);
    return 1;
  }

  std::FILE* f = std::fopen(csv_path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "trace_inspect: cannot open %s\n", csv_path);
    return 1;
  }
  TraceCsvImport import;
  std::string error;
  bool ok = ImportTraceCsv(f, &import, &error);
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "trace_inspect: %s: %s\n", csv_path, error.c_str());
    return 1;
  }

  // One pass: invariants, chains and postmortem (late jobs also become
  // Perfetto annotation slices on the victims' tracks).
  TraceEvaluation eval = EvaluateTrace(import.events, import.dropped, {});
  const TraceAnalysis& analysis = eval.trace;
  const PostmortemAnalysis& postmortem = eval.postmortem;
  std::printf("%s: %zu events (%" PRIu64 " dropped before window)\n", csv_path,
              import.events.size(), import.dropped);
  PrintAnalysis(analysis);

  int status = 0;
  if (!analysis.ok()) {
    std::printf("INVARIANT VIOLATIONS: %zu\n", analysis.violations.size());
    for (const TraceViolation& v : analysis.violations) {
      std::printf("  [%s] event %zu: %s\n", InvariantKindToString(v.kind), v.event_index,
                  v.detail.c_str());
    }
    status = 2;
  } else {
    std::printf("invariants: ok\n");
  }

  if (show_chains && !PrintChains(import, eval.chains) && status == 0) {
    status = 2;
  }

  if (show_postmortem) {
    PrintPostmortem(stdout, postmortem, &eval.chains);
    if (!postmortem.ok() && status == 0) {
      status = 2;  // a ledger failed to telescope: the engine's hard invariant
    }
  }
  if (postmortem_json_path != nullptr) {
    std::FILE* jf = std::fopen(postmortem_json_path, "w");
    if (jf == nullptr) {
      std::fprintf(stderr, "trace_inspect: cannot open %s\n", postmortem_json_path);
      return 1;
    }
    std::string doc = BuildPostmortemReport(csv_path, postmortem, &eval.chains);
    std::fwrite(doc.data(), 1, doc.size(), jf);
    std::fclose(jf);
    std::printf("postmortem: wrote %" PRIu64 " analyzed miss(es) to %s\n",
                postmortem.misses_analyzed, postmortem_json_path);
    if (!postmortem.ok() && status == 0) {
      status = 2;
    }
  }

  if (run_path != nullptr) {
    std::string text;
    if (!ReadFile(run_path, &text)) {
      std::fprintf(stderr, "trace_inspect: cannot open %s\n", run_path);
      return 1;
    }
    JsonValue root;
    if (!JsonParse(text, &root, &error)) {
      std::fprintf(stderr, "trace_inspect: %s: %s\n", run_path, error.c_str());
      return 1;
    }
    const JsonValue* schema = root.Find("schema");
    if (schema == nullptr || schema->string != kObsRunSchema) {
      std::fprintf(stderr, "trace_inspect: %s is not an %s report\n", run_path, kObsRunSchema);
      return 1;
    }
    RunReportReader in{run_path};
    if (import.dropped > 0) {
      std::printf("reconcile: skipped (truncated window; kernel counters cover the full run)\n");
    } else {
      bool all = true;
      all &= CheckCounter(in, root, "context_switches", analysis.context_switches);
      all &= CheckCounter(in, root, "deadline_misses", analysis.deadline_misses);
      all &= CheckCounter(in, root, "jobs_completed", analysis.jobs_completed);
      all &= CheckCounter(in, root, "cse_early_pi", analysis.cse_early_pi);
      if (!all && status == 0) {
        status = 3;
      }
    }
    // The cycle breakdown and its conservation invariant hold regardless of
    // trace truncation: they come from the kernel's own counters.
    if (!PrintCyclesBreakdown(in, root) && status == 0) {
      status = 3;
    }
    if (!in.ok) {
      return 1;
    }
  }

  if (perfetto_path != nullptr) {
    std::FILE* pf = std::fopen(perfetto_path, "w");
    if (pf == nullptr) {
      std::fprintf(stderr, "trace_inspect: cannot open %s\n", perfetto_path);
      return 1;
    }
    PerfettoExportOptions options;
    options.dropped_events = import.dropped;
    options.annotations = PostmortemAnnotations(postmortem);
    size_t entries =
        ExportPerfettoJson(import.events.data(), import.events.size(), options, pf);
    std::fclose(pf);
    std::printf("perfetto: wrote %zu entries to %s\n", entries, perfetto_path);
  }
  return status;
}

}  // namespace
}  // namespace obs
}  // namespace emeralds

int main(int argc, char** argv) { return emeralds::obs::Main(argc, argv); }
