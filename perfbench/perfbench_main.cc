// perfbench_bin: one repetition of one benchmark workload.
//
//   perfbench_bin --workload fleet_long|torture_smp|csd_deploy --seed N
//                 --batch K [--trace-out FILE]
//
// Builds the workload's inputs from batch K of the benchmark seed (the set-up
// phase; each batch is an independent draw of the same recipe), runs the
// fixed amount of work through the public entry points, and prints one JSON
// line: the CLOCK_MONOTONIC instant the timed work started, process CPU
// seconds (all threads) and wall seconds of the timed work, the process's
// peak RSS, the simulated outcome and one entry per unit (fleet node, torture
// seed or task set). perfbench/run.py repeats this in fresh processes, checks outcomes
// against perfbench/references.json and reports medians.
//
// With --trace-out the same work runs with spans recorded around each call
// into a src/ module, plus deterministic work counters read from the kernels
// the calls leave behind; both are written to FILE when the work ends.

#include <time.h>

#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/breakdown.h"
#include "src/base/json.h"
#include "src/base/rng.h"
#include "src/core/kernel.h"
#include "src/core/taskset_runner.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_report.h"
#include "src/fleet/triage.h"
#include "src/fuzz/torture.h"
#include "src/obs/chains.h"
#include "src/obs/obs_report.h"
#include "src/obs/postmortem.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_analyzer.h"
#include "src/workload/workload.h"

namespace emeralds {
namespace perfbench {
namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void Appendf(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, static_cast<size_t>(n) < sizeof(buf) ? static_cast<size_t>(n)
                                                             : sizeof(buf) - 1);
  }
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// In-memory spans and counters for the traced run. Spans nest by scope on
// the calling thread (the benchmark calls every traced entry point from its
// main thread); a null Tracer* records nothing, which is the untraced run.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, const char* name, int unit) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        index_ = tracer_->Open(name, unit);
      }
    }
    ~Span() {
      if (tracer_ != nullptr) {
        tracer_->Close(index_);
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  void Add(const std::string& counter, uint64_t value) { counts_[counter] += value; }

  bool Write(const std::string& path) const {
    std::string out = "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      Appendf(&out,
              "%s\n{\"name\": \"%s\", \"parent\": %d, \"unit\": %d, \"start_ns\": %lld, "
              "\"end_ns\": %lld, \"cpu_ns\": %lld}",
              i == 0 ? "" : ",", r.name, r.parent, r.unit, static_cast<long long>(r.start_ns),
              static_cast<long long>(r.end_ns), static_cast<long long>(r.cpu_ns));
    }
    out += "],\n\"counts\": {";
    bool first = true;
    for (const auto& [name, value] : counts_) {
      Appendf(&out, "%s\n\"%s\": %llu", first ? "" : ",", name.c_str(),
              static_cast<unsigned long long>(value));
      first = false;
    }
    out += "}}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Record {
    const char* name;
    int parent;
    int unit;
    int64_t start_ns;
    int64_t end_ns;
    int64_t cpu_ns;  // thread CPU time spent inside the span
  };

  size_t Open(const char* name, int unit) {
    spans_.push_back(Record{name, open_, unit, ClockNs(CLOCK_MONOTONIC), 0,
                            ClockNs(CLOCK_THREAD_CPUTIME_ID)});
    open_ = static_cast<int>(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void Close(size_t index) {
    Record& r = spans_[index];
    r.end_ns = ClockNs(CLOCK_MONOTONIC);
    r.cpu_ns = ClockNs(CLOCK_THREAD_CPUTIME_ID) - r.cpu_ns;
    open_ = r.parent;
  }

  std::vector<Record> spans_;
  int open_ = -1;
  std::map<std::string, uint64_t> counts_;
};

// --- Deterministic counters read from a finished kernel ------------------

void CountKernelStats(Tracer* tracer, const KernelStats& s) {
  static const char* const kKinds[kNumQueueKinds] = {"edf_list", "rm_list", "rm_heap"};
  static const char* const kOps[kNumQueueOps] = {"block", "unblock", "select"};
  tracer->Add("core.events", s.context_switches + s.syscalls + s.interrupts + s.timer_dispatches);
  tracer->Add("core.context_switches", s.context_switches);
  tracer->Add("core.timer_dispatches", s.timer_dispatches);
  for (int k = 0; k < kNumQueueKinds; ++k) {
    for (int o = 0; o < kNumQueueOps; ++o) {
      tracer->Add(std::string("core.queue_ops.") + kKinds[k] + "." + kOps[o],
                  s.queue_op_count[k][o]);
    }
  }
  tracer->Add("core.ipis", s.ipis);
  tracer->Add("core.sem_contended", s.sem_contended);
  tracer->Add("core.pi_inherits", s.pi_inherits);
  tracer->Add("core.cse_switches_saved", s.cse_switches_saved);
}

// Trace volume by event type, counted over the retained window.
void CountTrace(Tracer* tracer, const Kernel& kernel) {
  const TraceSink& trace = kernel.trace();
  uint64_t by_type[kNumTraceEventTypes] = {};
  for (size_t i = 0; i < trace.size(); ++i) {
    ++by_type[static_cast<int>(trace.at(i).type)];
  }
  for (int t = 0; t < kNumTraceEventTypes; ++t) {
    tracer->Add(std::string("hal.trace.records.") +
                    TraceEventTypeToString(static_cast<TraceEventType>(t)),
                by_type[t]);
  }
  tracer->Add("hal.trace.retained", trace.size());
  tracer->Add("hal.trace.recorded", trace.total_recorded());
  tracer->Add("hal.trace.dropped", trace.dropped());
  tracer->Add("hal.virtual_us", static_cast<uint64_t>((kernel.now() - Instant()).nanos() / 1000));
}

// The obs replays a node's evaluation runs, timed one by one on the live
// kernel.
void TimeObsReplays(Tracer* tracer, const Kernel& kernel, int unit) {
  obs::TraceAnalysis analysis;
  {
    Tracer::Span span(tracer, "obs.AnalyzeTrace", unit);
    analysis = obs::AnalyzeTrace(kernel.trace());
  }
  {
    Tracer::Span span(tracer, "obs.ComputeReconciliation", unit);
    obs::ComputeReconciliation(analysis, kernel.stats());
  }
  obs::ChainAnalysis chains;
  {
    Tracer::Span span(tracer, "obs.AnalyzeChains", unit);
    chains = obs::AnalyzeChains(kernel.trace(), kernel.resolved_chains());
  }
  {
    Tracer::Span span(tracer, "obs.AnalyzePostmortem", unit);
    obs::AnalyzePostmortem(kernel.trace());
  }
  {
    Tracer::Span span(tracer, "obs.CollectNodeTelemetry", unit);
    obs::CollectNodeTelemetry(kernel, analysis, chains);
  }
}

// --- fleet_long ------------------------------------------------------------

fleet::FleetOptions FleetLongOptions(uint64_t seed) {
  fleet::FleetOptions opt;
  opt.instances = 32;
  opt.workers = 2;
  opt.seed = seed;
  opt.run_duration = Seconds(2);
  return opt;
}

std::string RunFleetLong(const fleet::FleetOptions& opt, Tracer* tracer) {
  fleet::FleetResult result;
  {
    Tracer::Span span(tracer, "fleet.RunFleet", -1);
    result = fleet::RunFleet(opt);
  }
  std::vector<std::string> failures(result.nodes.size());
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    failures[i] = result.nodes[i].failure;
  }
  if (tracer != nullptr) {
    {
      Tracer::Span span(tracer, "fleet.ComputeFleetTriage", -1);
      fleet::ComputeFleetTriage(result);
    }
    {
      Tracer::Span span(tracer, "fleet.BuildFleetRunReport", -1);
      fleet::FleetRunInfo info;
      info.label = "fleet_long";
      info.run_duration = opt.run_duration;
      info.slice = opt.slice;
      fleet::BuildFleetRunReport(info, result, {});
    }
    for (int i = 0; i < opt.instances; ++i) {
      fleet::NodeResult inspected;
      {
        Tracer::Span span(tracer, "fleet.InspectNode", i);
        inspected = fleet::InspectNode(opt, i, [&](const Kernel& kernel, const fleet::NodeResult&) {
          Tracer::Span visit(tracer, "fleet.visit", i);
          TimeObsReplays(tracer, kernel, i);
          CountKernelStats(tracer, kernel.stats());
          CountTrace(tracer, kernel);
        });
      }
      if (inspected.trace_digest != result.nodes[static_cast<size_t>(i)].trace_digest &&
          failures[static_cast<size_t>(i)].empty()) {
        failures[static_cast<size_t>(i)] = "InspectNode re-run diverged from the fleet run";
      }
    }
  }

  std::string out;
  Appendf(&out,
          "\"outcome\": {\"events_total\": %llu, \"jobs_completed\": %llu, "
          "\"deadline_misses\": %llu, \"chain_completed\": %llu, \"blame_digest\": \"%s\", "
          "\"nodes_failed\": %d, \"fleet_digest\": \"%s\"}, \"units\": [",
          static_cast<unsigned long long>(result.events_total),
          static_cast<unsigned long long>(result.jobs_completed),
          static_cast<unsigned long long>(result.deadline_misses),
          static_cast<unsigned long long>(result.chain_completed),
          Hex(result.blame_digest).c_str(), result.nodes_failed,
          Hex(result.fleet_digest).c_str());
  for (size_t i = 0; i < failures.size(); ++i) {
    out += i == 0 ? "{\"failure\": " : ", {\"failure\": ";
    JsonAppendEscaped(&out, failures[i]);
    out += "}";
  }
  out += "]";
  return out;
}

// --- torture_smp -----------------------------------------------------------

std::vector<fuzz::TortureOptions> TortureSmpInputs(uint64_t seed) {
  static const int kCores[] = {1, 2, 4};
  Rng root(seed);
  std::vector<fuzz::TortureOptions> runs(300);
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i].seed = root.Fork(i + 1).Next();
    runs[i].ops = 2000;
    runs[i].num_cores = kCores[i % 3];
  }
  return runs;
}

std::string RunTortureSmp(const std::vector<fuzz::TortureOptions>& runs, Tracer* tracer) {
  std::string units;
  uint64_t ops_total = 0;
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < runs.size(); ++i) {
    fuzz::TortureResult r;
    {
      Tracer::Span span(tracer, "fuzz.RunTorture", static_cast<int>(i));
      r = fuzz::RunTorture(runs[i]);
    }
    ops_total += static_cast<uint64_t>(r.ops_executed);
    digest = Fnv1a(digest, r.trace_digest);
    if (tracer != nullptr) {
      tracer->Add("fuzz.ops_executed", static_cast<uint64_t>(r.ops_executed));
      tracer->Add("fuzz.trace_retained", r.trace_retained);
      tracer->Add("fuzz.trace_dropped", r.trace_dropped);
      CountKernelStats(tracer, r.stats);
    }
    Appendf(&units, "%s{\"ok\": %s, \"ops_executed\": %d, \"failure\": ", i == 0 ? "" : ", ",
            r.ok ? "true" : "false", r.ops_executed);
    JsonAppendEscaped(&units, r.failure);
    units += "}";
  }
  std::string out;
  Appendf(&out, "\"outcome\": {\"ops_executed\": %llu, \"trace_digest\": \"%s\"}, \"units\": [",
          static_cast<unsigned long long>(ops_total), Hex(digest).c_str());
  return out + units + "]";
}

// --- csd_deploy ------------------------------------------------------------

std::vector<TaskSet> CsdDeployInputs(uint64_t seed) {
  static const int kTasks[] = {20, 30, 40, 50};
  Rng root(seed);
  std::vector<TaskSet> sets;
  for (uint64_t i = 0; i < 24; ++i) {
    Rng rng = root.Fork(i + 1);
    TaskSet set = GenerateWorkload(rng, kTasks[i % 4]).PeriodsDividedBy(2);
    set.SortByPeriod();
    sets.push_back(std::move(set));
  }
  return sets;
}

std::string RunCsdDeploy(const std::vector<TaskSet>& sets, Tracer* tracer) {
  KernelConfig config;
  config.scheduler = SchedulerSpec::Csd(3);
  std::string units;
  uint64_t jobs_total = 0;
  uint64_t misses_total = 0;
  for (size_t i = 0; i < sets.size(); ++i) {
    const int unit = static_cast<int>(i);
    CsdSearchStats search;
    BreakdownOptions options;
    options.stats = &search;
    BreakdownResult breakdown;
    {
      Tracer::Span span(tracer, "analysis.ComputeBreakdown", unit);
      breakdown = ComputeBreakdown(sets[i], PolicySpec::Csd(3), config.cost_model, options);
    }
    // Deploy the winning partition at 90% of the breakdown scale.
    TaskSet deployed = sets[i].ScaledBy(0.9 * breakdown.utilization / sets[i].Utilization());

    Hardware hw;
    std::unique_ptr<Kernel> kernel;
    std::vector<ThreadId> ids;
    {
      Tracer::Span span(tracer, "core.build", unit);
      kernel = std::make_unique<Kernel>(hw, config);
      ids = SpawnTaskSet(*kernel, deployed, BandsFromPartition(breakdown.partition));
      kernel->Start();
    }
    {
      Tracer::Span span(tracer, "core.RunUntil", unit);
      kernel->RunUntil(Instant() + Seconds(8));
    }
    TaskSetRunStats run = CollectRunStats(*kernel, ids);
    jobs_total += run.jobs_completed;
    misses_total += run.deadline_misses;

    if (tracer != nullptr) {
      TimeObsReplays(tracer, *kernel, unit);
      CountKernelStats(tracer, kernel->stats());
      CountTrace(tracer, *kernel);
      tracer->Add("analysis.full_evals", static_cast<uint64_t>(search.full_evals));
      tracer->Add("analysis.bound_evals", static_cast<uint64_t>(search.bound_evals));
      tracer->Add("analysis.cache_hits", static_cast<uint64_t>(search.cache_hits));
      tracer->Add("analysis.pruned", static_cast<uint64_t>(search.pruned));
      tracer->Add("analysis.considered", static_cast<uint64_t>(search.considered));
    }

    Appendf(&units, "%s{\"tasks\": %d, \"utilization\": %.17g, \"partition\": [",
            i == 0 ? "" : ", ", sets[i].size(), breakdown.utilization);
    for (size_t b = 0; b < breakdown.partition.size(); ++b) {
      Appendf(&units, "%s%d", b == 0 ? "" : ", ", breakdown.partition[b]);
    }
    Appendf(&units, "], \"jobs_completed\": %llu, \"deadline_misses\": %llu}",
            static_cast<unsigned long long>(run.jobs_completed),
            static_cast<unsigned long long>(run.deadline_misses));
  }
  std::string out;
  Appendf(&out, "\"outcome\": {\"jobs_completed\": %llu, \"deadline_misses\": %llu}, \"units\": [",
          static_cast<unsigned long long>(jobs_total),
          static_cast<unsigned long long>(misses_total));
  return out + units + "]";
}

// Peak resident set of this process image in MB (VmHWM). Unlike
// getrusage's ru_maxrss, it does not inherit the high-water mark of the
// process that forked this one, so it is the workload's own peak.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin --workload fleet_long|torture_smp|csd_deploy --seed N "
               "--batch K [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  const char* seed_arg = nullptr;
  const char* batch_arg = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed_arg = argv[i + 1];
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch_arg = argv[i + 1];
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out = argv[i + 1];
    } else {
      return Usage();
    }
  }
  uint64_t seed = 0;
  uint64_t batch = 0;
  if (argc % 2 == 0 || !ParseU64(seed_arg, &seed) || !ParseU64(batch_arg, &batch)) {
    return Usage();
  }
  const uint64_t input_seed = Rng(seed).Fork(batch + 1).Next();

  Tracer tracer;
  Tracer* active = trace_out.empty() ? nullptr : &tracer;
  int64_t timed_start = 0;
  int64_t cpu_start = 0;
  std::string body;
  auto start_timed = [&] {
    timed_start = ClockNs(CLOCK_MONOTONIC);
    cpu_start = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  };
  if (workload == "fleet_long") {
    fleet::FleetOptions opt = FleetLongOptions(input_seed);
    start_timed();
    body = RunFleetLong(opt, active);
  } else if (workload == "torture_smp") {
    std::vector<fuzz::TortureOptions> runs = TortureSmpInputs(input_seed);
    start_timed();
    body = RunTortureSmp(runs, active);
  } else if (workload == "csd_deploy") {
    std::vector<TaskSet> sets = CsdDeployInputs(input_seed);
    start_timed();
    body = RunCsdDeploy(sets, active);
  } else {
    return Usage();
  }
  int64_t cpu_ns = ClockNs(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  int64_t wall_ns = ClockNs(CLOCK_MONOTONIC) - timed_start;
  double peak_rss_mb = PeakRssMb();
  if (peak_rss_mb <= 0) {
    std::fprintf(stderr, "perfbench_bin: cannot read VmHWM from /proc/self/status\n");
    return 1;
  }

  if (active != nullptr && !tracer.Write(trace_out)) {
    std::fprintf(stderr, "perfbench_bin: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"batch\": %llu, \"traced\": %s, "
      "\"timed_start_s\": %.9f, "
      "\"cpu_s\": %.9f, \"wall_s\": %.9f, \"peak_rss_mb\": %.6f, %s}\n",
      workload.c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(batch), active != nullptr ? "true" : "false",
      static_cast<double>(timed_start) / 1e9, static_cast<double>(cpu_ns) / 1e9,
      static_cast<double>(wall_ns) / 1e9, peak_rss_mb, body.c_str());
  return 0;
}

}  // namespace perfbench
}  // namespace emeralds

int main(int argc, char** argv) { return emeralds::perfbench::Main(argc, argv); }
