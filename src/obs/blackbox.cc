#include "src/obs/blackbox.h"

#include <filesystem>
#include <utility>

#include "src/core/kernel.h"
#include "src/obs/json_writer.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace obs {

BlackBoxSnapshot CaptureBlackBox(const Kernel& kernel, std::string label,
                                 std::string reason, std::string repro) {
  BlackBoxSnapshot box;
  box.label = std::move(label);
  box.reason = std::move(reason);
  box.repro = std::move(repro);
  box.now = kernel.now();

  const TraceSink& sink = kernel.trace();
  box.window.assign(sink.events().begin(), sink.events().end());
  box.dropped = sink.dropped();
  box.total_recorded = sink.total_recorded();
  box.thread_names = KernelThreadNames(kernel);
  box.stats = kernel.stats();

  TraceEvaluation eval = EvaluateTrace(sink, kernel.resolved_chains());
  box.chains = std::move(eval.chains);
  box.telemetry = CollectNodeTelemetry(kernel, eval.trace, box.chains);
  box.postmortem = std::move(eval.postmortem);

  if (const StatsSampler* sampler = kernel.stats_sampler()) {
    box.deltas_retained = sampler->size();
    box.deltas_dropped = sampler->dropped();
  }
  return box;
}

std::string BuildBlackBoxReport(const BlackBoxSnapshot& box) {
  Json j;
  j.OpenObject();
  j.String("schema", kObsBlackBoxSchema);
  j.String("label", box.label);
  j.String("reason", box.reason);
  j.String("repro", box.repro);
  j.Number("virtual_time_us", static_cast<double>(box.now.nanos()) / 1e3);

  j.Key("trace");
  j.OpenObject();
  j.Int("retained", static_cast<int64_t>(box.window.size()));
  j.Int("dropped", static_cast<int64_t>(box.dropped));
  j.Int("total_recorded", static_cast<int64_t>(box.total_recorded));
  j.CloseObject();

  j.Key("threads");
  j.OpenArray();
  for (const std::string& name : box.thread_names) {
    j.StringElem(name);
  }
  j.CloseArray();

  j.Key("stats");
  j.OpenObject();
  j.Int("context_switches", static_cast<int64_t>(box.stats.context_switches));
  j.Int("syscalls", static_cast<int64_t>(box.stats.syscalls));
  j.Int("jobs_released", static_cast<int64_t>(box.stats.jobs_released));
  j.Int("jobs_completed", static_cast<int64_t>(box.stats.jobs_completed));
  j.Int("deadline_misses", static_cast<int64_t>(box.stats.deadline_misses));
  j.Int("sem_acquires", static_cast<int64_t>(box.stats.sem_acquires));
  j.Int("mailbox_sends", static_cast<int64_t>(box.stats.mailbox_sends));
  j.Int("mailbox_receives", static_cast<int64_t>(box.stats.mailbox_receives));
  j.Int("interrupts", static_cast<int64_t>(box.stats.interrupts));
  j.Int("timer_dispatches", static_cast<int64_t>(box.stats.timer_dispatches));
  j.Int("headroom_low_events", static_cast<int64_t>(box.stats.headroom_low_events));
  j.CloseObject();

  j.Key("telemetry");
  AppendNodeTelemetrySection(j, box.telemetry);

  j.Key("chains");
  AppendChainsSection(j, box.chains);

  j.Key("postmortem");
  AppendPostmortemSection(j, box.postmortem, &box.chains);

  j.Key("snapshots");
  j.OpenObject();
  j.Int("count", static_cast<int64_t>(box.deltas_retained));
  j.Int("dropped", static_cast<int64_t>(box.deltas_dropped));
  j.CloseObject();

  j.CloseObject();
  return j.str() + "\n";
}

bool WriteBlackBoxBundle(const BlackBoxSnapshot& box, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  {
    std::FILE* out = std::fopen((dir + "/repro.txt").c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "%s\nlabel: %s\nreason: %s\n", box.repro.c_str(), box.label.c_str(),
                 box.reason.c_str());
    std::fclose(out);
  }
  {
    std::FILE* out = std::fopen((dir + "/trace.csv").c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    WriteTraceCsv(out, box.window, box.dropped);
    std::fclose(out);
  }
  {
    std::FILE* out = std::fopen((dir + "/blackbox.json").c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::string report = BuildBlackBoxReport(box);
    std::fwrite(report.data(), 1, report.size(), out);
    std::fclose(out);
  }
  return true;
}

}  // namespace obs
}  // namespace emeralds
