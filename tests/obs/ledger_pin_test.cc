// Pins every report byte that reads the kernel's time accounting: the
// kernel stats, cycle ledgers, per-task rows, snapshot deltas, Perfetto
// counter tracks and the fleet's telemetry and window series. No digest
// covers these durations (FoldKernelCounters folds counters only), so a
// change to how a charge is stored or rolled up shows here first.
//
// Torture runs exercise mid-run ResetChargeAccounting, 5 ms snapshots and
// 1, 2 and 4 cores; the golden overloaded fleet exercises the fleet merge.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/kernel.h"
#include "src/fleet/fleet.h"
#include "src/fuzz/torture.h"
#include "src/hal/trace.h"
#include "src/obs/cycles_report.h"
#include "src/obs/json_writer.h"
#include "src/obs/obs_report.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/telemetry.h"
#include "src/obs/timeseries.h"

namespace emeralds {
namespace {

// Running Fnv1a over one output kind, across runs, with its byte count.
struct Pin {
  uint64_t hash = kFnv1aOffsetBasis;
  size_t bytes = 0;

  void Add(const std::string& text) {
    hash = Fnv1a(hash, text.data(), text.size());
    bytes += text.size();
  }
};

// Runs `write` against a temporary stream and returns what it wrote.
template <typename Fn>
std::string Captured(Fn write) {
  std::FILE* out = std::tmpfile();
  EXPECT_NE(out, nullptr);
  if (out == nullptr) {
    return {};
  }
  write(out);
  std::rewind(out);
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0) {
    text.append(buf, n);
  }
  std::fclose(out);
  return text;
}

TEST(LedgerPinTest, TortureReports) {
  Pin obs_run;
  Pin cycles;
  Pin kernel_stats;
  Pin perfetto;
  for (int cores : {1, 2, 4}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      fuzz::TortureOptions options;
      options.seed = seed;
      options.num_cores = cores;
      fuzz::InspectTorture(options, [&](const Kernel& kernel) {
        std::vector<ThreadId> ids;
        for (size_t i = 0; i < kernel.thread_count(); ++i) {
          ids.push_back(ThreadId(static_cast<int>(i)));
        }
        obs::ObsRunInfo info;
        info.label = "ledger_pin";
        info.scheduler = "CSD";
        info.run_duration = kernel.now() - Instant();
        obs_run.Add(obs::BuildObsRunReport(info, kernel, ids));
        cycles.Add(obs::BuildCyclesReport("ledger_pin", "CSD", kernel, ids));
        kernel_stats.Add(Captured([&](std::FILE* out) { PrintKernelStats(kernel.stats(), out); }));
        perfetto.Add(Captured([&](std::FILE* out) { obs::ExportPerfettoJson(kernel, out); }));
      });
    }
  }
  EXPECT_EQ(obs_run.bytes, 679247u);
  EXPECT_EQ(obs_run.hash, 0x9237db1f4e6ae09cULL);
  EXPECT_EQ(cycles.bytes, 30031u);
  EXPECT_EQ(cycles.hash, 0xd2533fb6c98751f0ULL);
  EXPECT_EQ(kernel_stats.bytes, 17939u);
  EXPECT_EQ(kernel_stats.hash, 0x35a6d01d3bb51dbeULL);
  EXPECT_EQ(perfetto.bytes, 8545333u);
  EXPECT_EQ(perfetto.hash, 0x998d9b951c398157ULL);
}

TEST(LedgerPinTest, OverloadedFleetSeries) {
  fleet::FleetOptions opt;
  opt.instances = 16;
  opt.workers = 4;
  opt.seed = 11;
  opt.run_duration = Milliseconds(200);
  opt.overload_node = 6;
  opt.overload_factor = 8;
  fleet::FleetResult result = fleet::RunFleet(opt);
  ASSERT_EQ(result.nodes_failed, 0);

  obs::Json timeseries;
  timeseries.OpenObject();
  obs::AppendTimeseriesSection(timeseries, result.windows, fleet::kTimeseriesWindow,
                               result.timeseries_lost_samples);
  timeseries.CloseObject();
  obs::Json telemetry;
  obs::AppendFleetTelemetrySection(telemetry, result.telemetry);

  Pin series;
  series.Add(timeseries.str());
  Pin fleet_telemetry;
  fleet_telemetry.Add(telemetry.str());
  // Re-pinned when the always-zero dropped-window count left the series:
  // the earlier 23,056-byte string with that 20-byte key erased folds to
  // these values.
  EXPECT_EQ(series.bytes, 23036u);
  EXPECT_EQ(series.hash, 0xe7ff69171d2bdf54ULL);
  // Re-pinned when the telemetry stopped repeating the run totals: the
  // earlier 2,449-byte string with jobs_completed, deadline_misses,
  // chain_overruns and headroom.low_events_total erased folds to these.
  EXPECT_EQ(fleet_telemetry.bytes, 2363u);
  EXPECT_EQ(fleet_telemetry.hash, 0xf13e4e0a71257a6cULL);
}

}  // namespace
}  // namespace emeralds
