// Chain tour — end-to-end causal event-chain tracing on a deterministic
// sensor-to-actuator pipeline.
//
// Three declared chains cross the kernel's IPC surfaces:
//   irq-to-actuator:  fieldbus IRQ -> driver thread -> state-message write
//                     -> actuator's read (two hops, 15 ms SLO)
//   sensor-publish:   sensor task's job release -> its state-message write
//                     -> any reader (two hops, 20 ms SLO)
//   tick:             user timer -> counting-sem handoff to the pacer (one
//                     hop, 5 ms SLO)
//
// The kernel stamps each producing operation with a causal token and carries
// it through blocking/wakeup; obs::AnalyzeChains reconstructs the declared
// chains from the paired kChainEmit/kChainConsume events. The example prints
// per-chain latency breakdowns, re-verifies that every chain's end-to-end
// total equals the sum of its per-hop queue/exec totals exactly (the
// intervals telescope, so this is an equality, not a tolerance), and writes
// chain_tour.{trace.csv,perfetto.json,run.json,chains.json} into the current
// directory. Exit status is nonzero on any chain violation, orphan hop,
// incomplete verification, or a chain that never completed an instance.

#include <cstdio>
#include <vector>

#include "src/core/kernel.h"
#include "src/hal/hardware.h"
#include "src/obs/chains.h"
#include "src/obs/obs_report.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/trace_analyzer.h"

using namespace emeralds;

int main() {
  Hardware hw;
  KernelConfig config;
  config.scheduler = SchedulerSpec::Rm();
  config.cost_model = CostModel::MC68040_25MHz();
  config.trace_capacity = 16384;

  {
    char irq_channel[16];
    std::snprintf(irq_channel, sizeof(irq_channel), "irq:%d", kIrqFieldbus);
    ChainSpec irq_chain;
    irq_chain.name = "irq-to-actuator";
    irq_chain.deadline = Milliseconds(15);
    irq_chain.stages.push_back(ChainStageSpec{irq_channel, "driver"});
    irq_chain.stages.push_back(ChainStageSpec{"smsg:fieldbus", "actuator"});
    config.chains.push_back(irq_chain);

    ChainSpec sensor_chain;
    sensor_chain.name = "sensor-publish";
    sensor_chain.deadline = Milliseconds(20);
    sensor_chain.stages.push_back(ChainStageSpec{"release:sensor", "sensor"});
    sensor_chain.stages.push_back(ChainStageSpec{"smsg:state", ""});
    config.chains.push_back(sensor_chain);

    ChainSpec tick_chain;
    tick_chain.name = "tick";
    tick_chain.deadline = Milliseconds(5);
    tick_chain.stages.push_back(ChainStageSpec{"sem:tick", "pacer"});
    config.chains.push_back(tick_chain);
  }

  Kernel kernel(hw, config);
  kernel.EnableStatsSampling(Milliseconds(20), 32);

  SmsgId fieldbus = kernel.CreateStateMessage("fieldbus", 16, 2).value();
  SmsgId state = kernel.CreateStateMessage("state", 16, 2).value();
  SemId tick = kernel.CreateSemaphore("tick", 0).value();
  TimerId timer = kernel.CreateTimer("tick_timer", tick).value();
  std::vector<ThreadId> ids;

  // The fieldbus driver: woken by the IRQ, republishes the frame as a
  // state message. First hop of irq-to-actuator.
  ThreadParams driver;
  driver.name = "driver";
  driver.body = [fieldbus](ThreadApi api) -> ThreadBody {
    uint8_t frame[8] = {};
    for (;;) {
      Status s = co_await api.WaitIrq(kIrqFieldbus);
      if (s != Status::kOk) {
        break;
      }
      co_await api.Compute(Microseconds(150));
      ++frame[0];
      co_await api.StateWrite(fieldbus, std::span<const uint8_t>(frame, sizeof(frame)));
    }
  };
  ThreadId driver_id = kernel.CreateThread(driver).value();
  ids.push_back(driver_id);
  kernel.BindIrqThread(driver_id, kIrqFieldbus);

  // Periodic sensor: every job release publishes a fresh snapshot. Head of
  // sensor-publish (the job release itself is stage one).
  ThreadParams sensor;
  sensor.name = "sensor";
  sensor.period = Milliseconds(10);
  sensor.body = [state](ThreadApi api) -> ThreadBody {
    uint8_t sample[8] = {};
    for (;;) {
      co_await api.Compute(Microseconds(400));
      ++sample[0];
      co_await api.StateWrite(state, std::span<const uint8_t>(sample, sizeof(sample)));
      co_await api.WaitNextPeriod();
    }
  };
  ids.push_back(kernel.CreateThread(sensor).value());

  // Actuator: consumes both published states each period, completing the
  // final hop of irq-to-actuator and sensor-publish. Offset half a period
  // behind the sensor so a fresh snapshot is always waiting.
  ThreadParams actuator;
  actuator.name = "actuator";
  actuator.period = Milliseconds(10);
  actuator.first_release = Milliseconds(5);
  actuator.body = [fieldbus, state](ThreadApi api) -> ThreadBody {
    uint8_t buf[16];
    for (;;) {
      co_await api.StateRead(fieldbus, std::span<uint8_t>(buf, sizeof(buf)));
      co_await api.StateRead(state, std::span<uint8_t>(buf, sizeof(buf)));
      co_await api.Compute(Microseconds(250));
      co_await api.WaitNextPeriod();
    }
  };
  ids.push_back(kernel.CreateThread(actuator).value());

  // Pacer: drains the timer's counting semaphore — each timer fire is a
  // one-hop chain from the ISR-minted token to this acquire.
  ThreadParams pacer;
  pacer.name = "pacer";
  pacer.body = [tick](ThreadApi api) -> ThreadBody {
    for (;;) {
      Status s = co_await api.Acquire(tick);
      if (s != Status::kOk) {
        break;
      }
      co_await api.Compute(Microseconds(100));
    }
  };
  ids.push_back(kernel.CreateThread(pacer).value());

  kernel.Start();
  kernel.StartTimer(timer, Milliseconds(2), Milliseconds(8));

  // Drive for 200 ms, raising the fieldbus IRQ every 10 ms from the host —
  // a deterministic stand-in for a device model.
  for (int slice = 0; slice < 200; ++slice) {
    if (slice % 10 == 3) {
      hw.irq().Raise(kIrqFieldbus);
    }
    kernel.RunUntil(Instant() + Milliseconds(slice + 1));
  }

  obs::TraceAnalysis analysis = obs::AnalyzeTrace(kernel.trace());
  obs::ChainAnalysis chains = obs::AnalyzeChains(kernel.trace(), kernel.resolved_chains());

  std::printf("trace: %zu events retained, %llu dropped; invariants %s\n",
              kernel.trace().size(),
              static_cast<unsigned long long>(kernel.trace().dropped()),
              analysis.ok() ? "ok" : "VIOLATED");
  std::printf("chain stream: %llu emits, %llu consumes, %llu origins, %llu orphan hops\n",
              static_cast<unsigned long long>(chains.chain_emits),
              static_cast<unsigned long long>(chains.chain_consumes),
              static_cast<unsigned long long>(chains.origins_minted),
              static_cast<unsigned long long>(chains.orphan_hops));

  bool ok = analysis.ok() && chains.ok() && chains.complete_window &&
            chains.orphan_hops == 0;
  for (const obs::ChainReport& c : chains.chains) {
    std::printf("%-16s %s: %llu completed, %llu in flight, %llu overruns (SLO %.0f ms)\n",
                c.name.c_str(), c.resolved ? "resolved" : "UNRESOLVED",
                static_cast<unsigned long long>(c.completed),
                static_cast<unsigned long long>(c.incomplete),
                static_cast<unsigned long long>(c.overruns), c.deadline.micros_f() / 1000.0);
    if (!c.resolved || c.completed == 0) {
      ok = false;
      continue;
    }
    std::printf("  e2e: mean %.0f us, p99 <= %.0f us, max %.0f us\n", c.e2e.mean().micros_f(),
                c.e2e.PercentileBound(0.99).micros_f(), c.e2e.max().micros_f());
    // The telescoping identity: summed across completed instances, the
    // end-to-end latency equals the per-hop queue + exec latencies exactly.
    Duration hop_total;
    for (size_t k = 0; k < c.hops.size(); ++k) {
      const obs::ChainHopStats& h = c.hops[k];
      hop_total += h.queue.total() + h.exec.total();
      std::printf("  hop %zu (%s:%d): queue mean %.0f us, exec mean %.0f us\n", k + 1,
                  ChainEndpointKindToString(ChainEndpointKindOf(h.endpoint)),
                  ChainEndpointChannel(h.endpoint), h.queue.mean().micros_f(),
                  h.exec.mean().micros_f());
    }
    if (hop_total != c.e2e.total()) {
      std::printf("  ERROR: hop totals %.3f us != e2e total %.3f us\n", hop_total.micros_f(),
                  c.e2e.total().micros_f());
      ok = false;
    }
  }
  for (const obs::ChainViolation& v : chains.violations) {
    std::printf("CHAIN VIOLATION [%s] event %zu: %s\n",
                obs::ChainViolationKindToString(v.kind), v.event_index, v.detail.c_str());
  }

  std::FILE* csv = std::fopen("chain_tour.trace.csv", "w");
  if (csv != nullptr) {
    kernel.trace().ExportCsv(csv);
    std::fclose(csv);
  }
  std::FILE* pf = std::fopen("chain_tour.perfetto.json", "w");
  if (pf != nullptr) {
    obs::ExportPerfettoJson(kernel, pf);
    std::fclose(pf);
  }
  obs::ObsRunInfo info;
  info.label = "chain_tour";
  info.scheduler = "RM";
  info.run_duration = Milliseconds(200);
  obs::WriteObsRunReportFile("chain_tour.run.json", info, kernel, ids);
  obs::WriteChainsReportFile("chain_tour.chains.json", "chain_tour", chains);
  std::printf("wrote chain_tour.{trace.csv,perfetto.json,run.json,chains.json}\n");
  std::printf("chain verification: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
