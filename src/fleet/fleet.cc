#include "src/fleet/fleet.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "src/base/assert.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/core/kernel.h"
#include "src/obs/blackbox.h"
#include "src/obs/obs_report.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace fleet {
namespace {

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Workload handles the thread bodies read through a pointer.
struct NodeState {
  SemId tick_sem;
  TimerId timer;
  MailboxId mbox;
  uint8_t payload[8] = {};
};

// One simulated node. Members are destroyed in reverse order: the
// evaluator (which reads the kernel's resolved chains) and the collector
// go first, then the kernel, and only then the workload handles its thread
// bodies point at and the hardware it runs on. The collector's sink holds
// the node's address, so a node is never copied or moved.
struct Node {
  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::unique_ptr<Hardware> hw;
  NodeState st;
  std::unique_ptr<Kernel> kernel;
  Instant end;
  NodeResult result;
  obs::AlertEngine alert_engine{kAlertConfig};
  std::unique_ptr<obs::TimeseriesCollector> ts;
  std::unique_ptr<obs::TraceEvaluator> evaluator;
};

// Every node's simulation is a pure function of (fleet seed, node index):
// all randomness flows from this fork, and nothing host-side
// (worker id, steal order, wall time) is ever consulted. Each window the
// node closes runs its alert rules and then goes to `on_window`.
void BuildNode(Node& node, const FleetOptions& opt, int index,
               obs::TimeseriesCollector::WindowSink on_window) {
  Rng topo = Rng(opt.seed).Fork(static_cast<uint64_t>(index) + 1);
  node.ts = std::make_unique<obs::TimeseriesCollector>(
      kTimeseriesWindow,
      [&node, index, on_window = std::move(on_window)](const obs::TelemetryWindow& w) {
        node.alert_engine.Observe(w, index, &node.result.alerts);
        on_window(w);
      });
  // Overload injection: the multiplier is applied *after* every topology
  // draw below, so the Rng stream — and therefore every other node — is
  // bit-identical whether or not this node is the designated victim.
  int64_t overload = (index == opt.overload_node && opt.overload_factor > 1)
                         ? opt.overload_factor
                         : 1;

  KernelConfig config;
  switch (index % 4) {
    case 0:
      config.scheduler = SchedulerSpec::Edf();
      node.result.scheduler = "EDF";
      break;
    case 1:
      config.scheduler = SchedulerSpec::Rm();
      node.result.scheduler = "RM";
      break;
    case 2:
      config.scheduler = SchedulerSpec::Csd(2);
      node.result.scheduler = "CSD-2";
      break;
    default:
      config.scheduler = SchedulerSpec::Csd(3);
      node.result.scheduler = "CSD-3";
      break;
  }
  int dp_bands = 0;
  for (size_t i = 0; i < config.scheduler.bands.size(); ++i) {
    if (config.scheduler.bands[i] == QueueKind::kEdfList) {
      ++dp_bands;
    }
  }
  config.cost_model = CostModel::MC68040_25MHz();
  // The window never evicts: the fleet drains it at every slice boundary, so
  // storage follows the largest slice, and InspectNode keeps the whole run.
  // Either way every oracle sees a complete trace.
  config.trace_capacity = std::numeric_limits<size_t>::max();

  // Declared causal chains: the timer's tick into the pacer, and the
  // producer's release through the mailbox. Both carry SLOs so the fleet
  // report aggregates overruns, and both feed oracle 4.
  {
    ChainSpec tick;
    tick.name = "tick";
    tick.deadline = Milliseconds(5);
    tick.stages.push_back(ChainStageSpec{"sem:tick_sem", ""});
    config.chains.push_back(tick);

    ChainSpec pipe;
    pipe.name = "pipe";
    pipe.deadline = Milliseconds(topo.UniformInt(3, 6));
    pipe.stages.push_back(ChainStageSpec{"release:producer", "producer"});
    pipe.stages.push_back(ChainStageSpec{"mbox:pipe", ""});
    config.chains.push_back(pipe);
  }

  node.hw = std::make_unique<Hardware>();
  node.kernel = std::make_unique<Kernel>(*node.hw, config);
  Kernel& kernel = *node.kernel;
  node.evaluator = std::make_unique<obs::TraceEvaluator>(0, kernel.resolved_chains());
  NodeState* st = &node.st;

  st->tick_sem = kernel.CreateSemaphore("tick_sem", 0).value();
  st->mbox = kernel.CreateMailbox("pipe", static_cast<size_t>(topo.UniformInt(2, 4))).value();
  st->timer = kernel.CreateTimer("tick", st->tick_sem).value();
  kernel.StartTimer(st->timer, Microseconds(topo.UniformInt(100, 500)),
                    Microseconds(topo.UniformInt(400, 900)));

  // Pacer: aperiodic, paced by the user timer's counting semaphore. Its
  // acquire consumes the timer's chain token (the "tick" chain).
  {
    ThreadParams params;
    params.name = "pacer";
    Rng body_rng = topo.Fork(11);
    params.body = [st, body_rng](ThreadApi api) mutable -> ThreadBody {
      for (;;) {
        co_await api.Acquire(st->tick_sem);
        co_await api.Compute(Microseconds(body_rng.UniformInt(20, 60)));
      }
    };
    kernel.CreateThread(params);
  }

  // Producer: periodic sends into the pipe mailbox ("pipe" chain origin is
  // its job release).
  Duration producer_period = Microseconds(topo.UniformInt(1000, 3000));
  {
    ThreadParams params;
    params.name = "producer";
    params.period = producer_period;
    params.first_release = Microseconds(topo.UniformInt(0, 400));
    params.band = dp_bands > 0 ? 0 : -1;
    Duration cost = Microseconds(topo.UniformInt(100, 250) * overload);
    params.wcet = cost;
    params.body = [st, cost](ThreadApi api) -> ThreadBody {
      for (;;) {
        co_await api.Compute(cost);
        co_await api.TrySend(st->mbox, std::span<const uint8_t>(st->payload, 8));
        co_await api.WaitNextPeriod();
      }
    };
    kernel.CreateThread(params);
  }

  // Consumer: periodic receive with a timeout — the timeout path arms and
  // cancels a soft timer on nearly every job, so the timer queue sees steady
  // arm/cancel churn.
  {
    ThreadParams params;
    params.name = "consumer";
    Duration period = Microseconds(topo.UniformInt(2000, 5000));
    params.period = period;
    params.first_release = Microseconds(topo.UniformInt(0, 400));
    params.band = dp_bands > 1 ? 1 : (dp_bands > 0 ? 0 : -1);
    Duration cost = Microseconds(topo.UniformInt(150, 400) * overload);
    params.wcet = cost + period / 4;
    params.body = [st, cost, period](ThreadApi api) -> ThreadBody {
      uint8_t buffer[8];
      for (;;) {
        co_await api.Recv(st->mbox, std::span<uint8_t>(buffer, sizeof(buffer)), period / 4);
        co_await api.Compute(cost);
        co_await api.WaitNextPeriod();
      }
    };
    kernel.CreateThread(params);
  }

  // Sleeper: pure timer churn in the fixed-priority band.
  {
    ThreadParams params;
    params.name = "sleeper";
    Rng body_rng = topo.Fork(14);
    params.body = [body_rng](ThreadApi api) mutable -> ThreadBody {
      for (;;) {
        co_await api.Sleep(Microseconds(body_rng.UniformInt(200, 1500)));
        co_await api.Compute(Microseconds(10));
      }
    };
    kernel.CreateThread(params);
  }

  kernel.EnableStatsSampling(Milliseconds(2), 128);
  kernel.Start();
  node.end = Instant() + opt.run_duration;
}

// Feeds the records the node made since the last feed to its evaluator. The
// thread CPU it takes counts as evaluation.
void FeedTrace(Node& node) {
  const int64_t cpu_start = ThreadCpuNs();
  node.evaluator->Feed(node.kernel->trace().events());
  node.result.host_evaluate_ns += ThreadCpuNs() - cpu_start;
}

// Closes the node's trace evaluation, applies the six per-node oracles,
// scores the anomaly triage, collects the node's telemetry block, and closes
// its window series. The kernel has reached its horizon and is only read,
// so nothing here can perturb the simulated outcome or its digest.
void EvaluateNode(Node& node) {
  const int64_t cpu_start = ThreadCpuNs();
  const Kernel& kernel = *node.kernel;
  NodeResult& r = node.result;
  const KernelStats& s = kernel.stats();

  r.events = s.context_switches + s.syscalls + s.interrupts + s.timer_dispatches;
  r.jobs_completed = s.jobs_completed;
  r.deadline_misses = s.deadline_misses;
  r.timer_dispatches = s.timer_dispatches;
  r.headroom_low_events = s.headroom_low_events;
  r.virtual_time = kernel.now() - Instant();
  r.trace_storage_bytes = kernel.trace().storage_bytes();

  // Digest, invariants, chains and postmortem over every record the node made.
  obs::TraceEvaluation eval = node.evaluator->Finish();
  r.trace_digest = obs::FoldKernelCounters(eval.window_digest, s);
  r.records_by_type = eval.records_by_type;
  const obs::TraceAnalysis& analysis = eval.trace;
  obs::Reconciliation reconciliation = obs::ComputeReconciliation(analysis, s);
  const obs::ChainAnalysis& chains = eval.chains;
  for (const obs::ChainReport& c : chains.chains) {
    r.chain_completed += c.completed;
    r.chain_overruns += c.overruns;
  }
  const obs::PostmortemAnalysis& postmortem = eval.postmortem;
  r.blame = postmortem.blame;
  r.postmortem_incomplete = postmortem.incomplete_misses;
  CycleConservation conservation = CheckCycleConservation(s, kernel.now());
  int64_t unattributed =
      kernel.hardware().clock().ledger().at(CycleBucket::kUnattributed).nanos();

  if (!analysis.violations.empty()) {
    r.failure = "trace invariant violated: " + analysis.violations[0].detail;
  } else if (!reconciliation.checked || !reconciliation.ok()) {
    r.failure = "reconciliation mismatch (trace vs kernel counters)";
  } else if (conservation.residual.nanos() != 0 || unattributed != 0) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "cycle conservation violated: residual %lld ns, unattributed %lld ns",
                  static_cast<long long>(conservation.residual.nanos()),
                  static_cast<long long>(unattributed));
    r.failure = buf;
  } else if (!chains.violations.empty()) {
    r.failure = "chain token conservation: " + chains.violations[0].detail;
  } else if (chains.complete_window && chains.orphan_hops > 0) {
    r.failure = "chain token conservation: orphan hops in an untruncated trace";
  } else if (r.jobs_completed == 0 || r.timer_dispatches == 0 || s.mailbox_sends == 0) {
    r.failure = "progress oracle: node wedged (no jobs, timers, or messages)";
  } else if (postmortem.conservation_failures > 0 ||
             (!postmortem.window_truncated &&
              (postmortem.blame.unattributed_ns != 0 || postmortem.unmatched_misses > 0))) {
    r.failure = "lateness conservation: a miss ledger failed to telescope";
  }

  // Anomaly triage score: deterministic integer badness. Oracle failures
  // dominate everything; below them deadline misses outrank chain SLO
  // overruns outrank headroom warnings, with enough spread that counts of a
  // lesser class cannot outvote one of a greater class in realistic runs.
  r.anomaly_score = r.deadline_misses * 1000000 + r.chain_overruns * 10000 +
                    r.headroom_low_events * 100;
  if (!r.failure.empty()) {
    r.anomaly_score += 1000000000000ULL;
    r.anomaly = r.failure;
  } else if (r.deadline_misses > 0) {
    r.anomaly = "deadline misses";
  } else if (r.chain_overruns > 0) {
    r.anomaly = "chain SLO overruns";
  } else if (r.headroom_low_events > 0) {
    r.anomaly = "low deadline headroom";
  }

  r.telemetry = obs::CollectNodeTelemetry(kernel, analysis, chains);

  // Streaming plane: close the window series at the horizon, synthesizing
  // the tail interval; the sink sees the last windows.
  node.ts->Finish(kernel);
  r.timeseries_lost_samples = node.ts->lost_samples();
  r.host_evaluate_ns += ThreadCpuNs() - cpu_start;
}

}  // namespace

FleetResult RunFleet(const FleetOptions& opt) {
  EM_ASSERT_MSG(ThreadPool::CurrentWorker() == -1,
                "RunFleet must not be called from a pool worker");
  EM_ASSERT(opt.instances > 0);

  const size_t instances = static_cast<size_t>(opt.instances);
  std::vector<std::unique_ptr<Node>> nodes(instances);
  std::vector<NodeResult> results(instances);
  // Streaming plane: each window a node closes merges into the fleet series
  // under one lock, and its miss count waits for the fleet outlier rule.
  std::vector<obs::TelemetryWindow> windows;
  std::mutex windows_mutex;
  std::vector<std::vector<uint64_t>> window_misses(instances);

  auto wall_start = std::chrono::steady_clock::now();
  int resolved_workers = 0;
  {
    ThreadPool pool(opt.workers);
    resolved_workers = pool.worker_count();
    // Node slices re-enqueue themselves until the node's virtual horizon;
    // construction happens on the pool too, so a large fleet boots in
    // parallel. `step` outlives every task because pool.Wait() (via the
    // pool's scoped destruction) covers transitively submitted work.
    std::function<void(int)> step = [&](int index) {
      std::unique_ptr<Node>& slot = nodes[static_cast<size_t>(index)];
      if (slot == nullptr) {
        slot = std::make_unique<Node>();
        BuildNode(*slot, opt, index, [&, index](const obs::TelemetryWindow& w) {
          window_misses[static_cast<size_t>(index)].push_back(w.deadline_misses);
          std::lock_guard<std::mutex> lock(windows_mutex);
          obs::MergeWindowInto(&windows, w);
        });
      }
      Node& node = *slot;
      Kernel& kernel = *node.kernel;
      Instant target = std::min(node.end, kernel.now() + opt.slice);
      kernel.RunUntil(target);
      // Drain the snapshot ring at every slice boundary: the window series
      // materializes while the fleet runs, and the drain schedule is part of
      // the node's deterministic replay contract (InspectNode mirrors it).
      node.ts->Collect(kernel);
      // Evaluate the slice's trace records, then drop them: the node keeps
      // no whole-run trace, only its largest slice's storage.
      FeedTrace(node);
      kernel.trace().Drain();
      if (kernel.now() < node.end) {
        pool.Submit([&step, index] { step(index); });
      } else {
        // Evaluate on the worker that ran the final slice, then free the
        // node: memory is the budget at fleet scale.
        EvaluateNode(node);
        results[static_cast<size_t>(index)] = std::move(node.result);
        slot.reset();
      }
    };
    for (int i = 0; i < opt.instances; ++i) {
      pool.Submit([&step, i] { step(i); });
    }
    pool.Wait();
  }
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  FleetResult out;
  out.instances = opt.instances;
  out.workers = resolved_workers;
  out.seed = opt.seed;
  out.wall_seconds = wall_seconds;
  out.artifacts_dir = opt.artifacts_dir;
  uint64_t digest = kFnv1aOffsetBasis;
  for (size_t i = 0; i < results.size(); ++i) {
    const NodeResult& r = results[i];
    out.events_total += r.events;
    out.jobs_completed += r.jobs_completed;
    out.deadline_misses += r.deadline_misses;
    out.timer_dispatches += r.timer_dispatches;
    out.chain_completed += r.chain_completed;
    out.chain_overruns += r.chain_overruns;
    out.virtual_time_total = out.virtual_time_total + r.virtual_time;
    out.nodes_failed += r.ok() ? 0 : 1;
    out.nodes_anomalous += r.anomalous() ? 1 : 0;
    out.headroom_low_total += r.headroom_low_events;
    if (r.trace_storage_bytes > out.trace_storage_bytes_max) {
      out.trace_storage_bytes_max = r.trace_storage_bytes;
      out.trace_storage_bytes_worst_node = static_cast<int>(i);
    }
    for (size_t t = 0; t < r.records_by_type.size(); ++t) {
      out.records_by_type[t] += r.records_by_type[t];
    }
    obs::MergeNodeTelemetry(&out.telemetry, r.telemetry, static_cast<int>(i));
    out.blame.Merge(r.blame);
    out.postmortem_incomplete_total += r.postmortem_incomplete;
    out.host_evaluate_ns_total += r.host_evaluate_ns;
    if (r.host_evaluate_ns > out.host_evaluate_ns_max) {
      out.host_evaluate_ns_max = r.host_evaluate_ns;
      out.host_evaluate_slowest_node = static_cast<int>(i);
    }
    digest = FoldWord(digest, r.trace_digest);
  }
  out.nodes = std::move(results);
  out.fleet_digest = digest;
  out.blame_digest = out.blame.Digest();
  double virtual_seconds = static_cast<double>(out.virtual_time_total.nanos()) / 1e9;
  out.events_per_virtual_sec =
      virtual_seconds > 0 ? static_cast<double>(out.events_total) / virtual_seconds : 0.0;
  out.events_per_wall_sec =
      wall_seconds > 0 ? static_cast<double>(out.events_total) / wall_seconds : 0.0;

  // Streaming plane, fleet-merged: the series merged as the nodes ran; the
  // cross-node outlier rule runs over every node's window miss counts and
  // the full alert stream is canonicalized. A firing alert marks its node
  // anomalous — that is what routes an alerting node into the black-box
  // selection below even when every oracle passed.
  out.windows = std::move(windows);
  for (const NodeResult& r : out.nodes) {
    out.timeseries_lost_samples += r.timeseries_lost_samples;
    out.alerts.insert(out.alerts.end(), r.alerts.begin(), r.alerts.end());
  }
  obs::EvaluateFleetOutlierAlerts(window_misses, kTimeseriesWindow, kAlertConfig, &out.alerts);
  for (const obs::AlertEvent& e : out.alerts) {
    if (!e.firing) {
      continue;
    }
    ++out.alerts_fired;
    if (e.node >= 0 && e.node < static_cast<int>(out.nodes.size())) {
      NodeResult& nr = out.nodes[static_cast<size_t>(e.node)];
      nr.anomaly_score += 500000;
      if (nr.anomaly.empty()) {
        nr.anomaly = std::string("alert firing: ") + obs::AlertRuleName(e.rule);
        ++out.nodes_anomalous;
      }
    }
  }

  // Black-box flight recorder: re-run the worst anomalous nodes serially and
  // bundle their forensic state. The fleet tore each node down right after
  // its horizon (memory is the budget at fleet scale), but a node is a pure
  // function of (seed, index), so the re-run reproduces the exact state —
  // digests are asserted to match.
  if (!opt.artifacts_dir.empty() && out.nodes_anomalous > 0 && opt.max_blackboxes > 0) {
    std::vector<int> worst;
    for (size_t i = 0; i < out.nodes.size(); ++i) {
      if (out.nodes[i].anomalous()) {
        worst.push_back(static_cast<int>(i));
      }
    }
    std::sort(worst.begin(), worst.end(), [&out](int a, int b) {
      const NodeResult& ra = out.nodes[static_cast<size_t>(a)];
      const NodeResult& rb = out.nodes[static_cast<size_t>(b)];
      if (ra.anomaly_score != rb.anomaly_score) {
        return ra.anomaly_score > rb.anomaly_score;
      }
      return a < b;
    });
    if (worst.size() > static_cast<size_t>(opt.max_blackboxes)) {
      worst.resize(static_cast<size_t>(opt.max_blackboxes));
    }
    for (int index : worst) {
      char label[32];
      std::snprintf(label, sizeof(label), "node-%d", index);
      std::string dir = opt.artifacts_dir + "/" + label;
      const NodeResult& fleet_view = out.nodes[static_cast<size_t>(index)];
      InspectNode(opt, index, [&](const Kernel& kernel, const NodeResult& r) {
        // Also checks the fleet's streamed evaluation against the re-run's
        // one-pass evaluation.
        EM_ASSERT_MSG(r.trace_digest == fleet_view.trace_digest,
                      "black-box re-run diverged from the fleet run");
        // The fleet-side anomaly carries alert-triggered reasons the
        // node-local replay cannot know about.
        obs::BlackBoxSnapshot box = obs::CaptureBlackBox(
            kernel, label, fleet_view.anomaly, NodeReproCommand(opt, index));
        obs::WriteBlackBoxBundle(box, dir);
      });
      out.blackbox_nodes.push_back(index);
    }
  }
  return out;
}

NodeResult InspectNode(const FleetOptions& opt, int index,
                       const std::function<void(const Kernel&, const NodeResult&)>& visit) {
  EM_ASSERT(index >= 0 && index < opt.instances);
  Node node;
  BuildNode(node, opt, index,
            [&node](const obs::TelemetryWindow& w) { node.result.windows.push_back(w); });
  // Slice-stepped exactly like the fleet run — not one shot — so the
  // streaming collector drains at the same instants and the replayed window
  // series and alert stream are bit-identical to what the fleet saw (the
  // virtual outcome itself is slice-invariant; the drain schedule is not).
  while (node.kernel->now() < node.end) {
    Instant target = std::min(node.end, node.kernel->now() + opt.slice);
    node.kernel->RunUntil(target);
    node.ts->Collect(*node.kernel);
  }
  // The whole window stays for the visitor (Perfetto, CSV, black-box
  // bundles) and is evaluated in one pass, so a caller comparing this digest
  // with the fleet's checks the streamed evaluation against the one-pass one.
  FeedTrace(node);
  EvaluateNode(node);
  if (visit) {
    visit(*node.kernel, node.result);
  }
  return std::move(node.result);
}

obs::PerfettoExportOptions NodePerfettoOptions(const Kernel& kernel, const NodeResult& result,
                                               int index) {
  obs::PerfettoExportOptions options;
  options.process_name = "node-" + std::to_string(index);
  options.pid = index + 1;
  options.thread_names = obs::KernelThreadNames(kernel);
  for (const obs::AlertEvent& e : result.alerts) {
    options.instants.push_back(obs::PerfettoInstantMarker{
        e.time, std::string(obs::AlertRuleName(e.rule)) + (e.firing ? " FIRING" : " resolved")});
  }
  return options;
}

std::string NodeReproCommand(const FleetOptions& options, int index) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "fleet_inspect --instances=%d --seed=%llu --run-ms=%lld --slice-ms=%lld --node=%d",
                options.instances, static_cast<unsigned long long>(options.seed),
                static_cast<long long>(options.run_duration.millis()),
                static_cast<long long>(options.slice.millis()), index);
  std::string cmd = buf;
  if (options.overload_node >= 0) {
    std::snprintf(buf, sizeof(buf), " --overload-node=%d --overload-factor=%d",
                  options.overload_node, options.overload_factor);
    cmd += buf;
  }
  return cmd;
}

}  // namespace fleet
}  // namespace emeralds
