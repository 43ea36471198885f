#include "src/fuzz/torture.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/base/rng.h"
#include "src/core/kernel.h"
#include "src/hal/hardware.h"
#include "src/obs/blackbox.h"
#include "src/obs/obs_report.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace fuzz {

const char* OpKindToString(OpKind kind) {
  switch (kind) {
    case OpKind::kCompute: return "compute";
    case OpKind::kSleep: return "sleep";
    case OpKind::kYield: return "yield";
    case OpKind::kLockChain: return "lock_chain";
    case OpKind::kCondWait: return "cond_wait";
    case OpKind::kCondSignal: return "cond_signal";
    case OpKind::kMboxSend: return "mbox_send";
    case OpKind::kMboxRecv: return "mbox_recv";
    case OpKind::kStateWrite: return "state_write";
    case OpKind::kStateRead: return "state_read";
    case OpKind::kTimerWait: return "timer_wait";
    case OpKind::kIrqWait: return "irq_wait";
    case OpKind::kFaultBadHandle: return "fault_bad_handle";
    case OpKind::kFaultPermission: return "fault_permission";
    case OpKind::kFaultOversized: return "fault_oversized";
  }
  return "?";
}

namespace {

// Everything the generated thread bodies share. Declared before the Kernel in
// RunTorture so it outlives the coroutine frames the kernel owns.
struct HarnessState {
  int limit = 0;
  int executed = 0;
  TortureCoverage coverage;
  uint64_t fault_mismatches = 0;
  std::string first_fault;

  std::vector<SemId> chain_sems;  // acquired in ascending order only
  SemId cv_mutex;
  CondvarId cv;
  std::vector<MailboxId> mailboxes;
  std::vector<SmsgId> smsgs;
  std::vector<size_t> smsg_sizes;
  SemId timer_sem;
  int irq_line = kIrqFieldbus;

  // Objects locked to process A; process-B threads probing them is the
  // deterministic permission-denial fault.
  SemId locked_sem;
  CondvarId locked_cv;
  MailboxId locked_mbox;
  SmsgId locked_smsg;
};

void CountStatus(HarnessState* st, Status status) {
  int index = -static_cast<int>(status);
  if (index >= 0 && index < 32) {
    ++st->coverage.status_counts[index];
  }
}

// Fault oracle: the injected fault must come back with exactly the status the
// syscall contract promises.
void ExpectStatus(HarnessState* st, const char* what, Status expect, Status got) {
  CountStatus(st, got);
  if (got != expect) {
    ++st->fault_mismatches;
    if (st->first_fault.empty()) {
      char line[160];
      std::snprintf(line, sizeof(line), "%s: expected %s, got %s", what, StatusToString(expect),
                    StatusToString(got));
      st->first_fault = line;
    }
  }
}

// Per-thread capabilities that gate which ops its schedule can draw.
struct ThreadRole {
  bool periodic = false;
  bool in_proc_b = false;   // may probe the locked objects
  bool irq_driver = false;  // bound to the fuzz IRQ line
  int writer_smsg = -1;     // index into smsgs this thread publishes, or -1
};

OpKind PickOp(Rng* rng, const ThreadRole& role) {
  int weights[kNumOpKinds] = {};
  weights[static_cast<int>(OpKind::kCompute)] = 16;
  weights[static_cast<int>(OpKind::kSleep)] = 10;
  weights[static_cast<int>(OpKind::kYield)] = 5;
  weights[static_cast<int>(OpKind::kLockChain)] = 16;
  weights[static_cast<int>(OpKind::kCondWait)] = 3;
  weights[static_cast<int>(OpKind::kCondSignal)] = 7;
  weights[static_cast<int>(OpKind::kMboxSend)] = 10;
  weights[static_cast<int>(OpKind::kMboxRecv)] = 10;
  weights[static_cast<int>(OpKind::kStateRead)] = 8;
  weights[static_cast<int>(OpKind::kStateWrite)] = role.writer_smsg >= 0 ? 8 : 0;
  weights[static_cast<int>(OpKind::kTimerWait)] = 1;
  weights[static_cast<int>(OpKind::kIrqWait)] = role.irq_driver ? 40 : 0;
  weights[static_cast<int>(OpKind::kFaultBadHandle)] = 4;
  weights[static_cast<int>(OpKind::kFaultPermission)] = role.in_proc_b ? 4 : 0;
  weights[static_cast<int>(OpKind::kFaultOversized)] = role.writer_smsg >= 0 ? 2 : 0;
  int total = 0;
  for (int w : weights) {
    total += w;
  }
  int pick = static_cast<int>(rng->UniformInt(0, total - 1));
  for (int i = 0; i < kNumOpKinds; ++i) {
    pick -= weights[i];
    if (pick < 0) {
      return static_cast<OpKind>(i);
    }
  }
  return OpKind::kCompute;
}

// The generated thread body: an interpreter drawing ops from its private Rng
// stream until the *global* budget is spent. Budget consumption happens in
// executive order, so (seed, limit) fully determines every schedule.
ThreadBodyFactory MakeTortureBody(HarnessState* st, Rng stream, ThreadRole role) {
  return [st, stream, role](ThreadApi api) -> ThreadBody {
    Rng rng = stream;
    std::array<uint8_t, 192> scratch{};
    while (st->executed < st->limit) {
      ++st->executed;
      OpKind op = PickOp(&rng, role);
      ++st->coverage.op_counts[static_cast<int>(op)];
      switch (op) {
        case OpKind::kCompute:
          co_await api.Compute(Microseconds(rng.UniformInt(10, 300)));
          break;
        case OpKind::kSleep:
          co_await api.Sleep(Microseconds(rng.UniformInt(50, 1500)));
          break;
        case OpKind::kYield:
          co_await api.Yield();
          break;
        case OpKind::kLockChain: {
          // Ascending-id acquisition order keeps the random chains
          // deadlock-free while still nesting up to three levels deep.
          int n = static_cast<int>(st->chain_sems.size());
          int start = static_cast<int>(rng.UniformInt(0, n - 1));
          int len = std::min<int>(static_cast<int>(rng.UniformInt(1, 3)), n - start);
          int held = 0;
          for (int i = 0; i < len; ++i) {
            Status s = co_await api.Acquire(st->chain_sems[start + i]);
            CountStatus(st, s);
            if (s != Status::kOk) {
              break;
            }
            ++held;
          }
          if (held > 0) {
            co_await api.Compute(Microseconds(rng.UniformInt(5, 120)));
          }
          for (int i = held - 1; i >= 0; --i) {
            Status s = co_await api.Release(st->chain_sems[start + i]);
            CountStatus(st, s);
          }
          break;
        }
        case OpKind::kCondWait: {
          Status m = co_await api.Acquire(st->cv_mutex);
          CountStatus(st, m);
          if (m == Status::kOk) {
            Status w = co_await api.Wait(st->cv, st->cv_mutex);
            CountStatus(st, w);
            Status r = co_await api.Release(st->cv_mutex);
            CountStatus(st, r);
          }
          break;
        }
        case OpKind::kCondSignal: {
          Status m = co_await api.Acquire(st->cv_mutex);
          CountStatus(st, m);
          if (m == Status::kOk) {
            Status s = rng.Bernoulli(0.3) ? co_await api.Broadcast(st->cv)
                                          : co_await api.Signal(st->cv);
            CountStatus(st, s);
            Status r = co_await api.Release(st->cv_mutex);
            CountStatus(st, r);
          }
          break;
        }
        case OpKind::kMboxSend: {
          MailboxId mbox = st->mailboxes[rng.UniformInt(
              0, static_cast<int64_t>(st->mailboxes.size()) - 1)];
          size_t len = static_cast<size_t>(rng.UniformInt(0, 48));
          for (size_t i = 0; i < len; i += 8) {
            uint64_t word = rng.Next();
            std::memcpy(&scratch[i], &word, std::min<size_t>(8, len - i));
          }
          std::span<const uint8_t> payload(scratch.data(), len);
          Status s = rng.Bernoulli(0.3) ? co_await api.TrySend(mbox, payload)
                                        : co_await api.Send(mbox, payload);
          CountStatus(st, s);
          break;
        }
        case OpKind::kMboxRecv: {
          MailboxId mbox = st->mailboxes[rng.UniformInt(
              0, static_cast<int64_t>(st->mailboxes.size()) - 1)];
          // Short buffers on purpose: the kTruncated contract is part of
          // what the fuzzer exercises.
          static constexpr size_t kCaps[4] = {0, 8, 16, 64};
          size_t cap = kCaps[rng.UniformInt(0, 3)];
          int64_t flavor = rng.UniformInt(0, 9);
          Duration timeout;  // 0 = wait forever
          if (flavor < 2) {
            timeout = kNoWait;
          } else if (flavor < 9) {
            timeout = Microseconds(rng.UniformInt(100, 2000));
          }
          RecvResult r = co_await api.Recv(mbox, std::span<uint8_t>(scratch.data(), cap), timeout);
          CountStatus(st, r.status);
          break;
        }
        case OpKind::kStateWrite: {
          SmsgId smsg = st->smsgs[role.writer_smsg];
          size_t size = st->smsg_sizes[role.writer_smsg];
          size_t len = static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(size)));
          for (size_t i = 0; i < len; i += 8) {
            uint64_t word = rng.Next();
            std::memcpy(&scratch[i], &word, std::min<size_t>(8, len - i));
          }
          Status s = co_await api.StateWrite(smsg, std::span<const uint8_t>(scratch.data(), len));
          CountStatus(st, s);
          break;
        }
        case OpKind::kStateRead: {
          int idx = static_cast<int>(
              rng.UniformInt(0, static_cast<int64_t>(st->smsgs.size()) - 1));
          size_t size = st->smsg_sizes[idx];
          size_t cap = rng.Bernoulli(0.3) ? size / 2 : size;
          StateReadResult r =
              co_await api.StateRead(st->smsgs[idx], std::span<uint8_t>(scratch.data(), cap));
          CountStatus(st, r.status);
          break;
        }
        case OpKind::kTimerWait: {
          // Paces on the user timer's counting semaphore; blocks until the
          // host-side injection schedule starts the timer.
          Status s = co_await api.Acquire(st->timer_sem);
          CountStatus(st, s);
          if (s == Status::kOk) {
            Status r = co_await api.Release(st->timer_sem);
            CountStatus(st, r);
          }
          break;
        }
        case OpKind::kIrqWait: {
          Status s = co_await api.WaitIrq(st->irq_line);
          CountStatus(st, s);
          break;
        }
        case OpKind::kFaultBadHandle: {
          int64_t variant = rng.UniformInt(0, 3);
          int bogus = static_cast<int>(rng.UniformInt(500, 5000));
          if (variant == 0) {
            Status s = co_await api.Acquire(SemId(bogus));
            ExpectStatus(st, "acquire(bad sem)", Status::kBadHandle, s);
          } else if (variant == 1) {
            Status s =
                co_await api.Send(MailboxId(bogus), std::span<const uint8_t>(scratch.data(), 4));
            ExpectStatus(st, "send(bad mailbox)", Status::kBadHandle, s);
          } else if (variant == 2) {
            RecvResult r = co_await api.Recv(MailboxId(bogus),
                                             std::span<uint8_t>(scratch.data(), 8), kNoWait);
            ExpectStatus(st, "recv(bad mailbox)", Status::kBadHandle, r.status);
          } else {
            StateReadResult r =
                co_await api.StateRead(SmsgId(bogus), std::span<uint8_t>(scratch.data(), 8));
            ExpectStatus(st, "state_read(bad smsg)", Status::kBadHandle, r.status);
          }
          break;
        }
        case OpKind::kFaultPermission: {
          int64_t variant = rng.UniformInt(0, 3);
          if (variant == 0) {
            Status s = co_await api.Acquire(st->locked_sem);
            ExpectStatus(st, "acquire(locked sem)", Status::kPermissionDenied, s);
          } else if (variant == 1) {
            Status s = co_await api.Send(st->locked_mbox,
                                         std::span<const uint8_t>(scratch.data(), 4));
            ExpectStatus(st, "send(locked mailbox)", Status::kPermissionDenied, s);
          } else if (variant == 2) {
            Status s = co_await api.Signal(st->locked_cv);
            ExpectStatus(st, "signal(locked condvar)", Status::kPermissionDenied, s);
          } else {
            Status s = co_await api.StateWrite(st->locked_smsg,
                                               std::span<const uint8_t>(scratch.data(), 4));
            ExpectStatus(st, "state_write(locked smsg)", Status::kPermissionDenied, s);
          }
          break;
        }
        case OpKind::kFaultOversized: {
          // Larger than the buffer was created with; must be refused before
          // the single-writer claim is taken.
          size_t size = st->smsg_sizes[role.writer_smsg];
          size_t len = std::min(scratch.size(), size + static_cast<size_t>(rng.UniformInt(1, 32)));
          Status s = co_await api.StateWrite(st->smsgs[role.writer_smsg],
                                             std::span<const uint8_t>(scratch.data(), len));
          ExpectStatus(st, "state_write(oversized)", Status::kInvalidArgument, s);
          break;
        }
      }
    }
    // Budget spent: periodic threads park on their release loop (keeping the
    // scheduler busy), aperiodic ones exit.
    while (role.periodic) {
      co_await api.WaitNextPeriod();
    }
  };
}

// One deterministic run: build the seeded topology, interpret the schedules,
// inject host-side events at slice boundaries, then return the still-live
// kernel to the caller's continuation via `finish`.
template <typename Finish>
void DriveTorture(const TortureOptions& opt, HarnessState* st, Finish finish) {
  Rng root(opt.seed);
  Rng topo = root.Fork(1);
  Rng inject = root.Fork(2);

  st->limit = opt.op_limit < 0 ? opt.ops : std::min(opt.op_limit, opt.ops);

  KernelConfig config;
  switch (topo.UniformInt(0, 3)) {
    case 0: config.scheduler = SchedulerSpec::Edf(); break;
    case 1: config.scheduler = SchedulerSpec::Rm(); break;
    case 2: config.scheduler = SchedulerSpec::Csd(2); break;
    default: config.scheduler = SchedulerSpec::Csd(3); break;
  }
  int dp_bands = 0;
  for (size_t i = 0; i < config.scheduler.bands.size(); ++i) {
    if (config.scheduler.bands[i] == QueueKind::kEdfList) {
      ++dp_bands;
    }
  }
  config.cost_model = CostModel::MC68040_25MHz();
  config.num_cores = opt.num_cores;
  config.default_sem_mode = topo.Bernoulli(0.5) ? SemMode::kCse : SemMode::kStandard;
  // Sized so the default window retains the whole run: overhead-span events
  // roughly triple the trace volume, and oracle 6's zero-unattributed demand
  // only binds on a complete window. This is a retention bound, not an
  // allocation: storage grows with the records a seed actually makes.
  config.trace_capacity =
      opt.tiny_trace_ring ? 128 : std::max<size_t>(49152, static_cast<size_t>(opt.ops) * 96);

  // Declared causal chains across the fuzz topology: the chain analyzer
  // reconstructs instances of these from the trace, and oracle 5 holds the
  // token stream itself to conservation regardless of what resolves.
  {
    char irq_channel[16];
    std::snprintf(irq_channel, sizeof(irq_channel), "irq:%d", kIrqFieldbus);
    ChainSpec irq_chain;
    irq_chain.name = "irq-driver";
    irq_chain.stages.push_back(ChainStageSpec{irq_channel, "fuzz_irq"});
    config.chains.push_back(irq_chain);

    ChainSpec timer_chain;
    timer_chain.name = "timer-sem";
    timer_chain.deadline = Milliseconds(50);
    timer_chain.stages.push_back(ChainStageSpec{"sem:timer_sem", ""});
    config.chains.push_back(timer_chain);

    ChainSpec pub_chain;
    pub_chain.name = "smsg-pub";
    pub_chain.stages.push_back(ChainStageSpec{"smsg:smsg", ""});
    config.chains.push_back(pub_chain);

    // Two-hop: the shepherd's periodic release through its timer-sem nudge.
    ChainSpec shepherd_chain;
    shepherd_chain.name = "shepherd-timer";
    shepherd_chain.stages.push_back(ChainStageSpec{"release:fuzz_shepherd", "fuzz_shepherd"});
    shepherd_chain.stages.push_back(ChainStageSpec{"sem:timer_sem", ""});
    config.chains.push_back(shepherd_chain);

    // Deliberately unresolvable: specs naming absent objects must be marked
    // unresolved, never fail the run.
    ChainSpec ghost;
    ghost.name = "ghost";
    ghost.stages.push_back(ChainStageSpec{"mbox:no_such_mailbox", ""});
    config.chains.push_back(ghost);
  }

  Hardware hw;
  Kernel kernel(hw, config);

  ProcessId proc_a = kernel.CreateProcess("fuzz_a").value();
  ProcessId proc_b = kernel.CreateProcess("fuzz_b").value();

  int num_chain = static_cast<int>(topo.UniformInt(3, 6));
  for (int i = 0; i < num_chain; ++i) {
    st->chain_sems.push_back(kernel.CreateSemaphore("chain").value());
  }
  st->cv_mutex = kernel.CreateSemaphore("cv_mutex").value();
  st->cv = kernel.CreateCondvar("cv").value();
  st->timer_sem = kernel.CreateSemaphore("timer_sem", 0).value();

  int num_mbox = static_cast<int>(topo.UniformInt(2, 3));
  for (int i = 0; i < num_mbox; ++i) {
    st->mailboxes.push_back(
        kernel.CreateMailbox("mbox", static_cast<size_t>(topo.UniformInt(1, 4))).value());
  }
  int num_smsg = 2;
  for (int i = 0; i < num_smsg; ++i) {
    size_t size = static_cast<size_t>(topo.UniformInt(4, 16)) * 8;
    int slots = static_cast<int>(topo.UniformInt(1, 3));  // 1 => lapped readers
    st->smsgs.push_back(kernel.CreateStateMessage("smsg", size, slots).value());
    st->smsg_sizes.push_back(size);
  }

  // Fault-plan objects. Creation-time contract checks ride along: a
  // zero-capacity mailbox must be refused outright.
  if (kernel.CreateMailbox("zero", 0).status() != Status::kInvalidArgument) {
    ++st->fault_mismatches;
    if (st->first_fault.empty()) {
      st->first_fault = "create_mailbox(depth 0) was not kInvalidArgument";
    }
  }
  AccessPolicy only_a = AccessPolicy::Only({proc_a});
  st->locked_sem = kernel.CreateSemaphore("locked_sem", 1, only_a).value();
  st->locked_cv = kernel.CreateCondvar("locked_cv", only_a).value();
  st->locked_mbox = kernel.CreateMailbox("locked_mbox", 2, only_a).value();
  st->locked_smsg = kernel.CreateStateMessage("locked_smsg", 16, 2, only_a).value();

  TimerId timer = kernel.CreateTimer("fuzz_timer", st->timer_sem).value();

  int num_threads = static_cast<int>(topo.UniformInt(5, 9));
  static constexpr int kPeriodsUs[6] = {2000, 3000, 5000, 8000, 12000, 20000};
  for (int i = 0; i < num_threads; ++i) {
    ThreadRole role;
    role.periodic = topo.Bernoulli(0.7);
    role.in_proc_b = topo.Bernoulli(0.4);
    for (int w = 0; w < num_smsg; ++w) {
      // One designated writer per state message (single-writer invariant).
      if (i == w) {
        role.writer_smsg = w;
      }
    }
    ThreadParams params;
    params.name = "fuzz";
    params.process = role.in_proc_b ? proc_b : proc_a;
    // Round-robin pinning keeps the assignment deterministic without a new
    // RNG draw: at num_cores == 1 every thread lands on core 0 and the
    // schedule replays bit-identically to the single-core harness.
    params.core = i % opt.num_cores;
    params.body = MakeTortureBody(st, root.Fork(1000 + static_cast<uint64_t>(i)), role);
    if (role.periodic) {
      params.period = Microseconds(kPeriodsUs[topo.UniformInt(0, 5)]);
      params.first_release = Microseconds(topo.UniformInt(0, 1000));
      if (dp_bands > 0 && topo.Bernoulli(0.6)) {
        params.band = static_cast<int>(topo.UniformInt(0, dp_bands - 1));
      }
    }
    kernel.CreateThread(params);
  }
  // The IRQ-driven driver thread: aperiodic, in process A, bound to the line
  // the host storms.
  {
    ThreadRole role;
    role.irq_driver = true;
    ThreadParams params;
    params.name = "fuzz_irq";
    params.process = proc_a;
    params.body = MakeTortureBody(st, root.Fork(2000), role);
    ThreadId driver = kernel.CreateThread(params).value();
    kernel.BindIrqThread(driver, st->irq_line);
  }
  // Shepherd: the generated threads can all wedge on blocking primitives
  // (everyone in a condvar wait, forever-receives on drained mailboxes,
  // timer-sem waits while the timer is stopped). This periodic thread nudges
  // every blocking primitive so the schedules keep consuming budget. It is
  // part of the deterministic workload, not host-side injection.
  {
    ThreadParams params;
    params.name = "fuzz_shepherd";
    params.process = proc_a;
    params.period = Milliseconds(2);
    params.body = [st](ThreadApi api) -> ThreadBody {
      uint8_t nudge = 0xee;
      uint8_t sink[1];
      for (;;) {
        co_await api.Acquire(st->cv_mutex);
        co_await api.Broadcast(st->cv);
        co_await api.Release(st->cv_mutex);
        co_await api.Release(st->timer_sem);
        for (MailboxId mbox : st->mailboxes) {
          // Send-then-drain: a blocked receiver gets a message, a blocked
          // sender gets a free slot, and the queue depth stays put.
          co_await api.TrySend(mbox, std::span<const uint8_t>(&nudge, 1));
          co_await api.Recv(mbox, std::span<uint8_t>(sink, 1), kNoWait);
        }
        co_await api.WaitNextPeriod();
      }
    };
    kernel.CreateThread(params);
  }

  kernel.EnableStatsSampling(Milliseconds(5), 128);
  kernel.Start();

  bool timer_running = false;
  // Virtual-time cap; the run ends earlier once the op budget drains. Blocked
  // threads (condvar waits, forever-receives) make op throughput bursty, so
  // the cap leaves generous headroom.
  const Instant end = Instant() + Seconds(20);
  int drain = -1;
  while (kernel.now() < end) {
    Instant next = std::min(end, kernel.now() + Milliseconds(1));
    kernel.RunUntil(next);
    // Host-side injections at the slice boundary, all drawn from the
    // dedicated injection stream so they replay exactly.
    if (inject.Bernoulli(0.25)) {
      hw.irq().Raise(st->irq_line);
      ++st->coverage.irq_storms;
    }
    if (inject.Bernoulli(0.04)) {
      kernel.ResetChargeAccounting();
      ++st->coverage.charge_resets;
    }
    if (inject.Bernoulli(0.06)) {
      if (timer_running) {
        kernel.StopTimer(timer);
      } else {
        kernel.StartTimer(timer, Microseconds(inject.UniformInt(100, 800)),
                          Microseconds(inject.UniformInt(300, 1200)));
      }
      timer_running = !timer_running;
      ++st->coverage.timer_toggles;
    }
    if (st->executed >= st->limit) {
      // Budget spent: let in-flight blocking ops resolve, then stop.
      if (drain < 0) {
        drain = 8;
      } else if (--drain == 0) {
        break;
      }
    }
  }

  finish(kernel);
}

}  // namespace

TortureResult RunTorture(const TortureOptions& options) {
  TortureResult result;
  result.seed = options.seed;
  HarnessState st;
  DriveTorture(options, &st, [&](Kernel& kernel) {
    // One pass over the window: digest, invariants, chains and postmortem.
    obs::TraceEvaluation eval = obs::EvaluateTrace(kernel.trace(), kernel.resolved_chains());
    const obs::TraceAnalysis& analysis = eval.trace;
    result.reconciliation = obs::ComputeReconciliation(analysis, kernel.stats());
    result.violations = analysis.violations.size();

    // Oracle 5: causal-token conservation (and declared-chain bookkeeping).
    const obs::ChainAnalysis& chains = eval.chains;
    result.chain_violations = chains.violations.size();
    result.chain_orphan_hops = chains.orphan_hops;
    result.chain_origins = chains.origins_minted;
    for (const obs::ChainReport& c : chains.chains) {
      result.chain_completed += c.completed;
    }
    std::string first_chain_violation;
    if (!chains.violations.empty()) {
      first_chain_violation = chains.violations[0].detail;
    } else if (chains.complete_window && chains.orphan_hops > 0) {
      first_chain_violation = "orphan hops in an untruncated trace";
    }
    // Oracle 6: conservation of lateness. Every miss ledger telescopes by
    // construction unless the engine mis-walked the trace; a complete window
    // must additionally attribute every nanosecond and match every miss.
    const obs::PostmortemAnalysis& postmortem = eval.postmortem;
    result.postmortem_misses = postmortem.misses_analyzed;
    result.postmortem_conservation_failures = postmortem.conservation_failures;
    result.postmortem_unattributed_ns = postmortem.blame.unattributed_ns;
    result.postmortem_unmatched = postmortem.unmatched_misses;
    result.postmortem_incomplete = postmortem.incomplete_misses;

    result.trace_retained = kernel.trace().size();
    result.trace_dropped = kernel.trace().dropped();
    result.trace_digest = obs::FoldKernelCounters(eval.window_digest, kernel.stats());
    result.virtual_time = kernel.now() - Instant();
    result.stats = kernel.stats();

    // Oracle 4: cycle conservation. Stats-window exactness survives the
    // mid-run charge resets (the epoch rebases with them), and the clock's
    // unattributed bucket catches any advance that bypassed the kernel.
    CycleConservation conservation = CheckCycleConservation(kernel.stats(), kernel.now());
    result.cycle_residual_ns = conservation.residual.nanos();
    result.cycle_unattributed_ns =
        kernel.hardware().clock().ledger().at(CycleBucket::kUnattributed).nanos();
    result.cycles_conserved = conservation.exact() && result.cycle_unattributed_ns == 0;
    // On SMP the fleet-summed check above is necessary but not sufficient:
    // each core's own ledger must also account for exactly the wall time
    // since the epoch (a cross-core mischarge can cancel in the sum).
    for (int c = 0; c < kernel.stats().num_cores; ++c) {
      CycleConservation per = CheckCoreCycleConservation(kernel.stats(), c, kernel.now());
      if (!per.exact()) {
        result.cycles_conserved = false;
        result.cycle_residual_ns = per.residual.nanos();
      }
    }

    if (result.violations > 0) {
      result.failure = "trace invariant violated: " + analysis.violations[0].detail;
    } else if (st.fault_mismatches > 0) {
      result.failure = "fault oracle: " + st.first_fault;
    } else if (result.trace_dropped == 0 &&
               (!result.reconciliation.checked || !result.reconciliation.ok())) {
      result.failure = "reconciliation mismatch (trace vs kernel counters)";
    } else if (result.trace_dropped > 0 && result.reconciliation.checked) {
      result.failure = "reconciliation claimed a truncated trace was checked";
    } else if (!result.cycles_conserved) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "cycle conservation violated: residual %lld ns, unattributed %lld ns",
                    static_cast<long long>(result.cycle_residual_ns),
                    static_cast<long long>(result.cycle_unattributed_ns));
      result.failure = buf;
    } else if (!first_chain_violation.empty()) {
      result.failure = "chain token conservation: " + first_chain_violation;
    } else if (result.postmortem_conservation_failures > 0 ||
               (!postmortem.window_truncated &&
                (result.postmortem_unattributed_ns != 0 || result.postmortem_unmatched > 0))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "lateness conservation violated: %llu ledger(s) failed, "
                    "unattributed %lld ns, %llu unmatched miss(es)",
                    static_cast<unsigned long long>(result.postmortem_conservation_failures),
                    static_cast<long long>(result.postmortem_unattributed_ns),
                    static_cast<unsigned long long>(result.postmortem_unmatched));
      result.failure = buf;
    }
  });
  result.ops_executed = st.executed;
  result.fault_mismatches = st.fault_mismatches;
  result.coverage = st.coverage;
  result.ok = result.failure.empty();
  return result;
}

bool ExportTortureTraceCsv(const TortureOptions& options, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  HarnessState st;
  DriveTorture(options, &st, [&](Kernel& kernel) { kernel.trace().ExportCsv(out); });
  std::fclose(out);
  return true;
}

bool ExportTortureBlackBox(const TortureOptions& options, const TortureResult& result,
                           const std::string& dir, const std::string& extra_repro) {
  char label[48];
  std::snprintf(label, sizeof(label), "torture-seed-%llu",
                static_cast<unsigned long long>(options.seed));
  std::string repro = ReproCommand(options);
  if (!extra_repro.empty()) {
    repro += "\n" + extra_repro;
  }
  bool ok = false;
  HarnessState st;
  DriveTorture(options, &st, [&](Kernel& kernel) {
    obs::BlackBoxSnapshot box = obs::CaptureBlackBox(
        kernel, label, result.failure.empty() ? "manual export" : result.failure, repro);
    ok = obs::WriteBlackBoxBundle(box, dir);
  });
  return ok;
}

int BisectSmallestFailing(int hi, const std::function<bool(int)>& fails) {
  int lo = 1;
  while (lo < hi) {
    int mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TortureOptions ShrinkFailingRun(const TortureOptions& options) {
  TortureOptions shrunk = options;
  int hi = options.op_limit < 0 ? options.ops : options.op_limit;
  shrunk.op_limit = BisectSmallestFailing(hi, [&](int limit) {
    TortureOptions probe = options;
    probe.op_limit = limit;
    return !RunTorture(probe).ok;
  });
  return shrunk;
}

std::string ReproCommand(const TortureOptions& options) {
  char line[256];
  int limit = options.op_limit < 0 ? options.ops : options.op_limit;
  char cores[32] = "";
  if (options.num_cores != 1) {
    std::snprintf(cores, sizeof(cores), " --num-cores=%d", options.num_cores);
  }
  std::snprintf(line, sizeof(line), "torture --seed=%llu --ops=%d --op-limit=%d%s%s",
                static_cast<unsigned long long>(options.seed), options.ops, limit,
                options.tiny_trace_ring ? " --tiny-ring" : "", cores);
  return line;
}

namespace {

void AppendKeyValue(std::string* out, const char* key, uint64_t value, bool* first) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s\"%s\": %llu", *first ? "" : ", ", key,
                static_cast<unsigned long long>(value));
  *first = false;
  *out += buffer;
}

}  // namespace

void AppendTortureRunJson(std::string* out, const TortureOptions& options,
                          const TortureResult& result) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "    {\"seed\": %llu, \"ok\": %s, \"ops_executed\": %d, "
                "\"violations\": %llu, \"fault_mismatches\": %llu,\n",
                static_cast<unsigned long long>(result.seed), result.ok ? "true" : "false",
                result.ops_executed, static_cast<unsigned long long>(result.violations),
                static_cast<unsigned long long>(result.fault_mismatches));
  *out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "     \"reconciliation\": {\"checked\": %s, \"ok\": %s},\n",
                result.reconciliation.checked ? "true" : "false",
                result.reconciliation.ok() ? "true" : "false");
  *out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "     \"cycles\": {\"conserved\": %s, \"residual_ns\": %lld, "
                "\"unattributed_ns\": %lld},\n",
                result.cycles_conserved ? "true" : "false",
                static_cast<long long>(result.cycle_residual_ns),
                static_cast<long long>(result.cycle_unattributed_ns));
  *out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "     \"trace\": {\"retained\": %llu, \"dropped\": %llu, \"digest\": "
                "\"%016llx\"},\n",
                static_cast<unsigned long long>(result.trace_retained),
                static_cast<unsigned long long>(result.trace_dropped),
                static_cast<unsigned long long>(result.trace_digest));
  *out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "     \"chains\": {\"violations\": %llu, \"orphan_hops\": %llu, "
                "\"completed\": %llu, \"origins\": %llu},\n",
                static_cast<unsigned long long>(result.chain_violations),
                static_cast<unsigned long long>(result.chain_orphan_hops),
                static_cast<unsigned long long>(result.chain_completed),
                static_cast<unsigned long long>(result.chain_origins));
  *out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "     \"postmortem\": {\"misses_analyzed\": %llu, "
                "\"conservation_failures\": %llu, \"unattributed_ns\": %lld, "
                "\"unmatched\": %llu, \"incomplete\": %llu},\n",
                static_cast<unsigned long long>(result.postmortem_misses),
                static_cast<unsigned long long>(result.postmortem_conservation_failures),
                static_cast<long long>(result.postmortem_unattributed_ns),
                static_cast<unsigned long long>(result.postmortem_unmatched),
                static_cast<unsigned long long>(result.postmortem_incomplete));
  *out += buffer;
  *out += "     \"ops\": {";
  bool first = true;
  for (int i = 0; i < kNumOpKinds; ++i) {
    AppendKeyValue(out, OpKindToString(static_cast<OpKind>(i)), result.coverage.op_counts[i],
                   &first);
  }
  *out += "},\n     \"statuses\": {";
  first = true;
  for (int i = 0; i < 32; ++i) {
    if (result.coverage.status_counts[i] > 0) {
      AppendKeyValue(out, StatusToString(static_cast<Status>(-i)),
                     result.coverage.status_counts[i], &first);
    }
  }
  *out += "},\n     \"stats\": {";
  first = true;
  AppendKeyValue(out, "context_switches", result.stats.context_switches, &first);
  AppendKeyValue(out, "jobs_completed", result.stats.jobs_completed, &first);
  AppendKeyValue(out, "deadline_misses", result.stats.deadline_misses, &first);
  AppendKeyValue(out, "sem_acquires", result.stats.sem_acquires, &first);
  AppendKeyValue(out, "mailbox_truncations", result.stats.mailbox_truncations, &first);
  AppendKeyValue(out, "pi_chain_limit_hits", result.stats.pi_chain_limit_hits, &first);
  AppendKeyValue(out, "smsg_read_retries", result.stats.smsg_read_retries, &first);
  AppendKeyValue(out, "interrupts", result.stats.interrupts, &first);
  *out += "},\n";
  std::snprintf(buffer, sizeof(buffer), "     \"repro\": \"%s\"}",
                ReproCommand(options).c_str());
  *out += buffer;
}

std::string BuildTortureReport(const std::vector<TortureOptions>& options,
                               const std::vector<TortureResult>& results) {
  std::string out;
  out += "{\n  \"schema\": \"";
  out += kTortureSchema;
  out += "\",\n  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    AppendTortureRunJson(&out, options[i], results[i]);
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"totals\": {";
  uint64_t failed = 0;
  uint64_t ops = 0;
  for (const TortureResult& r : results) {
    failed += r.ok ? 0 : 1;
    ops += static_cast<uint64_t>(r.ops_executed);
  }
  bool first = true;
  AppendKeyValue(&out, "runs", results.size(), &first);
  AppendKeyValue(&out, "failed", failed, &first);
  AppendKeyValue(&out, "ops_executed", ops, &first);
  out += "}\n}\n";
  return out;
}

}  // namespace fuzz
}  // namespace emeralds
