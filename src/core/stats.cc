#include "src/core/stats.h"

#include <cstdio>
#include <iterator>

namespace emeralds {

const char* ChargeCategoryToString(ChargeCategory category) {
  switch (category) {
    case ChargeCategory::kScheduling:
      return "scheduling";
    case ChargeCategory::kContextSwitch:
      return "context_switch";
    case ChargeCategory::kSyscall:
      return "syscall";
    case ChargeCategory::kSemaphore:
      return "semaphore";
    case ChargeCategory::kPi:
      return "priority_inheritance";
    case ChargeCategory::kIpc:
      return "ipc";
    case ChargeCategory::kInterrupt:
      return "interrupt";
    case ChargeCategory::kTimerSvc:
      return "timer_service";
    case ChargeCategory::kStatsObs:
      return "stats_observability";
  }
  return "?";
}

namespace {

// The category each CycleBucket rolls up into, indexed by bucket; -1 for the
// buckets that are not kernel charges.
constexpr int kCategoryOfBucket[] = {
    -1,                                             // kUser
    static_cast<int>(ChargeCategory::kScheduling),  // kSchedSelect
    static_cast<int>(ChargeCategory::kScheduling),  // kSchedBlock
    static_cast<int>(ChargeCategory::kScheduling),  // kSchedUnblock
    static_cast<int>(ChargeCategory::kScheduling),  // kSchedParse
    static_cast<int>(ChargeCategory::kContextSwitch),
    static_cast<int>(ChargeCategory::kSyscall),
    static_cast<int>(ChargeCategory::kSemaphore),
    static_cast<int>(ChargeCategory::kPi),
    static_cast<int>(ChargeCategory::kIpc),
    static_cast<int>(ChargeCategory::kInterrupt),  // kIrq
    static_cast<int>(ChargeCategory::kTimerSvc),
    static_cast<int>(ChargeCategory::kStatsObs),
    static_cast<int>(ChargeCategory::kInterrupt),  // kIpi
    -1,                                            // kIdle
    -1,                                            // kUnattributed
};
static_assert(std::size(kCategoryOfBucket) == kNumCycleBuckets,
              "every CycleBucket needs a roll-up entry");

}  // namespace

Duration ChargedIn(const CycleLedger& ledger, ChargeCategory category) {
  Duration sum;
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    if (kCategoryOfBucket[b] == static_cast<int>(category)) {
      sum += ledger.buckets[b];
    }
  }
  return sum;
}

CycleLedger KernelStats::cycles() const {
  CycleLedger sum;
  for (int c = 0; c < num_cores; ++c) {
    for (int b = 0; b < kNumCycleBuckets; ++b) {
      sum.buckets[b] += core_cycles[c].buckets[b];
    }
  }
  return sum;
}

Duration KernelStats::total_charged() const {
  CycleLedger ledger = cycles();
  Duration total;
  for (int c = 0; c < kNumChargeCategories; ++c) {
    total += ChargedIn(ledger, static_cast<ChargeCategory>(c));
  }
  return total;
}

CycleConservation CheckCycleConservation(const KernelStats& stats, Instant now) {
  CycleConservation c;
  c.elapsed = (now - stats.cycles_epoch) * stats.num_cores;
  c.ledger_total = stats.cycle_total();
  c.residual = c.elapsed - c.ledger_total;
  return c;
}

CycleConservation CheckCoreCycleConservation(const KernelStats& stats, int core, Instant now) {
  CycleConservation c;
  c.elapsed = now - stats.cycles_epoch;
  c.ledger_total = core >= 0 && core < kMaxStatCores ? stats.core_cycles[core].total() : Duration();
  c.residual = c.elapsed - c.ledger_total;
  return c;
}

void PrintKernelStats(const KernelStats& stats, std::FILE* out) {
  const CycleLedger ledger = stats.cycles();
  std::fprintf(out, "kernel time breakdown:\n");
  std::fprintf(out, "  %-22s %12.1f us\n", "application compute",
               ledger.at(CycleBucket::kUser).micros_f());
  std::fprintf(out, "  %-22s %12.1f us\n", "idle", ledger.at(CycleBucket::kIdle).micros_f());
  for (int c = 0; c < kNumChargeCategories; ++c) {
    Duration spent = ChargedIn(ledger, static_cast<ChargeCategory>(c));
    if (spent.is_positive()) {
      std::fprintf(out, "  %-22s %12.1f us\n",
                   ChargeCategoryToString(static_cast<ChargeCategory>(c)), spent.micros_f());
    }
  }
  std::fprintf(out, "cycle ledger (since epoch %lld us):\n",
               static_cast<long long>(stats.cycles_epoch.micros()));
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    if (ledger.buckets[b].is_positive()) {
      std::fprintf(out, "  %-22s %12.1f us\n",
                   CycleBucketToString(static_cast<CycleBucket>(b)),
                   ledger.buckets[b].micros_f());
    }
  }
  std::fprintf(out, "  %-22s %12.1f us\n", "ledger total", ledger.total().micros_f());
  std::fprintf(out, "scheduler: %llu selections, %llu context switches\n",
               static_cast<unsigned long long>(stats.selections),
               static_cast<unsigned long long>(stats.context_switches));
  std::fprintf(out, "jobs: %llu released, %llu completed, %llu deadline misses\n",
               static_cast<unsigned long long>(stats.jobs_released),
               static_cast<unsigned long long>(stats.jobs_completed),
               static_cast<unsigned long long>(stats.deadline_misses));
  std::fprintf(out,
               "semaphores: %llu acquires (%llu contended), PI %llu "
               "(swaps %llu, reinserts %llu), CSE saved %llu switches\n",
               static_cast<unsigned long long>(stats.sem_acquires),
               static_cast<unsigned long long>(stats.sem_contended),
               static_cast<unsigned long long>(stats.pi_inherits),
               static_cast<unsigned long long>(stats.pi_swaps),
               static_cast<unsigned long long>(stats.pi_reinserts),
               static_cast<unsigned long long>(stats.cse_switches_saved));
  std::fprintf(out,
               "chains: %llu e2e completions observed, %llu e2e overruns\n",
               static_cast<unsigned long long>(stats.chain_e2e_hist.count()),
               static_cast<unsigned long long>(stats.chain_e2e_overruns));
  std::fprintf(out, "stats snapshots: %llu unread snapshots dropped\n",
               static_cast<unsigned long long>(stats.stats_snapshot_drops));
  std::fprintf(out,
               "ipc: %llu mailbox sends, %llu receives; %llu state-msg writes, "
               "%llu reads (%llu retries)\n",
               static_cast<unsigned long long>(stats.mailbox_sends),
               static_cast<unsigned long long>(stats.mailbox_receives),
               static_cast<unsigned long long>(stats.smsg_writes),
               static_cast<unsigned long long>(stats.smsg_reads),
               static_cast<unsigned long long>(stats.smsg_read_retries));
}

StatsDelta MakeStatsDelta(Instant now, const KernelStats& current, const KernelStats& base) {
  StatsDelta d;
  d.time = now;
  d.sem_path_time = current.sem_path_time - base.sem_path_time;
  const CycleLedger now_cycles = current.cycles();
  const CycleLedger base_cycles = base.cycles();
  for (int b = 0; b < kNumCycleBuckets; ++b) {
    d.cycles.buckets[b] = now_cycles.buckets[b] - base_cycles.buckets[b];
  }
  d.context_switches = current.context_switches - base.context_switches;
  d.jobs_released = current.jobs_released - base.jobs_released;
  d.jobs_completed = current.jobs_completed - base.jobs_completed;
  d.deadline_misses = current.deadline_misses - base.deadline_misses;
  d.sem_acquires = current.sem_acquires - base.sem_acquires;
  d.sem_contended = current.sem_contended - base.sem_contended;
  d.pi_inherits = current.pi_inherits - base.pi_inherits;
  d.cse_switches_saved = current.cse_switches_saved - base.cse_switches_saved;
  d.interrupts = current.interrupts - base.interrupts;
  d.timer_dispatches = current.timer_dispatches - base.timer_dispatches;
  d.headroom_low_events = current.headroom_low_events - base.headroom_low_events;
  d.ipis = current.ipis - base.ipis;
  d.chain_e2e_overruns = current.chain_e2e_overruns - base.chain_e2e_overruns;
  d.chain_origins = current.chain_origins - base.chain_origins;
  d.stats_snapshot_drops = current.stats_snapshot_drops - base.stats_snapshot_drops;
  d.response_hist = Log2Histogram::Delta(current.response_hist, base.response_hist);
  d.headroom_hist = Log2Histogram::Delta(current.headroom_hist, base.headroom_hist);
  d.chain_e2e_hist = Log2Histogram::Delta(current.chain_e2e_hist, base.chain_e2e_hist);
  return d;
}

bool StatsSampler::Sample(Instant now, const KernelStats& current) {
  bool unread = false;
  if (samples_.push_overwrite(MakeStatsDelta(now, current, last_))) {
    // The push evicted the oldest sample, global index dropped_.
    unread = dropped_ >= read_through_;
    ++dropped_;
  }
  last_ = current;
  return unread;
}

}  // namespace emeralds
