// Virtual-cycle attribution buckets.
//
// Every advance of the virtual clock is tagged with a CycleBucket naming the
// subsystem that consumed the time — the runtime analogue of the paper's
// Table 1 / Figure 3-5 overhead ledger. The buckets partition elapsed virtual
// time exactly: the hard conservation invariant (checked by the trace
// analyzer, obs_report reconciliation, and the torture harness's fourth
// oracle) is that the bucket sum equals elapsed virtual time to the tick.

#ifndef SRC_HAL_CYCLES_H_
#define SRC_HAL_CYCLES_H_

#include "src/base/time.h"

namespace emeralds {

enum class CycleBucket : int {
  kUser = 0,        // application compute charged to the running task
  kSchedSelect,     // ready-queue select (t_s), any band
  kSchedBlock,      // ready-queue block (t_b), any band
  kSchedUnblock,    // ready-queue unblock (t_u), any band
  kSchedParse,      // CSD empty-queue parsing while hunting for work
  kContextSwitch,   // register save/restore, address-space switch
  kSyscall,         // user->kernel->user trap cost
  kSemaphore,       // semaphore bookkeeping (lock test, wait-queue linkage)
  kPi,              // priority-inheritance bookkeeping and place-holder swaps
  kIpc,             // mailbox/state-message copies and queue management
  kIrq,             // interrupt prologue/epilogue
  kTimerSvc,        // software-timer dispatch in the timer ISR
  kStatsObs,        // stats sampling / observability overhead
  kIpi,             // virtual inter-processor interrupt (cross-core wake)
  kIdle,            // no runnable thread
  kUnattributed,    // raw clock advances outside a kernel (hal tests, hosts)
};
inline constexpr int kNumCycleBuckets = static_cast<int>(CycleBucket::kUnattributed) + 1;

// Stable lowercase names, used as JSON keys in the emeralds.obs.cycles/1
// schema and as Perfetto counter-track names.
const char* CycleBucketToString(CycleBucket bucket);

// Fixed-size per-bucket accumulator. The clock owns a cumulative one
// (conservation by construction: total() == now - epoch 0); KernelStats
// stores an epoch-windowed one per core, which the oracles check.
struct CycleLedger {
  Duration buckets[kNumCycleBuckets] = {};

  void Add(CycleBucket bucket, Duration amount) {
    buckets[static_cast<int>(bucket)] += amount;
  }
  Duration at(CycleBucket bucket) const { return buckets[static_cast<int>(bucket)]; }
  Duration total() const {
    Duration sum;
    for (const Duration& d : buckets) {
      sum += d;
    }
    return sum;
  }
};

}  // namespace emeralds

#endif  // SRC_HAL_CYCLES_H_
