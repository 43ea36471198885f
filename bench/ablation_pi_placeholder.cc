// Ablation (Section 6.2's second optimization): the O(1) place-holder
// position swap for FP-queue priority inheritance versus the standard O(n)
// sorted re-insert.
//
// The scenario is the contended FP pair of Figure 6, repeated once per 50 ms
// with a sweep of blocked filler tasks lengthening the FP queue. Reported:
// pure priority-inheritance virtual time per contended pair, plus the swap /
// re-insert operation counts.
//
// Expected shape: the swap path is flat in queue length; the re-insert path
// grows linearly (two O(n) steps per pair).

#include <cstdio>

#include "src/core/kernel.h"
#include "src/hal/hardware.h"

namespace emeralds {
namespace {

struct PiCost {
  double pi_us;
  uint64_t swaps;
  uint64_t reinserts;
};

PiCost MeasurePi(SemMode mode, int queue_length) {
  Hardware hw;
  KernelConfig config;
  config.scheduler = SchedulerSpec::Rm();
  config.cost_model = CostModel::MC68040_25MHz();
  config.default_sem_mode = mode;
  config.trace_capacity = 0;
  Kernel kernel(hw, config);
  SemId sem = kernel.CreateSemaphoreWithMode("S", 1, mode).value();

  ThreadParams t2;
  t2.name = "T2";
  t2.period = Milliseconds(10);
  t2.body = [sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Acquire(sem);
      co_await api.Compute(Milliseconds(1));
      co_await api.Release(sem);
      co_await api.WaitNextPeriod(sem);
    }
  };
  kernel.CreateThread(t2);
  ThreadParams t1;
  t1.name = "T1";
  t1.period = Milliseconds(50);
  t1.body = [sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(8));
      co_await api.Acquire(sem);
      co_await api.Compute(Milliseconds(3));
      co_await api.Release(sem);
      co_await api.WaitNextPeriod();
    }
  };
  kernel.CreateThread(t1);
  // Fillers ranked *between* T2 and T1 (periods 11..49 ms), blocked beyond
  // the horizon — they are exactly the tasks a sorted re-insert must scan.
  for (int i = 0; i < queue_length - 2; ++i) {
    ThreadParams filler;
    filler.name = "filler";
    filler.period = Milliseconds(11 + (i % 38));
    filler.first_release = Seconds(100);
    filler.body = [](ThreadApi api) -> ThreadBody {
      for (;;) {
        co_await api.WaitNextPeriod();
      }
    };
    kernel.CreateThread(filler);
  }

  kernel.Start();
  // 20 contended pairs (one per 50 ms cycle).
  kernel.RunUntil(Instant() + Seconds(1));
  const KernelStats& stats = kernel.stats();
  double pairs = 20.0;
  return {stats.cycles().at(CycleBucket::kPi).micros_f() / pairs,
          stats.pi_swaps, stats.pi_reinserts};
}

}  // namespace
}  // namespace emeralds

int main() {
  using namespace emeralds;
  std::printf("FP-queue priority inheritance: place-holder swap vs sorted re-insert\n");
  std::printf("(PI virtual us per contended acquire/release pair)\n\n");
  std::printf("%4s | %12s %6s | %12s %10s\n", "n", "swap-mode us", "swaps", "reinsert us",
              "reinserts");
  for (int n = 4; n <= 32; n += 4) {
    PiCost swap = MeasurePi(SemMode::kCse, n);
    PiCost reinsert = MeasurePi(SemMode::kStandard, n);
    std::printf("%4d | %12.2f %6llu | %12.2f %10llu\n", n, swap.pi_us,
                static_cast<unsigned long long>(swap.swaps), reinsert.pi_us,
                static_cast<unsigned long long>(reinsert.reinserts));
  }
  std::printf("\nexpected shape: swap-mode flat (O(1) per PI step); re-insert linear in n\n");
  return 0;
}
