// CLI for the deterministic torture harness.
//
//   torture --seed=7 --ops=2000            one run, verbose result
//   torture --runs=20 --ops=10000          seed sweep (seeds 1..20)
//   torture --budget-seconds=60            sweep until the wall-clock budget
//   torture --seed=7 --check-determinism   run twice, compare trace digests
//   torture --seed=7 --trace-csv=out.csv   export the run's trace
//   torture --runs=8 --json=report.json    machine-readable report
//   torture --artifacts-dir=out/           on failure, drop the black-box
//                                          bundle (repro.txt, trace.csv,
//                                          blackbox.json — the fleet flight-
//                                          recorder layout) and the report
//                                          JSON there (CI uploads them)
//   torture --runs=64 --jobs=8             parallel sweep on the work-stealing
//                                          pool; each worker drops its first
//                                          failure's bundle under
//                                          <artifacts-dir>/worker-N/
//   torture --num-cores=2                  partitioned-SMP runs: generated
//                                          threads pinned round-robin across
//                                          N virtual cores (1 = the classic
//                                          single-core harness, bit-identical
//                                          digests)
//
// On failure: prints the one-line repro command, shrinks the op budget by
// bisection, and exits 1. Runs are deterministic per (seed, options), so a
// --jobs sweep reports exactly what the serial sweep would.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/core/config.h"
#include "src/fuzz/torture.h"

namespace emeralds {
namespace fuzz {
namespace {

bool ParseFlag(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

void PrintResult(const TortureOptions& options, const TortureResult& result) {
  std::printf("seed=%llu %s ops=%d vtime=%lldus trace=%llu(+%llu dropped) digest=%016llx\n",
              static_cast<unsigned long long>(result.seed), result.ok ? "OK" : "FAIL",
              result.ops_executed, static_cast<long long>(result.virtual_time.micros()),
              static_cast<unsigned long long>(result.trace_retained),
              static_cast<unsigned long long>(result.trace_dropped),
              static_cast<unsigned long long>(result.trace_digest));
  if (!result.ok) {
    std::printf("  failure: %s\n", result.failure.c_str());
    std::printf("  repro:   %s\n", ReproCommand(options).c_str());
  }
}

int Run(int argc, char** argv) {
  TortureOptions base;
  int runs = 1;
  int jobs = 1;
  double budget_seconds = 0;
  const char* json_path = nullptr;
  const char* csv_path = nullptr;
  const char* artifacts_dir = nullptr;
  bool check_determinism = false;
  bool seed_given = false;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--seed", &v) && v != nullptr) {
      base.seed = std::strtoull(v, nullptr, 10);
      seed_given = true;
    } else if (ParseFlag(argv[i], "--ops", &v) && v != nullptr) {
      base.ops = std::atoi(v);
    } else if (ParseFlag(argv[i], "--op-limit", &v) && v != nullptr) {
      base.op_limit = std::atoi(v);
    } else if (ParseFlag(argv[i], "--runs", &v) && v != nullptr) {
      runs = std::atoi(v);
    } else if (ParseFlag(argv[i], "--jobs", &v) && v != nullptr) {
      jobs = std::atoi(v);
    } else if (ParseFlag(argv[i], "--budget-seconds", &v) && v != nullptr) {
      budget_seconds = std::atof(v);
    } else if (ParseFlag(argv[i], "--json", &v) && v != nullptr) {
      json_path = v;
    } else if (ParseFlag(argv[i], "--trace-csv", &v) && v != nullptr) {
      csv_path = v;
    } else if (ParseFlag(argv[i], "--artifacts-dir", &v) && v != nullptr) {
      artifacts_dir = v;
    } else if (ParseFlag(argv[i], "--no-faults", &v)) {
      base.inject_faults = false;
    } else if (ParseFlag(argv[i], "--no-irq-storms", &v)) {
      base.irq_storms = false;
    } else if (ParseFlag(argv[i], "--no-charge-resets", &v)) {
      base.charge_resets = false;
    } else if (ParseFlag(argv[i], "--num-cores", &v) && v != nullptr) {
      base.num_cores = std::atoi(v);
      if (base.num_cores < 1 || base.num_cores > kMaxCores) {
        std::fprintf(stderr, "--num-cores must be in [1, %d], got %s\n", kMaxCores, v);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--tiny-ring", &v)) {
      base.tiny_trace_ring = true;
    } else if (ParseFlag(argv[i], "--check-determinism", &v)) {
      check_determinism = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  if (check_determinism) {
    TortureResult a = RunTorture(base);
    TortureResult b = RunTorture(base);
    PrintResult(base, a);
    if (a.trace_digest != b.trace_digest) {
      std::printf("DETERMINISM FAIL: digests %016llx vs %016llx for seed=%llu\n",
                  static_cast<unsigned long long>(a.trace_digest),
                  static_cast<unsigned long long>(b.trace_digest),
                  static_cast<unsigned long long>(base.seed));
      return 1;
    }
    std::printf("determinism OK: two runs of seed=%llu produced identical digests\n",
                static_cast<unsigned long long>(base.seed));
    return a.ok ? 0 : 1;
  }

  if (csv_path != nullptr) {
    if (!ExportTortureTraceCsv(base, csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", csv_path);
      return 2;
    }
    std::printf("trace csv written to %s\n", csv_path);
  }

  std::vector<TortureOptions> all_options;
  std::vector<TortureResult> all_results;
  int failed = 0;
  auto start = std::chrono::steady_clock::now();
  // With an explicit --seed and no --runs the sweep is that single seed;
  // otherwise seeds count up from the base seed (default 1).
  int planned = (seed_given && runs == 1) ? 1 : runs;

  if (jobs > 1) {
    // Parallel sweep: seeds fan out over the work-stealing pool in waves (a
    // wave is all planned runs, or `jobs` seeds at a time under a wall-clock
    // budget). Each run writes its own result slot, so the collected report
    // is identical to the serial sweep's; per-worker state (the
    // first-failure artifact flag) is only ever touched by its own worker.
    ThreadPool pool(jobs);
    std::vector<uint8_t> worker_wrote_artifacts(static_cast<size_t>(pool.worker_count()), 0);
    int next = 0;
    for (;;) {
      int wave;
      if (budget_seconds > 0) {
        double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (next > 0 && elapsed >= budget_seconds) {
          break;
        }
        wave = jobs;
      } else {
        wave = planned - next;
        if (wave <= 0) {
          break;
        }
      }
      size_t first = all_results.size();
      for (int i = 0; i < wave; ++i) {
        TortureOptions options = base;
        options.seed = base.seed + static_cast<uint64_t>(next + i);
        all_options.push_back(options);
        all_results.emplace_back();
      }
      for (int i = 0; i < wave; ++i) {
        size_t slot = first + static_cast<size_t>(i);
        pool.Submit([&, slot] {
          all_results[slot] = RunTorture(all_options[slot]);
          const TortureResult& result = all_results[slot];
          if (!result.ok && artifacts_dir != nullptr) {
            int w = ThreadPool::CurrentWorker();
            if (w >= 0 && worker_wrote_artifacts[static_cast<size_t>(w)] == 0) {
              worker_wrote_artifacts[static_cast<size_t>(w)] = 1;
              // Each worker's first failure gets the standard black-box
              // bundle (repro.txt, trace.csv, blackbox.json) — the same
              // layout the fleet flight recorder writes.
              std::string dir =
                  std::string(artifacts_dir) + "/worker-" + std::to_string(w);
              ExportTortureBlackBox(all_options[slot], result, dir);
            }
          }
        });
      }
      pool.Wait();
      next += wave;
    }
    for (size_t i = 0; i < all_results.size(); ++i) {
      PrintResult(all_options[i], all_results[i]);
      if (!all_results[i].ok) {
        ++failed;
        if (failed == 1) {
          // Shrink only the first failure (it re-runs the seed many times);
          // the parallel sweep's other failures are usually the same bug.
          TortureOptions shrunk = ShrinkFailingRun(all_options[i]);
          std::printf("  shrunk:  %s\n", ReproCommand(shrunk).c_str());
        }
      }
    }
  } else {
    for (int i = 0;; ++i) {
      if (budget_seconds > 0) {
        double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (i > 0 && elapsed >= budget_seconds) {
          break;
        }
      } else if (i >= planned) {
        break;
      }
      TortureOptions options = base;
      options.seed = base.seed + static_cast<uint64_t>(i);
      TortureResult result = RunTorture(options);
      PrintResult(options, result);
      if (!result.ok) {
        ++failed;
        TortureOptions shrunk = ShrinkFailingRun(options);
        std::printf("  shrunk:  %s\n", ReproCommand(shrunk).c_str());
        // First failure wins the artifact slots: later failures of the same
        // sweep are almost always the same bug, and CI wants one clear repro.
        if (artifacts_dir != nullptr && failed == 1) {
          // Standard black-box bundle (repro.txt with the shrunk line
          // appended, trace.csv, blackbox.json) at the artifacts root.
          if (ExportTortureBlackBox(options, result, artifacts_dir,
                                    "shrunk: " + ReproCommand(shrunk))) {
            std::printf("  artifacts: %s/{repro.txt,trace.csv,blackbox.json}\n",
                        artifacts_dir);
          } else {
            std::fprintf(stderr, "cannot write bundle under %s\n", artifacts_dir);
          }
        }
      }
      all_options.push_back(options);
      all_results.push_back(result);
    }
  }

  if (artifacts_dir != nullptr && failed > 0) {
    std::string report_path = std::string(artifacts_dir) + "/torture-report.json";
    std::string report = BuildTortureReport(all_options, all_results);
    if (std::FILE* out = std::fopen(report_path.c_str(), "w")) {
      std::fwrite(report.data(), 1, report.size(), out);
      std::fclose(out);
    } else {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    }
  }

  if (json_path != nullptr) {
    std::string report = BuildTortureReport(all_options, all_results);
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fwrite(report.data(), 1, report.size(), out);
    std::fclose(out);
    std::printf("report written to %s\n", json_path);
  }

  std::printf("%zu run(s), %d failed\n", all_results.size(), failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fuzz
}  // namespace emeralds

int main(int argc, char** argv) { return emeralds::fuzz::Run(argc, argv); }
