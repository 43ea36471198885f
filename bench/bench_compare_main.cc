// CLI for the perf-regression gate (see bench_compare.h):
//
//   bench_compare <baseline.json> <candidate.json>
//
// Exit status: 0 within tolerance, 1 regression (or a report fails its own
// check), 2 usage / I/O / parse failure.

#include <cstdio>
#include <string>

#include "bench/bench_compare.h"

int main(int argc, char** argv) {
  using emeralds::bench::CompareReportFiles;
  using emeralds::bench::CompareResult;

  if (argc != 3) {
    std::fprintf(stderr, "usage: bench_compare <baseline.json> <candidate.json>\n");
    return 2;
  }
  const char* baseline = argv[1];
  const char* candidate = argv[2];

  CompareResult result = CompareReportFiles(baseline, candidate);
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  }
  // I/O and parse problems surface as failures mentioning the path; map the
  // "could not even compare" cases to exit 2.
  if (!result.ok) {
    for (const std::string& failure : result.failures) {
      if (failure.find("cannot open") != std::string::npos ||
          failure.find("does not parse") != std::string::npos) {
        return 2;
      }
    }
    // Reports that fail their own check (one FAIL line each) were not
    // compared: name their files.
    if (result.failures[0].find(" fails its own check: ") != std::string::npos) {
      for (const std::string& failure : result.failures) {
        std::fprintf(stderr, "bench_compare: %s fails its own check\n",
                     failure.starts_with("baseline") ? baseline : candidate);
      }
      return 1;
    }
    std::fprintf(stderr, "bench_compare: %s regressed against %s\n", candidate, baseline);
    return 1;
  }
  std::printf("OK: %s within tolerance of %s\n", candidate, baseline);
  return 0;
}
