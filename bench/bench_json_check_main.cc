// CLI for the report validator (see bench_json_check.h):
//
//   bench_json_check <report.json>
//
// Exit status: 0 the report passes, 1 it fails a check (or cannot be read or
// parsed), 2 usage.

#include <cstdio>

#include "bench/bench_json_check.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_json_check <report.json>\n");
    return 2;
  }
  emeralds::bench::JsonCheckResult result = emeralds::bench::CheckReportFile(argv[1]);
  std::fputs(result.log.c_str(), result.ok ? stdout : stderr);
  return result.ok ? 0 : 1;
}
