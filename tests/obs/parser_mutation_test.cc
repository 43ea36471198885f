// Seeded mutation test for the parsers that read files: the trace-CSV
// importer (ImportTraceCsv) and the JSON parser that bench_compare,
// bench_json_check and fleet_inspect read reports with.
//
// The corpus is the repo's committed inputs: bench/testdata/* and the
// BENCH_*.json baselines, found through EMERALDS_SOURCE_DIR. Each mutant is
// one to four byte flips, truncations and splices drawn from a seeded Rng,
// fed to both parsers. The oracle: a parser either succeeds or fails with a
// non-empty error, and a CSV it accepts re-imports to the same events and
// drop count after WriteTraceCsv. The iteration count is fixed and small
// enough for tier-1; the sanitizer builds run the same test.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/base/rng.h"
#include "src/hal/trace.h"
#include "src/obs/trace_csv.h"

namespace emeralds {
namespace obs {
namespace {

constexpr const char* kCorpus[] = {
    "bench/testdata/legacy_trace.csv", "bench/testdata/legacy_fleet_report.json",
    "BENCH_breakdown.json",            "BENCH_cycles.json",
    "BENCH_fleet.json",                "BENCH_smp.json",
};

std::string ReadSourceFile(const char* relative) {
  const std::string path = std::string(EMERALDS_SOURCE_DIR) + "/" + relative;
  std::string text;
  if (!ReadFile(path, &text)) {
    ADD_FAILURE() << "cannot open " << path;
  }
  return text;
}

std::vector<std::string> LoadCorpus() {
  std::vector<std::string> corpus;
  for (const char* file : kCorpus) {
    corpus.push_back(ReadSourceFile(file));
  }
  return corpus;
}

// Uniform in [0, n); n > 0.
size_t Pick(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

// One to four mutations of `text`: a flipped bit, a byte set to any value,
// a truncation, or a splice of a slice of some corpus file into any place,
// replacing up to 8 bytes there.
std::string Mutate(const std::string& text, const std::vector<std::string>& corpus, Rng& rng) {
  std::string out = text;
  const int mutations = static_cast<int>(rng.UniformInt(1, 4));
  for (int m = 0; m < mutations; ++m) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        if (!out.empty()) {
          out[Pick(rng, out.size())] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
        }
        break;
      case 1:
        if (!out.empty()) {
          out[Pick(rng, out.size())] = static_cast<char>(rng.UniformInt(0, 255));
        }
        break;
      case 2:
        out.resize(Pick(rng, out.size() + 1));
        break;
      default: {
        const std::string& donor = corpus[Pick(rng, corpus.size())];
        const size_t from = Pick(rng, donor.size());
        const size_t len = static_cast<size_t>(rng.UniformInt(1, 64));
        const size_t at = Pick(rng, out.size() + 1);
        const size_t replaced = static_cast<size_t>(rng.UniformInt(0, 8));
        out.replace(at, std::min(replaced, out.size() - at), donor, from, len);
        break;
      }
    }
  }
  return out;
}

bool SameEvents(const std::vector<TraceEvent>& a, const std::vector<TraceEvent>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].type != b[i].type || a[i].arg0 != b[i].arg0 ||
        a[i].arg1 != b[i].arg1 || a[i].arg2 != b[i].arg2) {
      return false;
    }
  }
  return true;
}

std::string WriteCsv(const TraceCsvImport& import) {
  char* data = nullptr;
  size_t size = 0;
  std::FILE* f = open_memstream(&data, &size);
  EXPECT_NE(f, nullptr);
  if (f == nullptr) {
    return "";
  }
  WriteTraceCsv(f, import.events, import.dropped);
  std::fclose(f);
  std::string text(data, size);
  std::free(data);
  return text;
}

// Applies the oracle to one input; returns false (with a test failure naming
// `what`) when it does not hold. `csv_accepted` counts accepted CSVs.
bool CheckInput(const std::string& input, const std::string& what, int* csv_accepted) {
  TraceCsvImport import;
  std::string error;
  if (ImportTraceCsv(input, &import, &error)) {
    ++*csv_accepted;
    TraceCsvImport again;
    std::string again_error;
    const std::string written = WriteCsv(import);
    if (!ImportTraceCsv(written, &again, &again_error)) {
      ADD_FAILURE() << what << ": the written CSV does not re-import: " << again_error;
      return false;
    }
    if (!SameEvents(again.events, import.events) || again.dropped != import.dropped) {
      ADD_FAILURE() << what << ": the CSV does not round-trip (" << import.events.size()
                    << " events, dropped " << import.dropped << " -> " << again.events.size()
                    << " events, dropped " << again.dropped << ")";
      return false;
    }
  } else if (error.empty()) {
    ADD_FAILURE() << what << ": ImportTraceCsv failed without an error";
    return false;
  }
  JsonValue doc;
  error.clear();
  if (!JsonParse(input, &doc, &error) && error.empty()) {
    ADD_FAILURE() << what << ": JsonParse failed without an error";
    return false;
  }
  return true;
}

TEST(ParserMutationTest, CommittedInputsParse) {
  const std::vector<std::string> corpus = LoadCorpus();
  TraceCsvImport import;
  std::string error;
  EXPECT_TRUE(ImportTraceCsv(corpus[0], &import, &error)) << kCorpus[0] << ": " << error;
  EXPECT_FALSE(import.events.empty());
  for (size_t i = 1; i < corpus.size(); ++i) {
    JsonValue doc;
    EXPECT_TRUE(JsonParse(corpus[i], &doc, &error)) << kCorpus[i] << ": " << error;
  }
}

// 1,500 mutants of every corpus file, each fed to both parsers.
TEST(ParserMutationTest, MutantsParseOrFailCleanlyAndAcceptedCsvRoundTrips) {
  const std::vector<std::string> corpus = LoadCorpus();
  Rng root(2024);
  int csv_accepted = 0;
  int failures = 0;
  for (size_t file = 0; file < corpus.size(); ++file) {
    Rng rng = root.Fork(file + 1);
    for (int i = 0; i < 1500 && failures < 5; ++i) {
      const std::string mutant = Mutate(corpus[file], corpus, rng);
      if (!CheckInput(mutant, std::string(kCorpus[file]) + " mutant " + std::to_string(i),
                      &csv_accepted)) {
        ++failures;
      }
    }
  }
  // Not vacuous: some mutants of the CSV still import, and round-trip.
  EXPECT_GT(csv_accepted, 50);
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
