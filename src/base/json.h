// Minimal JSON reading and writing shared by the reporting layers.
//
// The bench perf-trajectory reports (bench/bench_report.h) and the
// observability run reports (src/obs/obs_report.h) both emit JSON files that
// CI validates by re-parsing; this header holds the strict recursive-descent
// parser and the small append-style writer helpers they share.

#ifndef SRC_BASE_JSON_H_
#define SRC_BASE_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace emeralds {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Strict recursive-descent parse of one complete JSON document. On failure
// returns false and describes the problem (with a byte offset) in *error.
bool JsonParse(const std::string& text, JsonValue* out, std::string* error);

// Reads the whole file at `path` into *text. Returns false when the file
// cannot be opened.
bool ReadFile(const std::string& path, std::string* text);

// --- Writer helpers (append to a std::string buffer) ---

// Appends `s` as a quoted JSON string with the required escapes.
void JsonAppendEscaped(std::string* out, const std::string& s);

// Appends a finite double with %.10g; NaN/Inf (not representable) become 0.
void JsonAppendNumber(std::string* out, double value);

void JsonAppendInt(std::string* out, int64_t value);

}  // namespace emeralds

#endif  // SRC_BASE_JSON_H_
