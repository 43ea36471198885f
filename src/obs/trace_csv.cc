#include "src/obs/trace_csv.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace emeralds {
namespace obs {
namespace {

bool Fail(std::string* error, size_t line, const char* what) {
  if (error != nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "line %zu: %s", line, what);
    *error = buf;
  }
  return false;
}

// Splits `row` on commas into 4 or 5 fields, in place. Returns the field
// count (0 on malformed rows). Four-field rows are the legacy pre-arg2
// format and import with arg2 = 0.
int SplitRow(char* row, char* fields[5]) {
  int n = 0;
  char* p = row;
  fields[n++] = p;
  while (*p != '\0') {
    if (*p == ',') {
      *p = '\0';
      if (n == 5) {
        return 0;  // too many fields
      }
      fields[n++] = p + 1;
    }
    ++p;
  }
  return n >= 4 ? n : 0;
}

// Parses a whole field as a base-10 integer; false when it is not one.
// `*in_range` is false when the value does not fit in a long long.
bool ParseInt(const char* s, long long* out, bool* in_range) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(s, &end, 10);
  *in_range = errno != ERANGE;
  return end != s && *end == '\0';
}

// Parses a whole field as a base-10 count: digits only, no sign, and it must
// fit in a uint64_t.
bool ParseCount(const char* s, uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(*s))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(s, &end, 10);
  return errno != ERANGE && *end == '\0';
}

}  // namespace

bool ImportTraceCsv(const std::string& text, TraceCsvImport* out, std::string* error) {
  out->events.clear();
  out->dropped = 0;

  size_t pos = 0;
  size_t line_no = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    size_t len = (eol == std::string::npos ? text.size() : eol) - pos;
    std::string line = text.substr(pos, len);
    pos += len + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    // The row parsers read C strings: a NUL byte would end a row early and
    // hide the bytes after it.
    if (line.find('\0') != std::string::npos) {
      return Fail(error, line_no, "NUL byte");
    }
    if (line[0] == '#') {
      constexpr char kDropped[] = "# dropped=";
      if (line.compare(0, sizeof(kDropped) - 1, kDropped) == 0 &&
          !ParseCount(line.c_str() + sizeof(kDropped) - 1, &out->dropped)) {
        return Fail(error, line_no, "bad dropped count");
      }
      continue;  // other comments are ignored
    }
    if (!saw_header) {
      if (line != "time_us,event,arg0,arg1,arg2" && line != "time_us,event,arg0,arg1") {
        return Fail(error, line_no, "expected header \"time_us,event,arg0,arg1,arg2\"");
      }
      saw_header = true;
      continue;
    }

    char row[160];
    if (line.size() >= sizeof(row)) {
      return Fail(error, line_no, "row too long");
    }
    std::memcpy(row, line.c_str(), line.size() + 1);
    char* fields[5];
    int num_fields = SplitRow(row, fields);
    if (num_fields == 0) {
      return Fail(error, line_no, "expected 4 or 5 comma-separated fields");
    }
    // Instants are int64 nanoseconds and args int32: refuse what the
    // trace cannot represent rather than wrap or truncate it.
    constexpr long long kMaxTimeUs = std::numeric_limits<int64_t>::max() / 1000;
    long long time_us = 0;
    bool in_range = true;
    if (!ParseInt(fields[0], &time_us, &in_range)) {
      return Fail(error, line_no, "bad time_us");
    }
    if (!in_range || time_us > kMaxTimeUs || time_us < -kMaxTimeUs) {
      return Fail(error, line_no, "time_us out of range");
    }
    TraceEvent e;
    if (!TraceEventTypeFromString(fields[1], &e.type)) {
      return Fail(error, line_no, "unknown event type");
    }
    int32_t* args[] = {&e.arg0, &e.arg1, &e.arg2};
    for (int k = 0; k + 2 < num_fields; ++k) {
      long long arg = 0;
      if (!ParseInt(fields[k + 2], &arg, &in_range)) {
        return Fail(error, line_no, "bad arg");
      }
      if (!in_range || arg < std::numeric_limits<int32_t>::min() ||
          arg > std::numeric_limits<int32_t>::max()) {
        return Fail(error, line_no, "arg out of range");
      }
      *args[k] = static_cast<int32_t>(arg);
    }
    e.time = Instant::FromNanos(time_us * 1000);
    out->events.push_back(e);
  }
  if (!saw_header) {
    return Fail(error, line_no, "missing header");
  }
  return true;
}

bool ImportTraceCsv(std::FILE* in, TraceCsvImport* out, std::string* error) {
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    text.append(buf, n);
  }
  return ImportTraceCsv(text, out, error);
}

}  // namespace obs
}  // namespace emeralds
