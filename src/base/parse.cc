#include "src/base/parse.h"

#include <cerrno>
#include <cstdlib>

namespace emeralds {

bool ParseInt(const char* s, int64_t min, int64_t max, int64_t* out) {
  if (s == nullptr || *s == '\0') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < min || v > max) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseUint64(const char* s, uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace emeralds
