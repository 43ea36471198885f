// Strict decimal parsing for command-line flag values.

#ifndef SRC_BASE_PARSE_H_
#define SRC_BASE_PARSE_H_

#include <cstdint>

namespace emeralds {

// The whole string must be a base-10 integer in [min, max]. Rejects empty
// strings, trailing junk ("3x", "1,2") and overflow, all of which
// std::atoi silently accepted.
bool ParseInt(const char* s, int64_t min, int64_t max, int64_t* out);

// The same over the whole uint64 range (seeds print with %llu). The string
// must start with a digit: strtoull would wrap "-1" to UINT64_MAX.
bool ParseUint64(const char* s, uint64_t* out);

}  // namespace emeralds

#endif  // SRC_BASE_PARSE_H_
