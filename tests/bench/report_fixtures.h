// Report fixtures shared by the bench report tests: the committed baselines
// loaded from the source tree, and mutable member lookup for mutating them
// in place.

#ifndef TESTS_BENCH_REPORT_FIXTURES_H_
#define TESTS_BENCH_REPORT_FIXTURES_H_

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/base/json.h"

namespace emeralds {
namespace bench {

inline std::string SourcePath(const std::string& relative) {
  return std::string(EMERALDS_SOURCE_DIR) + "/" + relative;
}

inline JsonValue Parse(const std::string& text) {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(JsonParse(text, &root, &error)) << error;
  return root;
}

inline JsonValue Load(const std::string& relative) {
  std::string text;
  EXPECT_TRUE(ReadFile(SourcePath(relative), &text)) << relative;
  return Parse(text);
}

// Mutable member lookup; fails the test when the member is missing.
inline JsonValue& At(JsonValue& obj, const std::string& key) {
  for (auto& [name, value] : obj.object) {
    if (name == key) {
      return value;
    }
  }
  ADD_FAILURE() << "no member \"" << key << "\"";
  static JsonValue missing;
  return missing;
}

// The value at a dotted path such as "telemetry.chains[0].hops[1]"; fails
// the test when a step is missing.
inline JsonValue& AtPath(JsonValue& root, const std::string& path) {
  JsonValue* v = &root;
  std::stringstream steps(path);
  std::string step;
  while (std::getline(steps, step, '.')) {
    const size_t bracket = step.find('[');
    v = &At(*v, step.substr(0, bracket));
    if (bracket != std::string::npos) {
      const size_t index = std::stoul(step.substr(bracket + 1));
      if (index >= v->array.size()) {
        ADD_FAILURE() << path << ": no element " << index;
        static JsonValue missing;
        return missing;
      }
      v = &v->array[index];
    }
  }
  return *v;
}

}  // namespace bench
}  // namespace emeralds

#endif  // TESTS_BENCH_REPORT_FIXTURES_H_
