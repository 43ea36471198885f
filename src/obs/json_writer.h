// Tiny structural JSON writer over the shared JsonAppend* helpers: tracks
// whether a separator comma is due so sections can be emitted linearly.
// Shared by the obs run report and the cycles report.

#ifndef SRC_OBS_JSON_WRITER_H_
#define SRC_OBS_JSON_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/base/json.h"

namespace emeralds {
namespace obs {

class Json {
 public:
  void OpenObject() { Punct('{'); }
  void CloseObject() { Raw('}'); }
  void OpenArray() { Punct('['); }
  void CloseArray() { Raw(']'); }

  void Key(const char* name) {
    Sep();
    JsonAppendEscaped(&out_, name);
    out_ += ':';
    need_comma_ = false;  // the value follows with no comma
  }

  void String(const char* name, const std::string& value) {
    Key(name);
    JsonAppendEscaped(&out_, value);
    need_comma_ = true;
  }
  void Int(const char* name, int64_t value) {
    Key(name);
    JsonAppendInt(&out_, value);
    need_comma_ = true;
  }
  void Number(const char* name, double value) {
    Key(name);
    JsonAppendNumber(&out_, value);
    need_comma_ = true;
  }
  void Bool(const char* name, bool value) {
    Key(name);
    out_ += value ? "true" : "false";
    need_comma_ = true;
  }
  // A 64-bit digest as a "0x"-prefixed, 16-digit hex string.
  void Digest(const char* name, uint64_t value) {
    char hex[19];
    std::snprintf(hex, sizeof(hex), "0x%016llx", static_cast<unsigned long long>(value));
    String(name, hex);
  }
  void IntElem(int64_t value) {
    Sep();
    JsonAppendInt(&out_, value);
  }
  void NumberElem(double value) {
    Sep();
    JsonAppendNumber(&out_, value);
  }
  void StringElem(const std::string& value) {
    Sep();
    JsonAppendEscaped(&out_, value);
  }

  const std::string& str() const { return out_; }

 private:
  void Punct(char c) {
    Sep();
    out_ += c;
    need_comma_ = false;
  }
  void Raw(char c) {
    out_ += c;
    need_comma_ = true;
  }
  void Sep() {
    if (need_comma_) {
      out_ += ',';
    }
    need_comma_ = true;
  }

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_JSON_WRITER_H_
