#include "src/base/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace emeralds {

void JsonAppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void JsonAppendNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {  // JSON has no NaN/Inf
    *out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  *out += buf;
}

void JsonAppendInt(std::string* out, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  *out += buf;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : object) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out, 0)) {
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters");
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* what) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s at offset %zu", what, pos_);
    *error_ = buf;
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) {
      return Fail("invalid literal");
    }
    pos_ += len;
    return true;
  }

  bool ParseString(std::string* out) {
    if (text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) {
          break;
        }
        char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out->push_back(esc);
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_ + i];
              if (!std::isxdigit(static_cast<unsigned char>(h))) {
                return Fail("invalid \\u escape");
              }
              code = code * 16 +
                     static_cast<unsigned>(h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            pos_ += 4;
            // Decode as UTF-8. Surrogate halves (only reachable via escaped
            // astral-plane text, which no report writer emits) degrade to
            // '?' rather than producing ill-formed output.
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xc0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else if (code >= 0xd800 && code <= 0xdfff) {
              out->push_back('?');
            } else {
              out->push_back(static_cast<char>(0xe0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default:
            return Fail("invalid escape");
        }
      } else {
        out->push_back(c);
        ++pos_;
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{') {
      out->type = JsonValue::Type::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        SkipSpace();
        if (pos_ >= text_.size()) {
          return Fail("unterminated object");
        }
        std::string key;
        if (!ParseString(&key)) {
          return false;
        }
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail("expected ':'");
        }
        ++pos_;
        SkipSpace();
        JsonValue member;
        if (!ParseValue(&member, depth + 1)) {
          return false;
        }
        out->object.emplace_back(std::move(key), std::move(member));
        SkipSpace();
        if (pos_ >= text_.size()) {
          return Fail("unterminated object");
        }
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->type = JsonValue::Type::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        SkipSpace();
        JsonValue element;
        if (!ParseValue(&element, depth + 1)) {
          return false;
        }
        out->array.push_back(std::move(element));
        SkipSpace();
        if (pos_ >= text_.size()) {
          return Fail("unterminated array");
        }
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string);
    }
    if (c == 't') {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      out->type = JsonValue::Type::kNumber;
      size_t start = pos_;
      if (text_[pos_] == '-') {
        ++pos_;
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ < text_.size() && text_[pos_] == '.') {
        ++pos_;
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
      }
      if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
        if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
          ++pos_;
        }
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
      }
      if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
        return Fail("invalid number");
      }
      out->number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
      return true;
    }
    return Fail("unexpected character");
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

bool JsonParse(const std::string& text, JsonValue* out, std::string* error) {
  std::string unused;
  return JsonParser(text, error != nullptr ? error : &unused).Parse(out);
}

bool ReadFile(const std::string& path, std::string* text) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  text->clear();
  char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text->append(buf, got);
  }
  std::fclose(f);
  return true;
}

}  // namespace emeralds
