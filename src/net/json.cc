#include "net/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace dssddi::net {

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Parser: straightforward recursive descent over the full document.
// ---------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out, 0)) {
      if (error) *error = error_ + " at byte " + std::to_string(pos_);
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      if (error) *error = "trailing bytes after document at byte " +
                          std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* message) {
    error_ = message;
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word, size_t length) {
    if (text_.compare(pos_, length, word) != 0) return Fail("bad literal");
    pos_ += length;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of document");
    switch (text_[pos_]) {
      case 'n':
        out->kind_ = JsonValue::Kind::kNull;
        return Literal("null", 4);
      case 't':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        return Literal("true", 4);
      case 'f':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = false;
        return Literal("false", 5);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      // Parsed in place: nothing below touches out->items_ until this
      // element is done, so the reference stays valid.
      JsonValue& item = out->items_.emplace_back();
      if (!ParseValue(&item, depth + 1)) return false;
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected string key in object");
      }
      auto& [key, value] = out->members_.emplace_back();
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWs();
      if (!ParseValue(&value, depth + 1)) return false;
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      // Copy the run of plain bytes up to the next quote, escape or
      // control byte in one append.
      size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
             static_cast<unsigned char>(text_[run]) >= 0x20) {
        ++run;
      }
      out->append(text_, pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c != '\\') return Fail("raw control character in string");
      if (++pos_ >= text_.size()) return Fail("dangling escape");
      switch (text_[pos_++]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code;
          if (!ParseHex4(&code)) return false;
          // Surrogate pair -> one astral code point.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired high surrogate");
            }
            pos_ += 2;
            unsigned low;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  static bool IsNumberByte(char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    size_t end = start;
    while (end < text_.size() && IsNumberByte(text_[end])) ++end;
    if (end == start) return Fail("expected a value");
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + end;
    double value = 0.0;
    const std::from_chars_result parsed = std::from_chars(first, last, value);
    if (parsed.ec != std::errc() || parsed.ptr != last) {
      // from_chars refuses a few tokens strtod takes whole: a leading '+'
      // and magnitudes outside double's range (1e400 -> inf, 1e-400 -> 0).
      // strtod decides those, so every token keeps its old verdict and
      // value; a token neither takes whole is malformed.
      const std::string token(first, last);
      char* token_end = nullptr;
      value = std::strtod(token.c_str(), &token_end);
      if (token_end == token.c_str() || *token_end != '\0') {
        return Fail("malformed number");
      }
    }
    pos_ = end;
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = value;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  // Reset the output first: the element parsers append to items_/members_,
  // so parsing into a reused JsonValue would otherwise accumulate the
  // previous document's children ahead of the new ones (and Find, which
  // returns the first match, would keep answering from the stale parse).
  *out = JsonValue();
  return JsonParser(text).Parse(out, error);
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

namespace {

/// Appends `text` with JSON string escaping, copying runs of bytes that
/// need none in one append.
void AppendEscaped(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\"", 2); break;
      case '\\': out->append("\\\\", 2); break;
      case '\b': out->append("\\b", 2); break;
      case '\f': out->append("\\f", 2); break;
      case '\n': out->append("\\n", 2); break;
      case '\r': out->append("\\r", 2); break;
      case '\t': out->append("\\t", 2); break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
}

template <typename Int>
void AppendInt(Int value, std::string* out) {
  char buffer[24];
  const std::to_chars_result written =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, written.ptr);
}

/// What printf's %.<precision>g prints for `value` (to_chars in general
/// format is specified as exactly that); JSON has no inf/nan, so those
/// become null like most encoders write them.
void AppendGeneral(double value, int precision, std::string* out) {
  if (!std::isfinite(value)) {
    out->append("null", 4);
    return;
  }
  char buffer[32];
  const std::to_chars_result written =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, precision);
  out->append(buffer, written.ptr);
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(text, &out);
  return out;
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_.push_back(',');
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  if (!first_.empty()) {
    if (!first_.back()) out_.push_back(',');
    first_.back() = false;
  }
  AppendString(name);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  AppendString(value);
  return *this;
}

void JsonWriter::AppendString(std::string_view text) {
  out_.push_back('"');
  AppendEscaped(text, &out_);
  out_.push_back('"');
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  AppendInt(value, &out_);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  AppendInt(value, &out_);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  AppendGeneral(value, 17, &out_);
  return *this;
}

JsonWriter& JsonWriter::Float(float value) {
  BeforeValue();
  AppendGeneral(static_cast<double>(value), 9, &out_);
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

std::string JsonWriter::Take() { return std::move(out_); }

}  // namespace dssddi::net
