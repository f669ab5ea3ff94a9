#ifndef DSSDDI_NET_JSON_H_
#define DSSDDI_NET_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dssddi::net {

/// Minimal JSON document tree, just enough for the HTTP front-end's
/// request bodies (`/v1/suggest`, `/admin/reload`). Parsed numbers are
/// kept as double — binary32 feature values printed with 9 significant
/// digits round-trip exactly through this representation, which is what
/// keeps served scores bit-identical across the wire. Numbers convert
/// with `std::from_chars`, which rounds correctly, so every value is the
/// one `strtod` gives; tokens it refuses (a leading '+', magnitudes
/// outside double's range) go through `strtod` itself.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  /// Integer view of a number. Values outside int64's range — including
  /// NaN, which fails both comparisons — return `fallback` instead of
  /// hitting the undefined float->int conversion (clients control this
  /// input; 1e300 must not be able to crash a UBSan-instrumented server).
  int64_t AsInt(int64_t fallback = 0) const {
    if (!is_number() || !(number_ >= -9223372036854775808.0) ||
        !(number_ < 9223372036854775808.0)) {
      return fallback;
    }
    return static_cast<int64_t>(number_);
  }
  const std::string& AsString() const { return string_; }

  /// Array elements (empty unless is_array()).
  const std::vector<JsonValue>& Items() const { return items_; }
  /// Object members in document order (empty unless is_object()).
  const std::vector<std::pair<std::string, JsonValue>>& Members() const {
    return members_;
  }
  /// First member named `key`, or nullptr.
  const JsonValue* Find(std::string_view key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses `text` (a complete JSON document) into `*out`. On failure
/// returns false and puts a position-annotated message in `*error`.
/// Nesting is limited to 64 levels; input size is the caller's limit
/// (the HTTP server already bounds body bytes).
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

/// `text` with JSON string escaping applied (no surrounding quotes).
std::string JsonEscape(std::string_view text);

/// Append-style JSON writer with automatic comma placement. Numbers are
/// printed with shortest-round-trip-safe precision: Float prints what
/// %.9g prints (exact for binary32), Double what %.17g prints (exact
/// for binary64), both through `std::to_chars`; NaN and infinities are
/// written as null.
/// Usage:
///   JsonWriter w;
///   w.BeginObject().Key("drugs").BeginArray().Int(3).Int(7).EndArray()
///    .Key("ok").Bool(true).EndObject();
///   w.str();
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view name);
  JsonWriter& String(std::string_view value);
  JsonWriter& Bool(bool value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Float(float value);
  JsonWriter& Null();

  const std::string& str() const { return out_; }
  /// Moves the document out; the writer is done after this.
  std::string Take();

 private:
  void BeforeValue();
  void AppendString(std::string_view text);

  std::string out_;
  /// One entry per open container: true until its first element lands.
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace dssddi::net

#endif  // DSSDDI_NET_JSON_H_
