// Minimal JSON support for the observability layer.
//
// Writer: a streaming emitter with automatic comma/colon placement, used by
// the metrics registry, the profiler, the trace JSONL sink and the run-result
// serializer.  Emits RFC 8259 JSON (UTF-8 pass-through, \uXXXX escapes for
// control characters); non-finite doubles are emitted as null so the output
// stays parseable by jq/pandas.
//
// Value/parse: a small recursive-descent parser, enough to round-trip what
// the Writer produces.  Used by the JSONL round-trip tests and available to
// tools; not meant as a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sstsp::obs::json {

/// Escapes a string for inclusion in a JSON document (no surrounding
/// quotes).
[[nodiscard]] std::string escape(std::string_view s);

/// Writes `v` into `buf` the way Writer::value(double) emits it and returns
/// the end of the text: integral values below 2^53 as integers ("30", not
/// "3e+01"), other finite values in the shortest %g form that parses back
/// to `v`, non-finite ones as null.
char* format_number(char (&buf)[32], double v);

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Emits an object key; must be followed by exactly one value (or
  /// begin_object/begin_array).
  Writer& key(std::string_view k);

  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(double v);
  Writer& value(std::int64_t v);
  Writer& value(std::uint64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(bool v);
  Writer& null();

  /// Convenience: key + scalar value in one call.
  template <typename T>
  Writer& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }
  Writer& kv_null(std::string_view k) {
    key(k);
    return null();
  }

 private:
  void separator();

  std::ostream& os_;
  // One frame per open container: whether anything was emitted in it yet,
  // and whether a key is pending its value.
  std::vector<bool> has_item_;
  bool key_pending_{false};
};

/// Parsed JSON value (tests and tooling only; not performance-sensitive).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind{Kind::kNull};
  bool boolean{false};
  double number{0.0};
  std::string string;
  std::vector<std::pair<std::string, Value>> object;  // insertion order
  std::vector<Value> array;
  /// 1-based source line the value started on; lets consumers (config
  /// loader, fault-plan parser) point at the offending line of a file.
  int line{0};

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view k) const;
};

/// Parses one JSON document (surrounding whitespace allowed); nullopt on any
/// syntax error or trailing garbage.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

/// Re-emits a parsed value through a Writer (used to splice nested config
/// sections back into flag arguments, and by round-trip tests).
void write(const Value& v, Writer& w);

/// Compact textual form of a parsed value.  parse(dump(v)) reproduces v
/// (modulo the shortest-round-trippable number formatting the Writer uses),
/// and dump(parse(dump(v))) is a fixpoint — the identity the config
/// round-trip tests assert.
[[nodiscard]] std::string dump(const Value& v);

}  // namespace sstsp::obs::json
