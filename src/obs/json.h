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
//
// Reader: the typed reads of a nested config block (a fault plan,
// "discipline", "clock-model", an adversary's params), naming the key path
// and source line of the first error.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <span>
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

/// "line N: <path>: <message>", the one error format of the config blocks;
/// the line prefix only for a value parsed from text (line > 0).
[[nodiscard]] std::string error_at(const Value& at, std::string_view path,
                                   std::string_view message);

/// Typed reads of one object of a nested config block.  Every member read
/// is optional (an absent key keeps *out) and records its key as one the
/// block knows; done() then rejects any other member.  The first error is
/// kept, in error_at's format, and every read after it is a no-op, so a
/// block's reader is a plain list of reads checked once at the end.
class Reader {
 public:
  /// Reads the object `v` at key path `path`; the first error goes to
  /// *error (which may be null).  Fails at once when `v` is no object.
  Reader(const Value& v, std::string path, std::string* error);
  /// Reads a nested object, sharing `parent`'s first error.
  Reader(Reader& parent, const Value& v, std::string path);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  [[nodiscard]] bool ok() const { return !status_->failed; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// A finite number; with bounds, one in [lo, hi].
  Reader& number(std::string_view key, double* out);
  Reader& number(std::string_view key, double* out, double lo, double hi);
  /// A whole number in [lo, hi].
  Reader& integer(std::string_view key, int* out, int lo, int hi);
  Reader& boolean(std::string_view key, bool* out);
  /// A string; one of `names` unless that is empty.
  Reader& string(std::string_view key, std::string* out,
                 std::span<const std::string_view> names = {});
  /// Member `key` for a block-specific read; nullptr when it is absent or
  /// an error came first.
  [[nodiscard]] const Value* member(std::string_view key);

  /// Records an error at member `key` (at the object when it is absent);
  /// returns false.
  bool fail(std::string_view key, std::string_view message);
  /// Records an error at `at`, named by its full `path`; returns false.
  bool fail(const Value& at, std::string_view path, std::string_view message);

  /// Rejects the first member no read asked for; returns ok().
  bool done();

 private:
  struct Status {
    std::string* error;
    bool failed{false};
  };

  Status own_;
  Status* status_;
  const Value& value_;
  std::string path_;
  std::vector<std::string_view> known_;
};

}  // namespace sstsp::obs::json
