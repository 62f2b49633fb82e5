#include "obs/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace sstsp::obs::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Writer::separator() {
  if (key_pending_) {
    key_pending_ = false;
    return;  // the key already emitted its ':'
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) os_ << ',';
    has_item_.back() = true;
  }
}

Writer& Writer::begin_object() {
  separator();
  os_ << '{';
  has_item_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  has_item_.pop_back();
  os_ << '}';
  return *this;
}

Writer& Writer::begin_array() {
  separator();
  os_ << '[';
  has_item_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  has_item_.pop_back();
  os_ << ']';
  return *this;
}

Writer& Writer::key(std::string_view k) {
  separator();
  os_ << '"' << escape(k) << "\":";
  key_pending_ = true;
  return *this;
}

Writer& Writer::value(std::string_view v) {
  separator();
  os_ << '"' << escape(v) << '"';
  return *this;
}

char* format_number(char (&buf)[32], double v) {
  char* const end = buf + sizeof buf;
  if (!std::isfinite(v)) return std::copy_n("null", 4, buf);
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    return std::to_chars(buf, end, static_cast<long long>(v)).ptr;
  }
  // Shortest round-trippable %g form: the fewest significant digits p for
  // which "%.{p}g" parses back to v, else "%.17g".  The shortest scientific
  // form's digit count is a lower bound on p (no shorter decimal reads back
  // as v); rounding to that many digits can still miss next to a power of
  // two, where the rounding interval is lopsided, so probe upwards from it.
  const auto shortest =
      std::to_chars(buf, end, v, std::chars_format::scientific);
  int precision = 0;
  for (const char* c = buf; c != shortest.ptr && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  for (; precision < 17; ++precision) {
    const auto r =
        std::to_chars(buf, end, v, std::chars_format::general, precision);
    double back = 0.0;
    std::from_chars(buf, r.ptr, back);
    if (back == v) return r.ptr;
  }
  return std::to_chars(buf, end, v, std::chars_format::general, 17).ptr;
}

Writer& Writer::value(double v) {
  separator();
  char buf[32];
  os_.write(buf, format_number(buf, v) - buf);
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  separator();
  os_ << v;
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  separator();
  os_ << v;
  return *this;
}

Writer& Writer::value(bool v) {
  separator();
  os_ << (v ? "true" : "false");
  return *this;
}

Writer& Writer::null() {
  separator();
  os_ << "null";
  return *this;
}

const Value* Value::find(std::string_view k) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [key, value] : object) {
    if (key == k) return &value;
  }
  return nullptr;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos{0};
  int line{1};

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      if (text[pos] == '\n') ++line;
      ++pos;
    }
  }

  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '\n') ++line;  // invalid in strict JSON, but keep line honest
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) return std::nullopt;
        const char esc = text[pos++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos + 4 > text.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return std::nullopt;
              }
            }
            // The writer only escapes control characters; decode the BMP
            // code point as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> parse_value(int depth) {
    if (depth > 64) return std::nullopt;
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    Value v;
    v.line = line;
    const char c = text[pos];
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      v.kind = Value::Kind::kNull;
      return v;
    }
    if (c == 't') {
      if (!literal("true")) return std::nullopt;
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (c == 'f') {
      if (!literal("false")) return std::nullopt;
      v.kind = Value::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      v.kind = Value::Kind::kString;
      v.string = std::move(*s);
      return v;
    }
    if (c == '{') {
      ++pos;
      v.kind = Value::Kind::kObject;
      skip_ws();
      if (eat('}')) return v;
      while (true) {
        skip_ws();
        auto k = parse_string();
        if (!k) return std::nullopt;
        if (!eat(':')) return std::nullopt;
        auto member = parse_value(depth + 1);
        if (!member) return std::nullopt;
        v.object.emplace_back(std::move(*k), std::move(*member));
        if (eat(',')) continue;
        if (eat('}')) return v;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos;
      v.kind = Value::Kind::kArray;
      skip_ws();
      if (eat(']')) return v;
      while (true) {
        auto element = parse_value(depth + 1);
        if (!element) return std::nullopt;
        v.array.push_back(std::move(*element));
        if (eat(',')) continue;
        if (eat(']')) return v;
        return std::nullopt;
      }
    }
    // Number.
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    const std::string num(text.substr(start, pos - start));
    char* end = nullptr;
    v.number = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return std::nullopt;
    v.kind = Value::Kind::kNumber;
    return v;
  }
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  Parser p{text};
  auto v = p.parse_value(0);
  if (!v) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;  // trailing garbage
  return v;
}

void write(const Value& v, Writer& w) {
  switch (v.kind) {
    case Value::Kind::kNull:
      w.null();
      return;
    case Value::Kind::kBool:
      w.value(v.boolean);
      return;
    case Value::Kind::kNumber:
      w.value(v.number);
      return;
    case Value::Kind::kString:
      w.value(std::string_view(v.string));
      return;
    case Value::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.object) {
        w.key(key);
        write(member, w);
      }
      w.end_object();
      return;
    case Value::Kind::kArray:
      w.begin_array();
      for (const Value& element : v.array) write(element, w);
      w.end_array();
      return;
  }
}

std::string dump(const Value& v) {
  std::ostringstream os;
  Writer w(os);
  write(v, w);
  return os.str();
}

std::string error_at(const Value& at, std::string_view path,
                     std::string_view message) {
  std::string out = at.line > 0 ? "line " + std::to_string(at.line) + ": " : "";
  return out.append(path).append(": ").append(message);
}

namespace {

constexpr double kMaxDouble = std::numeric_limits<double>::max();

std::string number_text(double v) {
  char buf[32];
  return std::string(buf, format_number(buf, v));
}

std::string in_range(double lo, double hi) {
  return " in [" + number_text(lo) + ", " + number_text(hi) + "]";
}

std::string joined(std::span<const std::string_view> names) {
  std::string out;
  for (const std::string_view name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

Reader::Reader(const Value& v, std::string path, std::string* error)
    : own_{error}, status_(&own_), value_(v), path_(std::move(path)) {
  if (!v.is_object()) fail(v, path_, "expected an object");
}

Reader::Reader(Reader& parent, const Value& v, std::string path)
    : own_{nullptr}, status_(parent.status_), value_(v), path_(std::move(path)) {
  if (!v.is_object()) fail(v, path_, "expected an object");
}

const Value* Reader::member(std::string_view key) {
  known_.push_back(key);
  return ok() ? value_.find(key) : nullptr;
}

Reader& Reader::number(std::string_view key, double* out) {
  return number(key, out, -kMaxDouble, kMaxDouble);
}

Reader& Reader::number(std::string_view key, double* out, double lo,
                       double hi) {
  const Value* v = member(key);
  if (v == nullptr) return *this;
  if (v->is_number() && v->number >= lo && v->number <= hi) {
    *out = v->number;
  } else {
    const bool bounded = lo != -kMaxDouble || hi != kMaxDouble;
    fail(key, "expected a number" + (bounded ? in_range(lo, hi) : ""));
  }
  return *this;
}

Reader& Reader::integer(std::string_view key, int* out, int lo, int hi) {
  const Value* v = member(key);
  if (v == nullptr) return *this;
  if (v->is_number() && v->number == std::floor(v->number) &&
      v->number >= lo && v->number <= hi) {
    *out = static_cast<int>(v->number);
  } else {
    fail(key, "expected a whole number" + in_range(lo, hi));
  }
  return *this;
}

Reader& Reader::boolean(std::string_view key, bool* out) {
  const Value* v = member(key);
  if (v == nullptr) return *this;
  if (v->kind == Value::Kind::kBool) {
    *out = v->boolean;
  } else {
    fail(key, "expected true or false");
  }
  return *this;
}

Reader& Reader::string(std::string_view key, std::string* out,
                       std::span<const std::string_view> names) {
  const Value* v = member(key);
  if (v == nullptr) return *this;
  if (!v->is_string()) {
    fail(key, names.empty() ? "expected a string"
                            : "expected one of: " + joined(names));
  } else if (!names.empty() &&
             std::find(names.begin(), names.end(), v->string) == names.end()) {
    fail(key, "'" + v->string + "' is not one of: " + joined(names));
  } else {
    *out = v->string;
  }
  return *this;
}

bool Reader::fail(std::string_view key, std::string_view message) {
  const Value* at = value_.find(key);
  return fail(at != nullptr ? *at : value_, path_ + "." + std::string(key),
              message);
}

bool Reader::fail(const Value& at, std::string_view path,
                  std::string_view message) {
  if (status_->failed) return false;
  status_->failed = true;
  if (status_->error != nullptr) *status_->error = error_at(at, path, message);
  return false;
}

bool Reader::done() {
  if (!ok()) return false;
  for (const auto& [key, member] : value_.object) {
    if (std::find(known_.begin(), known_.end(), key) == known_.end()) {
      return fail(key, "unknown key (have: " + joined(known_) + ")");
    }
  }
  return true;
}

}  // namespace sstsp::obs::json
