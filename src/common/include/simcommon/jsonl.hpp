// JSONL line codec: the one encoder behind every JSONL line and wire
// payload (time-series lines, HELLO/WELCOME/RANK_FIN payloads,
// ipm-bench-v1) and the Chrome trace, and the strict cursor every reader of
// those bytes is built on.  The writer appends fields to a caller-owned
// std::string without temporaries: integers via std::to_chars, doubles via
// std::to_chars(general, 17) — byte for byte what printf("%.17g") prints, so
// every double round-trips bit-exactly — fixed-point doubles (the Chrome
// trace's microseconds) via std::to_chars(fixed), and JSON-escaped strings.
// A reader calls JsonlReader in its writer's field order, so it accepts
// exactly the bytes that writer emits.
#pragma once

#include <charconv>
#include <concepts>
#include <cstring>
#include <string>
#include <string_view>

namespace simx {

class JsonlWriter {
 public:
  explicit JsonlWriter(std::string& out) noexcept : out_(out) {}

  /// Text copied verbatim (keys, punctuation, already quoted strings).
  JsonlWriter& lit(std::string_view s) {
    out_.append(s);
    return *this;
  }

  template <std::integral T>
  JsonlWriter& num(T v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }

  /// Exactly the bytes of printf("%.17g", v).
  JsonlWriter& num(double v) {
    char buf[32];
    const std::to_chars_result res =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
    out_.append(buf, res.ptr);
    return *this;
  }

  /// Exactly the bytes of printf("%.*f", precision, v), precision <= 17.
  JsonlWriter& fixed(double v, int precision) {
    // DBL_MAX has 309 integer digits; add a sign, the point and the fraction.
    char buf[1 + 309 + 1 + 17];
    const std::to_chars_result res =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision);
    out_.append(buf, res.ptr);
    return *this;
  }

  /// Quoted JSON string: '"' and '\\' backslash-escaped, control characters
  /// as \n, \t, \r or \u00XX.
  JsonlWriter& str(std::string_view s);

 private:
  std::string& out_;
};

/// A string field as JsonlReader::str(JsonlStr&) found it: the bytes between
/// its quotes, not yet unescaped.
struct JsonlStr {
  std::string_view raw;
  bool escaped = false;  ///< raw holds a backslash escape

  /// The string's value: `raw` itself when nothing is escaped, else `raw`
  /// unescaped into `scratch`, which the view then points into.
  [[nodiscard]] std::string_view value(std::string& scratch) const {
    return escaped ? unescape(scratch) : raw;
  }

  /// Store the string's value in `out`.
  void assign_to(std::string& out) const {
    if (escaped) {
      (void)unescape(out);
    } else {
      out.assign(raw);
    }
  }

 private:
  std::string_view unescape(std::string& scratch) const;
};

/// Strict cursor over bytes a JsonlWriter wrote.  lit(), num() and str()
/// each consume one field and return true, or return false and leave the
/// cursor where it was, so lit() doubles as a probe for optional fields.  A
/// line is read only when every byte was consumed (done()).
class JsonlReader {
 public:
  explicit JsonlReader(std::string_view s) noexcept
      : p_(s.data()), end_(s.data() + s.size()) {}

  bool lit(std::string_view s) noexcept {
    if (static_cast<std::size_t>(end_ - p_) < s.size() ||
        std::memcmp(p_, s.data(), s.size()) != 0) {
      return false;
    }
    p_ += s.size();
    return true;
  }

  /// An integer or a double, as JsonlWriter::num wrote it.
  template <typename T>
    requires std::integral<T> || std::same_as<T, double>
  bool num(T& v) noexcept {
    const auto [np, ec] = std::from_chars(p_, end_, v);
    if (ec != std::errc()) return false;
    p_ = np;
    return true;
  }

  /// A quoted string holding only the escapes JsonlWriter::str writes and no
  /// raw control character, left escaped: `s.raw` views the line.
  bool str(JsonlStr& s) noexcept {
    if (p_ == end_ || *p_ != '"') return false;
    bool escaped = false;
    for (const char* q = p_ + 1; q != end_; ++q) {
      const auto c = static_cast<unsigned char>(*q);
      if (c == '"') {
        s.raw = std::string_view(p_ + 1, static_cast<std::size_t>(q - p_ - 1));
        s.escaped = escaped;
        p_ = q + 1;
        return true;
      }
      if (c < 0x20) return false;
      if (c != '\\') continue;
      escaped = true;
      if (++q == end_) return false;
      switch (*q) {
        case '"':
        case '\\':
        case 'n':
        case 't':
        case 'r':
          break;
        case 'u': {
          unsigned code = 0;
          if (end_ - q < 5 || q[1] != '0' || q[2] != '0' ||
              std::from_chars(q + 3, q + 5, code, 16).ptr != q + 5) {
            return false;
          }
          q += 4;
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  /// Inverse of JsonlWriter::str: the same string, unescaped into `s`.
  bool str(std::string& s) {
    JsonlStr j;
    if (!str(j)) return false;
    j.assign_to(s);
    return true;
  }

  /// The items of an array whose '[' was consumed: "]" or
  /// "item(,item)*]", each read by `item()`.
  template <typename F>
  bool list(F&& item) {
    if (lit("]")) return true;
    do {
      if (!item()) return false;
    } while (lit(","));
    return lit("]");
  }

  [[nodiscard]] bool done() const noexcept { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace simx
