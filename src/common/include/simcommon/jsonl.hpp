// JSONL line writer: the one encoder behind the hot JSONL lines (live
// sample and cluster-point lines) and the Chrome-trace strings.  It appends
// fields to a caller-owned std::string without temporaries: integers via
// std::to_chars, doubles via std::to_chars(general, 17) — byte for byte
// what printf("%.17g") prints, so every double round-trips bit-exactly —
// and JSON-escaped strings.
#pragma once

#include <charconv>
#include <concepts>
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

  /// Quoted JSON string: '"' and '\\' backslash-escaped, control characters
  /// as \n, \t, \r or \u00XX.
  JsonlWriter& str(std::string_view s);

 private:
  std::string& out_;
};

/// Inverse of JsonlWriter::str's escaping, for a string body without quotes.
[[nodiscard]] std::string json_unescape(std::string_view s);

}  // namespace simx
