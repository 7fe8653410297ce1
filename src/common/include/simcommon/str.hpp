// Small string and formatting helpers used across the stack.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace simx {

[[nodiscard]] std::string trim(std::string_view s);
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// printf-style formatting into a std::string.
[[nodiscard]] std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Format seconds with two decimals ("45.78"), as the IPM banner does.
[[nodiscard]] std::string fmt_secs(double s);

/// Format bytes with a human-readable unit ("24 GB", "512 MB").
[[nodiscard]] std::string fmt_bytes(std::uint64_t bytes);

/// Format a virtual timestamp as the banner's fake date string
/// ("Tue Sep 28 12:35:09 2010" style), offsetting a fixed epoch.
[[nodiscard]] std::string fmt_banner_date(double seconds_since_job_start);

/// Parse helpers that raise std::runtime_error with a descriptive message
/// unless `s` is one number (blanks around it allowed); parse_i64 also
/// raises on a value outside int64 instead of clamping it.
[[nodiscard]] double parse_double(std::string_view s);
[[nodiscard]] std::int64_t parse_i64(std::string_view s);

}  // namespace simx
