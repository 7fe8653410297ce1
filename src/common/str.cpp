#include "simcommon/str.hpp"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace simx {

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t next = s.find(sep, pos);
    if (next == std::string_view::npos) {
      out.emplace_back(s.substr(pos));
      break;
    }
    out.emplace_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::string fmt_secs(double s) { return strprintf("%.2f", s); }

std::string fmt_bytes(std::uint64_t bytes) {
  constexpr std::uint64_t kKiB = 1024;
  constexpr std::uint64_t kMiB = kKiB * 1024;
  constexpr std::uint64_t kGiB = kMiB * 1024;
  if (bytes >= kGiB) return strprintf("%.2f GB", static_cast<double>(bytes) / kGiB);
  if (bytes >= kMiB) return strprintf("%.2f MB", static_cast<double>(bytes) / kMiB);
  if (bytes >= kKiB) return strprintf("%.2f KB", static_cast<double>(bytes) / kKiB);
  return strprintf("%llu B", static_cast<unsigned long long>(bytes));
}

std::string fmt_banner_date(double seconds_since_job_start) {
  // Fixed virtual epoch so reports are deterministic: Tue Sep 28 12:35:09
  // 2010, the timestamp of the paper's Fig. 11 run.
  constexpr std::time_t kEpoch = 1285677309;
  std::time_t t = kEpoch + static_cast<std::time_t>(seconds_since_job_start);
  std::tm tmval{};
  gmtime_r(&t, &tmval);
  char buf[64];
  std::strftime(buf, sizeof buf, "%a %b %e %H:%M:%S %Y", &tmval);
  return buf;
}

double parse_double(std::string_view s) {
  const std::string str = trim(s);
  char* end = nullptr;
  const double v = std::strtod(str.c_str(), &end);
  if (end == str.c_str() || (end != nullptr && *end != '\0')) {
    throw std::runtime_error("parse_double: invalid number '" + str + "'");
  }
  return v;
}

std::int64_t parse_i64(std::string_view s) {
  const std::string str = trim(s);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(str.c_str(), &end, 10);
  if (end == str.c_str() || (end != nullptr && *end != '\0')) {
    throw std::runtime_error("parse_i64: invalid integer '" + str + "'");
  }
  // strtoll clamps an out-of-range value to LLONG_MIN/MAX.
  if (errno == ERANGE) throw std::runtime_error("parse_i64: out of range '" + str + "'");
  return v;
}

}  // namespace simx
