// Internal helpers of the daemon (aggd.cpp): fleet-rank composition, job id
// and exposition-label escaping, a job's output file name, and payload
// readers with their defaults.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "ipm_live/wire.hpp"

namespace ipm::aggd::detail {

/// Composite fleet-rank stride: job i's rank r merges as i*kStride + r, so
/// per-rank provenance survives the fleet-wide watermark barrier.
inline constexpr std::uint64_t kFleetStride = 1'000'000;

inline std::string sanitize(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  return out.empty() ? "job" : out;
}

/// File stem of a job's JSONL (`<stem>_timeseries.jsonl`), a function of the
/// id alone that no other id and not the fleet stream share: the id itself
/// where sanitize() keeps it, except the reserved "fleet"; else its
/// sanitized form, '~' and 16 hex digits of a 64-bit FNV-1a hash of the id.
/// sanitize() never emits '~', so a hashed stem never meets a kept one.
inline std::string job_stem(const std::string& id) {
  std::string stem = sanitize(id);
  if (stem == id && id != "fleet") return stem;
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char hex[16];
  const std::size_t digits =
      static_cast<std::size_t>(std::to_chars(hex, hex + sizeof hex, h, 16).ptr - hex);
  stem += '~';
  stem.append(sizeof hex - digits, '0');
  stem.append(hex, digits);
  return stem;
}

inline std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Command and interval of a HELLO payload; false, with the defaults
/// command "?" and interval 1.0, when its reader rejects the payload.
inline bool read_hello(std::string_view payload, std::string& command,
                       double& interval) {
  if (live::wire::parse_hello(payload, command, interval)) return true;
  command = "?";
  interval = 1.0;
  return false;
}

/// Drops of a RANK_FIN payload; false, with 0 drops, when its reader
/// rejects the payload.
inline bool read_rank_fin_drops(std::string_view payload, std::uint64_t& drops) {
  std::uint64_t samples = 0;
  if (live::wire::parse_rank_fin(payload, samples, drops)) return true;
  drops = 0;
  return false;
}

/// Job id for a tailed file: basename minus ".jsonl" and "_timeseries".
inline std::string tail_job_id(const std::string& path) {
  std::string stem = path;
  const std::size_t slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  const auto strip = [&stem](const std::string& suffix) {
    if (stem.size() > suffix.size() &&
        stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
      stem.resize(stem.size() - suffix.size());
    }
  };
  strip(".jsonl");
  strip("_timeseries");
  return stem.empty() ? "tail" : stem;
}

}  // namespace ipm::aggd::detail
