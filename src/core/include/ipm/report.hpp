// Report generation: the profiling banner (stdout) and the XML profiling
// log (paper §II).  The parser tool (ipm_parse) consumes the XML and can
// re-produce the banner, an HTML page, and a CUBE-like export.
#pragma once

#include <iosfwd>
#include <string>

#include "ipm/monitor.hpp"

namespace ipm {

struct BannerOptions {
  /// Maximum function rows printed (0 = all).
  std::size_t max_rows = 24;
  /// Print the per-family [total]/<avg>/min/max block (the full banner of
  /// Fig. 11).  Single-rank runs default to the compact Fig. 4 style.
  bool full = true;
};

/// Write the IPM banner for an aggregated job profile.
void write_banner(std::ostream& os, const JobProfile& job, const BannerOptions& opts = {});

/// Render the banner to a string (convenience for tests/examples).
[[nodiscard]] std::string banner_string(const JobProfile& job, const BannerOptions& opts = {});

/// Write the XML profiling log.  write_xml_file throws std::runtime_error
/// naming the path when the open, the write or the close fails.
void write_xml(std::ostream& os, const JobProfile& job);
void write_xml_file(const std::string& path, const JobProfile& job);

/// Parse an XML profiling log back into a JobProfile (round-trip of
/// write_xml; used by ipm_parse).
[[nodiscard]] JobProfile parse_xml_file(const std::string& path);
[[nodiscard]] JobProfile parse_xml(const std::string& doc);

/// One row of the error summary: a failed call (base API name + error
/// slug, derived from the `name[ERR=slug]` hash-table keys) with its
/// job-wide count and accumulated wall time.
struct ErrorRow {
  std::string name;  ///< base API display name, e.g. "cudaMemcpy(H2D)"
  std::string err;   ///< error slug, e.g. "oom"
  std::uint64_t count = 0;
  double tsum = 0.0;
};

/// Job-wide error summary (count per call per error code), sorted by
/// descending count then name.  Empty when no call failed.
[[nodiscard]] std::vector<ErrorRow> error_summary(const JobProfile& job);

/// Aggregated per-function row used by the banner and by ipm_parse.
struct FuncRow {
  std::string name;   ///< display name (@CUDA_EXEC entries grouped per stream)
  double tsum = 0.0;  ///< summed over ranks
  std::uint64_t count = 0;
  double pct_wall = 0.0;
};

/// Job-wide function table, sorted by descending time.  GPU kernel-exec
/// pseudo events are grouped into @CUDA_EXEC_STRMnn per stream, matching
/// the banner of Fig. 5.
[[nodiscard]] std::vector<FuncRow> function_table(const JobProfile& job);

/// Per-function per-rank times for one event name family — the Fig. 9 style
/// breakdown (used by the CUBE export and the HPL harness).
[[nodiscard]] std::vector<std::vector<double>> per_rank_times(
    const JobProfile& job, const std::vector<std::string>& names);

/// One bucket of the per-operation-size breakdown (paper §III-D: IPM keys
/// events by operand size precisely so achieved performance can be
/// correlated with operation size in later analysis).
struct SizeBucket {
  std::uint64_t bytes = 0;  ///< operand size of the calls in this bucket
  std::uint64_t count = 0;
  double tsum = 0.0;

  /// Achieved throughput for this size (B/s; 0 when no time was recorded).
  [[nodiscard]] double bytes_per_second() const noexcept {
    return tsum > 0.0 ? static_cast<double>(bytes) * static_cast<double>(count) / tsum
                      : 0.0;
  }
};

/// Job-wide size histogram for one event name, sorted by ascending size.
/// Requires per-size hash entries, i.e. a Monitor snapshot taken with
/// `keep_size_detail` (rank_finalize always keeps them; the merge happens
/// only at record level, so this recomputes from the raw table).
[[nodiscard]] std::vector<SizeBucket> size_histogram(const Monitor& monitor,
                                                     const std::string& name);

}  // namespace ipm
