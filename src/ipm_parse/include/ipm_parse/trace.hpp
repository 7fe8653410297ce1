// Trace merging and timeline rendering (the ipm_parse side of trace.hpp).
//
// Each rank flushed its ring to a per-rank binary trace file referenced
// from the XML log's <task trace="..."> attribute.  This module loads those files
// and merges them into a single Chrome-tracing JSON (chrome://tracing /
// Perfetto: one process lane per rank, one thread lane per stream) and an
// ASCII timeline summary for terminal-only triage.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "ipm/monitor.hpp"
#include "ipm/trace.hpp"

namespace ipm_parse {

/// Load every per-rank trace referenced by the job (tasks without a trace
/// attribute are skipped).  Relative trace paths are resolved against
/// `xml_dir` (the directory of the XML log; "" = cwd).  Throws
/// std::runtime_error when a referenced file is missing or malformed.
[[nodiscard]] std::vector<ipm::RankTrace> load_job_traces(const ipm::JobProfile& job,
                                                          const std::string& xml_dir);

/// Trace-viewer lane (Chrome "tid") for one span: kernels render under
/// "gpu.strm<N>", idle probes under "host.idle", everything else (host API
/// calls and markers) on "host".
[[nodiscard]] std::string trace_lane(const ipm::TraceSpan& span);

/// Merge rank traces into one Chrome-tracing JSON document
/// ({"traceEvents":[...]} with ph:"X" spans, ph:"i" markers, and ph:"M"
/// process metadata; pid = rank, tid = lane, ts/dur in microseconds).
void write_chrome_trace(std::ostream& os, const std::vector<ipm::RankTrace>& traces);
void write_chrome_trace_file(const std::string& path,
                             const std::vector<ipm::RankTrace>& traces);

/// ASCII occupancy timeline: one row per (rank, lane), `width` time buckets
/// across the job; a bucket shows which family was active in it
/// (M=MPI C=CUDA/BLAS/FFT K=kernel I=idle *=other).
void write_timeline(std::ostream& os, const ipm::JobProfile& job,
                    const std::vector<ipm::RankTrace>& traces, int width = 64);

}  // namespace ipm_parse
