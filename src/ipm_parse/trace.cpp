#include "ipm_parse/trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

#include "simcommon/jsonl.hpp"
#include "simcommon/str.hpp"

namespace ipm_parse {

namespace {

using simx::strprintf;

/// `s` as a quoted JSON string, control characters escaped.
std::string quoted(std::string_view s) {
  std::string out;
  simx::JsonlWriter(out).str(s);
  return out;
}

const char* kind_cat(ipm::TraceKind k) {
  switch (k) {
    case ipm::TraceKind::kKernel: return "kernel";
    case ipm::TraceKind::kIdle: return "idle";
    case ipm::TraceKind::kMarker: return "marker";
    default: return "host";
  }
}

/// One-character family tag for the ASCII timeline.
char family_char(const ipm::TraceSpan& s) {
  if (s.err != 0) return 'E';
  if (s.kind == ipm::TraceKind::kKernel) return 'K';
  if (s.kind == ipm::TraceKind::kIdle) return 'I';
  if (simx::starts_with(s.name, "MPI_")) return 'M';
  if (simx::starts_with(s.name, "cu") || simx::starts_with(s.name, "@CUDA")) return 'C';
  return '*';
}

}  // namespace

std::vector<ipm::RankTrace> load_job_traces(const ipm::JobProfile& job,
                                            const std::string& xml_dir) {
  std::vector<ipm::RankTrace> traces;
  for (const ipm::RankProfile& r : job.ranks) {
    if (r.trace_file.empty()) continue;
    std::string path = r.trace_file;
    if (!xml_dir.empty() && !path.empty() && path.front() != '/') {
      path = xml_dir + "/" + path;
    }
    traces.push_back(ipm::read_trace_file(path));
  }
  return traces;
}

std::string trace_lane(const ipm::TraceSpan& span) {
  switch (span.kind) {
    case ipm::TraceKind::kKernel: return strprintf("gpu.strm%d", span.select);
    case ipm::TraceKind::kIdle: return "host.idle";
    default: return "host";
  }
}

void write_chrome_trace(std::ostream& os, const std::vector<ipm::RankTrace>& traces) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) os << ",\n";
    first = false;
    os << event;
  };
  for (const ipm::RankTrace& t : traces) {
    emit(strprintf(
        "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}",
        t.rank, quoted(strprintf("rank %d (%s)", t.rank, t.hostname.c_str())).c_str()));
    // Stable viewer ordering: spans sorted by lane then start time.
    std::vector<const ipm::TraceSpan*> spans;
    spans.reserve(t.spans.size());
    for (const ipm::TraceSpan& s : t.spans) spans.push_back(&s);
    std::stable_sort(spans.begin(), spans.end(),
                     [](const ipm::TraceSpan* a, const ipm::TraceSpan* b) {
                       const std::string la = trace_lane(*a);
                       const std::string lb = trace_lane(*b);
                       return la != lb ? la < lb : a->t0 < b->t0;
                     });
    for (const ipm::TraceSpan* s : spans) {
      std::string event;
      simx::JsonlWriter w(event);
      const bool marker = s->kind == ipm::TraceKind::kMarker;
      w.lit(marker ? "{\"ph\":\"i\",\"pid\":" : "{\"ph\":\"X\",\"pid\":").num(t.rank);
      w.lit(",\"tid\":\"").lit(trace_lane(*s)).lit("\",\"ts\":").fixed(s->t0 * 1e6, 3);
      if (marker) {
        w.lit(",\"name\":").str(s->name).lit(",\"s\":\"t\"}");
        emit(event);
        continue;
      }
      // Failed calls carry their raw error code; a distinct category makes
      // them stand out (and colorable) in the Chrome trace viewer.
      w.lit(",\"dur\":").fixed(s->dur * 1e6, 3).lit(",\"name\":").str(s->name);
      w.lit(",\"cat\":\"").lit(kind_cat(s->kind)).lit(s->err != 0 ? ",error\"" : "\"");
      w.lit(",\"args\":{\"region\":").str(s->region).lit(",\"bytes\":").num(s->bytes);
      w.lit(",\"select\":").num(s->select);
      if (s->err != 0) w.lit(",\"err\":").num(s->err);
      w.lit("}}");
      emit(event);
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_chrome_trace_file(const std::string& path,
                             const std::vector<ipm::RankTrace>& traces) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("ipm_parse: cannot open '" + path + "'");
  write_chrome_trace(out, traces);
  if (!out) throw std::runtime_error("ipm_parse: write failed for '" + path + "'");
}

void write_timeline(std::ostream& os, const ipm::JobProfile& job,
                    const std::vector<ipm::RankTrace>& traces, int width) {
  width = std::max(8, width);
  double start = job.start;
  double stop = job.stop;
  if (stop <= start) {
    // Degenerate job window (e.g. synthetic traces): derive from the spans.
    for (const ipm::RankTrace& t : traces) {
      for (const ipm::TraceSpan& s : t.spans) {
        start = std::min(start, s.t0);
        stop = std::max(stop, s.t1());
      }
    }
  }
  const double window = std::max(stop - start, 1e-12);
  const double per_col = window / width;
  os << strprintf("# timeline   : %zu ranks, %.6f - %.6f s, %d cols, %.3g s/col\n",
                  traces.size(), start, stop, width, per_col);
  os << "#              (M=MPI C=CUDA/BLAS/FFT K=kernel I=idle E=error *=other .=gap)\n";
  for (const ipm::RankTrace& t : traces) {
    // Bucket chars per lane; later spans in a bucket win (rare ties).
    std::map<std::string, std::string> lanes;
    std::uint64_t drops = t.drops;
    for (const ipm::TraceSpan& s : t.spans) {
      if (s.kind == ipm::TraceKind::kMarker) continue;
      std::string& row = lanes[trace_lane(s)];
      if (row.empty()) row.assign(static_cast<std::size_t>(width), '.');
      int lo = static_cast<int>((s.t0 - start) / per_col);
      int hi = static_cast<int>((s.t1() - start) / per_col);
      lo = std::clamp(lo, 0, width - 1);
      hi = std::clamp(hi, lo, width - 1);
      for (int col = lo; col <= hi; ++col) row[static_cast<std::size_t>(col)] = family_char(s);
    }
    os << strprintf("# rank %-5d : %s%s\n", t.rank, t.hostname.c_str(),
                    drops != 0 ? strprintf("  [%llu spans dropped]",
                                           static_cast<unsigned long long>(drops))
                                     .c_str()
                               : "");
    for (const auto& [lane, row] : lanes) {
      os << strprintf("#   %-9s: %s\n", lane.c_str(), row.c_str());
    }
  }
}

}  // namespace ipm_parse
