// Time-series file format (JSONL), the operand-size GFLOP model, and the
// ASCII roll-up report used by `ipm_parse --timeseries` and the fig9 demo.
#include "ipm_live/live.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "internal.hpp"
#include "simcommon/jsonl.hpp"
#include "simcommon/str.hpp"

namespace ipm::live {

std::string timeseries_path(const Config& cfg) {
  if (!cfg.timeseries_path.empty()) return cfg.timeseries_path;
  if (!cfg.log_path.empty()) {
    std::string base = cfg.log_path;
    if (base.size() > 4 && base.compare(base.size() - 4, 4, ".xml") == 0) {
      base.resize(base.size() - 4);
    }
    return base + "_timeseries.jsonl";
  }
  return "ipm_timeseries.jsonl";
}

std::string timeseries_header_line(const std::string& command, double interval) {
  std::string out;
  simx::JsonlWriter w(out);
  w.lit("{\"ipm_timeseries\":1,\"command\":").str(command);
  w.lit(",\"interval\":").num(interval).lit("}");
  return out;
}

std::string sample_line(const Sample& s) {
  std::string out;
  out.reserve(160 + 24 * s.regions.size() + 96 * s.deltas.size());
  simx::JsonlWriter w(out);
  w.lit("{\"type\":\"sample\",\"rank\":").num(s.rank).lit(",\"seq\":").num(s.seq);
  w.lit(",\"t0\":").num(s.t0).lit(",\"t1\":").num(s.t1);
  w.lit(",\"final\":").num(s.final_flush ? 1 : 0);
  if (s.ddev_flops != 0.0) w.lit(",\"gf\":").num(s.ddev_flops);
  if (s.ddev_bytes != 0.0) w.lit(",\"gb\":").num(s.ddev_bytes);
  w.lit(",\"regions\":[");
  for (std::size_t i = 0; i < s.regions.size(); ++i) {
    if (i != 0) w.lit(",");
    w.str(s.regions[i]);
  }
  w.lit("],\"deltas\":[");
  for (std::size_t i = 0; i < s.deltas.size(); ++i) {
    const KeyDelta& d = s.deltas[i];
    if (i != 0) w.lit(",");
    w.lit("{\"n\":").str(detail::delta_name(d)).lit(",\"r\":").num(d.region);
    w.lit(",\"s\":").num(d.select).lit(",\"c\":").num(d.dcount);
    w.lit(",\"b\":").num(d.dbytes).lit(",\"t\":").num(d.dtsum);
    if (d.dflops != 0.0) w.lit(",\"f\":").num(d.dflops);
    w.lit("}");
  }
  w.lit("]}");
  return out;
}

std::string point_line(const ClusterPoint& p) {
  std::string out;
  out.reserve(400 + 48 * p.region_flops.size());
  simx::JsonlWriter w(out);
  w.lit("{\"type\":\"point\",\"k\":").num(p.k).lit(",\"t0\":").num(p.t0);
  w.lit(",\"t1\":").num(p.t1).lit(",\"ranks\":").num(p.ranks);
  w.lit(",\"ranks_live\":").num(p.ranks_live).lit(",\"samples\":").num(p.samples);
  w.lit(",\"devents\":").num(p.devents).lit(",\"mpi_s\":").num(p.mpi_s);
  w.lit(",\"cuda_s\":").num(p.cuda_s).lit(",\"gpu_s\":").num(p.gpu_s);
  w.lit(",\"idle_s\":").num(p.idle_s).lit(",\"blas_s\":").num(p.blas_s);
  w.lit(",\"fft_s\":").num(p.fft_s).lit(",\"mpi_bytes\":").num(p.mpi_bytes);
  w.lit(",\"cuda_bytes\":").num(p.cuda_bytes).lit(",\"flops\":").num(p.flops);
  if (p.dev_flops != 0.0) w.lit(",\"devflops\":").num(p.dev_flops);
  if (p.dev_bytes != 0.0) w.lit(",\"devbytes\":").num(p.dev_bytes);
  w.lit(",\"regions\":[");
  for (std::size_t i = 0; i < p.region_flops.size(); ++i) {
    if (i != 0) w.lit(",");
    w.lit("{\"name\":").str(p.region_flops[i].first);
    w.lit(",\"flops\":").num(p.region_flops[i].second).lit("}");
  }
  w.lit("]}");
  return out;
}

std::string end_line(std::uint64_t intervals) {
  std::string out;
  simx::JsonlWriter(out).lit("{\"type\":\"end\",\"intervals\":").num(intervals).lit("}");
  return out;
}

bool parse_header_line(std::string_view line, std::string& command,
                       double& interval) {
  simx::JsonlReader r(line);
  return r.lit("{\"ipm_timeseries\":1,\"command\":") && r.str(command) &&
         r.lit(",\"interval\":") && r.num(interval) && r.lit("}") && r.done();
}

bool parse_sample_line(std::string_view line, Sample& out) {
  // Builds the Sample that detail::scan_sample_line reads field by field.
  struct Builder {
    Sample& s;
    void head(const detail::SampleHead& h) {
      s.rank = h.rank;
      s.seq = h.seq;
      s.t0 = h.t0;
      s.t1 = h.t1;
      s.final_flush = h.final_flag != 0;
      s.ddev_flops = h.gf;
      s.ddev_bytes = h.gb;
    }
    void region(const simx::JsonlStr& name) { name.assign_to(s.regions.emplace_back()); }
    void delta(const detail::DeltaFields& f) {
      KeyDelta& d = s.deltas.emplace_back();
      f.name.assign_to(d.name_str);
      d.region = f.region;
      d.select = f.select;
      d.dcount = f.dcount;
      d.dbytes = f.dbytes;
      d.dtsum = f.dtsum;
      d.dflops = f.dflops;
    }
  };
  out = Sample{};
  Builder b{out};
  return detail::scan_sample_line(line, b);
}

bool parse_point_line(std::string_view line, ClusterPoint& out) {
  simx::JsonlReader r(line);
  out = ClusterPoint{};
  if (!r.lit("{\"type\":\"point\",\"k\":") || !r.num(out.k) ||
      !r.lit(",\"t0\":") || !r.num(out.t0) || !r.lit(",\"t1\":") ||
      !r.num(out.t1) || !r.lit(",\"ranks\":") || !r.num(out.ranks) ||
      !r.lit(",\"ranks_live\":") || !r.num(out.ranks_live) ||
      !r.lit(",\"samples\":") || !r.num(out.samples) ||
      !r.lit(",\"devents\":") || !r.num(out.devents) ||
      !r.lit(",\"mpi_s\":") || !r.num(out.mpi_s) || !r.lit(",\"cuda_s\":") ||
      !r.num(out.cuda_s) || !r.lit(",\"gpu_s\":") || !r.num(out.gpu_s) ||
      !r.lit(",\"idle_s\":") || !r.num(out.idle_s) ||
      !r.lit(",\"blas_s\":") || !r.num(out.blas_s) || !r.lit(",\"fft_s\":") ||
      !r.num(out.fft_s) || !r.lit(",\"mpi_bytes\":") || !r.num(out.mpi_bytes) ||
      !r.lit(",\"cuda_bytes\":") || !r.num(out.cuda_bytes) ||
      !r.lit(",\"flops\":") || !r.num(out.flops)) {
    return false;
  }
  if (r.lit(",\"devflops\":") && !r.num(out.dev_flops)) return false;
  if (r.lit(",\"devbytes\":") && !r.num(out.dev_bytes)) return false;
  const auto region = [&] {
    auto& [name, flops] = out.region_flops.emplace_back();
    return r.lit("{\"name\":") && r.str(name) && r.lit(",\"flops\":") &&
           r.num(flops) && r.lit("}");
  };
  return r.lit(",\"regions\":[") && r.list(region) && r.lit("}") && r.done();
}

bool parse_end_line(std::string_view line, std::uint64_t& intervals) {
  simx::JsonlReader r(line);
  return r.lit("{\"type\":\"end\",\"intervals\":") && r.num(intervals) &&
         r.lit("}") && r.done();
}

LineKind parse_timeseries_line(std::string_view line, TimeSeries& ts) {
  if (Sample s; parse_sample_line(line, s)) {
    ts.samples.push_back(std::move(s));
    return LineKind::kSample;
  }
  if (ClusterPoint p; parse_point_line(line, p)) {
    ts.points.push_back(std::move(p));
    return LineKind::kPoint;
  }
  std::string command;
  double interval = 0.0;
  if (parse_header_line(line, command, interval)) {
    ts.command = std::move(command);
    ts.interval = interval;
    return LineKind::kHeader;
  }
  std::uint64_t intervals = 0;
  return parse_end_line(line, intervals) ? LineKind::kEnd : LineKind::kRejected;
}

TimeSeries read_timeseries_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ipm: cannot open time-series file " + path);
  TimeSeries ts;
  std::string line;
  if (!std::getline(in, line) || !parse_header_line(line, ts.command, ts.interval)) {
    throw std::runtime_error("ipm: " + path + " is not an ipm_timeseries file");
  }
  for (std::size_t n = 2; std::getline(in, line); ++n) {
    const LineKind kind = parse_timeseries_line(line, ts);
    if (kind == LineKind::kEnd) break;
    if (kind == LineKind::kRejected) {
      throw std::runtime_error(
          simx::strprintf("%s:%zu: malformed time-series line", path.c_str(), n));
    }
  }
  return ts;
}

double flops_per_call(const std::string& name, std::uint64_t bytes) {
  if (bytes == 0) return 0.0;
  if (simx::starts_with(name, "cublas")) {
    if (name.size() < 8) return 0.0;
    double esize;
    double per_elem = 2.0;  // multiply + add per element
    switch (name[6]) {
      case 'S': esize = 4.0; break;
      case 'D': esize = 8.0; break;
      case 'C': esize = 8.0; per_elem = 8.0; break;   // 4 real mul + 4 add
      case 'Z': esize = 16.0; per_elem = 8.0; break;
      default: return 0.0;  // Alloc/Free/Init/Get*/Set*/I?amax: no flops
    }
    std::string op = name.substr(7);
    op = op.substr(0, op.find_first_of("(["));  // strip [ERR=..] annotations
    // Stored bytes are m*n*esize (BLAS-3/2) or n*esize (BLAS-1); k is not
    // recoverable, so BLAS-3 assumes square operands: flops ~ c * elems^1.5.
    const double elems = static_cast<double>(bytes) / esize;
    static constexpr const char* kLevel3[] = {"gemm", "trsm", "trmm", "symm",
                                              "syrk", "herk", "hemm", "syr2k"};
    for (const char* l3 : kLevel3) {
      if (op == l3) return per_elem * std::pow(elems, 1.5);
    }
    static constexpr const char* kLinear[] = {"axpy", "dot",  "dotc", "dotu",
                                              "scal", "sscal", "asum", "nrm2",
                                              "rot",  "gemv", "ger",  "symv",
                                              "syr",  "trmv", "trsv"};
    for (const char* l1 : kLinear) {
      if (op == l1) return per_elem * elems;
    }
    return 0.0;  // copy/swap/Get/Set: data movement, no flops
  }
  if (simx::starts_with(name, "cufftPlan")) {
    // Plan bytes store the total transform points (nx[*ny[*nz]] or
    // nx*batch); cufftExec* records zero bytes, so the FFT's 5*n*log2(n)
    // is attributed at plan time — an estimate, documented in DESIGN.md.
    const double n = static_cast<double>(bytes);
    return n > 1.0 ? 5.0 * n * std::log2(n) : 0.0;
  }
  return 0.0;
}

std::string sparkline(const std::vector<double>& values) {
  static constexpr char kLevels[] = " .:-=+*#%@";
  double peak = 0.0;
  for (const double v : values) peak = std::max(peak, v);
  std::string out;
  out.reserve(values.size());
  for (const double v : values) {
    if (peak <= 0.0 || v <= 0.0) {
      out += kLevels[0];
      continue;
    }
    const int idx = std::min(9, 1 + static_cast<int>(v / peak * 8.999));
    out += kLevels[idx];
  }
  return out;
}

void write_timeseries_report(std::ostream& os, const TimeSeries& ts) {
  const std::vector<ClusterPoint>& pts = ts.points;
  int ranks = 0;
  for (const ClusterPoint& p : pts) ranks = std::max(ranks, p.ranks_live);
  os << "#################################################################\n";
  os << "# time series  : " << ts.command << "\n";
  os << simx::strprintf("# interval     : %.4g s · intervals : %zu · ranks : %d\n",
                        ts.interval, pts.size(), ranks);
  if (pts.empty()) {
    os << "# (no cluster points emitted)\n";
    os << "#################################################################\n";
    return;
  }
  // One row per derived metric: average, peak, and a per-interval sparkline.
  struct Metric {
    const char* label;
    std::vector<double> series;
  };
  std::vector<Metric> metrics = {
      {"gpu busy %", {}},   {"host idle %", {}}, {"mpi %", {}},
      {"cuda api %", {}},   {"blas+fft %", {}},  {"mpi MB/s", {}},
      {"memcpy MB/s", {}},  {"gflop/s", {}},     {"events/s", {}},
  };
  for (const ClusterPoint& p : pts) {
    const double span = p.span() > 0.0 ? p.span() : 1.0;
    const double avail = span * std::max(1, p.ranks_live);
    metrics[0].series.push_back(100.0 * p.gpu_s / avail);
    metrics[1].series.push_back(100.0 * p.idle_s / avail);
    metrics[2].series.push_back(100.0 * p.mpi_s / avail);
    metrics[3].series.push_back(100.0 * p.cuda_s / avail);
    metrics[4].series.push_back(100.0 * (p.blas_s + p.fft_s) / avail);
    metrics[5].series.push_back(static_cast<double>(p.mpi_bytes) / span / 1e6);
    metrics[6].series.push_back(static_cast<double>(p.cuda_bytes) / span / 1e6);
    metrics[7].series.push_back(p.flops / span * 1e-9);
    metrics[8].series.push_back(static_cast<double>(p.devents) / span);
  }
  os << "#\n";
  os << simx::strprintf("# %-14s %12s %12s  %s\n", "metric", "avg", "peak",
                        "per-interval");
  for (const Metric& m : metrics) {
    double sum = 0.0;
    double peak = 0.0;
    for (const double v : m.series) {
      sum += v;
      peak = std::max(peak, v);
    }
    os << simx::strprintf("# %-14s %12.2f %12.2f  [%s]\n", m.label,
                          sum / static_cast<double>(m.series.size()), peak,
                          sparkline(m.series).c_str());
  }
  // Per-region GFLOP rates, aggregated over the whole series.
  std::map<std::string, double> region_flops;
  double total_time = 0.0;
  for (const ClusterPoint& p : pts) {
    total_time += p.span();
    for (const auto& [region, fl] : p.region_flops) region_flops[region] += fl;
  }
  if (!region_flops.empty() && total_time > 0.0) {
    os << "#\n# region gflop/s :";
    for (const auto& [region, fl] : region_flops) {
      os << simx::strprintf(" %s %.2f", region.c_str(), fl / total_time * 1e-9);
    }
    os << "\n";
  }
  // Per-interval roll-up table (elided in the middle for long runs).
  os << "#\n";
  os << simx::strprintf("# %5s %9s %6s %8s %7s %7s %7s %10s %12s\n", "int",
                        "t[s]", "ranks", "samples", "mpi%", "gpu%", "idle%",
                        "gflop/s", "MB/s(mpi)");
  const std::size_t n = pts.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (n > 32 && i == 16) {
      os << simx::strprintf("# %5s (%zu intervals elided)\n", "...", n - 32);
      i = n - 16;
    }
    const ClusterPoint& p = pts[i];
    const double span = p.span() > 0.0 ? p.span() : 1.0;
    const double avail = span * std::max(1, p.ranks_live);
    os << simx::strprintf(
        "# %5llu %9.4f %6d %8llu %7.2f %7.2f %7.2f %10.2f %12.2f\n",
        static_cast<unsigned long long>(p.k), p.t1, p.ranks,
        static_cast<unsigned long long>(p.samples), 100.0 * p.mpi_s / avail,
        100.0 * p.gpu_s / avail, 100.0 * p.idle_s / avail, p.flops / span * 1e-9,
        static_cast<double>(p.mpi_bytes) / span / 1e6);
  }
  os << "#################################################################\n";
}

}  // namespace ipm::live
