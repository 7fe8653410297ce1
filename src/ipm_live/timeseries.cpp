// Time-series file format (JSONL), the operand-size GFLOP model, and the
// ASCII roll-up report used by `ipm_parse --timeseries` and the fig9 demo.
#include "ipm_live/live.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "simcommon/jsonl.hpp"
#include "simcommon/str.hpp"

namespace ipm::live {

namespace {

/// End index (one past) of the JSON value starting at `i`.  String-aware
/// and bracket-counting, so names containing ',' '}' '[' survive.
std::size_t value_end(std::string_view s, std::size_t i) {
  if (i >= s.size()) return i;
  if (s[i] == '"') {
    for (std::size_t j = i + 1; j < s.size(); ++j) {
      if (s[j] == '\\') {
        ++j;
      } else if (s[j] == '"') {
        return j + 1;
      }
    }
    return s.size();
  }
  if (s[i] == '{' || s[i] == '[') {
    int depth = 0;
    bool in_str = false;
    for (std::size_t j = i; j < s.size(); ++j) {
      const char c = s[j];
      if (in_str) {
        if (c == '\\') ++j;
        else if (c == '"') in_str = false;
      } else if (c == '"') {
        in_str = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (--depth == 0) return j + 1;
      }
    }
    return s.size();
  }
  std::size_t j = i;
  while (j < s.size() && s[j] != ',' && s[j] != '}' && s[j] != ']') ++j;
  return j;
}

std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  return i;
}

/// Raw text of top-level field `key` in the object `obj` ("" if absent).
std::string_view object_field(std::string_view obj, std::string_view key) {
  std::size_t i = obj.find('{');
  if (i == std::string_view::npos) return {};
  ++i;
  while (i < obj.size()) {
    i = skip_ws(obj, i);
    if (i >= obj.size() || obj[i] == '}') break;
    if (obj[i] != '"') return {};
    const std::size_t kend = value_end(obj, i);
    const std::string_view k = obj.substr(i + 1, kend - i - 2);
    i = skip_ws(obj, kend);
    if (i >= obj.size() || obj[i] != ':') return {};
    i = skip_ws(obj, i + 1);
    const std::size_t vend = value_end(obj, i);
    if (k == key) return obj.substr(i, vend - i);
    i = skip_ws(obj, vend);
    if (i < obj.size() && obj[i] == ',') ++i;
  }
  return {};
}

/// Top-level elements of the array text `arr` (including "[...]").
std::vector<std::string_view> array_items(std::string_view arr) {
  std::vector<std::string_view> out;
  std::size_t i = arr.find('[');
  if (i == std::string_view::npos) return out;
  ++i;
  while (i < arr.size()) {
    i = skip_ws(arr, i);
    if (i >= arr.size() || arr[i] == ']') break;
    const std::size_t vend = value_end(arr, i);
    out.push_back(arr.substr(i, vend - i));
    i = skip_ws(arr, vend);
    if (i < arr.size() && arr[i] == ',') ++i;
  }
  return out;
}

double num_field(std::string_view obj, std::string_view key, double dflt = 0.0) {
  const std::string_view v = object_field(obj, key);
  return v.empty() ? dflt : std::strtod(std::string(v).c_str(), nullptr);
}

std::uint64_t int_field(std::string_view obj, std::string_view key) {
  const std::string_view v = object_field(obj, key);
  return v.empty() ? 0 : std::strtoull(std::string(v).c_str(), nullptr, 10);
}

std::string str_field(std::string_view obj, std::string_view key) {
  std::string_view v = object_field(obj, key);
  if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
  return simx::json_unescape(v);
}

const std::string& delta_name(const KeyDelta& d) {
  return d.name_str.empty() ? name_of(d.name) : d.name_str;
}

}  // namespace

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
    w.lit("{\"n\":").str(delta_name(d)).lit(",\"r\":").num(d.region);
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

bool parse_timeseries_line(const std::string& line, TimeSeries& ts) {
  if (line.empty()) return true;
  if (!object_field(line, "ipm_timeseries").empty()) {
    ts.command = str_field(line, "command");
    ts.interval = num_field(line, "interval");
    return true;
  }
  const std::string_view type = object_field(line, "type");
  if (type == "\"sample\"") {
    Sample s;
    s.rank = static_cast<int>(int_field(line, "rank"));
    s.seq = int_field(line, "seq");
    s.t0 = num_field(line, "t0");
    s.t1 = num_field(line, "t1");
    s.final_flush = int_field(line, "final") != 0;
    s.ddev_flops = num_field(line, "gf");
    s.ddev_bytes = num_field(line, "gb");
    for (const std::string_view r : array_items(object_field(line, "regions"))) {
      std::string_view v = r;
      if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
      s.regions.push_back(simx::json_unescape(v));
    }
    for (const std::string_view dv : array_items(object_field(line, "deltas"))) {
      KeyDelta d;
      d.name_str = str_field(dv, "n");
      d.region = static_cast<std::uint32_t>(int_field(dv, "r"));
      d.select = static_cast<std::int32_t>(
          std::strtol(std::string(object_field(dv, "s")).c_str(), nullptr, 10));
      d.dcount = int_field(dv, "c");
      d.dbytes = int_field(dv, "b");
      d.dtsum = num_field(dv, "t");
      d.dflops = num_field(dv, "f");
      s.deltas.push_back(std::move(d));
    }
    ts.samples.push_back(std::move(s));
  } else if (type == "\"point\"") {
    ClusterPoint p;
    p.k = int_field(line, "k");
    p.t0 = num_field(line, "t0");
    p.t1 = num_field(line, "t1");
    p.ranks = static_cast<int>(int_field(line, "ranks"));
    p.ranks_live = static_cast<int>(int_field(line, "ranks_live"));
    p.samples = int_field(line, "samples");
    p.devents = int_field(line, "devents");
    p.mpi_s = num_field(line, "mpi_s");
    p.cuda_s = num_field(line, "cuda_s");
    p.gpu_s = num_field(line, "gpu_s");
    p.idle_s = num_field(line, "idle_s");
    p.blas_s = num_field(line, "blas_s");
    p.fft_s = num_field(line, "fft_s");
    p.mpi_bytes = int_field(line, "mpi_bytes");
    p.cuda_bytes = int_field(line, "cuda_bytes");
    p.flops = num_field(line, "flops");
    p.dev_flops = num_field(line, "devflops");
    p.dev_bytes = num_field(line, "devbytes");
    for (const std::string_view rv : array_items(object_field(line, "regions"))) {
      p.region_flops.emplace_back(str_field(rv, "name"), num_field(rv, "flops"));
    }
    ts.points.push_back(std::move(p));
  } else if (type == "\"end\"") {
    return false;
  }
  return true;
}

bool parse_sample_line(std::string_view line, Sample& out) {
  const char* p = line.data();
  const char* const end = p + line.size();
  // lit() consumes `s` on match and leaves `p` untouched on mismatch, so it
  // doubles as a probe for the optional fields ("gf"/"gb"/"f").
  const auto lit = [&](std::string_view s) {
    if (static_cast<std::size_t>(end - p) < s.size() ||
        std::memcmp(p, s.data(), s.size()) != 0) {
      return false;
    }
    p += s.size();
    return true;
  };
  const auto parse_int = [&](auto& v) {
    const auto [np, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) return false;
    p = np;
    return true;
  };
  const auto parse_dbl = [&](double& v) {
    const auto [np, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) return false;
    p = np;
    return true;
  };
  const auto parse_str = [&](std::string& s) {
    if (p >= end || *p != '"') return false;
    ++p;
    const char* const start = p;
    bool escaped = false;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        escaped = true;
        ++p;
        if (p >= end) return false;
      }
      ++p;
    }
    if (p >= end) return false;
    const std::string_view body(start, static_cast<std::size_t>(p - start));
    s = escaped ? simx::json_unescape(body) : std::string(body);
    ++p;
    return true;
  };

  out = Sample{};
  int final_flag = 0;
  if (!lit("{\"type\":\"sample\",\"rank\":") || !parse_int(out.rank) ||
      !lit(",\"seq\":") || !parse_int(out.seq) || !lit(",\"t0\":") ||
      !parse_dbl(out.t0) || !lit(",\"t1\":") || !parse_dbl(out.t1) ||
      !lit(",\"final\":") || !parse_int(final_flag)) {
    return false;
  }
  out.final_flush = final_flag != 0;
  if (lit(",\"gf\":") && !parse_dbl(out.ddev_flops)) return false;
  if (lit(",\"gb\":") && !parse_dbl(out.ddev_bytes)) return false;
  if (!lit(",\"regions\":[")) return false;
  if (p < end && *p != ']') {
    for (;;) {
      std::string region;
      if (!parse_str(region)) return false;
      out.regions.push_back(std::move(region));
      if (!lit(",")) break;
    }
  }
  if (!lit("],\"deltas\":[")) return false;
  if (p < end && *p != ']') {
    for (;;) {
      KeyDelta d;
      std::int32_t sel = 0;
      if (!lit("{\"n\":") || !parse_str(d.name_str) || !lit(",\"r\":") ||
          !parse_int(d.region) || !lit(",\"s\":") || !parse_int(sel) ||
          !lit(",\"c\":") || !parse_int(d.dcount) || !lit(",\"b\":") ||
          !parse_int(d.dbytes) || !lit(",\"t\":") || !parse_dbl(d.dtsum)) {
        return false;
      }
      d.select = sel;
      if (lit(",\"f\":") && !parse_dbl(d.dflops)) return false;
      if (!lit("}")) return false;
      out.deltas.push_back(std::move(d));
      if (!lit(",")) break;
    }
  }
  return lit("]}") && p == end;
}

TimeSeries read_timeseries_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ipm: cannot open time-series file " + path);
  std::string line;
  if (!std::getline(in, line) || object_field(line, "ipm_timeseries").empty()) {
    throw std::runtime_error("ipm: " + path + " is not an ipm_timeseries file");
  }
  TimeSeries ts;
  ts.command = str_field(line, "command");
  ts.interval = num_field(line, "interval");
  while (std::getline(in, line)) {
    if (!parse_timeseries_line(line, ts)) break;
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
