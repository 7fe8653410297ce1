// ipm_parse — the IPM log parser tool (paper §II).
//
// Usage:
//   ipm_parse <profile.xml>                 # re-produce the banner
//   ipm_parse --html out.html <profile.xml> # HTML report
//   ipm_parse --cube out.cube <profile.xml> # CUBE-like export
//   ipm_parse --advise <profile.xml>        # tuning guidance (paper SVI)
//   ipm_parse --compare <a.xml> <b.xml>     # side-by-side profile diff
//   ipm_parse --trace out.json <profile.xml># merge per-rank traces (Chrome)
//   ipm_parse --timeline <profile.xml>      # ASCII trace timeline
//   ipm_parse --timeseries <profile.xml>    # live-telemetry roll-ups
//   ipm_parse --follow <ts.jsonl>           # tail an in-progress time series
//   ipm_parse --conserve <ts.jsonl> <p.xml> # check delta-stream conservation
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ipm/report.hpp"
#include "ipm_live/live.hpp"
#include "ipm_parse/advisor.hpp"
#include "ipm_parse/export.hpp"
#include "ipm_parse/trace.hpp"
#include "simcommon/str.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ipm_parse [--html FILE | --cube FILE | --advise | --trace FILE |"
               " --timeline | --timeseries] <profile.xml>\n"
               "       ipm_parse --compare <a.xml> <b.xml>\n"
               "       ipm_parse --follow [--follow-timeout SECS] <timeseries.jsonl>\n"
               "       ipm_parse --conserve <timeseries.jsonl> <profile.xml>\n");
  return 2;
}

/// `--follow`: tail a live time-series JSONL file, re-rendering the
/// sparkline roll-up whenever new cluster points land.  Terminates when the
/// writer appends its {"type":"end",...} trailer, or after `timeout_s`
/// seconds without progress (0 = wait forever).  On a terminal each render
/// repaints in place; otherwise successive reports are appended.  Throws,
/// naming "<path>:<line>", on a complete line no time-series writer emits.
int follow_timeseries(const std::string& path, double timeout_s) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point last_progress = Clock::now();
  std::ifstream in;
  ipm::live::TimeSeries ts;
  std::size_t lines = 0;
  std::size_t rendered_points = 0;
  bool rendered_once = false;
  bool complete = false;
  while (true) {
    bool progressed = false;
    if (!in.is_open()) {
      in.open(path);
      if (!in.is_open()) in = std::ifstream();  // reset failbit state
    }
    while (in.is_open()) {
      const std::ifstream::pos_type pos = in.tellg();
      std::string line;
      if (!std::getline(in, line) || in.eof()) {
        // Either nothing new or a partially written last line (getline that
        // hits EOF has no terminating newline yet): rewind and retry later.
        in.clear();
        in.seekg(pos);
        break;
      }
      progressed = true;
      ++lines;
      const ipm::live::LineKind kind = ipm::live::parse_timeseries_line(line, ts);
      if (kind == ipm::live::LineKind::kRejected) {
        throw std::runtime_error(simx::strprintf(
            "%s:%zu: malformed time-series line", path.c_str(), lines));
      }
      if (kind == ipm::live::LineKind::kEnd) {
        complete = true;
        break;
      }
    }
    if (complete || ts.points.size() != rendered_points || !rendered_once) {
      rendered_points = ts.points.size();
      rendered_once = true;
      if (isatty(STDOUT_FILENO) != 0) std::fputs("\x1b[2J\x1b[H", stdout);
      ipm::live::write_timeseries_report(std::cout, ts);
      if (complete) std::cout << "# --follow: stream complete\n";
      std::cout.flush();
    }
    if (complete) return 0;
    if (progressed) {
      last_progress = Clock::now();
    } else {
      const std::chrono::duration<double> idle = Clock::now() - last_progress;
      if (timeout_s > 0.0 && idle.count() >= timeout_s) {
        std::fprintf(stderr, "ipm_parse: --follow: no progress on %s for %.3gs\n",
                     path.c_str(), timeout_s);
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

/// `--conserve`: the transport acceptance check.  Fold every per-rank delta
/// sample in the JSONL stream and require that the fold reproduces each
/// rank's finalize profile (the XML event records) *bit-exactly* — count,
/// bytes, and tsum.  Works on collector output and on the daemon's per-job
/// file alike, since both store the raw sample lines.
int check_conservation(const std::string& ts_path, const std::string& xml_path) {
  const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(ts_path);
  const ipm::JobProfile job = ipm::parse_xml_file(xml_path);
  using Key = std::tuple<int, std::string, std::uint32_t, std::int32_t>;
  struct Fold {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    double tsum = 0.0;
  };
  std::map<Key, Fold> fold;
  for (const ipm::live::Sample& s : ts.samples) {
    for (const ipm::live::KeyDelta& d : s.deltas) {
      Fold& f = fold[{s.rank, d.name_str, d.region, d.select}];
      f.count += d.dcount;
      f.bytes += d.dbytes;
      f.tsum += d.dtsum;
    }
  }
  std::size_t records = 0;
  std::size_t mismatches = 0;
  for (const ipm::RankProfile& r : job.ranks) {
    for (const ipm::EventRecord& e : r.events) {
      ++records;
      const auto it = fold.find({r.rank, e.name, e.region, e.select});
      if (it == fold.end()) {
        std::fprintf(stderr, "CONSERVATION: rank %d %s region %u: no folded deltas\n",
                     r.rank, e.name.c_str(), e.region);
        ++mismatches;
        continue;
      }
      const Fold& f = it->second;
      if (f.count != e.count || f.bytes != e.bytes || f.tsum != e.tsum) {
        std::fprintf(stderr,
                     "CONSERVATION: rank %d %s region %u: folded "
                     "(count %llu, bytes %llu, tsum %.17g) != profile "
                     "(count %llu, bytes %llu, tsum %.17g)\n",
                     r.rank, e.name.c_str(), e.region,
                     static_cast<unsigned long long>(f.count),
                     static_cast<unsigned long long>(f.bytes), f.tsum,
                     static_cast<unsigned long long>(e.count),
                     static_cast<unsigned long long>(e.bytes), e.tsum);
        ++mismatches;
      }
    }
  }
  if (fold.size() != records) {
    std::fprintf(stderr,
                 "CONSERVATION: %zu folded (rank,event) keys vs %zu profile records\n",
                 fold.size(), records);
    ++mismatches;
  }
  std::printf("conservation: %zu profile records over %d ranks, %zu samples: %s\n",
              records, job.nranks, ts.samples.size(),
              mismatches == 0 ? "bit-exact" : "FAILED");
  return mismatches == 0 ? 0 : 1;
}

/// Directory part of a path ("" when there is none).
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

int main(int argc, char** argv) {
  std::string html_out;
  std::string cube_out;
  std::string trace_out;
  bool advise = false;
  bool timeline = false;
  bool timeseries = false;
  bool do_compare = false;
  bool do_follow = false;
  bool do_conserve = false;
  double follow_timeout = 0.0;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--html" && i + 1 < argc) html_out = argv[++i];
    else if (arg == "--cube" && i + 1 < argc) cube_out = argv[++i];
    else if (arg == "--trace" && i + 1 < argc) trace_out = argv[++i];
    else if (arg == "--timeline") timeline = true;
    else if (arg == "--timeseries") timeseries = true;
    else if (arg == "--advise") advise = true;
    else if (arg == "--compare") do_compare = true;
    else if (arg == "--follow") do_follow = true;
    else if (arg == "--conserve") do_conserve = true;
    else if (arg == "--follow-timeout" && i + 1 < argc) {
      // Seconds without progress: a finite number >= 0 (0 waits forever).
      const char* v = argv[++i];
      follow_timeout = -1.0;
      try {
        follow_timeout = simx::parse_double(v);
      } catch (const std::runtime_error&) {
      }
      if (!std::isfinite(follow_timeout) || follow_timeout < 0.0) {
        std::fprintf(stderr, "ipm_parse: invalid value '%s' for --follow-timeout\n", v);
        return usage();
      }
    }
    else if (arg == "--html" || arg == "--cube" || arg == "--trace" || arg == "--follow-timeout") {
      std::fprintf(stderr, "ipm_parse: option '%s' requires a file argument\n", arg.c_str());
      return usage();
    }
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ipm_parse: unknown option '%s'\n", arg.c_str());
      return usage();
    }
    else inputs.push_back(arg);
  }
  if (inputs.empty() || (do_compare && inputs.size() != 2) ||
      (do_conserve && inputs.size() != 2)) {
    return usage();
  }
  const std::string& input = inputs[0];
  try {
    if (do_follow) return follow_timeseries(input, follow_timeout);
    if (do_conserve) return check_conservation(inputs[0], inputs[1]);
    if (do_compare) {
      const ipm::JobProfile a = ipm::parse_xml_file(inputs[0]);
      const ipm::JobProfile b = ipm::parse_xml_file(inputs[1]);
      ipm_parse::write_compare(std::cout, a, b);
      return 0;
    }
    const ipm::JobProfile job = ipm::parse_xml_file(input);
    if (!html_out.empty()) {
      ipm_parse::write_html_file(html_out, job);
      std::printf("wrote %s\n", html_out.c_str());
    }
    if (!cube_out.empty()) {
      ipm_parse::write_cube_file(cube_out, job);
      std::printf("wrote %s\n", cube_out.c_str());
    }
    if (!trace_out.empty() || timeline) {
      const auto traces = ipm_parse::load_job_traces(job, dir_of(input));
      if (traces.empty()) {
        std::fprintf(stderr, "ipm_parse: %s references no trace files (run with "
                             "Config::trace / IPM_TRACE=1)\n", input.c_str());
        return 1;
      }
      if (!trace_out.empty()) {
        ipm_parse::write_chrome_trace_file(trace_out, traces);
        std::printf("wrote %s\n", trace_out.c_str());
      }
      if (timeline) ipm_parse::write_timeline(std::cout, job, traces);
    }
    if (timeseries) {
      if (job.timeseries_file.empty()) {
        std::fprintf(stderr, "ipm_parse: %s references no time series (run with "
                             "Config::snapshot_interval / IPM_SNAPSHOT=<secs>)\n",
                     input.c_str());
        return 1;
      }
      // The XML stores the path as written at job end; like trace files it
      // is resolved relative to the XML log's own directory.
      std::string ts_path = job.timeseries_file;
      const std::string dir = dir_of(input);
      if (!dir.empty() && ts_path.front() != '/') ts_path = dir + "/" + ts_path;
      const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(ts_path);
      ipm::live::write_timeseries_report(std::cout, ts);
    }
    if (advise) {
      ipm_parse::write_advice(std::cout, job);
    } else if (html_out.empty() && cube_out.empty() && trace_out.empty() && !timeline &&
               !timeseries) {
      ipm::write_banner(std::cout, job, {.max_rows = 0, .full = true});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ipm_parse: %s\n", e.what());
    return 1;
  }
  return 0;
}
