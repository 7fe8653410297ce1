// App workloads: amber_stream and hpl_collect.
//
// One pass = one monitored job: fresh simulator, job_begin, two ranks under
// mpisim::run_cluster (each MPI_Init / run_rank / MPI_Finalize), job_end.
// The untraced run alternates unmonitored and fully monitored passes; the
// traced run climbs the seven-rung Config ladder in interleaved rounds.
// Every monitored pass is verified, outside its timed window: the live time
// series folds bit-exactly to the finalize profile, trace span sums match
// the profile, and (with the socket sink) the daemon applied exactly the
// samples the job published.  The timed report path, which runs the same
// checks on the XML round trip, runs on every third job only.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/amber.hpp"
#include "apps/hpl.hpp"
#include "common.hpp"
#include "cudasim/control.hpp"
#include "ipm/monitor.hpp"
#include "ipm/report.hpp"
#include "ipm_cuda/layer.hpp"
#include "ipm_live/live.hpp"
#include "ipm_parse/trace.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"

namespace ipmbench {

namespace {

constexpr int kRanks = 2;
constexpr int kRungs = 7;

struct AppSpec {
  bool amber = true;
  int full_rung = 7;  ///< rung of the untraced run's full stack
  double snapshot_interval = 0.05;
  unsigned trace_log2 = 17;
  apps::amber::Config amber_cfg;
  apps::hpl::Config hpl_cfg;
  std::uint64_t noise_seed = 1;
};

AppSpec make_spec(const Options& opt) {
  AppSpec s;
  std::uint64_t rng = opt.seed * 0x9E3779B97F4A7C15ull + 17;
  s.noise_seed = splitmix64(rng);
  if (opt.workload == "amber_stream") {
    s.amber = true;
    s.full_rung = 7;
    s.snapshot_interval = 0.05;  // ~5 ms virtual per step: one sample per ~10 steps
    s.amber_cfg.timesteps = 1000;
    // Seeded input: system size (readback bytes) within +-4 % of JAC's.
    s.amber_cfg.atoms = 22600 + static_cast<int>(splitmix64(rng) % 1900);
    s.trace_log2 = 17;
  } else {
    s.amber = false;
    s.full_rung = 6;
    s.snapshot_interval = 0.5;
    s.hpl_cfg.n = 16384;
    s.hpl_cfg.nb = 128;
    s.hpl_cfg.backend = apps::hpl::Backend::kCublas;  // kGpuModelOnly runs host BLAS
    s.hpl_cfg.seed = static_cast<unsigned>(splitmix64(rng));
    s.trace_log2 = 18;
  }
  return s;
}

/// One job's measurements.
struct Pass {
  int rung = 0;
  std::string id;
  std::string base;  ///< path stem of this pass's files
  double wall = 0.0, cpu = 0.0, rank_cpu = 0.0;
  double job_end = 0.0;                   ///< real seconds in job_end()
  std::vector<double> init_s, fin_s;      ///< per-rank MPI_Init / MPI_Finalize
  std::uint64_t launches = 0, probes = 0, signatures = 0;
  ipm::JobProfile job;
  std::string ts_path;  ///< time series written for this job ("" = none)

  [[nodiscard]] std::uint64_t events() const {
    std::uint64_t n = 0;
    for (const auto& r : job.ranks) {
      for (const auto& e : r.events) n += e.count;
    }
    return n;
  }
  [[nodiscard]] std::uint64_t trace_records() const {
    std::uint64_t n = 0;
    for (const auto& r : job.ranks) n += r.trace_spans;
    return n;
  }
  [[nodiscard]] std::uint64_t trace_drops() const {
    std::uint64_t n = 0;
    for (const auto& r : job.ranks) n += r.trace_drops;
    return n;
  }
  [[nodiscard]] std::uint64_t overflow() const {
    std::uint64_t n = 0;
    for (const auto& r : job.ranks) n += r.table_overflow;
    return n;
  }
};

/// Outputs and call times of the post-mortem report path.
struct ReportTimes {
  ipm::JobProfile parsed;
  std::vector<ipm::RankTrace> traces;
  double xml_parse_s = 0.0, trace_merge_s = 0.0, fold_s = 0.0;
  std::uint64_t fold_bad = 0, samples = 0, ulp_misses = 0;
};

ipm::Config rung_config(const AppSpec& s, int rung, const Pass& p, const DaemonThread* d) {
  ipm::Config c;
  if (rung == 1) {
    c.enabled = false;
    return c;
  }
  c.kernel_timing = rung >= 3;
  c.host_idle = rung >= 4;
  if (rung >= 5) {
    c.trace = true;
    c.trace_log2_records = s.trace_log2;
    c.trace_path = p.base + ".trace";
  }
  if (rung >= 6) {
    c.snapshot_interval = s.snapshot_interval;
    c.snapshot_adaptive = false;  // fixed cadence: sample counts repeat exactly
    c.snapshot_log2_samples = 12;
    c.timeseries_path = p.base + "_timeseries.jsonl";
    c.prom_path = p.base + ".prom";
  }
  if (rung >= 7 && d != nullptr) {
    c.agg_addr = d->addr();
    c.job_id = p.id;
  }
  return c;
}

class AppRunner {
 public:
  AppRunner(const Options& opt, Report& rep) : opt_(opt), rep_(rep), spec_(make_spec(opt)) {
    cusim::set_execute_bodies(false);
  }

  /// Daemon lifecycle + one unmonitored and one full-stack warm-up pass.
  double setup(bool need_daemon) {
    const double t0 = now_s();
    Span sp("setup");
    daemon_.reset();
    if (need_daemon) daemon_ = std::make_unique<DaemonThread>(opt_.work_dir + "/aggd" + std::to_string(serial_), 0);
    run_pass(1, false);
    Pass b = run_pass(full_rung(), false);
    verify(b);
    cleanup(b);
    return now_s() - t0;
  }

  [[nodiscard]] int full_rung() const { return spec_.full_rung; }

  Pass run_pass(int rung, bool spans) {
    Pass p;
    p.rung = rung;
    p.id = "job" + std::to_string(serial_++);
    p.base = opt_.work_dir + "/" + p.id;
    const ipm::Config cfg =
        rung_config(spec_, rung, p, rung >= 7 ? daemon_.get() : nullptr);
    if (rung >= 7 && !daemon_) throw std::runtime_error("rung 7 needs the daemon");

    cusim::Topology topo;
    topo.nodes = kRanks;
    topo.timing.init_cost = 0.4;
    cusim::configure(topo);
    simx::reset_default_context();
    mpisim::ClusterConfig cc;
    cc.ranks = kRanks;
    cc.ranks_per_node = 1;
    cc.noise.sigma = 0.02;
    cc.noise_seed = spec_.noise_seed;
    p.init_s.assign(kRanks, 0.0);
    p.fin_s.assign(kRanks, 0.0);
    std::vector<double> rcpu(kRanks, 0.0);
    std::vector<ipm::cuda::LayerStats> lstats(kRanks);
    std::vector<std::uint64_t> sigs(kRanks, 0);

    const bool was = Spans::get().enabled();
    Spans::get().enable(was && spans);
    {
      static const char* const kPassSpan[] = {"",        "pass.r1", "pass.r2", "pass.r3",
                                              "pass.r4", "pass.r5", "pass.r6", "pass.r7"};
      Span pass_span(kPassSpan[rung]);
      const double c0 = proc_cpu_s();
      const double t0 = now_s();
      {
        Span sp("job_begin");
        ipm::job_begin(cfg, spec_.amber ? "./pmemd.cuda" : "./xhpl.cuda");
      }
      {
        Span cl("run_cluster");
        const int cl_id = Spans::current();
        mpisim::run_cluster(cc, [&](int rank) {
          const auto r = static_cast<std::size_t>(rank);
          Span rs("rank", cl_id);
          const double rc0 = thread_cpu_s();
          double t = now_s();
          {
            Span sp("MPI_Init");
            MPI_Init(nullptr, nullptr);
          }
          p.init_s[r] = now_s() - t;
          {
            Span sp("run_rank");
            if (spec_.amber) {
              apps::amber::run_rank(spec_.amber_cfg);
            } else {
              apps::hpl::run_rank(spec_.hpl_cfg);
            }
          }
          if (ipm::Monitor* mon = ipm::monitor()) {
            lstats[r] = ipm::cuda::layer_stats(*mon);
            sigs[r] = mon->table().size();
          }
          t = now_s();
          {
            Span sp("MPI_Finalize");
            MPI_Finalize();
          }
          p.fin_s[r] = now_s() - t;
          rcpu[r] = thread_cpu_s() - rc0;
        });
      }
      const double t2 = now_s();
      {
        Span sp("job_end");
        p.job = ipm::job_end();
      }
      const double t3 = now_s();
      p.cpu = proc_cpu_s() - c0;
      p.wall = t3 - t0;
      p.job_end = t3 - t2;
    }
    Spans::get().enable(was);
    for (int r = 0; r < kRanks; ++r) {
      p.rank_cpu += rcpu[static_cast<std::size_t>(r)];
      p.launches += lstats[static_cast<std::size_t>(r)].ktt_inserts;
      p.probes += lstats[static_cast<std::size_t>(r)].idle_probes;
      p.signatures += sigs[static_cast<std::size_t>(r)];
    }
    if (rung >= 6) {
      p.ts_path = rung >= 7 ? daemon_->jsonl(p.id) : p.job.timeseries_file;
    }
    return p;
  }

  /// The analyst's post-mortem path, timed call by call; its outputs feed
  /// the verification.  Returns report seconds.
  double report(const Pass& p, ReportTimes& rt) {
    Span sp("report");
    const std::string xml = p.base + ".xml";
    const double t0 = now_s();
    {
      Span s("write_xml_file");
      ipm::write_xml_file(xml, p.job);
    }
    const double t1 = now_s();
    {
      Span s("parse_xml_file");
      rt.parsed = ipm::parse_xml_file(xml);
    }
    const double t2 = now_s();
    {
      Span s("load_job_traces");
      rt.traces = ipm_parse::load_job_traces(rt.parsed, "");
    }
    {
      Span s("write_chrome_trace_file");
      ipm_parse::write_chrome_trace_file(p.base + ".chrome.json", rt.traces);
    }
    const double t3 = now_s();
    {
      Span s("conserve_fold");
      rt.fold_bad = conserve_fold(p.ts_path, rt.parsed, rt.samples, rt.ulp_misses);
    }
    const double t4 = now_s();
    rt.xml_parse_s = t2 - t1;
    rt.trace_merge_s = t3 - t2;
    rt.fold_s = t4 - t3;
    return t4 - t0;
  }

  /// Checks of one monitored pass (after its report path ran).
  void verify_report(const Pass& p, const ReportTimes& rt) {
    ulp_misses_ += rt.ulp_misses;
    const std::string tag = "pass " + p.id + " rung " + std::to_string(p.rung);
    rep_.check(rt.parsed.ranks.size() == p.job.ranks.size(), tag + ": XML round trip ranks");
    if (p.rung >= 6) {
      rep_.check(rt.fold_bad == 0, tag + ": live time series does not fold to the profile (" +
                                       std::to_string(rt.fold_bad) + " records)");
      rep_.check(rt.samples == p.job.snapshot_samples(),
                 tag + ": time series holds " + std::to_string(rt.samples) + " samples, job published " +
                     std::to_string(p.job.snapshot_samples()));
    }
    if (p.rung >= 5 && p.trace_drops() == 0) {
      rep_.check(trace_sums_match(rt), tag + ": trace span sums differ from profile totals");
    }
  }

  /// The same checks for a pass whose report path is not run: untimed, on
  /// the in-memory profile instead of its XML round trip.
  void verify(const Pass& p) {
    if (p.rung < 5) return;
    Span sp("verify");
    ReportTimes rt;
    rt.parsed = p.job;
    rt.traces = ipm_parse::load_job_traces(p.job, "");
    rt.fold_bad = conserve_fold(p.ts_path, p.job, rt.samples, rt.ulp_misses);
    verify_report(p, rt);
  }

  void cleanup(const Pass& p) {
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(opt_.work_dir, ec)) {
      const std::string name = e.path().filename().string();
      if (name.rfind(p.id + ".", 0) == 0 || name.rfind(p.id + "_", 0) == 0) {
        std::filesystem::remove(e.path(), ec);
      }
    }
    if (!p.ts_path.empty()) std::filesystem::remove(p.ts_path, ec);
  }

  /// Applied == offered at the daemon, after it stopped.
  void verify_daemon(const std::vector<std::pair<std::string, std::uint64_t>>& offered) {
    if (!daemon_) return;
    daemon_->stop();
    ipm::aggd::Daemon& d = daemon_->daemon();
    for (const auto& [id, samples] : offered) {
      const auto* ranks = d.job_ranks(id);
      std::uint64_t applied = 0, resent = 0;
      if (ranks != nullptr) {
        for (const auto& [r, rs] : *ranks) {
          applied += rs.samples;
          resent += rs.resent;
        }
      }
      rep_.check(ranks != nullptr && applied == samples,
                 "daemon applied " + std::to_string(applied) + " of " + std::to_string(samples) +
                     " samples for " + id);
    }
    rep_.check(d.protocol_errors() == 0, "daemon protocol errors");
  }

  [[nodiscard]] DaemonThread* daemon() { return daemon_.get(); }
  [[nodiscard]] std::uint64_t ulp_misses() const { return ulp_misses_; }

 private:
  /// Records whose folded deltas differ from the profile; a tsum exactly
  /// one ulp off with count and bytes equal is counted in `ulp_misses`
  /// instead (see README: a known live-publisher rounding defect).
  static std::uint64_t conserve_fold(const std::string& path, const ipm::JobProfile& job,
                                     std::uint64_t& samples, std::uint64_t& ulp_misses) {
    if (path.empty()) return 0;
    const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(path);
    using Key = std::tuple<int, std::string, std::uint32_t, std::int32_t>;
    struct Fold {
      std::uint64_t count = 0, bytes = 0;
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
    samples = ts.samples.size();
    std::uint64_t bad = 0;
    std::size_t records = 0;
    for (const ipm::RankProfile& r : job.ranks) {
      for (const ipm::EventRecord& e : r.events) {
        ++records;
        const auto it = fold.find({r.rank, e.name, e.region, e.select});
        if (it == fold.end() || it->second.count != e.count || it->second.bytes != e.bytes) {
          ++bad;
        } else if (it->second.tsum != e.tsum) {  // bit-exact, the ipm_parse --conserve rule
          const double up = std::nextafter(e.tsum, HUGE_VAL);
          const double down = std::nextafter(e.tsum, -HUGE_VAL);
          ++(it->second.tsum == up || it->second.tsum == down ? ulp_misses : bad);
        }
      }
    }
    if (fold.size() != records) ++bad;
    return bad;
  }

  static bool trace_sums_match(const ReportTimes& rt) {
    using Key = std::tuple<int, std::string, std::string, std::int32_t>;
    struct Sum {
      std::uint64_t count = 0, bytes = 0;
      double tsum = 0.0;
    };
    std::map<Key, Sum> sums;
    for (const ipm::RankTrace& t : rt.traces) {
      for (const ipm::TraceSpan& s : t.spans) {
        if (s.kind == ipm::TraceKind::kMarker) continue;
        Sum& x = sums[{t.rank, s.name, s.region, s.select}];
        x.count += 1;
        x.bytes += s.bytes;
        x.tsum += s.dur;
      }
    }
    std::size_t matched = 0;
    for (const ipm::RankProfile& r : rt.parsed.ranks) {
      for (const ipm::EventRecord& e : r.events) {
        const std::string region =
            e.region < r.regions.size() ? r.regions[e.region] : std::to_string(e.region);
        const auto it = sums.find({r.rank, e.name, region, e.select});
        if (it == sums.end()) {
          if (e.name == "MPI_Init" || e.name == "MPI_Finalize") continue;
          return false;
        }
        ++matched;
        const Sum& x = it->second;
        if (x.count != e.count || x.bytes != e.bytes ||
            std::abs(x.tsum - e.tsum) > 1e-9 * (1.0 + e.tsum)) {
          return false;
        }
      }
    }
    return matched == sums.size();
  }

  const Options& opt_;
  Report& rep_;
  AppSpec spec_;
  std::unique_ptr<DaemonThread> daemon_;
  int serial_ = 0;
  std::uint64_t ulp_misses_ = 0;
};

std::vector<std::string> sample_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"sample\"") != std::string::npos) out.push_back(line);
  }
  return out;
}

double median_of(std::vector<double> v) {
  Dist d;
  d.v = std::move(v);
  return d.median();
}

// --- untraced run: end-to-end metrics ------------------------------------------

void run_e2e(const Options& opt, Report& rep, AppRunner& ar) {
  const bool need_daemon = ar.full_rung() >= 7;
  Dist setup;
  for (int i = 0; i < 5; ++i) setup.add(ar.setup(need_daemon));
  const double d_cpu0 = need_daemon ? ar.daemon()->io_cpu() : 0.0;

  Dist wall, cpu, cost, cpu_cost, report_s, agg_us, ack, unmon;
  std::vector<std::pair<std::string, std::uint64_t>> offered;
  std::uint64_t events = 0, samples = 0;
  // The budget counts timed windows only, so the untimed verification
  // between passes does not thin out the sample.
  double measured = 0.0;
  for (int i = 0; i < 3 || measured < opt.seconds; ++i) {
    Pass a, m;
    if (i % 2 == 0) {
      a = ar.run_pass(1, false);
      m = ar.run_pass(ar.full_rung(), false);
    } else {
      m = ar.run_pass(ar.full_rung(), false);
      a = ar.run_pass(1, false);
    }
    events = m.events();
    samples = m.job.snapshot_samples();
    wall.add(m.wall);
    cpu.add(m.cpu);
    unmon.add(a.wall);
    cost.add((m.wall - a.wall) / static_cast<double>(events) * 1e9);
    cpu_cost.add((m.cpu - a.cpu) / static_cast<double>(events) * 1e9);
    agg_us.add((m.cpu - m.rank_cpu) / static_cast<double>(std::max<std::uint64_t>(samples, 1)) * 1e6);
    ack.add(m.job_end * 1e3);
    measured += a.wall + m.wall;
    if (i % 3 == 0) {  // the timed report path costs more than the job: every third
      ReportTimes rt;
      report_s.add(ar.report(m, rt));
      ar.verify_report(m, rt);
    } else {
      ar.verify(m);
    }
    if (m.rung >= 7) offered.emplace_back(m.id, samples);
    ar.cleanup(m);
  }
  const double d_cpu = need_daemon ? ar.daemon()->io_cpu() - d_cpu0 : 0.0;
  ar.verify_daemon(offered);

  rep.add("setup_s", "s", setup.median());
  rep.add("wall_s", "s", wall.median());
  rep.add("cpu_s", "s", cpu.median());
  rep.add("monitor_ns_per_event", "ns", cost.median());
  rep.add("monitor_cpu_ns_per_event", "ns", cpu_cost.median());
  rep.add("report_s", "s", report_s.median());
  rep.add("daemon_cpu_us_per_sample", "us", agg_us.median());
  rep.add("ack_p50_ms", "ms", ack.median());
  // A run holds about 40 jobs, too few for a p99: report the highest percentile
  // with ten jobs beyond it.
  const auto [ack_p, ack_tail] = ack.tail();
  rep.add("ack_p99_ms", "ms", ack_tail);

  rep.note("# end-to-end (full stack = rung %d; %llu events, %llu live samples per job)",
           ar.full_rung(), static_cast<unsigned long long>(events),
           static_cast<unsigned long long>(samples));
  rep.note("  %-28s %12s %-6s  %-6s %12s  %s", "metric", "median", "unit", "tail", "value", "n");
  rep.timing_row("setup_s", "s", setup);
  rep.timing_row("wall_s", "s", wall);
  rep.timing_row("cpu_s", "s", cpu);
  rep.timing_row("monitor_ns_per_event", "ns", cost);
  rep.timing_row("monitor_cpu_ns_per_event", "ns", cpu_cost);
  rep.timing_row("report_s", "s", report_s);
  rep.timing_row("daemon_cpu_us_per_sample", "us", agg_us);
  rep.timing_row("ack_p50_ms (job_end)", "ms", ack);
  rep.note("  ack_p99_ms reports the p%.3g job_end latency: %.6g ms (%zu jobs)", ack_p, ack_tail,
           ack.n());
  rep.timing_row("unmonitored wall", "s", unmon);
  rep.note("  dilatation (monitored/unmonitored wall - 1): %.4g %%",
           (wall.median() / unmon.median() - 1.0) * 100.0);
  if (need_daemon) {
    rep.note("  daemon IO thread: %.4g s CPU over %zu jobs", d_cpu, offered.size());
  }
  rep.note("  conservation: %llu records folded one ulp off the profile (tsum)",
           static_cast<unsigned long long>(ar.ulp_misses()));
}

// --- traced run: the seven-rung ladder ------------------------------------------

void run_ladder(const Options& opt, Report& rep, AppRunner& ar) {
  Dist setup;
  for (int i = 0; i < 3; ++i) setup.add(ar.setup(true));
  const double d_cpu0 = ar.daemon()->io_cpu();

  std::vector<Dist> wall(kRungs + 1), cpu(kRungs + 1);
  std::vector<std::vector<double>> dwall(kRungs + 1), dcpu(kRungs + 1);
  Dist untraced, init_us, fin_ms, job_end_ms, xml_parse, trace_merge, fold;
  std::vector<Pass> last(kRungs + 1);
  std::vector<std::pair<std::string, std::uint64_t>> offered;
  std::vector<std::string> lines;
  double jsonl_bytes = 0.0;
  const double t_end = now_s() + opt.seconds;
  for (int round = 0; round < 3 || now_s() < t_end; ++round) {
    std::vector<double> w(kRungs + 1), c(kRungs + 1);
    for (int k = 0; k < kRungs; ++k) {
      const int rung = round % 2 == 0 ? k + 1 : kRungs - k;  // alternate direction
      Pass p = ar.run_pass(rung, true);
      w[static_cast<std::size_t>(rung)] = p.wall;
      c[static_cast<std::size_t>(rung)] = p.cpu;
      wall[static_cast<std::size_t>(rung)].add(p.wall);
      cpu[static_cast<std::size_t>(rung)].add(p.cpu);
      if (rung == kRungs) {
        for (const double x : p.init_s) init_us.add(x * 1e6);
        for (const double x : p.fin_s) fin_ms.add(x * 1e3);
        job_end_ms.add(p.job_end * 1e3);
        ReportTimes rt;
        ar.report(p, rt);
        xml_parse.add(rt.xml_parse_s * 1e3);
        trace_merge.add(rt.trace_merge_s * 1e3);
        fold.add(rt.fold_s * 1e3);
        ar.verify_report(p, rt);
        offered.emplace_back(p.id, p.job.snapshot_samples());
        lines = sample_lines(p.ts_path);
        std::error_code ec;
        jsonl_bytes = static_cast<double>(std::filesystem::file_size(p.ts_path, ec)) /
                      static_cast<double>(std::max<std::uint64_t>(p.job.snapshot_samples(), 1));
      } else {
        ar.verify(p);
      }
      ar.cleanup(p);
      last[static_cast<std::size_t>(rung)] = std::move(p);
    }
    // Untraced full-stack pass: the difference to the traced one is the
    // benchmark's own tracing overhead.
    Pass u = ar.run_pass(kRungs, false);
    untraced.add(u.wall);
    offered.emplace_back(u.id, u.job.snapshot_samples());
    ar.verify(u);
    ar.cleanup(u);
    for (int r = 2; r <= kRungs; ++r) {
      dwall[static_cast<std::size_t>(r)].push_back(w[static_cast<std::size_t>(r)] -
                                                   w[static_cast<std::size_t>(r - 1)]);
      dcpu[static_cast<std::size_t>(r)].push_back(c[static_cast<std::size_t>(r)] -
                                                  c[static_cast<std::size_t>(r - 1)]);
    }
  }
  const double io_cpu = ar.daemon()->io_cpu() - d_cpu0;
  ar.verify_daemon(offered);
  ipm::aggd::Daemon& d = ar.daemon()->daemon();

  const auto per = [](double delta, std::uint64_t base, double scale) {
    return delta / static_cast<double>(std::max<std::uint64_t>(base, 1)) * scale;
  };
  const Pass& r2 = last[2];
  const Pass& r3 = last[3];
  const Pass& r4 = last[4];
  const Pass& r5 = last[5];
  const Pass& r6 = last[6];
  const Pass& r7 = last[7];
  const std::uint64_t samples6 = r6.job.snapshot_samples();
  const std::uint64_t samples7 = r7.job.snapshot_samples();
  rep.add("sim.unmonitored_wall_s", "s", wall[1].median());
  for (int r = 1; r <= kRungs; ++r) {
    rep.add("ladder.r" + std::to_string(r) + "_wall_s", "s", wall[static_cast<std::size_t>(r)].median());
  }
  rep.add("core.events", "count", static_cast<double>(r7.events()));
  rep.add("core.wrapper_events", "count", static_cast<double>(r2.events()));
  rep.add("core.signatures", "count", static_cast<double>(r7.signatures));
  rep.add("core.table_overflow", "count", static_cast<double>(r7.overflow()));
  rep.add("core.update_ns_per_event", "ns", per(median_of(dwall[2]), r2.events(), 1e9));
  rep.add("ipm_cuda.launches", "count", static_cast<double>(r3.launches));
  rep.add("ipm_cuda.ktt_ns_per_launch", "ns", per(median_of(dwall[3]), r3.launches, 1e9));
  rep.add("ipm_cuda.hostidle_probes", "count", static_cast<double>(r4.probes));
  rep.add("ipm_cuda.hostidle_ns_per_probe", "ns", per(median_of(dwall[4]), r4.probes, 1e9));
  rep.add("core.trace_ns_per_event", "ns", per(median_of(dwall[5]), r5.events(), 1e9));
  rep.add("core.trace_records", "count", static_cast<double>(r5.trace_records()));
  rep.add("core.trace_drops", "count", static_cast<double>(r5.trace_drops()));
  rep.add("core.init_us", "us", init_us.median());
  rep.add("core.finalize_ms", "ms", fin_ms.median());
  rep.add("ipm_live.capture_us_per_sample", "us", per(median_of(dwall[6]), samples6, 1e6));
  rep.add("ipm_live.samples", "count", static_cast<double>(samples7));
  rep.add("ipm_live.drops", "count", static_cast<double>(r7.job.snapshot_drops()));
  rep.add("ipm_live.sink_us_per_sample", "us", per(median_of(dcpu[7]), samples7, 1e6));
  rep.add("core.job_end_ms", "ms", job_end_ms.median());
  rep.add("ipm_parse.xml_parse_ms", "ms", xml_parse.median());
  rep.add("ipm_parse.trace_merge_ms", "ms", trace_merge.median());
  rep.add("ipm_live.conserve_fold_ms", "ms", fold.median());
  rep.add("ipm_live.fold_ulp_misses", "count", static_cast<double>(ar.ulp_misses()));
  rep.add("ipm_aggd.io_cpu_s", "s", io_cpu);
  rep.add("ipm_aggd.worker_cpu_s", "s", 0.0);  // serial daemon: no workers
  rep.add("ipm_aggd.jsonl_bytes_per_sample", "B", jsonl_bytes);
  std::uint64_t resent = 0;
  for (const auto& [id, n] : offered) {
    if (const auto* ranks = d.job_ranks(id)) {
      for (const auto& [r, rs] : *ranks) resent += rs.resent;
    }
  }
  rep.add("ipm_aggd.prom_writes", "count", static_cast<double>(d.prom_writes()));
  rep.add("ipm_aggd.steals", "count", static_cast<double>(d.steals()));
  rep.add("ipm_aggd.resent", "count", static_cast<double>(resent));
  rep.add("ipm_aggd.protocol_errors", "count", static_cast<double>(d.protocol_errors()));
  rep.add("ipm_aggd.stalled_disconnects", "count", static_cast<double>(d.stalled_disconnects()));
  codec_timings(lines, std::vector<int>(lines.size(), 0), 0.05, rep);
  const double overhead = (wall[kRungs].median() - untraced.median()) / untraced.median() * 100.0;
  rep.add("bench.trace_overhead_pct", "%", overhead);
  rep.add("bench.spans", "count", static_cast<double>(Spans::get().size()));

  rep.note("# ladder (%zu interleaved rounds; rung deltas are medians of per-round differences)",
           wall[1].n());
  static const char* const kRungNames[] = {"",           "unmonitored", "wrappers only",
                                           "+KTT",       "+host-idle",  "+trace",
                                           "+live coll.", "+SocketSink"};
  rep.note("  %-4s %-12s %12s %12s %12s %12s", "rung", "config", "wall_s", "cpu_s", "d_wall_s",
           "d_cpu_s");
  for (int r = 1; r <= kRungs; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    rep.note("  %-4d %-12s %12.6f %12.6f %12.6f %12.6f", r, kRungNames[r], wall[ri].median(),
             cpu[ri].median(), r > 1 ? median_of(dwall[ri]) : 0.0,
             r > 1 ? median_of(dcpu[ri]) : 0.0);
  }
  rep.note("# per-layer rows with their base counts");
  rep.note("  core.update_ns_per_event       (r2-r1)/%llu wrapper events",
           static_cast<unsigned long long>(r2.events()));
  rep.note("  ipm_cuda.ktt_ns_per_launch     (r3-r2)/%llu launches",
           static_cast<unsigned long long>(r3.launches));
  rep.note("  ipm_cuda.hostidle_ns_per_probe (r4-r3)/%llu probes",
           static_cast<unsigned long long>(r4.probes));
  rep.note("  core.trace_ns_per_event        (r5-r4)/%llu events",
           static_cast<unsigned long long>(r5.events()));
  rep.note("  ipm_live.capture_us_per_sample (r6-r5)/%llu samples",
           static_cast<unsigned long long>(samples6));
  rep.note("  ipm_live.sink_us_per_sample    (cpu r7-r6)/%llu samples",
           static_cast<unsigned long long>(samples7));
  rep.note("  tracing overhead: traced %.6f s vs untraced %.6f s full-stack wall (%.3g %%, %zu spans)",
           wall[kRungs].median(), untraced.median(), overhead, Spans::get().size());
  rep.note("  setup_s median %.6f s", setup.median());
}

}  // namespace

Report run_app(const Options& opt) {
  Report rep;
  AppRunner ar(opt, rep);
  if (opt.trace) {
    run_ladder(opt, rep, ar);
  } else {
    run_e2e(opt, rep, ar);
  }
  return rep;
}

}  // namespace ipmbench
