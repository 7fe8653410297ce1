// Shared plumbing of the ipmbench runner: options, clocks, distributions,
// the in-memory span recorder of the traced run, and the result report.
#pragma once

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ipm_aggd/aggd.hpp"

namespace ipmbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool closed_loop = false;  ///< fleet_burst saturation probe (not a benchmark run)
  std::string work_dir;  ///< per-run scratch directory (relative to cwd)
};

// --- clocks ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] double now_s();
[[nodiscard]] double proc_cpu_s();
[[nodiscard]] double thread_cpu_s();
/// CPU seconds of another live thread of this process.
[[nodiscard]] double thread_cpu_s(pthread_t th);

// --- distributions -------------------------------------------------------------

/// Sample of a timing.  tail() is the highest percentile with at least ten
/// samples beyond it (the reporting rule for every end-to-end timing); with
/// fewer than 11 samples it is the maximum.
struct Dist {
  std::vector<double> v;

  void add(double x) { v.push_back(x); }
  [[nodiscard]] std::size_t n() const { return v.size(); }
  [[nodiscard]] double median() const;
  [[nodiscard]] double quantile(double q) const;
  /// {percentile, value} of the tail rule above.
  [[nodiscard]] std::pair<double, double> tail() const;
};

// --- spans ---------------------------------------------------------------------

/// In-memory spans of the traced run: one per benchmark call into a layer.
/// Recording is off unless enabled; spans are written out once, at exit.
class Spans {
 public:
  struct Rec {
    int id = 0;
    int parent = -1;
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
  };

  static Spans& get();

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return on_.load(std::memory_order_relaxed); }
  /// Open a span under the calling thread's current span (or `parent` when
  /// >= 0, for spans opened on a thread the parent does not run on).
  int open(const char* name, int parent = -1);
  void close(int id);
  /// Innermost open span of the calling thread (-1 = none).
  [[nodiscard]] static int current();

  [[nodiscard]] std::size_t size() const;
  /// Self time per span name: duration minus the union of its children.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_times() const;
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Rec> recs_;  ///< guarded by mu_
  std::atomic<bool> on_{false};
};

/// RAII span; a no-op while recording is off.
class Span {
 public:
  explicit Span(const char* name, int parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_ = -1;
};

// --- daemon ---------------------------------------------------------------------

/// An ipm::aggd::Daemon listening on a Unix socket in `dir`, served from a
/// thread of its own: that thread's CPU clock is the daemon's IO time.
class DaemonThread {
 public:
  DaemonThread(const std::string& dir, int workers);
  ~DaemonThread() { stop(); }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  /// Stop run() and join; introspection is valid afterwards.
  void stop();
  /// CPU seconds of the IO thread so far (0 once stopped).
  [[nodiscard]] double io_cpu();
  [[nodiscard]] const std::string& addr() const { return addr_; }
  [[nodiscard]] std::string jsonl(const std::string& job) const {
    return dir_ + "/" + job + "_timeseries.jsonl";
  }
  [[nodiscard]] ipm::aggd::Daemon& daemon() { return *d_; }

 private:
  std::string dir_;
  std::string addr_;
  std::unique_ptr<ipm::aggd::Daemon> d_;
  std::thread th_;
};

// --- report ----------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  std::vector<Metric> metrics;  ///< what the result line carries
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable lines printed first

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// Record one verification check; false counts as a failure.
  void check(bool ok, const std::string& what);
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Table row: a timing with median, tail percentile and sample count.
  void timing_row(const std::string& name, const std::string& unit, const Dist& d);
};

// --- workloads -----------------------------------------------------------------

Report run_app(const Options& opt);
Report run_fleet(const Options& opt);

/// Direct timings of the wire decoder, parse_sample_line and JobMerger over
/// a workload's own sample payloads (`job_of[i]` groups them per job), plus
/// the encoded bytes per sample.
void codec_timings(const std::vector<std::string>& payloads, const std::vector<int>& job_of,
                   double interval, Report& rep);

/// SplitMix64 step: the seed-derived input generator of every workload.
std::uint64_t splitmix64(std::uint64_t& x);

}  // namespace ipmbench
