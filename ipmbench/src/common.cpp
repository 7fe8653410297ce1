#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

namespace ipmbench {

namespace {

double ts_s(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return ts_s(ts);
}

thread_local std::vector<int> t_stack;  // open spans of this thread

}  // namespace

double now_s() { return std::chrono::duration<double>(Clock::now().time_since_epoch()).count(); }
double proc_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double thread_cpu_s(pthread_t th) {
  clockid_t id{};
  if (pthread_getcpuclockid(th, &id) != 0) return 0.0;
  return clock_s(id);
}

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- Dist ------------------------------------------------------------------------

double Dist::quantile(double q) const {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Dist::median() const { return quantile(0.5); }

std::pair<double, double> Dist::tail() const {
  if (v.empty()) return {100.0, 0.0};
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  if (n < 11) return {100.0, s.back()};
  // The 11th largest sample: ten lie beyond it.
  return {100.0 * static_cast<double>(n - 10) / static_cast<double>(n), s[n - 11]};
}

// --- Spans -----------------------------------------------------------------------

Spans& Spans::get() {
  static Spans s;
  return s;
}

int Spans::open(const char* name, int parent) {
  Rec r;
  r.name = name;
  r.parent = parent >= 0 ? parent : current();
  r.t0 = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  r.id = static_cast<int>(recs_.size());
  recs_.push_back(std::move(r));
  t_stack.push_back(recs_.back().id);
  return recs_.back().id;
}

void Spans::close(int id) {
  const double t1 = now_s();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    recs_[static_cast<std::size_t>(id)].t1 = t1;
  }
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

int Spans::current() { return t_stack.empty() ? -1 : t_stack.back(); }

std::size_t Spans::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recs_.size();
}

std::vector<std::pair<std::string, double>> Spans::self_times() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<int, std::vector<std::pair<double, double>>> kids;
  for (const Rec& r : recs_) {
    if (r.parent >= 0) kids[r.parent].emplace_back(r.t0, r.t1);
  }
  std::map<std::string, double> self;
  for (const Rec& r : recs_) {
    double covered = 0.0;
    auto it = kids.find(r.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = r.t0;  // union of child intervals, clipped to the parent
      for (const auto& [a0, a1] : iv) {
        const double s = std::max(a0, lo);
        const double e = std::min(a1, r.t1);
        if (e > s) {
          covered += e - s;
          lo = e;
        }
      }
    }
    self[r.name] += std::max(0.0, (r.t1 - r.t0) - covered);
  }
  return {self.begin(), self.end()};
}

bool Spans::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const Rec& r : recs_) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"t0\":%.9f,\"t1\":%.9f}\n", r.id,
                  r.parent, r.name.c_str(), r.t0, r.t1);
    out << buf;
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name, int parent) {
  if (Spans::get().enabled()) id_ = Spans::get().open(name, parent);
}

Span::~Span() {
  if (id_ >= 0) Spans::get().close(id_);
}

// --- DaemonThread -------------------------------------------------------------------

DaemonThread::DaemonThread(const std::string& dir, int workers) : dir_(dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ipm::aggd::Options o;
  o.listen = "unix:" + dir + "/agg.sock";
  o.out_dir = dir;
  o.workers = workers;
  addr_ = o.listen;
  d_ = std::make_unique<ipm::aggd::Daemon>(o);
  std::string err;
  {
    Span sp("Daemon::start");
    if (!d_->start(err)) throw std::runtime_error("daemon start: " + err);
  }
  th_ = std::thread([this] {
    Span sp("Daemon::run");
    d_->run();
  });
}

void DaemonThread::stop() {
  if (!th_.joinable()) return;
  Span sp("Daemon::stop");
  d_->stop();
  th_.join();
}

double DaemonThread::io_cpu() { return th_.joinable() ? thread_cpu_s(th_.native_handle()) : 0.0; }

// --- Report ----------------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 20) std::fprintf(stderr, "ipmbench: VERIFY FAILED: %s\n", what.c_str());
}

void Report::note(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  notes.emplace_back(buf);
}

void Report::timing_row(const std::string& name, const std::string& unit, const Dist& d) {
  const auto [p, tv] = d.tail();
  note("  %-28s %12.6g %-6s  p%-5.4g %12.6g  n=%zu", name.c_str(), d.median(), unit.c_str(), p,
       tv, d.n());
}

}  // namespace ipmbench
