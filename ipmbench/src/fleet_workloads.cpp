// Fleet workloads: fleet_burst and fleet_idle.
//
// One generator thread replays synthetic per-rank delta samples of many
// jobs, multiplexed over a few Unix-socket connections, into an in-process
// ipm::aggd::Daemon with two workers.  The generator is open loop: every
// sample frame has a due time fixed by the schedule, is sent when due
// whether or not earlier ones were acknowledged, and its latency runs from
// that due time to the ACK that covers its epoch.  fleet_burst kills each
// connection mid-frame at a fixed number of seeded points per pass; the
// generator reconnects, says HELLO again and resends everything not yet
// acknowledged (the daemon deduplicates by epoch).  Every pass checks
// applied == offered, all acked, and bit-exact conservation of each job's
// JSONL against the generator's ground truth.
//
// With --closed-loop 1 every frame is due at once, kills are off, and the
// generator sends as fast as the daemon takes frames: the samples per second
// of that run are the daemon's saturation throughput, from which
// fleet_burst's open-loop rate is set (see kBurstRate).
#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "ipm_aggd/aggd.hpp"
#include "ipm_live/live.hpp"
#include "ipm_live/merge.hpp"
#include "ipm_live/net.hpp"
#include "ipm_live/wire.hpp"

namespace ipmbench {

namespace wire = ipm::live::wire;

namespace {

struct FleetSpec {
  bool burst = true;
  bool closed_loop = false;  ///< every frame due at once (saturation probe)
  int jobs = 4;
  int ranks = 64;      ///< per job
  int conns = 2;
  double rate = 0.0;   ///< burst: samples per second, in ticks of one per rank
  double period = 0.0; ///< idle: seconds between one rank's samples
  int kills_per_pass = 0;  ///< burst: seeded kills per connection and pass
  double interval = 0.5;  ///< virtual seconds per sample
};

/// fleet_burst's open-loop rate: about 5 % of the daemon's closed-loop
/// saturation throughput with 2 workers, 233 000 samples/s (median of ten
/// seeds of `ipmbench --workload fleet_burst --closed-loop 1` on a shared
/// 4-vCPU x86-64 VM).  Sent in ticks of one frame per rank, so the batching
/// the daemon sees is set by the schedule, not by timing (ipmbench/README.md).
constexpr double kBurstRate = 12000.0;

FleetSpec make_spec(const Options& opt) {
  FleetSpec s;
  if (opt.workload == "fleet_burst") {
    s.burst = true;
    s.closed_loop = opt.closed_loop;
    s.jobs = 4;
    s.ranks = 64;
    s.conns = 2;
    s.rate = kBurstRate;
    s.kills_per_pass = opt.closed_loop ? 0 : 2;
  } else {
    s.burst = false;
    s.jobs = 2000;
    s.ranks = 3;
    s.conns = 4;
    s.period = 2.0;
  }
  return s;
}

const char* const kNames[] = {"MPI_Allreduce", "MPI_Send",         "MPI_Recv",
                              "MPI_Bcast",     "cudaMemcpy(H2D)",  "cudaMemcpy(D2H)",
                              "cublasDgemm",   "cudaLaunchKernel", "@CUDA_HOST_IDLE",
                              "@CUDA_EXEC:dgemm_nn_e_kernel",      "cudaFree",
                              "cudaStreamSynchronize"};

double rnd_dbl(std::uint64_t& st, double scale) {
  return (static_cast<double>(splitmix64(st) >> 11) + 1.0) * (scale / 9007199254740992.0);
}

using Key = std::tuple<std::string, std::uint32_t, std::int32_t>;
struct Fold {
  std::uint64_t count = 0, bytes = 0;
  double tsum = 0.0;
};

/// Pre-encoded traffic of one pass.
struct Traffic {
  struct Job {
    std::string id;
    int conn = 0;
    std::string hello, end;
    std::vector<std::string> fins;             ///< per rank
    std::vector<std::map<Key, Fold>> truth;    ///< per rank ground truth
    std::vector<std::uint64_t> samples;        ///< per rank
  };
  struct Item {
    double due = 0.0;  ///< seconds after the window opens
    int job = 0;
    std::uint32_t rank = 0;
    std::uint64_t epoch = 0;
    std::uint64_t off = 0;  ///< byte range in the connection's stream
    std::uint32_t len = 0;
  };
  std::vector<Job> jobs;
  std::vector<std::vector<Item>> items;  ///< per connection, in due order
  std::vector<std::string> stream;       ///< per connection: its sample frames
  std::uint64_t total = 0;
  std::uint64_t events = 0;  ///< app events carried (sum of dcount)
};

std::string encode(wire::FrameType t, const std::string& job, std::uint32_t rank,
                   std::uint64_t epoch, std::string payload) {
  wire::Frame f;
  f.type = t;
  f.job = job;
  f.rank = rank;
  f.epoch = epoch;
  f.payload = std::move(payload);
  return wire::encode(f);
}

Traffic make_traffic(const FleetSpec& s, std::uint64_t seed, double window) {
  Span sp("encode_traffic");
  Traffic tr;
  std::uint64_t rng = seed * 1000003ull + (s.burst ? 11 : 29);
  const int nranks = s.jobs * s.ranks;
  // Schedule: (due, global rank) of every sample in the window.
  std::vector<std::pair<double, int>> sched;
  if (s.burst) {
    const auto n = static_cast<std::size_t>(s.rate * window);
    sched.reserve(n);
    // Every rank publishes on the same tick, as ranks on the monitor's
    // global snapshot grid do: bursts of one frame per rank.
    const auto per_tick = static_cast<std::size_t>(nranks);
    for (std::size_t i = 0; i < n; ++i) {
      const double due =
          s.closed_loop ? 0.0 : static_cast<double>(i / per_tick * per_tick) / s.rate;
      sched.emplace_back(due, static_cast<int>(i % static_cast<std::size_t>(nranks)));
    }
  } else {
    for (int g = 0; g < nranks; ++g) {
      const double phase = rnd_dbl(rng, s.period);
      for (double t = phase; t < window; t += s.period) sched.emplace_back(t, g);
    }
    std::stable_sort(sched.begin(), sched.end());
  }
  tr.jobs.resize(static_cast<std::size_t>(s.jobs));
  for (int j = 0; j < s.jobs; ++j) {
    Traffic::Job& job = tr.jobs[static_cast<std::size_t>(j)];
    job.id = "fleet" + std::to_string(seed) + "-" + std::to_string(j);
    job.conn = j % s.conns;
    job.hello = encode(wire::FrameType::kHello, job.id, 0, 0,
                       wire::hello_payload("./fleet_app", s.interval));
    job.end = encode(wire::FrameType::kJobEnd, job.id, 0, 0, "");
    job.truth.resize(static_cast<std::size_t>(s.ranks));
    job.samples.assign(static_cast<std::size_t>(s.ranks), 0);
  }
  tr.items.resize(static_cast<std::size_t>(s.conns));
  tr.stream.resize(static_cast<std::size_t>(s.conns));
  for (const auto& [due, g] : sched) {
    const int j = g / s.ranks;
    const auto r = static_cast<std::uint32_t>(g % s.ranks);
    Traffic::Job& job = tr.jobs[static_cast<std::size_t>(j)];
    const std::uint64_t k = job.samples[r]++;
    ipm::live::Sample smp;
    smp.rank = static_cast<int>(r);
    smp.seq = k;
    smp.t0 = s.interval * static_cast<double>(k);
    smp.t1 = s.interval * static_cast<double>(k + 1);
    smp.regions.emplace_back("main");
    const int nd = 2 + static_cast<int>(splitmix64(rng) % 4);
    std::uint64_t events = 0;
    for (int d = 0; d < nd; ++d) {
      ipm::live::KeyDelta kd;
      kd.name_str = kNames[splitmix64(rng) % (sizeof kNames / sizeof *kNames)];
      kd.select = splitmix64(rng) % 4 == 0 ? -1 : 0;
      kd.dcount = 1 + splitmix64(rng) % 64;
      kd.dbytes = (splitmix64(rng) % 64) * 128;
      kd.dtsum = rnd_dbl(rng, 0.2);
      kd.dflops = rnd_dbl(rng, 1e9);
      Fold& f = job.truth[r][{kd.name_str, kd.region, kd.select}];
      f.count += kd.dcount;
      f.bytes += kd.dbytes;
      f.tsum += kd.dtsum;
      events += kd.dcount;
      smp.deltas.push_back(std::move(kd));
    }
    const std::string frame =
        encode(wire::FrameType::kSample, job.id, r, k + 1, ipm::live::sample_line(smp));
    std::string& st = tr.stream[static_cast<std::size_t>(job.conn)];
    Traffic::Item it;
    it.due = due;
    it.job = j;
    it.rank = r;
    it.epoch = k + 1;
    it.off = st.size();
    it.len = static_cast<std::uint32_t>(frame.size());
    st += frame;
    tr.items[static_cast<std::size_t>(job.conn)].push_back(it);
    tr.total += 1;
    tr.events += events;
  }
  for (Traffic::Job& job : tr.jobs) {
    for (int r = 0; r < s.ranks; ++r) {
      const std::uint64_t n = job.samples[static_cast<std::size_t>(r)];
      job.fins.push_back(encode(wire::FrameType::kRankFin, job.id, static_cast<std::uint32_t>(r),
                                n + 1, "{\"samples\":" + std::to_string(n) + ",\"drops\":0}"));
    }
  }
  return tr;
}

int connect_block(const ipm::live::net::Addr& addr) {
  for (int attempt = 0; attempt < 2000; ++attempt) {
    const int fd = ipm::live::net::connect_fd(addr);
    if (fd >= 0) {
      for (int i = 0; i < 2000; ++i) {
        if (ipm::live::net::connect_finished(fd)) return fd;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      ipm::live::net::close_fd(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("cannot connect to the daemon");
}

/// Open-loop generator over the multiplexed connections.
class Generator {
 public:
  Generator(const FleetSpec& s, const Traffic& tr, const std::string& addr, std::uint64_t seed)
      : s_(s), tr_(tr), addr_(ipm::live::net::parse_addr(addr)) {
    for (std::size_t j = 0; j < tr.jobs.size(); ++j) job_index_[tr.jobs[j].id] = static_cast<int>(j);
    const std::size_t nr = tr.jobs.size() * static_cast<std::size_t>(s.ranks);
    acked_.assign(nr, 0);
    outstanding_.resize(nr);
    conns_.resize(static_cast<std::size_t>(s.conns));
    std::uint64_t rng = seed * 7919 + 3;
    const auto k = static_cast<std::size_t>(s.kills_per_pass);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& cn = conns_[c];
      const std::size_t n = tr.items[c].size();
      // k seeded kill points, one in each k-th of the connection's frames,
      // so every pass kills however short it is.
      for (std::size_t i = 0; i < k && n >= k; ++i) {
        const std::size_t lo = n * i / k;
        const std::size_t hi = n * (i + 1) / k;
        cn.kills.push_back(lo + splitmix64(rng) % (hi - lo));
      }
    }
  }

  /// Connect every connection and register its jobs (HELLO, wait WELCOME).
  void hello() {
    for (std::size_t c = 0; c < conns_.size(); ++c) open(c);
    deadline_ = now_s() + 20.0;
    while (welcomes_ < tr_.jobs.size()) {
      guard("hello");
      flush_all();
      pump(0.001);
    }
  }

  /// Run the window, then end every job.  Returns when all JobEndAcks came.
  void run() {
    t0_ = now_s();
    for (const auto& items : tr_.items) {
      if (!items.empty()) last_due_ = std::max(last_due_, items.back().due);
    }
    deadline_ = t0_ + last_due_ + 20.0;
    const double gen_cpu0 = thread_cpu_s();
    std::size_t due_total = 0;
    for (;;) {
      const double now = now_s() - t0_;
      double next_due = 1e300;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        Conn& cn = conns_[c];
        const auto& items = tr_.items[c];
        while (cn.due < items.size() && items[cn.due].due <= now) {
          const Traffic::Item& it = items[cn.due];
          lag_.add((now - it.due) * 1e3);
          outstanding_[flat(it.job, it.rank)].emplace_back(it.epoch, it.due);
          if (cn.next_kill < cn.kills.size() && cn.kills[cn.next_kill] == cn.due) {
            kill_and_resume(c);
          } else {
            cn.out.append(tr_.stream[c], it.off, it.len);
          }
          ++cn.due;
          ++due_total;
        }
        if (cn.due < items.size()) next_due = std::min(next_due, items[cn.due].due);
      }
      backlog_max_ = std::max<std::uint64_t>(backlog_max_, due_total - acked_total_);
      flush_all();
      if (due_total == tr_.total && acked_total_ == tr_.total) {
        t_acked_ = now_s();
        break;
      }
      guard("window");
      const double wait = std::min(next_due - (now_s() - t0_), 0.001);
      pump(std::max(wait, 0.0));
    }
    for (const Traffic::Job& job : tr_.jobs) {
      Conn& cn = conns_[static_cast<std::size_t>(job.conn)];
      for (const std::string& f : job.fins) cn.out += f;
      cn.out += job.end;
    }
    while (end_acks_ < tr_.jobs.size()) {
      guard("job end");
      flush_all();
      pump(0.001);
    }
    t1_ = now_s();
    gen_cpu_ = thread_cpu_s() - gen_cpu0;
    for (Conn& cn : conns_) ipm::live::net::close_fd(cn.fd);
  }

  /// From the first frame's due time until the last JobEndAck.
  [[nodiscard]] double wall() const { return t1_ - t0_; }
  /// Per job, from the last frame's due time until its JobEndAck: how long
  /// the daemon takes to catch up and end the job once the traffic stops.
  [[nodiscard]] const Dist& drain_s() const { return drain_; }
  /// Samples acknowledged per second of the window (closed loop: saturation).
  [[nodiscard]] double ack_rate() const {
    return static_cast<double>(acked_total_) / (t_acked_ - t0_);
  }
  [[nodiscard]] double gen_cpu() const { return gen_cpu_; }
  [[nodiscard]] const Dist& lag_ms() const { return lag_; }
  [[nodiscard]] const Dist& ack_ms() const { return ack_; }
  [[nodiscard]] std::uint64_t kills() const { return kills_; }
  [[nodiscard]] std::uint64_t resent() const { return resent_; }
  [[nodiscard]] std::uint64_t backlog_max() const { return backlog_max_; }
  [[nodiscard]] std::uint64_t acked() const { return acked_total_; }
  [[nodiscard]] std::uint64_t end_acks() const { return end_acks_; }
  [[nodiscard]] std::uint64_t bad_frames() const { return bad_frames_; }

 private:
  struct Conn {
    int fd = -1;
    wire::Decoder dec;
    std::string out;
    std::size_t out_pos = 0;
    std::size_t due = 0;          ///< items made due so far
    std::size_t first_unacked = 0;
    std::vector<std::size_t> kills;
    std::size_t next_kill = 0;
  };

  /// Bounded waits: a stuck daemon fails the run instead of hanging it.
  void guard(const char* where) const {
    if (now_s() < deadline_) return;
    throw std::runtime_error(std::string("generator stuck in ") + where + ": acked " +
                             std::to_string(acked_total_) + " of " + std::to_string(tr_.total) +
                             ", welcomes " + std::to_string(welcomes_) + ", job end acks " +
                             std::to_string(end_acks_) + ", kills " + std::to_string(kills_));
  }

  [[nodiscard]] std::size_t flat(int job, std::uint32_t rank) const {
    return static_cast<std::size_t>(job) * static_cast<std::size_t>(s_.ranks) + rank;
  }

  void open(std::size_t c) {
    Conn& cn = conns_[c];
    cn.fd = connect_block(addr_);
    cn.dec = wire::Decoder();
    for (const Traffic::Job& job : tr_.jobs) {
      if (static_cast<std::size_t>(job.conn) == c) cn.out += job.hello;
    }
  }

  /// Write the pending bytes, then half of the kill frame, and close the
  /// connection without a FIN handshake; reconnect, HELLO again and resend
  /// every frame of this connection not yet acknowledged.
  void kill_and_resume(std::size_t c) {
    Conn& cn = conns_[c];
    const auto& items = tr_.items[c];
    const Traffic::Item& kit = items[cn.due];
    while (cn.out_pos < cn.out.size()) {
      guard("kill");
      flush(c);
      if (cn.out_pos < cn.out.size()) pump(0.0005);
    }
    std::string half = tr_.stream[c].substr(kit.off, kit.len / 2);
    std::size_t hp = 0;
    while (hp < half.size()) {
      const long w = ipm::live::net::write_some(cn.fd, half.data() + hp, half.size() - hp);
      if (w < 0) break;
      hp += static_cast<std::size_t>(w);
      if (hp < half.size()) pump(0.0005);
    }
    ipm::live::net::close_fd(cn.fd);
    cn.out.clear();
    cn.out_pos = 0;
    ++kills_;
    ++cn.next_kill;
    open(c);
    advance_unacked(c);
    for (std::size_t i = cn.first_unacked; i <= cn.due; ++i) {
      cn.out.append(tr_.stream[c], items[i].off, items[i].len);
      if (i < cn.due) ++resent_;
    }
  }

  void advance_unacked(std::size_t c) {
    Conn& cn = conns_[c];
    const auto& items = tr_.items[c];
    while (cn.first_unacked < cn.due) {
      const Traffic::Item& it = items[cn.first_unacked];
      if (acked_[flat(it.job, it.rank)] < it.epoch) break;
      ++cn.first_unacked;
    }
  }

  void flush(std::size_t c) {
    Conn& cn = conns_[c];
    if (cn.out_pos >= cn.out.size()) return;
    const long w = ipm::live::net::write_some(cn.fd, cn.out.data() + cn.out_pos,
                                              cn.out.size() - cn.out_pos);
    if (w < 0) throw std::runtime_error("daemon closed a generator connection");
    cn.out_pos += static_cast<std::size_t>(w);
    if (cn.out_pos == cn.out.size()) {
      cn.out.clear();
      cn.out_pos = 0;
    } else if (cn.out_pos > (1u << 20)) {
      cn.out.erase(0, cn.out_pos);
      cn.out_pos = 0;
    }
  }

  void flush_all() {
    for (std::size_t c = 0; c < conns_.size(); ++c) flush(c);
  }

  /// Wait up to `timeout` seconds for acks (or writability), then read.
  void pump(double timeout) {
    std::vector<pollfd> pfd(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      pfd[c].fd = conns_[c].fd;
      pfd[c].events = static_cast<short>(
          POLLIN | (conns_[c].out_pos < conns_[c].out.size() ? POLLOUT : 0));
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout);
    ts.tv_nsec = static_cast<long>((timeout - static_cast<double>(ts.tv_sec)) * 1e9);
    ::ppoll(pfd.data(), pfd.size(), &ts, nullptr);
    char buf[64 * 1024];
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& cn = conns_[c];
      for (;;) {
        const long r = ipm::live::net::read_some(cn.fd, buf, sizeof buf);
        if (r < 0) throw std::runtime_error("daemon dropped a generator connection");
        if (r == 0) break;
        cn.dec.feed(buf, static_cast<std::size_t>(r));
      }
      wire::Frame f;
      while (cn.dec.next(f)) on_frame(f);
      if (!cn.dec.error().empty()) ++bad_frames_;
      advance_unacked(c);
    }
  }

  void on_frame(const wire::Frame& f) {
    const auto it = job_index_.find(f.job);
    if (it == job_index_.end()) {
      ++bad_frames_;
      return;
    }
    switch (f.type) {
      case wire::FrameType::kWelcome:
        ++welcomes_;
        break;
      case wire::FrameType::kJobEndAck:
        ++end_acks_;
        drain_.add(now_s() - t0_ - last_due_);
        break;
      case wire::FrameType::kAck: {
        if (f.rank >= static_cast<std::uint32_t>(s_.ranks)) {
          ++bad_frames_;
          return;
        }
        const std::size_t g = flat(it->second, f.rank);
        if (f.epoch > acked_[g]) acked_[g] = f.epoch;
        auto& q = outstanding_[g];
        const double now = now_s() - t0_;
        while (!q.empty() && q.front().first <= f.epoch) {
          ack_.add((now - q.front().second) * 1e3);
          q.pop_front();
          ++acked_total_;
        }
        break;
      }
      default:
        ++bad_frames_;
        break;
    }
  }

  const FleetSpec& s_;
  const Traffic& tr_;
  ipm::live::net::Addr addr_;
  std::unordered_map<std::string, int> job_index_;
  std::vector<std::uint64_t> acked_;  ///< per (job, rank): highest acked epoch
  std::vector<std::deque<std::pair<std::uint64_t, double>>> outstanding_;  ///< (epoch, due)
  std::vector<Conn> conns_;
  Dist lag_, ack_, drain_;
  double t0_ = 0.0, t1_ = 0.0, t_acked_ = 0.0, last_due_ = 0.0, gen_cpu_ = 0.0, deadline_ = 0.0;
  std::uint64_t acked_total_ = 0, kills_ = 0, resent_ = 0, backlog_max_ = 0;
  std::size_t welcomes_ = 0, end_acks_ = 0;
  std::uint64_t bad_frames_ = 0;
};

void raise_nofile() {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);  // best effort
  }
}

/// Everything before the timed window: traffic, daemon, job registration.
struct Prepared {
  Traffic tr;
  std::unique_ptr<DaemonThread> d;
  std::unique_ptr<Generator> gen;
};

void prepare(Prepared& p, const FleetSpec& s, const Options& opt, double window,
             const std::string& dir) {
  Span sp("setup");
  p.gen.reset();
  p.d.reset();
  p.tr = make_traffic(s, opt.seed, window);
  p.d = std::make_unique<DaemonThread>(dir, 2);
  p.gen = std::make_unique<Generator>(s, p.tr, p.d->addr(), opt.seed);
  p.gen->hello();
}

struct PassResult {
  double wall = 0.0, ack_rate = 0.0, daemon_cpu = 0.0, io_cpu = 0.0, fold_s = 0.0;
  std::uint64_t applied = 0, jsonl_bytes = 0;
};

/// Window + drain + verification of one prepared pass.
PassResult run_pass(Prepared& p, const FleetSpec& s, Report& rep) {
  PassResult pr;
  DaemonThread& fd = *p.d;
  Generator& gen = *p.gen;
  {
    Span sp("pass");
    const double io0 = fd.io_cpu();
    const double proc0 = proc_cpu_s();
    const double self0 = thread_cpu_s();
    gen.run();
    pr.daemon_cpu = (proc_cpu_s() - proc0) - (thread_cpu_s() - self0);
    pr.io_cpu = fd.io_cpu() - io0;
    pr.wall = gen.wall();
    pr.ack_rate = gen.ack_rate();
  }
  fd.stop();
  ipm::aggd::Daemon& d = fd.daemon();

  rep.check(gen.acked() == p.tr.total, "acked " + std::to_string(gen.acked()) + " of " +
                                           std::to_string(p.tr.total) + " samples");
  rep.check(gen.end_acks() == p.tr.jobs.size(), "job end acks");
  rep.check(gen.bad_frames() == 0, "unexpected frames from the daemon");
  // A kill truncates at most one frame; the daemon may also see the kill as
  // a failed ack write first and drop the session without counting it.
  rep.check(d.protocol_errors() <= gen.kills(),
            "protocol errors " + std::to_string(d.protocol_errors()) + " > kills " +
                std::to_string(gen.kills()));
  rep.check(d.stalled_disconnects() == 0, "stalled disconnects");
  // The analyst's check: fold every job's JSONL and compare it with the
  // generator's ground truth.
  std::uint64_t violations = 0;
  {
    Span sp("conserve_fold");
    const double t0 = now_s();
    std::uint64_t bad = 0;
    std::uint64_t bytes = 0;
    for (const Traffic::Job& job : p.tr.jobs) {
      const std::string path = fd.jsonl(job.id);
      const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(path);
      std::vector<std::map<Key, Fold>> folded(static_cast<std::size_t>(s.ranks));
      std::vector<std::uint64_t> n(static_cast<std::size_t>(s.ranks), 0);
      std::vector<std::int64_t> last(static_cast<std::size_t>(s.ranks), -1);
      for (const ipm::live::Sample& smp : ts.samples) {
        if (smp.rank < 0 || smp.rank >= s.ranks) {
          ++bad;
          continue;
        }
        const auto r = static_cast<std::size_t>(smp.rank);
        if (static_cast<std::int64_t>(smp.seq) <= last[r]) ++bad;  // reorder / dup
        last[r] = static_cast<std::int64_t>(smp.seq);
        ++n[r];
        for (const ipm::live::KeyDelta& kd : smp.deltas) {
          Fold& f = folded[r][{kd.name_str, kd.region, kd.select}];
          f.count += kd.dcount;
          f.bytes += kd.dbytes;
          f.tsum += kd.dtsum;
        }
      }
      for (std::size_t r = 0; r < folded.size(); ++r) {
        if (n[r] != job.samples[r]) ++bad;
        if (folded[r].size() != job.truth[r].size()) ++bad;
        for (const auto& [key, want] : job.truth[r]) {
          const auto it = folded[r].find(key);
          if (it == folded[r].end() || it->second.count != want.count ||
              it->second.bytes != want.bytes || it->second.tsum != want.tsum) {
            ++bad;  // bit-exact, the ipm_parse --conserve rule
          }
        }
      }
      std::error_code ec;
      bytes += std::filesystem::file_size(path, ec);
    }
    pr.fold_s = now_s() - t0;
    violations = bad;
    pr.jsonl_bytes = bytes;
  }
  rep.attempted += p.tr.total;  // one check per offered sample
  rep.check(violations == 0, std::to_string(violations) + " conservation violations");
  for (const Traffic::Job& job : p.tr.jobs) {
    const auto* ranks = d.job_ranks(job.id);
    if (ranks == nullptr || ranks->size() != static_cast<std::size_t>(s.ranks)) {
      rep.check(false, job.id + ": missing ranks at the daemon");
      continue;
    }
    for (const auto& [r, rs] : *ranks) {
      pr.applied += rs.samples;
      if (!rs.finalized || rs.samples != job.samples[r]) {
        rep.check(false, job.id + " rank " + std::to_string(r) + ": applied " +
                             std::to_string(rs.samples) + " of " + std::to_string(job.samples[r]));
      }
    }
  }
  rep.check(pr.applied == p.tr.total, "applied " + std::to_string(pr.applied) + " != offered " +
                                          std::to_string(p.tr.total));
  return pr;
}

}  // namespace

// --- direct codec / merge timings ----------------------------------------------

void codec_timings(const std::vector<std::string>& payloads, const std::vector<int>& job_of,
                   double interval, Report& rep) {
  Span sp("codec");
  if (payloads.empty()) return;
  std::string stream;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    stream += encode(wire::FrameType::kSample, "job" + std::to_string(job_of[i]), 0, i + 1,
                     payloads[i]);
  }
  const auto n = static_cast<double>(payloads.size());
  // Each timing is the median of five repetitions over the whole set.
  Dist dec, parse, add, emit;
  std::uint64_t points = 0;
  for (int rep_i = 0; rep_i < 5; ++rep_i) {
    {
      wire::Decoder d;
      wire::Frame f;
      std::size_t frames = 0;
      const double t0 = now_s();
      for (std::size_t off = 0; off < stream.size(); off += 16384) {
        d.feed(stream.data() + off, std::min<std::size_t>(16384, stream.size() - off));
        while (d.next(f)) ++frames;
      }
      dec.add((now_s() - t0) / static_cast<double>(std::max<std::size_t>(frames, 1)) * 1e9);
      if (frames != payloads.size()) rep.check(false, "decoder lost frames");
    }
    std::vector<ipm::live::Sample> samples(payloads.size());
    {
      const double t0 = now_s();
      bool ok = true;
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        ok = ipm::live::parse_sample_line(payloads[i], samples[i]) && ok;
      }
      parse.add((now_s() - t0) / n * 1e9);
      if (!ok) rep.check(false, "parse_sample_line rejected a payload");
    }
    std::map<int, ipm::live::JobMerger> mergers;
    std::map<int, std::vector<int>> ranks;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      mergers.try_emplace(job_of[i], interval > 0.0 ? interval : 1.0);
      auto& rs = ranks[job_of[i]];
      if (std::find(rs.begin(), rs.end(), samples[i].rank) == rs.end()) rs.push_back(samples[i].rank);
    }
    {
      const double t0 = now_s();
      for (std::size_t i = 0; i < samples.size(); ++i) mergers.at(job_of[i]).add_sample(samples[i]);
      add.add((now_s() - t0) / n * 1e9);
    }
    {
      std::vector<ipm::live::ClusterPoint> out;
      const double t0 = now_s();
      for (auto& [j, m] : mergers) {
        const auto& rs = ranks[j];
        m.emit_due(rs, static_cast<int>(rs.size()), out);
        m.emit_all(static_cast<int>(rs.size()), out);
      }
      points = out.size();
      emit.add((now_s() - t0) / static_cast<double>(std::max<std::uint64_t>(points, 1)) * 1e6);
    }
  }
  rep.add("ipm_live.decode_ns_per_frame", "ns", dec.median());
  rep.add("ipm_live.parse_sample_ns", "ns", parse.median());
  rep.add("ipm_live.merge_add_ns_per_sample", "ns", add.median());
  rep.add("ipm_live.merge_emit_us_per_point", "us", emit.median());
  rep.add("ipm_live.wire_bytes_per_sample", "B", static_cast<double>(stream.size()) / n);
  rep.note("# direct codec/merge timings over %zu of this workload's samples (%llu points)",
           payloads.size(), static_cast<unsigned long long>(points));
}

// --- workload entry ----------------------------------------------------------------

Report run_fleet(const Options& opt) {
  Report rep;
  raise_nofile();
  const FleetSpec s = make_spec(opt);
  // The window is split into passes, each with its own daemon and traffic;
  // metrics are medians over passes, so a burst of host noise moves one
  // pass, not the run.  The traced run alternates untraced and traced
  // passes; their difference is the tracing overhead.
  constexpr int kPasses = 8;
  const double window = opt.seconds / kPasses;
  const bool traced = Spans::get().enabled();
  Dist setup, wall, drain, io_cpu, worker_ns, fold, per_sample, ack50, ack99, untraced_us, rate;
  std::unique_ptr<Prepared> used;
  PassResult pr;
  for (int i = 0; i < kPasses; ++i) {
    const bool span_pass = traced && i % 2 == 1;
    Spans::get().enable(span_pass);
    auto prep = std::make_unique<Prepared>();
    const double t0 = now_s();
    prepare(*prep, s, opt, window, opt.work_dir + "/aggd" + std::to_string(i));
    setup.add(now_s() - t0);
    pr = run_pass(*prep, s, rep);
    const double us = pr.daemon_cpu / static_cast<double>(pr.applied) * 1e6;
    (span_pass || !traced ? per_sample : untraced_us).add(us);
    wall.add(pr.wall);
    for (const double x : prep->gen->drain_s().v) drain.add(x * 1e3);
    io_cpu.add(pr.io_cpu);
    worker_ns.add((pr.daemon_cpu - pr.io_cpu) / static_cast<double>(prep->tr.events) * 1e9);
    fold.add(pr.fold_s);
    ack50.add(prep->gen->ack_ms().median());
    ack99.add(prep->gen->ack_ms().quantile(0.99));
    rate.add(pr.ack_rate);
    used = std::move(prep);
  }
  Spans::get().enable(traced);
  Generator* gen = used->gen.get();
  ipm::aggd::Daemon& d = used->d->daemon();
  const double cpu_us = per_sample.median();

  if (s.closed_loop) {
    rep.add("gen.closed_loop_samples_per_s", "1/s", rate.median());
    rep.note("# %s closed loop: %d jobs x %d ranks over %d connections, %llu samples per pass, "
             "every frame due at once, no kills",
             opt.workload.c_str(), s.jobs, s.ranks, s.conns,
             static_cast<unsigned long long>(used->tr.total));
    rep.timing_row("saturation (acked/s)", "1/s", rate);
    rep.timing_row("daemon_cpu_us_per_sample", "us", per_sample);
    rep.note("  open-loop rate %.6g samples/s = %.3g of the median saturation", s.rate,
             s.rate / rate.median());
    return rep;
  }
  if (!opt.trace) {
    rep.add("setup_s", "s", setup.median());
    rep.add("wall_s", "s", wall.median());
    rep.add("cpu_s", "s", io_cpu.median());
    rep.add("monitor_cpu_ns_per_event", "ns", worker_ns.median());
    rep.add("report_s", "s", fold.median());
    rep.add("daemon_cpu_us_per_sample", "us", cpu_us);
    rep.add("ack_p50_ms", "ms", ack50.median());
    rep.add("ack_p99_ms", "ms", ack99.median());
  }
  rep.note("# %s: %d jobs x %d ranks over %d connections, %llu samples per %.3g s pass, "
           "%d passes%s",
           opt.workload.c_str(), s.jobs, s.ranks, s.conns,
           static_cast<unsigned long long>(used->tr.total), window, kPasses,
           s.burst ? " (open loop, fixed rate)" : " (open loop, staggered periods)");
  rep.note("  %-28s %12s %-6s  %-6s %12s  %s", "metric (per pass)", "median", "unit", "tail",
           "value", "n");
  rep.timing_row("setup_s", "s", setup);
  rep.timing_row("wall_s (due -> last JobEndAck)", "s", wall);
  rep.timing_row("drain (last due -> JobEndAck)", "ms", drain);
  rep.timing_row("cpu_s (daemon IO thread)", "s", io_cpu);
  rep.timing_row("monitor_cpu_ns_per_event (workers)", "ns", worker_ns);
  rep.timing_row("daemon_cpu_us_per_sample", "us", per_sample);
  rep.timing_row("report_s (conserve fold)", "s", fold);
  rep.timing_row("ack_p50_ms", "ms", ack50);
  rep.timing_row("ack_p99_ms", "ms", ack99);
  rep.note("  last pass: ack due -> ACK over %zu samples", gen->ack_ms().n());
  rep.timing_row("generator lag", "ms", gen->lag_ms());
  rep.note("  last pass: kills %llu, resent %llu, backlog max %llu",
           static_cast<unsigned long long>(gen->kills()),
           static_cast<unsigned long long>(gen->resent()),
           static_cast<unsigned long long>(gen->backlog_max()));

  if (opt.trace) {
    rep.add("gen.lag_p99_ms", "ms", gen->lag_ms().quantile(0.99));
    rep.add("gen.cpu_s", "s", gen->gen_cpu());
    rep.add("gen.kills", "count", static_cast<double>(gen->kills()));
    rep.add("ipm_aggd.drain_ms", "ms", drain.median());
    rep.add("ipm_aggd.io_cpu_s", "s", pr.io_cpu);
    rep.add("ipm_aggd.worker_cpu_s", "s", pr.daemon_cpu - pr.io_cpu);
    rep.add("ipm_aggd.jsonl_bytes_per_sample", "B",
            static_cast<double>(pr.jsonl_bytes) / static_cast<double>(pr.applied));
    rep.add("ipm_aggd.backlog_max", "count", static_cast<double>(gen->backlog_max()));
    rep.add("ipm_aggd.prom_writes", "count", static_cast<double>(d.prom_writes()));
    rep.add("ipm_aggd.steals", "count", static_cast<double>(d.steals()));
    std::uint64_t resent = 0;
    for (const Traffic::Job& job : used->tr.jobs) {
      if (const auto* ranks = d.job_ranks(job.id)) {
        for (const auto& [r, rs] : *ranks) resent += rs.resent;
      }
    }
    rep.add("ipm_aggd.resent", "count", static_cast<double>(resent));
    rep.add("ipm_aggd.protocol_errors", "count", static_cast<double>(d.protocol_errors()));
    rep.add("ipm_aggd.stalled_disconnects", "count", static_cast<double>(d.stalled_disconnects()));
    rep.add("ipm_live.samples", "count", static_cast<double>(used->tr.total));
    rep.add("ipm_live.drops", "count", 0.0);
    std::vector<std::string> payloads;
    std::vector<int> job_of;
    {
      // The workload's own payloads: strip each pre-encoded frame header.
      for (std::size_t c = 0; c < used->tr.items.size(); ++c) {
        for (const Traffic::Item& it : used->tr.items[c]) {
          const std::size_t hdr = 4 + wire::kHeaderBytes +
                                  used->tr.jobs[static_cast<std::size_t>(it.job)].id.size();
          payloads.push_back(used->tr.stream[c].substr(it.off + hdr, it.len - hdr));
          job_of.push_back(it.job);
        }
      }
    }
    codec_timings(payloads, job_of, s.interval, rep);
    rep.add("ipm_live.conserve_fold_ms", "ms", pr.fold_s * 1e3);
    const double overhead = (cpu_us - untraced_us.median()) / untraced_us.median() * 100.0;
    rep.add("bench.trace_overhead_pct", "%", overhead);
    rep.add("bench.spans", "count", static_cast<double>(Spans::get().size()));
    rep.note("  tracing overhead: daemon %.4g us/sample traced vs %.4g untraced (%.3g %%)", cpu_us,
             untraced_us.median(), overhead);
    rep.note("  daemon CPU split: IO thread %.4g s, workers %.4g s; generator %.4g s",
             pr.io_cpu, pr.daemon_cpu - pr.io_cpu, gen->gen_cpu());
  }
  return rep;
}

}  // namespace ipmbench
