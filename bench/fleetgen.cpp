// fleetgen — aggregation-daemon load generator (EXP-AGGD in DESIGN.md).
//
// Replays hundreds of synthetic concurrent jobs (thousands of ranks) of
// wire-protocol traffic through one in-process ipm_aggd daemon and
// measures ingest end to end: a single multiplexed client thread streams
// pre-encoded HELLO/SAMPLE/RANKFIN/JOBEND frames for every job over
// non-blocking Unix sockets, reads the acks back as they arrive (epoll),
// and kills a fraction of the connections mid-frame (chaos) to force the
// truncation + reconnect + epoch-resume path under load.
//
// Every run is verified, not just timed:
//   * introspection: every rank finalized, applied == jobs*ranks*samples
//     (chaos resends deduplicated, zero double counts),
//   * conservation: folding each job's daemon-written JSONL reproduces the
//     generator's ground truth bit-exactly (%.17g round trip), with
//     strictly increasing per-rank seq,
//   * loss accounting: every mid-frame kill is one truncated frame in the
//     daemon's count.
// Any violation exits nonzero — the bench is also a scale test.
//
// The figure of merit is daemon CPU per applied sample (process CPU minus
// the client thread's CPU over the daemon's lifetime): on a shared host,
// wall-clock throughput mostly measures the client, while CPU per sample
// isolates daemon ingest cost.  The replay is paced (--pace-rounds) to
// resemble real snapshot traffic, jobs trickling samples at interval
// granularity with phase-staggered flushes, so most sessions are idle on
// any daemon wake.  Two self-relative figures check that daemon CPU
// follows work, not wall time:
//   * stretch (--stretch-rounds N): the same fleet replayed again over N
//     pace rounds, with the stagger scaled alike so every send keeps its
//     size and only the wall time between sends grows; `stretch` is
//     samples per CPU-second at --pace-rounds over the figure at N,
//   * idle (--idle-sessions N): N sessions connect, say HELLO and then
//     stay silent; the daemon's CPU per wall second over a fixed window.
// fleetgen only measures; bench_aggd_gate.cmake holds the bounds.  Results
// are written to BENCH_aggd.json in the ipm-bench-v1 schema.
#include <sys/epoll.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "support/harness.hpp"
#include "ipm_aggd/aggd.hpp"
#include "ipm_live/live.hpp"
#include "ipm_live/net.hpp"
#include "ipm_live/wire.hpp"

namespace {

using ipm::live::wire::Decoder;
using ipm::live::wire::Frame;
using ipm::live::wire::FrameType;
using Clock = std::chrono::steady_clock;

struct Params {
  int jobs = 500;
  int ranks = 20;        ///< per job
  int samples = 4;       ///< per rank
  int chaos_every = 10;  ///< every Nth job is killed mid-frame once (0 = off)
  int inflight = 256;    ///< concurrent client connections
  int pace_rounds = 150; ///< spread each job's stream over N ticks (0 = burst)
  int stagger = 16;      ///< phase-offset job sends: active every Nth tick
  int stretch_rounds = 0;  ///< replay again over N pace rounds (0 = off)
  int idle_sessions = 0;   ///< measure N idle sessions instead of a replay
  int workers = -1;
  std::uint64_t seed = 42;
  std::string out_dir = "fleetgen_out";
  std::string json = "BENCH_aggd.json";
};

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Full-mantissa positive double in (0, scale): conservation must hold
/// bit-exactly on awkward values, not round ones.
double rnd_dbl(std::uint64_t& st, double scale) {
  return (static_cast<double>(splitmix64(st) >> 11) + 1.0) * (scale / 9007199254740992.0);
}

const char* const kNames[] = {"MPI_Allreduce", "MPI_Send",  "cudaMemcpy",
                              "cublasSgemm",   "cudaFree",  "@CUDA_HOST_IDLE"};

using TripleKey = std::tuple<std::string, std::uint32_t, std::int32_t>;

struct Fold {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double tsum = 0.0;
};

/// Byte offset (end of frame) -> (rank, epoch) of a sample frame, whose
/// send -> ACK latency is tracked.
struct Mark {
  std::size_t off_end = 0;
  std::uint32_t rank = 0;
  std::uint64_t epoch = 0;
};

struct JobLoad {
  std::string id;
  std::string stream;       ///< HELLO + samples + fins + JOBEND, pre-encoded
  std::size_t hello_end = 0;  ///< stream offset past the HELLO frame
  std::vector<Mark> marks;  ///< every sample frame, in stream order
  std::size_t chaos_cut = 0;  ///< >0: kill the connection at this offset
  std::map<int, std::map<TripleKey, Fold>> truth;  ///< per-rank ground truth
};

std::string frame_bytes(FrameType type, const std::string& job, std::uint32_t rank,
                        std::uint64_t epoch, const std::string& payload) {
  Frame f;
  f.type = type;
  f.rank = rank;
  f.epoch = epoch;
  f.job = job;
  f.payload = payload;
  return ipm::live::wire::encode(f);
}

/// Pre-encode one job's whole session: samples interleaved round-robin
/// across ranks (seq-ordered per rank, the per-job FIFO the daemon relies
/// on), folding the ground truth as a side effect.
JobLoad build_job(int j, const Params& p) {
  JobLoad load;
  load.id = "fleet" + std::to_string(j);
  std::uint64_t rng = p.seed * 1000003ull + static_cast<std::uint64_t>(j);
  const double interval = 0.5;
  load.stream = frame_bytes(FrameType::kHello, load.id, 0, 0,
                            ipm::live::wire::hello_payload("./fleetgen", interval));
  load.hello_end = load.stream.size();
  std::size_t mid_frame_end = 0;  // a frame boundary near the middle
  for (int k = 0; k < p.samples; ++k) {
    for (int r = 0; r < p.ranks; ++r) {
      ipm::live::Sample s;
      s.rank = r;
      s.seq = static_cast<std::uint64_t>(k);
      s.t0 = interval * static_cast<double>(k);
      s.t1 = interval * static_cast<double>(k + 1);
      s.final_flush = (k == p.samples - 1);
      s.regions.emplace_back("main");
      const int ndeltas = 2 + static_cast<int>(splitmix64(rng) % 3);
      for (int d = 0; d < ndeltas; ++d) {
        ipm::live::KeyDelta kd;
        kd.name_str = kNames[splitmix64(rng) % (sizeof kNames / sizeof *kNames)];
        kd.region = 0;
        kd.select = (splitmix64(rng) % 4 == 0) ? -1 : 0;
        kd.dcount = 1 + splitmix64(rng) % 16;
        kd.dbytes = (splitmix64(rng) % 64) * 128;
        kd.dtsum = rnd_dbl(rng, 0.2);
        kd.dflops = rnd_dbl(rng, 1e9);
        Fold& f = load.truth[r][{kd.name_str, kd.region, kd.select}];
        f.count += kd.dcount;
        f.bytes += kd.dbytes;
        f.tsum += kd.dtsum;
        s.deltas.push_back(std::move(kd));
      }
      load.stream += frame_bytes(FrameType::kSample, load.id,
                                 static_cast<std::uint32_t>(r), s.seq + 1,
                                 ipm::live::sample_line(s));
      load.marks.push_back({load.stream.size(), static_cast<std::uint32_t>(r),
                            s.seq + 1});
      if (k == p.samples / 2 && r == p.ranks / 2) mid_frame_end = load.stream.size();
    }
  }
  const std::uint64_t samples = static_cast<std::uint64_t>(p.samples);
  for (int r = 0; r < p.ranks; ++r) {
    load.stream += frame_bytes(FrameType::kRankFin, load.id,
                               static_cast<std::uint32_t>(r), samples + 1,
                               ipm::live::wire::rank_fin_payload(samples, 0));
  }
  load.stream += frame_bytes(FrameType::kJobEnd, load.id, 0, 0, "");
  if (p.chaos_every > 0 && j % p.chaos_every == 0 && mid_frame_end > 7) {
    load.chaos_cut = mid_frame_end - 7;  // mid-frame: a truncated-frame kill
  }
  return load;
}

// --- CPU and wake meter -------------------------------------------------------

double rusage_cpu_s(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Daemon CPU and wakes over a window in which the only other live thread
/// is the calling (client) one: process figures minus this thread's.  A
/// wake is a voluntary context switch, i.e. a daemon thread that blocked
/// in epoll_wait or on a futex and was woken again.
struct DaemonMeter {
  rusage proc0 = usage(RUSAGE_SELF);
  rusage self0 = usage(RUSAGE_THREAD);

  static rusage usage(int who) {
    rusage ru{};
    getrusage(who, &ru);
    return ru;
  }
  [[nodiscard]] double cpu_s() const {
    const rusage proc = usage(RUSAGE_SELF);
    const rusage self = usage(RUSAGE_THREAD);
    return std::max(1e-9, (rusage_cpu_s(proc) - rusage_cpu_s(proc0)) -
                              (rusage_cpu_s(self) - rusage_cpu_s(self0)));
  }
  [[nodiscard]] double wakes() const {
    const rusage proc = usage(RUSAGE_SELF);
    const rusage self = usage(RUSAGE_THREAD);
    return static_cast<double>((proc.ru_nvcsw - proc0.ru_nvcsw) -
                               (self.ru_nvcsw - self0.ru_nvcsw));
  }
};

// --- multiplexed client ------------------------------------------------------

struct Conn {
  const JobLoad* load = nullptr;
  int fd = -1;
  std::size_t off = 0;
  std::size_t next_mark = 0;
  Decoder dec;
  bool replay = false;  ///< false: chaos job before its kill
  int slot = 0;         ///< stagger phase: sends on ticks where tick%stagger==slot
  bool done = false;
  bool welcomed = false;
  bool track_latency = false;
  /// Sample frames sent and not yet acked, by (rank, epoch).
  std::map<std::pair<std::uint32_t, std::uint64_t>, Clock::time_point> sent;
};

int connect_block(const ipm::live::net::Addr& addr) {
  for (int attempt = 0; attempt < 2000; ++attempt) {
    const int fd = ipm::live::net::connect_fd(addr);
    if (fd >= 0) {
      for (int i = 0; i < 2000; ++i) {
        if (ipm::live::net::connect_finished(fd)) return fd;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ipm::live::net::close_fd(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

struct RunStats {
  double elapsed_s = 0.0;
  double daemon_cpu_s = 0.0;  ///< CPU burnt by the daemon's threads alone
  double daemon_wakes = 0.0;  ///< daemon threads' voluntary context switches
  std::uint64_t prom_writes = 0;  ///< exposition rewrites during the replay
  std::uint64_t applied = 0;
  std::uint64_t resent = 0;
  std::uint64_t kills = 0;     ///< chaos connections dropped mid-frame
  std::uint64_t failures = 0;  ///< client-visible protocol/transport failures
  std::vector<double> ack_ms;  ///< send -> ACK per sample frame
};

/// Stream every job through the daemon at `addr`, at most `inflight`
/// connections at a time, chaos kills included.  The first `inflight` jobs
/// register first: each sends its HELLO and waits for the WELCOME, so the
/// daemon's job setup (one new JSONL file each) is done before
/// `registered` runs and the streams start.  Records send -> ACK
/// latency for every sample frame of the non-chaos jobs (chaos replays
/// resend frames the daemon already acked).  pace_rounds > 0 trickles each
/// stream over that many 2 ms ticks so every job stays live for the whole
/// run, like real snapshot traffic; 0 blasts each stream as fast as the
/// socket accepts it.  stagger > 1 phase-offsets the jobs (a conn sends
/// only every Nth tick, like jobs flushing at their own snapshot-interval
/// boundaries), so most sessions are idle on any given daemon wake — the
/// fleet-monitoring steady state.  Acks are read as they arrive, between
/// ticks.
RunStats drive_client(const std::vector<JobLoad>& jobs, const std::string& addr_spec,
                      int inflight, int pace_rounds, int stagger,
                      const std::function<void()>& registered) {
  RunStats stats;
  const ipm::live::net::Addr addr = ipm::live::net::parse_addr(addr_spec);
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::deque<const JobLoad*> pending;
  for (const JobLoad& j : jobs) pending.push_back(&j);
  std::vector<std::unique_ptr<Conn>> conns;
  std::size_t done_count = 0;
  std::uint64_t tick = 0;
  int next_slot = 0;
  const int nslots = pace_rounds > 0 && stagger > 1 ? stagger : 1;

  const auto finish = [&](Conn& c, bool failed) {
    ipm::live::net::close_fd(c.fd);  // also leaves the epoll set
    c.fd = -1;
    c.done = true;
    ++done_count;
    if (failed) ++stats.failures;
  };
  const auto open_conn = [&](Conn& c, bool replay) {
    c.fd = connect_block(addr);
    c.off = 0;
    c.next_mark = 0;
    c.dec = Decoder();
    c.welcomed = false;
    c.replay = replay;
    c.slot = next_slot++ % nslots;
    c.track_latency = c.load->chaos_cut == 0;
    c.sent.clear();
    if (c.fd < 0) {
      finish(c, true);
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
  };
  // Sends this tick's share of `c`'s stream; false when nothing was sent.
  const auto send_step = [&](Conn& c) -> bool {
    const std::string& stream = c.load->stream;
    // Off-phase conns still mid-stream stay silent this tick.
    if (nslots > 1 && c.off < stream.size() &&
        tick % static_cast<std::uint64_t>(nslots) != static_cast<std::uint64_t>(c.slot)) {
      return false;
    }
    // Before its kill a chaos job writes up to the cut, then drops the
    // connection abruptly (mid-frame) and replays the whole stream on a
    // fresh one.
    const std::size_t limit = c.replay ? stream.size() : c.load->chaos_cut;
    bool sent = false;
    if (c.off < limit) {
      std::size_t cap = 256 * 1024;
      if (pace_rounds > 0) {
        cap = std::min(cap, std::max<std::size_t>(
                                96, stream.size() * static_cast<std::size_t>(nslots) /
                                        static_cast<std::size_t>(pace_rounds)));
      }
      const std::size_t chunk = std::min<std::size_t>(limit - c.off, cap);
      const long w = ipm::live::net::write_some(c.fd, stream.data() + c.off, chunk);
      if (w < 0) {  // daemon dropped us (it never should outside chaos)
        finish(c, true);
        return true;
      }
      if (w > 0) {
        sent = true;
        c.off += static_cast<std::size_t>(w);
        const auto now = Clock::now();
        while (c.next_mark < c.load->marks.size() &&
               c.load->marks[c.next_mark].off_end <= c.off) {
          const Mark& m = c.load->marks[c.next_mark++];
          if (c.track_latency) c.sent.emplace(std::make_pair(m.rank, m.epoch), now);
        }
      }
    }
    if (!c.replay && c.off >= c.load->chaos_cut) {
      ipm::live::net::close_fd(c.fd);  // no FIN handshake: a real kill
      ++stats.kills;
      open_conn(c, true);
      sent = true;
    }
    return sent;
  };
  // Reads what `c`'s socket holds and retires acked frames.
  const auto read_acks = [&](Conn& c) {
    char buf[64 * 1024];
    for (;;) {
      const long r = ipm::live::net::read_some(c.fd, buf, sizeof buf);
      if (r < 0) {  // EOF before JobEndAck
        finish(c, true);
        return;
      }
      if (r == 0) break;
      c.dec.feed(buf, static_cast<std::size_t>(r));
      if (static_cast<std::size_t>(r) < sizeof buf) break;
    }
    const auto now = Clock::now();
    Frame f;
    while (c.dec.next(f)) {
      if (f.type == FrameType::kAck) {
        // Acks are cumulative per rank.
        const auto lo = c.sent.lower_bound({f.rank, 0});
        const auto hi = c.sent.upper_bound({f.rank, f.epoch});
        for (auto it = lo; it != hi; ++it) {
          stats.ack_ms.push_back(
              std::chrono::duration<double, std::milli>(now - it->second).count());
        }
        c.sent.erase(lo, hi);
      } else if (f.type == FrameType::kWelcome) {
        c.welcomed = true;
      } else if (f.type == FrameType::kJobEndAck) {
        finish(c, false);
        return;
      }
    }
  };

  std::vector<epoll_event> evs(256);
  while (!pending.empty() && conns.size() < static_cast<std::size_t>(inflight)) {
    auto c = std::make_unique<Conn>();
    c->load = pending.front();
    pending.pop_front();
    open_conn(*c, c->load->chaos_cut == 0);
    if (c->done) continue;
    const long w = ipm::live::net::write_some(c->fd, c->load->stream.data(),
                                              c->load->hello_end);
    if (w != static_cast<long>(c->load->hello_end)) {
      finish(*c, true);
      continue;
    }
    c->off = c->load->hello_end;
    conns.push_back(std::move(c));
  }
  const auto give_up = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < give_up &&
         !std::all_of(conns.begin(), conns.end(), [](const std::unique_ptr<Conn>& c) {
           return c->done || c->welcomed;
         })) {
    const int n = ::epoll_wait(ep, evs.data(), static_cast<int>(evs.size()), 100);
    for (int i = 0; i < n; ++i) {
      Conn& c = *static_cast<Conn*>(evs[i].data.ptr);
      if (!c.done) read_acks(c);
    }
  }
  registered();
  const auto t0 = Clock::now();

  Clock::time_point next_tick = Clock::now();
  while (done_count < jobs.size()) {
    while (!pending.empty() && conns.size() < static_cast<std::size_t>(inflight)) {
      auto c = std::make_unique<Conn>();
      c->load = pending.front();
      pending.pop_front();
      open_conn(*c, c->load->chaos_cut == 0);
      if (!c->done) conns.push_back(std::move(c));
    }
    if (conns.empty()) break;
    bool progress = false;
    if (pace_rounds == 0 || Clock::now() >= next_tick) {
      for (const auto& c : conns) {
        if (!c->done && send_step(*c)) progress = true;
      }
      ++tick;
      next_tick = Clock::now() + std::chrono::milliseconds(2);
    }
    int timeout = progress ? 0 : 1;
    if (pace_rounds > 0) {
      timeout = static_cast<int>(std::max<long long>(
          0, std::chrono::ceil<std::chrono::milliseconds>(next_tick - Clock::now())
                 .count()));
    }
    const int n = ::epoll_wait(ep, evs.data(), static_cast<int>(evs.size()), timeout);
    for (int i = 0; i < n; ++i) {
      Conn& c = *static_cast<Conn*>(evs[i].data.ptr);
      if (!c.done) read_acks(c);
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) { return c->done; }),
                conns.end());
  }
  stats.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& c : conns) ipm::live::net::close_fd(c->fd);
  ipm::live::net::close_fd(ep);
  return stats;
}

// --- verification ------------------------------------------------------------

/// Fold the daemon's JSONL for one job and require bit-exact equality with
/// the generator's ground truth plus strictly increasing per-rank seq.
std::uint64_t check_conservation(const std::string& jsonl, const JobLoad& load,
                                 int samples_per_rank) {
  std::uint64_t violations = 0;
  const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(jsonl);
  std::map<int, std::map<TripleKey, Fold>> folded;
  std::map<int, std::uint64_t> last_seq;
  std::map<int, std::uint64_t> nsamples;
  for (const ipm::live::Sample& s : ts.samples) {
    const auto it = last_seq.find(s.rank);
    if (it != last_seq.end() && s.seq <= it->second) ++violations;  // reorder/dup
    last_seq[s.rank] = s.seq;
    ++nsamples[s.rank];
    for (const ipm::live::KeyDelta& d : s.deltas) {
      Fold& f = folded[s.rank][{d.name_str, d.region, d.select}];
      f.count += d.dcount;
      f.bytes += d.dbytes;
      f.tsum += d.dtsum;
    }
  }
  for (const auto& [rank, truth] : load.truth) {
    if (nsamples[rank] != static_cast<std::uint64_t>(samples_per_rank)) ++violations;
    const auto fit = folded.find(rank);
    if (fit == folded.end()) {
      violations += truth.size();
      continue;
    }
    if (fit->second.size() != truth.size()) ++violations;
    for (const auto& [key, want] : truth) {
      const auto kit = fit->second.find(key);
      if (kit == fit->second.end() ||
          kit->second.count != want.count || kit->second.bytes != want.bytes ||
          kit->second.tsum != want.tsum) {  // bit-exact, not NEAR
        ++violations;
      }
    }
  }
  return violations;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1,
                    static_cast<std::size_t>(static_cast<double>(v.size()) * q))];
}

ipm::aggd::Options daemon_options(const Params& p, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ipm::aggd::Options opt;
  opt.listen = "unix:" + dir + "/agg.sock";
  opt.out_dir = dir;
  opt.workers = p.workers;
  return opt;
}

/// Replay the fleet through a fresh daemon at `pace_rounds` and `stagger`,
/// verify it, and describe it as one ipm-bench-v1 entry named `name`.
benchx::BenchResult replay(const std::vector<JobLoad>& jobs, const Params& p,
                           int pace_rounds, int stagger, const std::string& name,
                           bool& ok) {
  const ipm::aggd::Options opt = daemon_options(p, p.out_dir + "/" + name);
  ipm::aggd::Daemon d(opt);
  std::string err;
  if (!d.start(err)) {
    std::fprintf(stderr, "fleetgen: daemon start failed: %s\n", err.c_str());
    ok = false;
    return {};
  }
  std::thread th([&d] { d.run(); });
  std::optional<DaemonMeter> meter;
  RunStats st = drive_client(jobs, opt.listen, p.inflight, pace_rounds, stagger,
                             [&meter] { meter.emplace(); });
  d.stop();
  th.join();
  st.daemon_cpu_s = meter->cpu_s();
  st.daemon_wakes = meter->wakes();
  st.prom_writes = d.prom_writes();

  if (st.failures != 0) {
    std::fprintf(stderr, "fleetgen: %s: %llu client failures\n", name.c_str(),
                 static_cast<unsigned long long>(st.failures));
    ok = false;
  }
  std::uint64_t violations = 0;
  for (const JobLoad& j : jobs) {
    const auto* ranks = d.job_ranks(j.id);
    if (ranks == nullptr || ranks->size() != static_cast<std::size_t>(p.ranks)) {
      std::fprintf(stderr, "fleetgen: %s: missing ranks\n", j.id.c_str());
      ok = false;
      continue;
    }
    for (const auto& [rank, rs] : *ranks) {
      if (!rs.finalized) {
        std::fprintf(stderr, "fleetgen: %s rank %u not finalized\n", j.id.c_str(),
                     rank);
        ok = false;
      }
      st.applied += rs.samples;
      st.resent += rs.resent;
    }
    violations += check_conservation(d.job_timeseries_path(j.id), j, p.samples);
  }
  const std::uint64_t expect = static_cast<std::uint64_t>(p.jobs) *
                               static_cast<std::uint64_t>(p.ranks) *
                               static_cast<std::uint64_t>(p.samples);
  if (st.applied != expect) {
    std::fprintf(stderr,
                 "fleetgen: applied %llu != expected %llu (double count or loss)\n",
                 static_cast<unsigned long long>(st.applied),
                 static_cast<unsigned long long>(expect));
    ok = false;
  }
  // Every kill cuts a frame, and the daemon counts every cut frame.
  if (d.truncated_frames() != st.kills) {
    std::fprintf(stderr, "fleetgen: %s: %llu truncated frames counted for %llu kills\n",
                 name.c_str(), static_cast<unsigned long long>(d.truncated_frames()),
                 static_cast<unsigned long long>(st.kills));
    ok = false;
  }
  if (violations != 0) ok = false;
  const double applied = std::max<double>(1.0, static_cast<double>(st.applied));
  const double sps = applied / std::max(st.elapsed_s, 1e-9);
  const double scps = applied / st.daemon_cpu_s;
  const std::size_t nacks = st.ack_ms.size();
  const double ack50 = quantile(st.ack_ms, 0.5);
  const double ack99 = quantile(st.ack_ms, 0.99);
  std::printf(
      "fleetgen: %-13s %6d rounds %8.0f samples/s wall, %8.0f samples/cpu-s, "
      "%.2f wakes/sample, ack p50 %.3f ms p99 %.3f ms (%zu)\n"
      "fleetgen: %-13s %llu applied, %llu resent, %llu kills, %llu truncated, "
      "%llu conservation violations, %u workers, %llu steals\n",
      name.c_str(), pace_rounds, sps, scps, st.daemon_wakes / applied, ack50, ack99,
      nacks, name.c_str(), static_cast<unsigned long long>(st.applied),
      static_cast<unsigned long long>(st.resent),
      static_cast<unsigned long long>(st.kills),
      static_cast<unsigned long long>(d.truncated_frames()),
      static_cast<unsigned long long>(violations), d.workers(),
      static_cast<unsigned long long>(d.steals()));

  benchx::BenchResult r;
  r.name = name;
  r.iterations = static_cast<std::int64_t>(st.applied);
  r.ns_per_op = st.elapsed_s * 1e9 / applied;
  r.counters = {
      {"jobs", static_cast<double>(p.jobs)},
      {"ranks_total", static_cast<double>(p.jobs) * p.ranks},
      {"pace_rounds", static_cast<double>(pace_rounds)},
      {"stagger", static_cast<double>(stagger)},
      {"samples_per_s", sps},
      {"samples_per_cpu_s", scps},
      {"daemon_cpu_s", st.daemon_cpu_s},
      {"daemon_wakes_per_sample", st.daemon_wakes / applied},
      {"ack_p50_ms", ack50},
      {"ack_p99_ms", ack99},
      {"acks", static_cast<double>(nacks)},
      {"drop_rate", static_cast<double>(expect - std::min(expect, st.applied)) /
                        static_cast<double>(expect)},
      {"resent", static_cast<double>(st.resent)},
      {"kills", static_cast<double>(st.kills)},
      {"truncated_frames", static_cast<double>(d.truncated_frames())},
      {"conservation_violations", static_cast<double>(violations)},
      {"protocol_errors", static_cast<double>(d.protocol_errors())},
      {"stalled_disconnects", static_cast<double>(d.stalled_disconnects())},
      {"workers", static_cast<double>(d.workers())},
      {"steals", static_cast<double>(d.steals())},
      {"prom_writes", static_cast<double>(st.prom_writes)},
  };
  return r;
}

/// Connect `p.idle_sessions` sessions, each HELLO -> WELCOME for its own
/// job, let the daemon settle, then meter it over a window in which no
/// session sends anything.
benchx::BenchResult idle(const Params& p, bool& ok) {
  // Settle past one exposition interval, so the rewrite the HELLOs dirtied
  // happens before the window.
  constexpr std::chrono::milliseconds kSettle{1500};
  constexpr std::chrono::milliseconds kWindow{3000};
  const ipm::aggd::Options opt = daemon_options(p, p.out_dir + "/idle");
  ipm::aggd::Daemon d(opt);
  std::string err;
  if (!d.start(err)) {
    std::fprintf(stderr, "fleetgen: daemon start failed: %s\n", err.c_str());
    ok = false;
    return {};
  }
  std::thread th([&d] { d.run(); });
  const ipm::live::net::Addr addr = ipm::live::net::parse_addr(opt.listen);
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::vector<int> fds;
  std::vector<Decoder> decs(static_cast<std::size_t>(p.idle_sessions));
  for (int i = 0; i < p.idle_sessions; ++i) {
    const int fd = connect_block(addr);
    if (fd < 0) break;
    const std::string hello = frame_bytes(
        FrameType::kHello, "idle" + std::to_string(i), 0, 0,
        ipm::live::wire::hello_payload("./fleetgen", 0.5));
    if (ipm::live::net::write_some(fd, hello.data(), hello.size()) !=
        static_cast<long>(hello.size())) {
      ipm::live::net::close_fd(fd);
      break;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = fds.size();
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
    fds.push_back(fd);
  }
  std::size_t welcomes = 0;
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  std::vector<epoll_event> evs(256);
  while (welcomes < fds.size() && Clock::now() < give_up) {
    const int n = ::epoll_wait(ep, evs.data(), static_cast<int>(evs.size()), 100);
    for (int i = 0; i < n; ++i) {
      const std::size_t k = evs[i].data.u64;
      char buf[4096];
      const long r = ipm::live::net::read_some(fds[k], buf, sizeof buf);
      if (r <= 0) continue;
      decs[k].feed(buf, static_cast<std::size_t>(r));
      Frame f;
      while (decs[k].next(f)) welcomes += f.type == FrameType::kWelcome ? 1 : 0;
    }
  }
  std::this_thread::sleep_for(kSettle);
  const DaemonMeter meter;
  const auto w0 = Clock::now();
  std::this_thread::sleep_for(kWindow);
  const double wall = std::chrono::duration<double>(Clock::now() - w0).count();
  const double cpu = meter.cpu_s();
  const double wakes = meter.wakes();
  for (const int fd : fds) ipm::live::net::close_fd(fd);
  ipm::live::net::close_fd(ep);
  d.stop();
  th.join();

  const std::size_t want = static_cast<std::size_t>(p.idle_sessions);
  if (fds.size() != want || welcomes != want || d.protocol_errors() != 0) {
    std::fprintf(stderr, "fleetgen: idle: %zu of %zu sessions welcomed, %llu protocol errors\n",
                 welcomes, want, static_cast<unsigned long long>(d.protocol_errors()));
    ok = false;
  }
  const double cpu_ms_per_s = cpu * 1e3 / wall;
  std::printf("fleetgen: idle %d sessions, %u workers: %.3f ms CPU per wall second, "
              "%.1f wakes/s over %.2f s\n",
              p.idle_sessions, d.workers(), cpu_ms_per_s, wakes / wall, wall);
  benchx::BenchResult r;
  r.name = "aggd_idle";
  r.iterations = static_cast<std::int64_t>(welcomes);
  r.ns_per_op = 0.0;
  r.counters = {
      {"sessions", static_cast<double>(p.idle_sessions)},
      {"window_s", wall},
      {"daemon_cpu_ms_per_s", cpu_ms_per_s},
      {"daemon_wakes_per_s", wakes / wall},
      {"workers", static_cast<double>(d.workers())},
  };
  return r;
}

void raise_nofile() {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);  // best effort
  }
}

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--ranks N] [--samples N] [--chaos-every N]\n"
               "          [--inflight N] [--workers N]\n"
               "          [--pace-rounds N (0 = burst)] [--stagger N]\n"
               "          [--stretch-rounds N] [--idle-sessions N]\n"
               "          [--out-dir DIR] [--json PATH] [--seed S]\n",
               argv0);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      p.jobs = std::atoi(value());
    } else if (arg == "--ranks") {
      p.ranks = std::atoi(value());
    } else if (arg == "--samples") {
      p.samples = std::atoi(value());
    } else if (arg == "--chaos-every") {
      p.chaos_every = std::atoi(value());
    } else if (arg == "--inflight") {
      p.inflight = std::atoi(value());
    } else if (arg == "--pace-rounds") {
      p.pace_rounds = std::atoi(value());
    } else if (arg == "--stagger") {
      p.stagger = std::atoi(value());
    } else if (arg == "--stretch-rounds") {
      p.stretch_rounds = std::atoi(value());
    } else if (arg == "--idle-sessions") {
      p.idle_sessions = std::atoi(value());
    } else if (arg == "--workers") {
      p.workers = std::atoi(value());
    } else if (arg == "--out-dir") {
      p.out_dir = value();
    } else if (arg == "--json") {
      p.json = value();
    } else if (arg == "--seed") {
      p.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "-h" || arg == "--help") {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      return usage(argv[0], 2);
    }
  }
  if (p.jobs < 1 || p.ranks < 1 || p.samples < 1 || p.inflight < 1 ||
      p.pace_rounds < 0 || p.stretch_rounds < 0 || p.idle_sessions < 0 ||
      (p.stretch_rounds > 0 && p.pace_rounds == 0)) {
    return usage(argv[0], 2);
  }
  raise_nofile();

  bool ok = true;
  std::vector<benchx::BenchResult> results;
  if (p.idle_sessions > 0) {
    results.push_back(idle(p, ok));
  } else {
    std::printf("fleetgen: %d jobs x %d ranks x %d samples (%d total ranks)\n",
                p.jobs, p.ranks, p.samples, p.jobs * p.ranks);
    std::vector<JobLoad> jobs;
    jobs.reserve(static_cast<std::size_t>(p.jobs));
    std::size_t wire_bytes = 0;
    for (int j = 0; j < p.jobs; ++j) {
      jobs.push_back(build_job(j, p));
      wire_bytes += jobs.back().stream.size();
    }
    std::printf("fleetgen: %.1f MiB of wire traffic pre-encoded\n",
                static_cast<double>(wire_bytes) / (1024.0 * 1024.0));
    results.push_back(replay(jobs, p, p.pace_rounds, p.stagger, "aggd_sharded", ok));
    if (p.stretch_rounds > 0) {
      // The same sends, spaced further apart: each conn's chunks keep their
      // size, so only the wall time between them grows.
      const int stagger = static_cast<int>(static_cast<long long>(p.stagger) *
                                           p.stretch_rounds /
                                           std::max(p.pace_rounds, 1));
      benchx::BenchResult r =
          replay(jobs, p, p.stretch_rounds, stagger, "aggd_stretch", ok);
      const auto scps = [](const benchx::BenchResult& b) {
        for (const auto& [k, v] : b.counters) {
          if (k == "samples_per_cpu_s") return v;
        }
        return 0.0;
      };
      const double stretch = scps(results.front()) / std::max(scps(r), 1e-9);
      std::printf("fleetgen: stretch %d -> %d rounds: %.2fx CPU per sample\n",
                  p.pace_rounds, p.stretch_rounds, stretch);
      r.counters.emplace_back("stretch", stretch);
      results.push_back(std::move(r));
    }
  }
  if (!benchx::write_bench_json(p.json, "aggd", results)) {
    std::fprintf(stderr, "fleetgen: cannot write %s\n", p.json.c_str());
    ok = false;
  }
  return ok ? 0 : 1;
}
