// fleetgen — aggregation-daemon load generator (EXP-AGGD in DESIGN.md).
//
// Replays hundreds of synthetic concurrent jobs (thousands of ranks) of
// wire-protocol traffic through one in-process ipm_aggd daemon and
// measures ingest throughput end to end: a single multiplexed client
// thread streams pre-encoded HELLO/SAMPLE/RANKFIN/JOBEND frames for every
// job over non-blocking Unix sockets, reads the acks back, and optionally
// kills a fraction of the connections mid-frame (chaos) to force the
// truncation + reconnect + epoch-resume path under load.
//
// Every run is verified, not just timed:
//   * introspection: every rank finalized, applied == jobs*ranks*samples
//     (chaos resends deduplicated, zero double counts),
//   * conservation: folding each job's daemon-written JSONL reproduces the
//     generator's ground truth bit-exactly (%.17g round trip), with
//     strictly increasing per-rank seq.
// Any violation exits nonzero — the bench is also a scale test.
//
// The same workload is then replayed through the pre-sharding LegacyDaemon.
// The gated figure of merit is daemon CPU-seconds per applied sample
// (process CPU minus the client thread's CPU over the daemon's lifetime):
// on a shared host, wall-clock throughput mostly measures the client, while
// CPU-per-sample isolates daemon ingest capacity.  The replay is paced
// (--pace-rounds) to resemble real snapshot traffic — jobs trickle samples
// at interval granularity rather than blasting their whole stream — which
// is exactly the regime where the legacy per-dirty-loop full prom rewrite
// and per-loop fleet scan dominate.  Results are written to
// BENCH_aggd.json in the ipm-bench-v1 schema; bench_aggd_smoke.cmake gates
// the speedup via IPM_BENCH_AGGD_RATIO_MIN.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "support/harness.hpp"
#include "ipm_aggd/aggd.hpp"
#include "ipm_aggd/aggd_legacy.hpp"
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
  int legacy_jobs = -1;  ///< baseline replays this many jobs (-1 = all)
  int inflight = 256;    ///< concurrent client connections
  int pace_rounds = 150; ///< spread each job's stream over N ticks (0 = burst)
  int stagger = 16;      ///< phase-offset job sends: active every Nth tick
  int workers = -1;
  std::uint64_t seed = 42;
  std::string out_dir = "fleetgen_out";
  std::string json = "BENCH_aggd.json";
  bool skip_legacy = false;
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

/// Byte offset (end of frame) -> (rank, epoch) of a latency-tracked frame.
struct Mark {
  std::size_t off_end = 0;
  std::uint32_t rank = 0;
  std::uint64_t epoch = 0;
};

struct JobLoad {
  std::string id;
  std::string stream;       ///< HELLO + samples + fins + JOBEND, pre-encoded
  std::vector<Mark> marks;  ///< each rank's final sample frame
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
      if (k == p.samples - 1) {
        load.marks.push_back({load.stream.size(), static_cast<std::uint32_t>(r),
                              s.seq + 1});
      }
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

// --- multiplexed client ------------------------------------------------------

struct Conn {
  const JobLoad* load = nullptr;
  int fd = -1;
  std::size_t off = 0;
  std::size_t next_mark = 0;
  Decoder dec;
  int phase = 0;  ///< 0 = pre-kill (chaos only), 1 = full replay
  int slot = 0;   ///< stagger phase: sends on ticks where tick%stagger==slot
  bool done = false;
  bool track_latency = false;
  std::map<std::pair<std::uint32_t, std::uint64_t>, Clock::time_point> stamps;
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
  std::uint64_t prom_writes = 0;  ///< exposition rewrites during the replay
  std::uint64_t applied = 0;
  std::uint64_t resent = 0;
  std::uint64_t failures = 0;  ///< client-visible protocol/transport failures
  std::vector<double> latencies_ns;
};

double proc_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Daemon CPU over a window in which the only other live thread is the
/// calling (client) one: process CPU delta minus this thread's CPU delta.
struct DaemonCpuMeter {
  double proc0 = proc_cpu_s();
  double self0 = thread_cpu_s();
  double stop() const {
    return std::max(1e-9, (proc_cpu_s() - proc0) - (thread_cpu_s() - self0));
  }
};

/// Stream every job through the daemon at `addr`, at most `inflight`
/// connections at a time, chaos kills included.  Returns wall time and the
/// sampled end-to-end apply latencies (send of a rank's final sample frame
/// -> its ack; non-chaos jobs only, chaos acks race the replay).
/// pace_rounds > 0 trickles each stream over that many 2ms ticks so every
/// job stays live and dirty for the whole run, like real snapshot traffic;
/// 0 blasts each stream as fast as the socket accepts it.  stagger > 1
/// phase-offsets the jobs (a conn sends only every Nth tick, like jobs
/// flushing at their own snapshot-interval boundaries), so most sessions
/// are idle on any given daemon wake — the fleet-monitoring steady state.
RunStats drive_client(const std::vector<JobLoad>& jobs, const std::string& addr_spec,
                      int inflight, int pace_rounds, int stagger) {
  RunStats stats;
  const ipm::live::net::Addr addr = ipm::live::net::parse_addr(addr_spec);
  std::deque<const JobLoad*> pending;
  for (const JobLoad& j : jobs) pending.push_back(&j);
  std::vector<Conn> conns;
  std::size_t done_count = 0;
  std::uint64_t tick = 0;
  int next_slot = 0;
  const int nslots = pace_rounds > 0 && stagger > 1 ? stagger : 1;
  const auto t0 = Clock::now();

  auto open_conn = [&](Conn& c, const JobLoad* load, int phase) {
    c.load = load;
    c.fd = connect_block(addr);
    c.off = 0;
    c.next_mark = 0;
    c.dec = Decoder();
    c.phase = phase;
    c.slot = next_slot++ % nslots;
    c.done = false;
    c.track_latency = load->chaos_cut == 0;
    c.stamps.clear();
  };

  while (done_count < jobs.size()) {
    while (!pending.empty() &&
           conns.size() < static_cast<std::size_t>(inflight)) {
      Conn c;
      open_conn(c, pending.front(), pending.front()->chaos_cut > 0 ? 0 : 1);
      pending.pop_front();
      if (c.fd < 0) {
        ++stats.failures;
        ++done_count;
        continue;
      }
      conns.push_back(std::move(c));
    }
    if (conns.empty()) break;

    bool progress = false;
    for (Conn& c : conns) {
      if (c.done || c.fd < 0) continue;
      const std::string& stream = c.load->stream;
      // Off-phase conns still mid-stream stay completely silent this tick;
      // fully-sent conns keep reading every tick so acks (and the final
      // latency marks) are picked up promptly.
      if (nslots > 1 && c.off < stream.size() &&
          tick % static_cast<std::uint64_t>(nslots) !=
              static_cast<std::uint64_t>(c.slot)) {
        continue;
      }
      // Phase 0 writes up to the chaos cut, then drops the connection
      // abruptly (mid-frame) and replays the whole stream on a fresh one.
      const std::size_t limit = c.phase == 0 ? c.load->chaos_cut : stream.size();
      if (c.off < limit) {
        std::size_t cap = 256 * 1024;
        if (pace_rounds > 0) {
          cap = std::min(
              cap, std::max<std::size_t>(
                       96, stream.size() * static_cast<std::size_t>(nslots) /
                               static_cast<std::size_t>(pace_rounds)));
        }
        const std::size_t chunk = std::min<std::size_t>(limit - c.off, cap);
        const long w = ipm::live::net::write_some(c.fd, stream.data() + c.off, chunk);
        if (w < 0) {  // daemon dropped us (it never should outside chaos)
          ipm::live::net::close_fd(c.fd);
          c.fd = -1;
          c.done = true;
          ++stats.failures;
          ++done_count;
          continue;
        }
        if (w > 0) {
          progress = true;
          c.off += static_cast<std::size_t>(w);
          if (c.track_latency) {
            const auto now = Clock::now();
            while (c.next_mark < c.load->marks.size() &&
                   c.load->marks[c.next_mark].off_end <= c.off) {
              const Mark& m = c.load->marks[c.next_mark++];
              c.stamps.emplace(std::make_pair(m.rank, m.epoch), now);
            }
          }
        }
      }
      if (c.phase == 0 && c.off >= c.load->chaos_cut) {
        ipm::live::net::close_fd(c.fd);  // no FIN handshake: a real kill
        open_conn(c, c.load, 1);
        if (c.fd < 0) {
          c.done = true;
          ++stats.failures;
          ++done_count;
        }
        progress = true;
        continue;
      }
      char buf[64 * 1024];
      const long r = ipm::live::net::read_some(c.fd, buf, sizeof buf);
      if (r > 0) {
        progress = true;
        c.dec.feed(buf, static_cast<std::size_t>(r));
        Frame f;
        while (c.dec.next(f)) {
          if (f.type == FrameType::kAck && c.track_latency) {
            const auto it = c.stamps.find({f.rank, f.epoch});
            if (it != c.stamps.end()) {
              stats.latencies_ns.push_back(
                  std::chrono::duration<double, std::nano>(Clock::now() -
                                                           it->second)
                      .count());
              c.stamps.erase(it);
            }
          } else if (f.type == FrameType::kJobEndAck) {
            c.done = true;
            ++done_count;
          }
        }
      } else if (r < 0 && !c.done) {  // EOF before JobEndAck
        c.done = true;
        ++stats.failures;
        ++done_count;
      }
      if (c.done && c.fd >= 0) {
        ipm::live::net::close_fd(c.fd);
        c.fd = -1;
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const Conn& c) { return c.done; }),
                conns.end());
    if (pace_rounds > 0) {
      ++tick;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else if (!progress) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  stats.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (Conn& c : conns) {
    if (c.fd >= 0) ipm::live::net::close_fd(c.fd);
  }
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

/// Run one daemon implementation over `jobs` and measure the replay.
template <typename DaemonT>
RunStats run_one(const std::vector<JobLoad>& jobs, const Params& p,
                 const std::string& dir, bool& ok) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ipm::aggd::Options opt;
  opt.listen = "unix:" + dir + "/agg.sock";
  opt.out_dir = dir;
  opt.workers = p.workers;
  DaemonT d(opt);
  std::string err;
  if (!d.start(err)) {
    std::fprintf(stderr, "fleetgen: daemon start failed: %s\n", err.c_str());
    ok = false;
    return {};
  }
  DaemonCpuMeter meter;
  std::thread th([&d] { d.run(); });
  RunStats stats =
      drive_client(jobs, opt.listen, p.inflight, p.pace_rounds, p.stagger);
  d.stop();
  th.join();
  stats.daemon_cpu_s = meter.stop();
  stats.prom_writes = d.prom_writes();

  ok = stats.failures == 0;
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
      stats.applied += rs.samples;
      stats.resent += rs.resent;
    }
  }
  const std::uint64_t expect = static_cast<std::uint64_t>(jobs.size()) *
                               static_cast<std::uint64_t>(p.ranks) *
                               static_cast<std::uint64_t>(p.samples);
  if (stats.applied != expect) {
    std::fprintf(stderr,
                 "fleetgen: applied %llu != expected %llu (double count or loss)\n",
                 static_cast<unsigned long long>(stats.applied),
                 static_cast<unsigned long long>(expect));
    ok = false;
  }
  return stats;
}

double p99(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, static_cast<std::size_t>(
                                      static_cast<double>(v.size()) * 0.99))];
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
               "          [--legacy-jobs N (-1 = all)] [--inflight N] [--workers N]\n"
               "          [--pace-rounds N (0 = burst)] [--stagger N]\n"
               "          [--out-dir DIR]\n"
               "          [--json PATH] [--seed S] [--skip-legacy]\n",
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
    } else if (arg == "--legacy-jobs") {
      p.legacy_jobs = std::atoi(value());
    } else if (arg == "--inflight") {
      p.inflight = std::atoi(value());
    } else if (arg == "--pace-rounds") {
      p.pace_rounds = std::atoi(value());
    } else if (arg == "--stagger") {
      p.stagger = std::atoi(value());
    } else if (arg == "--workers") {
      p.workers = std::atoi(value());
    } else if (arg == "--out-dir") {
      p.out_dir = value();
    } else if (arg == "--json") {
      p.json = value();
    } else if (arg == "--seed") {
      p.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--skip-legacy") {
      p.skip_legacy = true;
    } else if (arg == "-h" || arg == "--help") {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      return usage(argv[0], 2);
    }
  }
  if (p.jobs < 1 || p.ranks < 1 || p.samples < 1 || p.inflight < 1) {
    return usage(argv[0], 2);
  }
  raise_nofile();

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

  // --- sharded daemon, full fleet -------------------------------------------
  bool ok = true;
  const std::string dir = p.out_dir + "/sharded";
  RunStats sharded;
  std::uint64_t violations = 0;
  {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ipm::aggd::Options opt;
    opt.listen = "unix:" + dir + "/agg.sock";
    opt.out_dir = dir;
    opt.workers = p.workers;
    ipm::aggd::Daemon d(opt);
    std::string err;
    if (!d.start(err)) {
      std::fprintf(stderr, "fleetgen: daemon start failed: %s\n", err.c_str());
      return 1;
    }
    DaemonCpuMeter meter;
    std::thread th([&d] { d.run(); });
    sharded =
        drive_client(jobs, opt.listen, p.inflight, p.pace_rounds, p.stagger);
    d.stop();
    th.join();
    sharded.daemon_cpu_s = meter.stop();
    sharded.prom_writes = d.prom_writes();

    ok = sharded.failures == 0;
    for (const JobLoad& j : jobs) {
      const auto* ranks = d.job_ranks(j.id);
      if (ranks == nullptr || ranks->size() != static_cast<std::size_t>(p.ranks)) {
        std::fprintf(stderr, "fleetgen: %s: missing ranks\n", j.id.c_str());
        ok = false;
        continue;
      }
      for (const auto& [rank, rs] : *ranks) {
        if (!rs.finalized) {
          std::fprintf(stderr, "fleetgen: %s rank %u not finalized\n",
                       j.id.c_str(), rank);
          ok = false;
        }
        sharded.applied += rs.samples;
        sharded.resent += rs.resent;
      }
      violations += check_conservation(d.job_timeseries_path(j.id), j, p.samples);
    }
    const std::uint64_t expect = static_cast<std::uint64_t>(p.jobs) *
                                 static_cast<std::uint64_t>(p.ranks) *
                                 static_cast<std::uint64_t>(p.samples);
    if (sharded.applied != expect) {
      std::fprintf(stderr,
                   "fleetgen: applied %llu != expected %llu (double count or loss)\n",
                   static_cast<unsigned long long>(sharded.applied),
                   static_cast<unsigned long long>(expect));
      ok = false;
    }
    const double sps =
        static_cast<double>(sharded.applied) / std::max(sharded.elapsed_s, 1e-9);
    const double scps =
        static_cast<double>(sharded.applied) / sharded.daemon_cpu_s;
    std::printf(
        "fleetgen: sharded  %8.0f samples/s wall, %8.0f samples/cpu-s "
        "(%llu applied, %llu resent, %llu conservation violations, "
        "%u workers, %llu steals)\n",
        sps, scps, static_cast<unsigned long long>(sharded.applied),
        static_cast<unsigned long long>(sharded.resent),
        static_cast<unsigned long long>(violations), d.workers(),
        static_cast<unsigned long long>(d.steals()));
    if (violations != 0) ok = false;

    benchx::BenchResult r;
    r.name = "aggd_sharded";
    r.iterations = static_cast<std::int64_t>(sharded.applied);
    r.ns_per_op = sharded.elapsed_s * 1e9 / std::max<double>(1.0, static_cast<double>(sharded.applied));
    r.counters = {
        {"jobs", static_cast<double>(p.jobs)},
        {"ranks_total", static_cast<double>(p.jobs) * p.ranks},
        {"samples_per_s", sps},
        {"samples_per_cpu_s", scps},
        {"daemon_cpu_s", sharded.daemon_cpu_s},
        {"p99_apply_ns", p99(sharded.latencies_ns)},
        {"drop_rate", static_cast<double>(expect - std::min(expect, sharded.applied)) /
                          static_cast<double>(expect)},
        {"resent", static_cast<double>(sharded.resent)},
        {"conservation_violations", static_cast<double>(violations)},
        {"protocol_errors", static_cast<double>(d.protocol_errors())},
        {"stalled_disconnects", static_cast<double>(d.stalled_disconnects())},
        {"workers", static_cast<double>(d.workers())},
        {"steals", static_cast<double>(d.steals())},
        {"prom_writes", static_cast<double>(sharded.prom_writes)},
    };
    // --- legacy baseline, capped subset -------------------------------------
    std::vector<benchx::BenchResult> results;
    double speedup = 0.0;
    if (!p.skip_legacy) {
      const int nlegacy =
          p.legacy_jobs < 0 ? p.jobs : std::min(p.jobs, p.legacy_jobs);
      const std::vector<JobLoad> sub(jobs.begin(), jobs.begin() + nlegacy);
      bool lok = true;
      const RunStats legacy =
          run_one<ipm::aggd::LegacyDaemon>(sub, p, p.out_dir + "/legacy", lok);
      if (!lok) ok = false;
      const double lsps =
          static_cast<double>(legacy.applied) / std::max(legacy.elapsed_s, 1e-9);
      const double lscps =
          static_cast<double>(legacy.applied) / legacy.daemon_cpu_s;
      // Speedup compares daemon CPU per applied sample under the identical
      // offered load: the per-core ingest capacity ratio.
      speedup = lscps > 0.0 ? scps / lscps : 0.0;
      std::printf(
          "fleetgen: legacy   %8.0f samples/s wall, %8.0f samples/cpu-s "
          "(%d jobs)  speedup %.2fx\n",
          lsps, lscps, nlegacy, speedup);
      r.counters.emplace_back("speedup_vs_legacy", speedup);
      benchx::BenchResult lr;
      lr.name = "aggd_legacy";
      lr.iterations = static_cast<std::int64_t>(legacy.applied);
      lr.ns_per_op = legacy.elapsed_s * 1e9 /
                     std::max<double>(1.0, static_cast<double>(legacy.applied));
      lr.counters = {{"jobs", static_cast<double>(nlegacy)},
                     {"ranks_total", static_cast<double>(nlegacy) * p.ranks},
                     {"samples_per_s", lsps},
                     {"samples_per_cpu_s", lscps},
                     {"daemon_cpu_s", legacy.daemon_cpu_s},
                     {"prom_writes", static_cast<double>(legacy.prom_writes)}};
      results.push_back(r);
      results.push_back(std::move(lr));
    } else {
      results.push_back(r);
    }
    if (!benchx::write_bench_json(p.json, "aggd", results)) {
      std::fprintf(stderr, "fleetgen: cannot write %s\n", p.json.c_str());
      ok = false;
    }

    // --- gates ---------------------------------------------------------------
    if (const char* env = std::getenv("IPM_BENCH_AGGD_RATIO_MIN")) {
      const double min_ratio = std::strtod(env, nullptr);
      if (p.skip_legacy || speedup < min_ratio) {
        std::fprintf(stderr, "fleetgen: speedup %.2fx below gate %.2fx\n", speedup,
                     min_ratio);
        ok = false;
      }
    }
    if (const char* env = std::getenv("IPM_BENCH_AGGD_MIN_SPS")) {
      const double min_sps = std::strtod(env, nullptr);
      if (sps < min_sps) {
        std::fprintf(stderr, "fleetgen: %.0f samples/s below gate %.0f\n", sps,
                     min_sps);
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}
