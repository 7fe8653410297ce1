// Shared raw-protocol test client for the ipm_aggd daemon suites
// (test_aggd.cpp, test_aggd_concurrency.cpp): an in-process DaemonRunner,
// blocking connect/send/read_frame helpers over ipm_live::net, frame
// builders that derive the SocketSink's epoch convention (epoch = seq + 1),
// and the conservation fold asserting daemon JSONL reproduces per-rank
// finalize profiles bit-exactly.
#pragma once

#include <gtest/gtest.h>
#include <poll.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ipm/monitor.hpp"
#include "ipm/report.hpp"
#include "ipm_aggd/aggd.hpp"
#include "ipm_live/live.hpp"
#include "ipm_live/net.hpp"
#include "ipm_live/wire.hpp"

namespace aggd_test {


using ipm::live::wire::Decoder;
using ipm::live::wire::Frame;
using ipm::live::wire::FrameType;

using TripleKey = std::tuple<std::string, std::uint32_t, std::int32_t>;

struct Fold {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double tsum = 0.0;
};

/// Fold one rank's delta samples at the profile's (name, region, select)
/// granularity — the consumer side of the conservation invariant.
inline std::map<TripleKey, Fold> fold_rank(const std::vector<ipm::live::Sample>& samples,
                                    int rank) {
  std::map<TripleKey, Fold> folded;
  for (const ipm::live::Sample& s : samples) {
    if (s.rank != rank) continue;
    for (const ipm::live::KeyDelta& d : s.deltas) {
      const std::string& name =
          d.name_str.empty() ? ipm::name_of(d.name) : d.name_str;
      Fold& f = folded[{name, d.region, d.select}];
      f.count += d.dcount;
      f.bytes += d.dbytes;
      f.tsum += d.dtsum;
    }
  }
  return folded;
}

/// Every finalize event record must be matched bit-exactly by the fold.
inline void expect_conserved(const ipm::RankProfile& p, const std::map<TripleKey, Fold>& fold) {
  for (const ipm::EventRecord& e : p.events) {
    const auto it = fold.find({e.name, e.region, e.select});
    ASSERT_NE(it, fold.end()) << "rank " << p.rank << " " << e.name;
    EXPECT_EQ(it->second.count, e.count) << e.name;
    EXPECT_EQ(it->second.bytes, e.bytes) << e.name;
    EXPECT_EQ(it->second.tsum, e.tsum) << e.name;  // bit-exact, not NEAR
  }
  EXPECT_EQ(fold.size(), p.events.size()) << "rank " << p.rank;
}

/// Daemon-file conservation: fold the per-job JSONL the daemon wrote and
/// require it to reproduce every rank of the finalize profile bit-exactly.
inline void expect_daemon_conserves(const std::string& job_jsonl, const ipm::JobProfile& job) {
  const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(job_jsonl);
  std::uint64_t applied = 0;
  for (const ipm::RankProfile& r : job.ranks) {
    expect_conserved(r, fold_rank(ts.samples, r.rank));
  }
  applied = ts.samples.size();
  // No double count across reconnects: the daemon stored exactly the
  // samples every rank published, each applied once.
  EXPECT_EQ(applied, job.snapshot_samples());
  // Per rank the stored stream is strictly seq-ordered (epoch dedup).
  std::map<int, std::uint64_t> last_seq;
  for (const ipm::live::Sample& s : ts.samples) {
    const auto it = last_seq.find(s.rank);
    if (it != last_seq.end()) {
      EXPECT_GT(s.seq, it->second) << "rank " << s.rank;
    }
    last_seq[s.rank] = s.seq;
  }
}

inline std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// In-process daemon on its own thread (aggd is a library for exactly this).
struct DaemonRunner {
  explicit DaemonRunner(ipm::aggd::Options opt) : d(std::move(opt)) {}

  bool start() {
    std::string err;
    const bool ok = d.start(err);
    EXPECT_TRUE(ok) << err;
    if (ok) th = std::thread([this] { d.run(); });
    return ok;
  }

  void join() {
    if (th.joinable()) th.join();
  }

  ~DaemonRunner() {
    d.stop();
    join();
  }

  ipm::aggd::Daemon d;
  std::thread th;
};

inline std::string test_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- raw protocol client helpers --------------------------------------------

inline int connect_block(const std::string& spec) {
  const ipm::live::net::Addr addr = ipm::live::net::parse_addr(spec);
  for (int attempt = 0; attempt < 400; ++attempt) {
    const int fd = ipm::live::net::connect_fd(addr);
    if (fd >= 0) {
      for (int i = 0; i < 400; ++i) {
        if (ipm::live::net::connect_finished(fd)) return fd;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ipm::live::net::close_fd(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return -1;
}

inline void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const long w =
        ipm::live::net::write_some(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GE(w, 0) << "socket write failed";
    if (w == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    off += static_cast<std::size_t>(w);
  }
}

/// Next frame from `fd`, waiting on the socket for at most `timeout_s`.
inline bool read_frame(int fd, Decoder& dec, Frame& out, double timeout_s = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int>(timeout_s * 1000.0));
  for (;;) {
    if (dec.next(out)) return true;
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pf{fd, POLLIN, 0};
    ::poll(&pf, 1, static_cast<int>(left.count()));
    char buf[4096];
    const long r = ipm::live::net::read_some(fd, buf, sizeof buf);
    if (r > 0) {
      dec.feed(buf, static_cast<std::size_t>(r));
    } else if (r < 0) {
      return dec.next(out);  // peer closed: only buffered frames remain
    }
  }
}

inline ipm::live::Sample make_sample(int rank, std::uint64_t seq, double t0, double t1,
                              const std::string& name, std::uint64_t dcount,
                              std::uint64_t dbytes, double dtsum) {
  ipm::live::Sample s;
  s.rank = rank;
  s.seq = seq;
  s.t0 = t0;
  s.t1 = t1;
  ipm::live::KeyDelta d;
  d.name_str = name;
  d.dcount = dcount;
  d.dbytes = dbytes;
  d.dtsum = dtsum;
  s.deltas.push_back(std::move(d));
  return s;
}

inline std::string frame_bytes(FrameType type, const std::string& job, std::uint32_t rank,
                        std::uint64_t epoch, const std::string& payload) {
  Frame f;
  f.type = type;
  f.rank = rank;
  f.epoch = epoch;
  f.job = job;
  f.payload = payload;
  return ipm::live::wire::encode(f);
}

inline std::string sample_bytes(const std::string& job, const ipm::live::Sample& s) {
  // Epoch = seq + 1: the same monotone epoch the SocketSink derives.
  return frame_bytes(FrameType::kSample, job, static_cast<std::uint32_t>(s.rank),
                     s.seq + 1, ipm::live::sample_line(s));
}


}  // namespace aggd_test
