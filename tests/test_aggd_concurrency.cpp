// ipm_aggd sharded-daemon concurrency wall: many jobs connecting /
// chaos-killing / reconnect-replaying simultaneously across explicit worker
// threads, clean shutdown with in-flight sessions (serial and with workers),
// the worker chaos matrix (job arriving during drain, an idle job's
// reconnect, JOB_END racing a kill), and the slow-client stall budget.
// Designed to run under TSan: the assertions only touch daemon state after
// stop()/join(), and mid-run progress is observed from the client side
// (acks), via atomic counters or from the output files.
//
// The core invariant everywhere is the epoch-resume guarantee: full replays
// after a kill are deduplicated, never double-counted, and the per-job
// JSONL folds back to the ground-truth deltas bit-exactly (all dtsum values
// are dyadic rationals, so the fold is exact in any order).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
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
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "simcommon/rng.hpp"
#include "support/aggd_test_client.hpp"

namespace {

using namespace aggd_test;
using ipm::live::wire::Decoder;
using ipm::live::wire::Frame;
using ipm::live::wire::FrameType;

/// Non-asserting send for clients that race daemon shutdown: returns false
/// once the peer is gone instead of failing the test from a worker thread.
bool try_send(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const long w =
        ipm::live::net::write_some(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) return false;
    if (w == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Deterministic ground-truth sample for (rank, k): dyadic dtsum so folds
/// are bit-exact in any application order.
ipm::live::Sample truth_sample(int rank, int k) {
  return make_sample(rank, static_cast<std::uint64_t>(k), 0.5 * k,
                     0.5 * (k + 1), "MPI_Allreduce",
                     static_cast<std::uint64_t>(1 + k),
                     static_cast<std::uint64_t>(64 * (k + 1) + rank),
                     0.125 * static_cast<double>(k + 1));
}

/// Fold the daemon JSONL for `job_path` and require it to contain exactly
/// the truth samples [0, nsamples) for each of `ranks` ranks, applied once
/// each (strictly increasing seq per rank).
void expect_truth_conserved(const std::string& job_path, int ranks, int nsamples) {
  const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(job_path);
  ASSERT_EQ(ts.samples.size(), static_cast<std::size_t>(ranks) * nsamples);
  std::map<int, std::uint64_t> next_seq;
  for (const ipm::live::Sample& s : ts.samples) {
    const auto it = next_seq.find(s.rank);
    if (it != next_seq.end()) {
      EXPECT_GT(s.seq, it->second) << "rank " << s.rank;  // no double count
    }
    next_seq[s.rank] = s.seq;
  }
  for (int r = 0; r < ranks; ++r) {
    const auto fold = fold_rank(ts.samples, r);
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    double tsum = 0.0;
    for (int k = 0; k < nsamples; ++k) {
      const ipm::live::Sample s = truth_sample(r, k);
      count += s.deltas[0].dcount;
      bytes += s.deltas[0].dbytes;
      tsum += s.deltas[0].dtsum;
    }
    const auto it = fold.find({"MPI_Allreduce", 0u, 0});
    ASSERT_NE(it, fold.end()) << "rank " << r;
    EXPECT_EQ(it->second.count, count) << "rank " << r;
    EXPECT_EQ(it->second.bytes, bytes) << "rank " << r;
    EXPECT_EQ(it->second.tsum, tsum) << "rank " << r;  // bit-exact
  }
}

/// Drain acks until `rank` reaches `epoch` (cumulative ack contract).
bool wait_acked(int fd, Decoder& dec, const std::string& job, std::uint32_t rank,
                std::uint64_t epoch) {
  Frame f;
  std::uint64_t last = 0;
  while (read_frame(fd, dec, f)) {
    if (f.type == FrameType::kAck && f.job == job && f.rank == rank) {
      last = f.epoch;
      if (last >= epoch) return true;
    }
  }
  return false;
}

// --- TSan main dish: concurrent kill/reconnect/replay across workers --------

/// Ten jobs on ten client threads, four explicit workers.  Every job is
/// chaos-killed mid-stream and replays its ENTIRE stream after reconnect:
/// per-job isolation, epoch dedupe (no double count), and bit-exact
/// conservation must survive the concurrency.
TEST(AggdConcurrency, ManyJobsKillReconnectReplayAcrossWorkers) {
  const std::string dir = test_dir("aggd_conc_many");
  const std::string sock = "unix:" + dir + "/agg.sock";
  constexpr int kJobs = 10;
  constexpr int kRanks = 4;
  constexpr int kSamples = 6;
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  opt.workers = 4;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());

  std::atomic<int> ok_jobs{0};
  std::vector<std::thread> clients;
  clients.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    clients.emplace_back([&, j] {
      const std::string job = "conc-" + std::to_string(j);
      // First connection: hello + the first half of every rank's stream.
      int fd = connect_block(sock);
      if (fd < 0) return;
      Decoder dec;
      Frame f;
      if (!try_send(fd, frame_bytes(FrameType::kHello, job, 0, 0,
                                    ipm::live::wire::hello_payload("./c", 0.5))))
        return;
      if (!read_frame(fd, dec, f) || f.type != FrameType::kWelcome) return;
      for (int k = 0; k < kSamples / 2; ++k) {
        for (int r = 0; r < kRanks; ++r) {
          if (!try_send(fd, sample_bytes(job, truth_sample(r, k)))) return;
        }
      }
      // Wait until the half-stream is provably applied, then chaos-kill.
      for (int r = 0; r < kRanks; ++r) {
        if (!wait_acked(fd, dec, job, static_cast<std::uint32_t>(r),
                        kSamples / 2))
          return;
      }
      ipm::live::net::close_fd(fd);

      // Reconnect and replay EVERYTHING — the daemon must dedupe the first
      // half by epoch and apply only the rest.
      fd = connect_block(sock);
      if (fd < 0) return;
      Decoder dec2;
      if (!try_send(fd, frame_bytes(FrameType::kHello, job, 0, 0,
                                    ipm::live::wire::hello_payload("./c", 0.5))))
        return;
      if (!read_frame(fd, dec2, f) || f.type != FrameType::kWelcome) return;
      const auto resume = ipm::live::wire::parse_welcome(f.payload);
      if (resume.size() != kRanks) return;  // resume state survived the kill
      for (int k = 0; k < kSamples; ++k) {
        for (int r = 0; r < kRanks; ++r) {
          if (!try_send(fd, sample_bytes(job, truth_sample(r, k)))) return;
        }
      }
      for (int r = 0; r < kRanks; ++r) {
        if (!try_send(fd, frame_bytes(FrameType::kRankFin, job,
                                      static_cast<std::uint32_t>(r), kSamples + 1,
                                      R"({"samples":6,"drops":0})")))
          return;
      }
      if (!try_send(fd, frame_bytes(FrameType::kJobEnd, job, 0, 0, ""))) return;
      while (read_frame(fd, dec2, f)) {
        if (f.type == FrameType::kJobEndAck) {
          ok_jobs.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      ipm::live::net::close_fd(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  runner.d.stop();
  runner.join();

  ASSERT_EQ(ok_jobs.load(), kJobs);
  EXPECT_GT(runner.d.workers(), 1u);
  for (int j = 0; j < kJobs; ++j) {
    const std::string job = "conc-" + std::to_string(j);
    const auto* ranks = runner.d.job_ranks(job);
    ASSERT_NE(ranks, nullptr) << job;
    ASSERT_EQ(ranks->size(), static_cast<std::size_t>(kRanks)) << job;
    for (const auto& [rank, rs] : *ranks) {
      EXPECT_TRUE(rs.finalized) << job << " rank " << rank;
      EXPECT_EQ(rs.samples, static_cast<std::uint64_t>(kSamples));
      EXPECT_GE(rs.resent, static_cast<std::uint64_t>(kSamples / 2))
          << job << " rank " << rank << ": the full replay must be deduped";
    }
    expect_truth_conserved(runner.d.job_timeseries_path(job), kRanks, kSamples);
  }
}

// --- clean shutdown with in-flight sessions ---------------------------------

/// stop() while eight sessions are mid-stream (hello + samples, no fin):
/// each job ends through its queue, which finalizes every known rank and
/// appends its end line to a consistent JSONL — nothing is lost, nothing
/// applied twice.  Serial and with four workers.
TEST(AggdConcurrency, CleanShutdownWithInflightSessions) {
  constexpr int kJobs = 8;
  constexpr int kRanks = 4;
  constexpr int kSent = 3;
  for (const int workers : {0, 4}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const std::string dir = test_dir("aggd_conc_shutdown_" + std::to_string(workers));
    const std::string sock = "unix:" + dir + "/agg.sock";
    ipm::aggd::Options opt;
    opt.listen = sock;
    opt.out_dir = dir;
    opt.workers = workers;
    DaemonRunner runner(opt);
    ASSERT_TRUE(runner.start());

    std::atomic<int> streamed{0};
    std::atomic<bool> release{false};
    std::vector<std::thread> clients;
    for (int j = 0; j < kJobs; ++j) {
      clients.emplace_back([&, j] {
        const std::string job = "inflight-" + std::to_string(j);
        const int fd = connect_block(sock);
        if (fd < 0) return;
        Decoder dec;
        Frame f;
        if (!try_send(fd, frame_bytes(FrameType::kHello, job, 0, 0,
                                      ipm::live::wire::hello_payload("./s", 0.5))))
          return;
        if (!read_frame(fd, dec, f)) return;
        for (int k = 0; k < kSent; ++k) {
          for (int r = 0; r < kRanks; ++r) {
            if (!try_send(fd, sample_bytes(job, truth_sample(r, k)))) return;
          }
        }
        bool all = true;
        for (int r = 0; r < kRanks; ++r) {
          all = all &&
                wait_acked(fd, dec, job, static_cast<std::uint32_t>(r), kSent);
        }
        if (all) streamed.fetch_add(1, std::memory_order_relaxed);
        // Hold the session open (in-flight, no fin/end) until the daemon is
        // being shut down under us.
        while (!release.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ipm::live::net::close_fd(fd);
      });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (streamed.load(std::memory_order_relaxed) < kJobs &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(streamed.load(), kJobs);
    runner.d.stop();  // sessions still connected
    runner.join();
    release.store(true, std::memory_order_relaxed);
    for (std::thread& t : clients) t.join();

    EXPECT_NE(slurp(runner.d.prom_path())
                  .find("\nipm_agg_jobs_ended " + std::to_string(kJobs) + "\n"),
              std::string::npos);
    for (int j = 0; j < kJobs; ++j) {
      const std::string job = "inflight-" + std::to_string(j);
      const auto* ranks = runner.d.job_ranks(job);
      ASSERT_NE(ranks, nullptr) << job;
      ASSERT_EQ(ranks->size(), static_cast<std::size_t>(kRanks));
      for (const auto& [rank, rs] : *ranks) {
        EXPECT_TRUE(rs.finalized) << "shutdown ends in-flight jobs, ranks and all";
        EXPECT_EQ(rs.samples, static_cast<std::uint64_t>(kSent));
      }
      const std::string path = runner.d.job_timeseries_path(job);
      std::ifstream in(path);
      std::string line;
      std::string last;
      while (std::getline(in, line)) last = line;
      ipm::live::TimeSeries ignored;
      EXPECT_EQ(ipm::live::parse_timeseries_line(last, ignored),
                ipm::live::LineKind::kEnd)
          << job << ": " << last;
      expect_truth_conserved(path, kRanks, kSent);
    }
  }
}

// --- chaos matrix: job arriving during worker drain -------------------------

/// A fresh job races stop(): whatever the daemon applied must be a clean,
/// dedup-consistent prefix — acked-then-lost is allowed, torn or doubled
/// application is not.  Six rounds with varied delays to move the race.
TEST(AggdConcurrency, JobArrivingDuringWorkerDrainStaysConsistent) {
  for (int round = 0; round < 6; ++round) {
    const std::string dir =
        test_dir("aggd_conc_drain_" + std::to_string(round));
    const std::string sock = "unix:" + dir + "/agg.sock";
    ipm::aggd::Options opt;
    opt.listen = sock;
    opt.out_dir = dir;
    opt.workers = 2;
    DaemonRunner runner(opt);
    ASSERT_TRUE(runner.start());

    std::thread late([&] {
      const std::string job = "drain-late";
      const int fd = connect_block(sock);
      if (fd < 0) return;
      Decoder dec;
      Frame f;
      if (!try_send(fd, frame_bytes(FrameType::kHello, job, 0, 0,
                                    ipm::live::wire::hello_payload("./d", 0.5))))
        return;
      for (int k = 0; k < 8; ++k) {
        if (!try_send(fd, sample_bytes(job, truth_sample(0, k)))) return;
      }
      (void)try_send(fd, frame_bytes(FrameType::kRankFin, job, 0, 9,
                                     R"({"samples":8,"drops":0})"));
      (void)try_send(fd, frame_bytes(FrameType::kJobEnd, job, 0, 0, ""));
      while (read_frame(fd, dec, f, 2.0)) {
        if (f.type == FrameType::kJobEndAck) break;
      }
      ipm::live::net::close_fd(fd);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(round));
    runner.d.stop();  // drain while the job may still be arriving
    runner.join();
    late.join();

    // Whatever landed must be torn-free: strictly increasing seqs and each
    // applied sample identical to the ground-truth sample of that seq.
    const std::string path = runner.d.job_timeseries_path("drain-late");
    if (path.empty()) continue;  // connection lost before the hello applied
    const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(path);
    std::int64_t last = -1;
    for (const ipm::live::Sample& s : ts.samples) {
      EXPECT_GT(static_cast<std::int64_t>(s.seq), last);
      last = static_cast<std::int64_t>(s.seq);
      const ipm::live::Sample want = truth_sample(0, static_cast<int>(s.seq));
      ASSERT_EQ(s.deltas.size(), 1u);
      EXPECT_EQ(s.deltas[0].dcount, want.deltas[0].dcount);
      EXPECT_EQ(s.deltas[0].dbytes, want.deltas[0].dbytes);
      EXPECT_EQ(s.deltas[0].dtsum, want.deltas[0].dtsum);
    }
  }
}

// --- chaos matrix: an idle job's reconnect ---------------------------------

/// Sample lines among a time-series file's complete lines: a batch's append
/// may be under way while the file is read.
std::size_t complete_sample_lines(const std::string& path) {
  std::string text = slurp(path);
  text.resize(text.rfind('\n') + 1);
  std::size_t n = 0;
  for (std::size_t at = text.find("{\"type\":\"sample\""); at != std::string::npos;
       at = text.find("{\"type\":\"sample\"", at + 1)) {
    ++n;
  }
  return n;
}

/// A job's client sends half its stream, closes, and the job idles with no
/// file open, then a new client reconnects and replays the full stream: the
/// file holds every acked sample while the job idles, the WELCOME carries
/// the job's resume epochs (not a blank job's), the replayed prefix
/// dedupes, and the final stream, appended to the same file, conserves
/// bit-exactly.
TEST(AggdConcurrency, IdleJobReconnectResumesByEpoch) {
  const std::string dir = test_dir("aggd_conc_idle");
  const std::string sock = "unix:" + dir + "/agg.sock";
  constexpr int kRanks = 2;
  constexpr int kSamples = 6;
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  opt.workers = 2;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());
  const std::string job = "idle-a";

  {
    const int fd = connect_block(sock);
    ASSERT_GE(fd, 0);
    Decoder dec;
    Frame f;
    send_all(fd, frame_bytes(FrameType::kHello, job, 0, 0,
                             ipm::live::wire::hello_payload("./sp", 0.5)));
    ASSERT_TRUE(read_frame(fd, dec, f));
    for (int k = 0; k < kSamples / 2; ++k) {
      for (int r = 0; r < kRanks; ++r) {
        send_all(fd, sample_bytes(job, truth_sample(r, k)));
      }
    }
    for (int r = 0; r < kRanks; ++r) {
      ASSERT_TRUE(wait_acked(fd, dec, job, static_cast<std::uint32_t>(r),
                             kSamples / 2));
    }
    ipm::live::net::close_fd(fd);
  }

  // An ack may leave before its batch's append ends: the idle job's file
  // holds every acked sample within a bounded wait.
  const std::string jsonl = dir + "/" + job + "_timeseries.jsonl";
  const std::size_t acked = kRanks * (kSamples / 2);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (complete_sample_lines(jsonl) < acked &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ipm::live::read_timeseries_file(jsonl).samples.size(), acked);

  {
    // Reconnect: the idle job's state answers the HELLO.
    const int fd = connect_block(sock);
    ASSERT_GE(fd, 0);
    Decoder dec;
    Frame f;
    send_all(fd, frame_bytes(FrameType::kHello, job, 0, 0,
                             ipm::live::wire::hello_payload("./sp", 0.5)));
    ASSERT_TRUE(read_frame(fd, dec, f));
    ASSERT_EQ(f.type, FrameType::kWelcome);
    const auto resume = ipm::live::wire::parse_welcome(f.payload);
    ASSERT_EQ(resume.size(), static_cast<std::size_t>(kRanks))
        << "WELCOME must reflect the idle job's state, not a blank job";
    for (const auto& [rank, epoch] : resume) {
      EXPECT_EQ(epoch, static_cast<std::uint64_t>(kSamples / 2)) << rank;
    }
    // Conservative client: full replay.  The job's epochs dedupe it.
    for (int k = 0; k < kSamples; ++k) {
      for (int r = 0; r < kRanks; ++r) {
        send_all(fd, sample_bytes(job, truth_sample(r, k)));
      }
    }
    for (int r = 0; r < kRanks; ++r) {
      send_all(fd, frame_bytes(FrameType::kRankFin, job,
                               static_cast<std::uint32_t>(r), kSamples + 1,
                               R"({"samples":6,"drops":0})"));
    }
    send_all(fd, frame_bytes(FrameType::kJobEnd, job, 0, 0, ""));
    bool ended = false;
    while (read_frame(fd, dec, f)) {
      if (f.type == FrameType::kJobEndAck) {
        ended = true;
        break;
      }
    }
    EXPECT_TRUE(ended);
    ipm::live::net::close_fd(fd);
  }
  runner.d.stop();
  runner.join();

  const auto* ranks = runner.d.job_ranks(job);
  ASSERT_NE(ranks, nullptr);
  for (const auto& [rank, rs] : *ranks) {
    EXPECT_TRUE(rs.finalized);
    EXPECT_EQ(rs.samples, static_cast<std::uint64_t>(kSamples));
    EXPECT_GE(rs.resent, static_cast<std::uint64_t>(kSamples / 2));
  }
  expect_truth_conserved(runner.d.job_timeseries_path(job), kRanks, kSamples);
}

// --- chaos matrix: JOB_END racing a chaos kill ------------------------------

/// Rank 1's connection is killed mid-stream and replays, while rank 0 sends
/// JOB_END at a varied delay.  Whatever the interleaving, the applied
/// stream must be dedup-consistent (strictly increasing seqs, every sample
/// bit-identical to its ground truth) and both JOB_ENDs must be acked.
TEST(AggdConcurrency, JobEndRacingChaosKillNeverDoubleCounts) {
  for (int round = 0; round < 6; ++round) {
    const std::string dir = test_dir("aggd_conc_race_" + std::to_string(round));
    const std::string sock = "unix:" + dir + "/agg.sock";
    ipm::aggd::Options opt;
    opt.listen = sock;
    opt.out_dir = dir;
    opt.workers = 2;
    DaemonRunner runner(opt);
    ASSERT_TRUE(runner.start());
    const std::string job = "race";

    const int fd0 = connect_block(sock);
    ASSERT_GE(fd0, 0);
    Decoder dec0;
    Frame f;
    send_all(fd0, frame_bytes(FrameType::kHello, job, 0, 0,
                              ipm::live::wire::hello_payload("./r", 0.5)));
    ASSERT_TRUE(read_frame(fd0, dec0, f));
    for (int k = 0; k < 3; ++k) {
      send_all(fd0, sample_bytes(job, truth_sample(0, k)));
    }
    ASSERT_TRUE(wait_acked(fd0, dec0, job, 0, 3));
    send_all(fd0, frame_bytes(FrameType::kRankFin, job, 0, 4,
                              R"({"samples":3,"drops":0})"));

    // Rank 1 streams half, dies, and replays on a thread.
    std::atomic<bool> rank1_ended{false};
    std::thread rank1([&] {
      int fd = connect_block(sock);
      if (fd < 0) return;
      Decoder dec;
      Frame g;
      if (!try_send(fd, sample_bytes(job, truth_sample(1, 0)))) return;
      if (!try_send(fd, sample_bytes(job, truth_sample(1, 1)))) return;
      if (!wait_acked(fd, dec, job, 1, 2)) return;
      ipm::live::net::close_fd(fd);  // chaos kill
      fd = connect_block(sock);
      if (fd < 0) return;
      Decoder dec2;
      for (int k = 0; k < 4; ++k) {  // full replay
        if (!try_send(fd, sample_bytes(job, truth_sample(1, k)))) return;
      }
      (void)try_send(fd, frame_bytes(FrameType::kRankFin, job, 1, 5,
                                     R"({"samples":4,"drops":0})"));
      // Idempotent end from the replaying side too.
      (void)try_send(fd, frame_bytes(FrameType::kJobEnd, job, 0, 0, ""));
      while (read_frame(fd, dec2, g, 5.0)) {
        if (g.type == FrameType::kJobEndAck) {
          rank1_ended.store(true, std::memory_order_relaxed);
          break;
        }
      }
      ipm::live::net::close_fd(fd);
    });

    // JOB_END from rank 0 races the replay above.
    std::this_thread::sleep_for(std::chrono::milliseconds(round));
    send_all(fd0, frame_bytes(FrameType::kJobEnd, job, 0, 0, ""));
    bool ended0 = false;
    while (read_frame(fd0, dec0, f)) {
      if (f.type == FrameType::kJobEndAck) {
        ended0 = true;
        break;
      }
    }
    EXPECT_TRUE(ended0);
    rank1.join();
    EXPECT_TRUE(rank1_ended.load());
    ipm::live::net::close_fd(fd0);
    runner.d.stop();
    runner.join();

    // Dedup consistency regardless of which side won the race: strictly
    // increasing seqs per rank, every applied sample equal to its truth.
    const ipm::live::TimeSeries ts =
        ipm::live::read_timeseries_file(runner.d.job_timeseries_path(job));
    std::map<int, std::int64_t> last;
    for (const ipm::live::Sample& s : ts.samples) {
      const auto it = last.find(s.rank);
      if (it != last.end()) {
        EXPECT_GT(static_cast<std::int64_t>(s.seq), it->second)
            << "round " << round << " rank " << s.rank;
      }
      last[s.rank] = static_cast<std::int64_t>(s.seq);
      const ipm::live::Sample want =
          truth_sample(s.rank, static_cast<int>(s.seq));
      ASSERT_EQ(s.deltas.size(), 1u);
      EXPECT_EQ(s.deltas[0].dcount, want.deltas[0].dcount);
      EXPECT_EQ(s.deltas[0].dbytes, want.deltas[0].dbytes);
      EXPECT_EQ(s.deltas[0].dtsum, want.deltas[0].dtsum);
    }
    // Rank 0's complete stream was acked before JOB_END: it must be whole.
    std::size_t rank0 = 0;
    for (const ipm::live::Sample& s : ts.samples) rank0 += s.rank == 0 ? 1 : 0;
    EXPECT_EQ(rank0, 3u) << "round " << round;
  }
}

// --- slow/stalled client regression -----------------------------------------

/// A client that streams samples but never reads its acks must be
/// disconnected by the stall budget — counted, and without blocking a
/// concurrent well-behaved job on the shared daemon.
TEST(AggdConcurrency, StalledClientIsDisconnectedNotBlocking) {
  const std::string dir = test_dir("aggd_conc_stall");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  opt.workers = 2;
  opt.stall_ms = 150;  // tight budget so the test is fast
  opt.session_outbuf_max = 1u << 20;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());

  // The stalled client: writes, never reads.
  std::thread staller([&] {
    const int fd = connect_block(sock);
    if (fd < 0) return;
    (void)try_send(fd, frame_bytes(FrameType::kHello, "staller", 0, 0,
                                   ipm::live::wire::hello_payload("./x", 0.5)));
    for (int k = 0; k < 200000; ++k) {
      if (!try_send(fd, sample_bytes("staller", truth_sample(0, k)))) break;
      // Never drain acks: the daemon's outbound buffer for this session can
      // only grow until the stall budget fires.
    }
    ipm::live::net::close_fd(fd);
  });

  // Meanwhile a well-behaved job completes on the same daemon.
  {
    const int fd = connect_block(sock);
    ASSERT_GE(fd, 0);
    Decoder dec;
    Frame f;
    send_all(fd, frame_bytes(FrameType::kHello, "good", 0, 0,
                             ipm::live::wire::hello_payload("./g", 0.5)));
    ASSERT_TRUE(read_frame(fd, dec, f));
    for (int k = 0; k < 4; ++k) {
      send_all(fd, sample_bytes("good", truth_sample(0, k)));
    }
    ASSERT_TRUE(wait_acked(fd, dec, "good", 0, 4));
    send_all(fd, frame_bytes(FrameType::kRankFin, "good", 0, 5,
                             R"({"samples":4,"drops":0})"));
    send_all(fd, frame_bytes(FrameType::kJobEnd, "good", 0, 0, ""));
    bool ended = false;
    while (read_frame(fd, dec, f)) {
      if (f.type == FrameType::kJobEndAck) {
        ended = true;
        break;
      }
    }
    EXPECT_TRUE(ended) << "a stalled peer must not block other sessions";
    ipm::live::net::close_fd(fd);
  }

  // The staller must get cut within the budget (plus scheduling slack).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (runner.d.stalled_disconnects() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  staller.join();
  runner.d.stop();
  runner.join();
  EXPECT_GE(runner.d.stalled_disconnects(), 1u);
  expect_truth_conserved(runner.d.job_timeseries_path("good"), 1, 4);
}

// --- monitored chaos run, verified with ipm_parse --conserve ----------------

/// The full stack under the chaos matrix at once: a real monitored cluster
/// run streams through the sharded daemon (4 workers) with connection
/// kills injected every 5 frames, then the shipped
/// `ipm_parse --conserve` tool must certify the daemon's JSONL against the
/// run's XML profile bit-exactly.
TEST(AggdConcurrency, MonitoredChaosRunPassesIpmParseConserve) {
  simx::reset_default_context();
  const std::string dir = test_dir("aggd_conc_monitored");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  opt.workers = 4;
  opt.exit_after_jobs = 1;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());

  ipm::Config cfg;
  cfg.snapshot_interval = 0.25;
  cfg.agg_addr = sock;
  cfg.job_id = "monitored-chaos";
  cfg.agg_chaos_kill_every = 5;
  cfg.agg_flush_timeout = 20.0;
  ipm::job_begin(cfg, "./monitored_chaos");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 8;
  mpisim::run_cluster(cluster, [](int rank) {
    MPI_Init(nullptr, nullptr);
    simx::Xoshiro256 rng(static_cast<std::uint64_t>(0xC0FFEE + rank));
    for (int i = 0; i < 32; ++i) {
      simx::host_compute(0.05 + 1e-3 * static_cast<double>(rng.uniform_u64(40)));
      double x = static_cast<double>(rank);
      double y = 0;
      MPI_Allreduce(&x, &y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    }
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();
  runner.join();

  EXPECT_GT(runner.d.workers(), 1u);
  const std::string jsonl = runner.d.job_timeseries_path("monitored-chaos");
  ASSERT_FALSE(jsonl.empty());
  expect_daemon_conserves(jsonl, job);

  // The shipped verifier must agree.
  const std::string xml_path = dir + "/profile.xml";
  {
    std::ofstream xml(xml_path);
    ipm::write_xml(xml, job);
  }
  const std::string cmd = std::string(IPM_PARSE_BIN) + " --conserve \"" +
                          jsonl + "\" \"" + xml_path + "\" > \"" + dir +
                          "/conserve.log\" 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << slurp(dir + "/conserve.log");
}

}  // namespace
