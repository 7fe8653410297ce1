// ipm_aggd end-to-end transport fault matrix: the out-of-process
// aggregation daemon driven in-process on a thread, against real monitored
// workloads streaming over a Unix socket and against raw hand-rolled
// protocol sessions.
//
// Every scenario asserts the transport's core invariant — folding the
// daemon-ingested per-job JSONL reproduces each rank's finalize profile
// bit-exactly — under the faults the wire can throw at it: daemon absent at
// client startup, connection killed mid-run (reconnect + epoch resume, no
// double count), truncated/corrupt frames (rejected, never partially
// applied, each counted), a delta with an empty name (applied), and two
// concurrent jobs multiplexed into one daemon, whose fleet stream's points
// sum the jobs' points.  File-side
// checks follow: a tailed file is never its own job's output, however its
// path is spelled, a job's exposition lines wait for its first batch,
// no job file stays open between batches, ended or not, no job shares
// a file with another job or with the fleet stream, a failed exposition
// write keeps the previous exposition, and a failed time-series append, the
// fleet's or a job's, is counted and reported once per stream, and a file
// removed mid-stream is not created again.
// The last three guard the event-driven IO loop against lost wake-ups: an
// idle daemon answers every round trip at once, a quiet job's outputs catch
// up while it runs, and the daemon stops when told to.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "ipm/monitor.hpp"
#include "support/aggd_test_client.hpp"
#include "ipm/report.hpp"
#include "ipm_aggd/aggd.hpp"
#include "ipm_live/live.hpp"
#include "ipm_live/net.hpp"
#include "ipm_live/wire.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "simcommon/rng.hpp"

namespace {

using namespace aggd_test;  // DaemonRunner + raw protocol client helpers
using ipm::live::wire::Decoder;
using ipm::live::wire::Frame;
using ipm::live::wire::FrameType;

// --- fault matrix ------------------------------------------------------------

/// A finished 4-rank collector run whose time series lands at `ts_path`.
ipm::JobProfile collector_run(const std::string& ts_path) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.snapshot_interval = 0.5;
  cfg.timeseries_path = ts_path;
  ipm::job_begin(cfg, "./tail_job");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 4;
  mpisim::run_cluster(cluster, [](int rank) {
    MPI_Init(nullptr, nullptr);
    for (int i = 0; i < 16; ++i) {
      simx::host_compute(0.07 + 0.003 * static_cast<double>(rank));
      double x = static_cast<double>(rank);
      double y = 0;
      MPI_Allreduce(&x, &y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    }
    MPI_Finalize();
  });
  ipm::JobProfile job = ipm::job_end();
  EXPECT_EQ(job.ranks.size(), 4u);
  EXPECT_GT(job.snapshot_samples(), 0u);
  return job;
}

/// File-tail fallback transport: a finished collector run's JSONL is
/// ingested by a tail-only daemon, which re-derives the job and conserves
/// every rank bit-exactly.  The output collides with the tailed file's name
/// and must be redirected to *_agg_timeseries.jsonl.
TEST(Aggd, TailFallbackConservesFinishedStream) {
  const std::string dir = test_dir("aggd_tail");
  const std::string ts_path = dir + "/hplmini_timeseries.jsonl";
  const ipm::JobProfile job = collector_run(ts_path);
  ASSERT_EQ(job.ranks.size(), 4u);

  ipm::aggd::Options opt;
  opt.out_dir = dir;
  opt.tails = {ts_path};
  opt.fleet_interval = 0.5;
  ipm::aggd::Daemon d(opt);
  std::string err;
  ASSERT_TRUE(d.start(err)) << err;
  d.run();  // tail-only mode: returns once the tailed stream ended

  const std::vector<std::string> ids = d.job_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], "hplmini");  // basename minus _timeseries.jsonl
  const std::string out = d.job_timeseries_path("hplmini");
  EXPECT_EQ(out, dir + "/hplmini_agg_timeseries.jsonl");  // collision dodged
  expect_daemon_conserves(out, job);
  // The daemon re-derived cluster points for the job and the fleet.
  EXPECT_FALSE(ipm::live::read_timeseries_file(out).points.empty());
  EXPECT_FALSE(
      ipm::live::read_timeseries_file(d.fleet_timeseries_path()).points.empty());
  const auto* ranks = d.job_ranks("hplmini");
  ASSERT_NE(ranks, nullptr);
  EXPECT_EQ(ranks->size(), 4u);
  for (const auto& [rank, rs] : *ranks) EXPECT_TRUE(rs.finalized) << rank;
  EXPECT_EQ(d.protocol_errors(), 0u);
}

/// The redirect compares files, not path strings: tailed as
/// <dir>/./x_timeseries.jsonl with out_dir <dir>, the file is the one the
/// job's output would be.  It keeps its bytes, and the job writes
/// x_agg_timeseries.jsonl with every sample line the file holds.  (Compared
/// as strings, the daemon truncated its own input and wrote over it.)
TEST(Aggd, TailUnderAnotherSpellingIsNotOverwritten) {
  const std::string dir = test_dir("aggd_tail_spelling");
  const std::string ts_path = dir + "/x_timeseries.jsonl";
  std::string input = ipm::live::timeseries_header_line("./x", 0.5) + '\n';
  for (int k = 0; k < 6; ++k) {
    input += ipm::live::sample_line(make_sample(k % 2, static_cast<std::uint64_t>(k / 2),
                                                0.5 * (k / 2), 0.5 * (k / 2 + 1),
                                                "MPI_Allreduce", 1 + k, 64, 0.125 * k)) +
             '\n';
  }
  input += ipm::live::end_line(3) + '\n';
  std::ofstream(ts_path) << input;

  ipm::aggd::Options opt;
  opt.out_dir = dir;
  opt.tails = {dir + "/./x_timeseries.jsonl"};
  opt.fleet_interval = 0.5;
  ipm::aggd::Daemon d(opt);
  std::string err;
  ASSERT_TRUE(d.start(err)) << err;
  d.run();
  EXPECT_EQ(slurp(ts_path), input);
  const std::string out = d.job_timeseries_path("x");
  EXPECT_EQ(out, dir + "/x_agg_timeseries.jsonl");
  const ipm::live::TimeSeries want = ipm::live::read_timeseries_file(ts_path);
  const ipm::live::TimeSeries got = ipm::live::read_timeseries_file(out);
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (std::size_t i = 0; i < want.samples.size(); ++i) {
    EXPECT_EQ(ipm::live::sample_line(got.samples[i]),
              ipm::live::sample_line(want.samples[i]));
  }
  for (const int rank : {0, 1}) {
    const auto got_fold = fold_rank(got.samples, rank);
    const auto want_fold = fold_rank(want.samples, rank);
    ASSERT_EQ(got_fold.size(), want_fold.size());
    for (const auto& [key, f] : want_fold) {
      const auto it = got_fold.find(key);
      ASSERT_NE(it, got_fold.end());
      EXPECT_EQ(it->second.count, f.count);
      EXPECT_EQ(it->second.bytes, f.bytes);
      EXPECT_EQ(it->second.tsum, f.tsum);  // bit-exact
    }
  }
  EXPECT_EQ(d.protocol_errors(), 0u);
}

/// A job's exposition lines come from its first batch.  A tailed file that
/// holds only its header creates the job and queues nothing, so while the
/// daemon runs, the exposition counts the job and the rewrite leaves its
/// lines out; at shutdown the job ends through its queue, and its lines and
/// its end line appear.
TEST(Aggd, JobWithoutABatchStaysOutOfTheExposition) {
  for (const int workers : {0, 4}) {
    SCOPED_TRACE(workers);
    const std::string dir = test_dir("aggd_no_batch" + std::to_string(workers));
    const std::string ts_path = dir + "/quiet_timeseries.jsonl";
    const std::string prom_path = dir + "/ipm_agg.prom";
    std::ofstream(ts_path) << ipm::live::timeseries_header_line("./quiet", 0.5) << '\n';
    ipm::aggd::Options opt;
    opt.out_dir = dir;
    opt.tails = {ts_path};
    opt.workers = workers;
    DaemonRunner runner(opt);
    ASSERT_TRUE(runner.start());
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::string prom;
    while (prom.find("\nipm_agg_jobs 1\n") == std::string::npos &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      prom = slurp(prom_path);
    }
    EXPECT_NE(prom.find("\nipm_agg_jobs 1\n"), std::string::npos) << prom;
    EXPECT_EQ(prom.find(R"({job="quiet")"), std::string::npos) << prom;
    runner.d.stop();
    runner.join();
    prom = slurp(prom_path);
    EXPECT_NE(prom.find("\nipm_agg_jobs_ended 1\n"), std::string::npos) << prom;
    EXPECT_NE(prom.find(R"({job="quiet"})"), std::string::npos) << prom;
    std::ifstream in(runner.d.job_timeseries_path("quiet"));
    std::string line;
    std::string last;
    while (std::getline(in, line)) last = line;
    EXPECT_EQ(last, ipm::live::end_line(0));
  }
}

/// A garbage line spliced into the middle of a tailed file is one counted
/// protocol error, never skipped silently: every rank still conserves.
TEST(Aggd, TailCountsAGarbageLineAndConservesTheRest) {
  const std::string dir = test_dir("aggd_tail_garbage");
  const std::string ts_path = dir + "/garbage_timeseries.jsonl";
  const ipm::JobProfile job = collector_run(ts_path);
  ASSERT_EQ(job.ranks.size(), 4u);
  std::vector<std::string> lines;
  {
    std::ifstream in(ts_path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(lines.size() / 2),
               "not a time-series line");
  {
    std::ofstream out(ts_path, std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  }

  ipm::aggd::Options opt;
  opt.out_dir = dir;
  opt.tails = {ts_path};
  opt.fleet_interval = 0.5;
  ipm::aggd::Daemon d(opt);
  std::string err;
  ASSERT_TRUE(d.start(err)) << err;
  d.run();
  EXPECT_EQ(d.protocol_errors(), 1u);
  expect_daemon_conserves(d.job_timeseries_path("garbage"), job);
}

/// Daemon absent at client startup: the whole run executes against a dead
/// address (bounded buffering + reconnect backoff), the daemon starts only
/// at the very end, and the job-end flush handshake still delivers every
/// sample exactly once.
TEST(Aggd, DaemonAbsentAtStartupFlushDelivers) {
  simx::reset_default_context();
  const std::string dir = test_dir("aggd_absent");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::Config cfg;
  cfg.snapshot_interval = 0.25;
  cfg.agg_addr = sock;
  cfg.job_id = "absent-start";
  cfg.agg_flush_timeout = 20.0;
  ipm::job_begin(cfg, "./absent_job");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 4;
  mpisim::run_cluster(cluster, [](int rank) {
    MPI_Init(nullptr, nullptr);
    for (int i = 0; i < 20; ++i) {
      simx::host_compute(0.06 + 0.002 * static_cast<double>(rank));
      double x = 1.0;
      double y = 0;
      MPI_Allreduce(&x, &y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    }
    MPI_Finalize();
  });
  // Only now does the daemon come up; job_end's socket flush must connect,
  // stream the backlog and complete the end-of-job handshake.
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  opt.exit_after_jobs = 1;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());
  const ipm::JobProfile job = ipm::job_end();
  runner.join();

  ASSERT_EQ(job.ranks.size(), 4u);
  EXPECT_TRUE(job.timeseries_file.empty());  // socket mode: no local JSONL
  const std::vector<std::string> ids = runner.d.job_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], "absent-start");
  expect_daemon_conserves(runner.d.job_timeseries_path("absent-start"), job);
  const auto* ranks = runner.d.job_ranks("absent-start");
  ASSERT_NE(ranks, nullptr);
  ASSERT_EQ(ranks->size(), 4u);
  std::uint64_t applied = 0;
  for (const auto& [rank, rs] : *ranks) {
    EXPECT_TRUE(rs.finalized) << rank;
    applied += rs.samples;
  }
  EXPECT_EQ(applied, job.snapshot_samples());
  const std::string prom = slurp(runner.d.prom_path());
  EXPECT_NE(prom.find("ipm_agg_jobs_ended 1"), std::string::npos);
}

/// Mid-run connection kills (IPM_AGG_CHAOS_KILL_EVERY): the client loses
/// the daemon every 5 sample frames, reconnects with epoch resume, and the
/// daemon-side stream still conserves bit-exactly with zero double counts.
TEST(Aggd, MidRunKillReconnectNoDoubleCount) {
  simx::reset_default_context();
  const std::string dir = test_dir("aggd_chaos");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  opt.exit_after_jobs = 1;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());

  ipm::Config cfg;
  cfg.snapshot_interval = 0.25;
  cfg.agg_addr = sock;
  cfg.job_id = "chaos-8";
  cfg.agg_chaos_kill_every = 5;
  cfg.agg_flush_timeout = 20.0;
  ipm::job_begin(cfg, "./chaos_job");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 8;
  mpisim::run_cluster(cluster, [](int rank) {
    MPI_Init(nullptr, nullptr);
    simx::Xoshiro256 rng(static_cast<std::uint64_t>(0xFEED + rank));
    for (int i = 0; i < 40; ++i) {
      simx::host_compute(0.05 + 1e-3 * static_cast<double>(rng.uniform_u64(40)));
      double x = static_cast<double>(rank);
      double y = 0;
      MPI_Allreduce(&x, &y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    }
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();
  runner.join();

  ASSERT_EQ(job.ranks.size(), 8u);
  // Enough frames flowed that the chaos injector provably fired (> 2 kills).
  EXPECT_GT(job.snapshot_samples(), 10u);
  expect_daemon_conserves(runner.d.job_timeseries_path("chaos-8"), job);
  const auto* ranks = runner.d.job_ranks("chaos-8");
  ASSERT_NE(ranks, nullptr);
  ASSERT_EQ(ranks->size(), 8u);
  std::uint64_t applied = 0;
  for (const auto& [rank, rs] : *ranks) {
    EXPECT_TRUE(rs.finalized) << rank;
    applied += rs.samples;
  }
  EXPECT_EQ(applied, job.snapshot_samples());
}

/// Corrupt streams: a connection dropped mid-frame and a bad-version frame
/// are both counted as protocol errors, the first also as the one truncated
/// frame, and nothing is ever partially applied — the hello-created job
/// stays empty.  The truncated frame counts whether the daemon first sees
/// the EOF or a failed WELCOME write.
TEST(Aggd, TruncatedAndCorruptFramesRejected) {
  const std::string dir = test_dir("aggd_trunc");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());

  {
    // Valid hello, then a sample frame cut off mid-payload.
    const int fd = connect_block(sock);
    ASSERT_GE(fd, 0);
    send_all(fd, frame_bytes(FrameType::kHello, "trunc", 0, 0,
                             ipm::live::wire::hello_payload("./trunc", 0.5)));
    const std::string s =
        sample_bytes("trunc", make_sample(0, 0, 0.0, 0.5, "MPI_Bcast", 3, 96, 0.25));
    send_all(fd, s.substr(0, s.size() - 7));
    ipm::live::net::close_fd(fd);
  }
  {
    // Corrupt version byte: the decoder is poisoned, the session dropped.
    const int fd = connect_block(sock);
    ASSERT_GE(fd, 0);
    std::string bad =
        sample_bytes("trunc", make_sample(0, 1, 0.5, 1.0, "MPI_Bcast", 1, 32, 0.1));
    bad[4] = 99;  // version byte follows the u32 length
    send_all(fd, bad);
    ipm::live::net::close_fd(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  runner.d.stop();
  runner.join();

  EXPECT_EQ(runner.d.truncated_frames(), 1u);
  EXPECT_EQ(runner.d.protocol_errors(), 2u);
  const std::string prom = slurp(runner.d.prom_path());
  EXPECT_NE(prom.find("\nipm_agg_truncated_frames_total 1\n"), std::string::npos);
  EXPECT_NE(prom.find("\nipm_agg_protocol_errors_total 2\n"), std::string::npos);
  const auto* ranks = runner.d.job_ranks("trunc");
  ASSERT_NE(ranks, nullptr);
  // Neither damaged sample was applied — not even partially.
  for (const auto& [rank, rs] : *ranks) EXPECT_EQ(rs.samples, 0u) << rank;
  const ipm::live::TimeSeries ts =
      ipm::live::read_timeseries_file(runner.d.job_timeseries_path("trunc"));
  EXPECT_TRUE(ts.samples.empty());
}

/// Every SAMPLE payload is a live::sample_line(): a valid sample whose
/// fields come in another order is a protocol error, acked at the rank's
/// previous epoch and never applied.  The same holds for the HELLO and
/// RANK_FIN payloads' writers.
TEST(Aggd, ReorderedSampleFieldsAreAProtocolError) {
  const std::string dir = test_dir("aggd_reorder");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());

  const int fd = connect_block(sock);
  ASSERT_GE(fd, 0);
  Decoder dec;
  Frame f;
  send_all(fd, frame_bytes(FrameType::kHello, "reorder", 0, 0,
                           ipm::live::wire::hello_payload("./reorder", 0.5)));
  ASSERT_TRUE(read_frame(fd, dec, f));
  ASSERT_EQ(f.type, FrameType::kWelcome);
  send_all(fd, sample_bytes("reorder",
                            make_sample(0, 0, 0.0, 0.5, "MPI_Bcast", 3, 96, 0.25)));
  ASSERT_TRUE(read_frame(fd, dec, f));
  ASSERT_EQ(f.type, FrameType::kAck);
  EXPECT_EQ(f.epoch, 1u);

  // The next sample with "seq" ahead of "rank": the same object, reordered.
  std::string line =
      ipm::live::sample_line(make_sample(0, 1, 0.5, 1.0, "MPI_Bcast", 1, 32, 0.125));
  const std::string head = R"({"type":"sample","rank":0,"seq":1,)";
  ASSERT_EQ(line.compare(0, head.size(), head), 0) << line;
  line.replace(0, head.size(), R"({"type":"sample","seq":1,"rank":0,)");
  send_all(fd, frame_bytes(FrameType::kSample, "reorder", 0, 2, line));
  ASSERT_TRUE(read_frame(fd, dec, f));
  ASSERT_EQ(f.type, FrameType::kAck);
  EXPECT_EQ(f.epoch, 1u);  // the previous epoch: nothing applied

  // RANK_FIN and HELLO payloads with reordered fields are counted too; the
  // rank still finalizes, with zero drops.
  send_all(fd, frame_bytes(FrameType::kRankFin, "reorder", 0, 0,
                           R"({"drops":3,"samples":1})"));
  ASSERT_TRUE(read_frame(fd, dec, f));
  ASSERT_EQ(f.type, FrameType::kAck);
  send_all(fd, frame_bytes(FrameType::kHello, "reorder", 0, 0,
                           R"({"ipm_agg":1,"interval":0.5,"command":"./reorder"})"));
  ASSERT_TRUE(read_frame(fd, dec, f));
  ASSERT_EQ(f.type, FrameType::kWelcome);
  ipm::live::net::close_fd(fd);
  runner.d.stop();
  runner.join();

  EXPECT_EQ(runner.d.protocol_errors(), 3u);
  const auto* ranks = runner.d.job_ranks("reorder");
  ASSERT_NE(ranks, nullptr);
  ASSERT_EQ(ranks->size(), 1u);
  EXPECT_EQ(ranks->at(0).samples, 1u);
  EXPECT_EQ(ranks->at(0).last_epoch, 1u);
  EXPECT_TRUE(ranks->at(0).finalized);
  EXPECT_EQ(ranks->at(0).drops, 0u);
}

/// A delta name may be empty: the grammar reads it, and the daemon folds it
/// under no family as it reads it.  (Folding a parsed Sample looks an empty
/// name up as the in-process NameId 0, which the daemon never interned: it
/// threw and aborted the daemon.)
TEST(Aggd, SampleWithAnEmptyNameIsApplied) {
  const std::string dir = test_dir("aggd_empty_name");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());
  const int fd = connect_block(sock);
  ASSERT_GE(fd, 0);
  Decoder dec;
  Frame f;
  send_all(fd, frame_bytes(FrameType::kHello, "empty", 0, 0,
                           ipm::live::wire::hello_payload("./empty", 0.5)));
  ASSERT_TRUE(read_frame(fd, dec, f));
  ASSERT_EQ(f.type, FrameType::kWelcome);
  const std::string line =
      ipm::live::sample_line(make_sample(0, 0, 0.0, 0.5, "", 2, 64, 0.25));
  ASSERT_NE(line.find(R"("n":"")"), std::string::npos);
  send_all(fd, frame_bytes(FrameType::kSample, "empty", 0, 1, line));
  ASSERT_TRUE(read_frame(fd, dec, f));
  ASSERT_EQ(f.type, FrameType::kAck);
  EXPECT_EQ(f.epoch, 1u);
  ipm::live::net::close_fd(fd);
  runner.d.stop();
  runner.join();
  EXPECT_EQ(runner.d.protocol_errors(), 0u);
  const ipm::live::TimeSeries ts =
      ipm::live::read_timeseries_file(runner.d.job_timeseries_path("empty"));
  ASSERT_EQ(ts.samples.size(), 1u);
  ASSERT_EQ(ts.samples[0].deltas.size(), 1u);
  EXPECT_EQ(ts.samples[0].deltas[0].name_str, "");
  EXPECT_EQ(ts.samples[0].deltas[0].dcount, 2u);
}

/// Two concurrent jobs multiplexed into one daemon, with a mid-stream
/// reconnect on one of them: per-job separation (files, merge, prom
/// labels), epoch resume via WELCOME, and duplicate resends deduplicated.
TEST(Aggd, TwoConcurrentJobsStaySeparate) {
  const std::string dir = test_dir("aggd_twojobs");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  opt.exit_after_jobs = 2;
  opt.fleet_interval = 0.5;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());

  const int fda = connect_block(sock);
  const int fdb = connect_block(sock);
  ASSERT_GE(fda, 0);
  ASSERT_GE(fdb, 0);
  Decoder deca;
  Decoder decb;
  Frame f;

  // Interleaved hellos: a fresh daemon answers WELCOME with no resume state.
  send_all(fda, frame_bytes(FrameType::kHello, "alpha", 0, 0,
                            ipm::live::wire::hello_payload("./alpha", 0.5)));
  send_all(fdb, frame_bytes(FrameType::kHello, "beta", 0, 0,
                            ipm::live::wire::hello_payload("./beta", 0.5)));
  ASSERT_TRUE(read_frame(fda, deca, f));
  ASSERT_EQ(f.type, FrameType::kWelcome);
  EXPECT_TRUE(ipm::live::wire::parse_welcome(f.payload).empty());
  ASSERT_TRUE(read_frame(fdb, decb, f));
  ASSERT_EQ(f.type, FrameType::kWelcome);

  // Samples for both jobs, interleaved on the two sessions.
  send_all(fda, sample_bytes("alpha", make_sample(0, 0, 0.0, 0.5, "MPI_Allreduce",
                                                  4, 256, 0.125)));
  send_all(fdb, sample_bytes("beta", make_sample(0, 0, 0.0, 0.5, "cudaMemcpy", 2,
                                                 1024, 0.0625)));
  send_all(fda, sample_bytes("alpha", make_sample(0, 1, 0.5, 1.0, "MPI_Allreduce",
                                                  2, 128, 0.25)));
  // Wait for alpha's acks so both samples are provably applied, then lose
  // the connection (the daemon sees a clean EOF, pending() == 0).
  std::uint64_t acked = 0;
  while (acked < 2 && read_frame(fda, deca, f)) {
    ASSERT_EQ(f.type, FrameType::kAck);
    EXPECT_EQ(f.job, "alpha");
    acked = f.epoch;
  }
  ASSERT_EQ(acked, 2u);
  ipm::live::net::close_fd(fda);

  // Reconnect: WELCOME must carry the resume epoch so the client prunes
  // everything already applied.
  const int fda2 = connect_block(sock);
  ASSERT_GE(fda2, 0);
  Decoder deca2;
  send_all(fda2, frame_bytes(FrameType::kHello, "alpha", 0, 0,
                             ipm::live::wire::hello_payload("./alpha", 0.5)));
  ASSERT_TRUE(read_frame(fda2, deca2, f));
  ASSERT_EQ(f.type, FrameType::kWelcome);
  const auto resume = ipm::live::wire::parse_welcome(f.payload);
  ASSERT_EQ(resume.size(), 1u);
  EXPECT_EQ(resume[0].first, 0u);   // rank
  EXPECT_EQ(resume[0].second, 2u);  // last applied epoch
  // A conservative client resends its last unacked frame anyway: the epoch
  // dedup turns it into a no-op instead of a double count.
  send_all(fda2, sample_bytes("alpha", make_sample(0, 1, 0.5, 1.0, "MPI_Allreduce",
                                                   2, 128, 0.25)));
  send_all(fda2, sample_bytes("alpha", make_sample(0, 2, 1.0, 1.5, "MPI_Allreduce",
                                                   1, 64, 0.5)));
  send_all(fdb, sample_bytes("beta", make_sample(0, 1, 0.5, 1.0, "cudaMemcpy", 1,
                                                 512, 0.125)));

  // Finalize + end both jobs.
  send_all(fda2, frame_bytes(FrameType::kRankFin, "alpha", 0, 4,
                             R"({"samples":3,"drops":0})"));
  send_all(fda2, frame_bytes(FrameType::kJobEnd, "alpha", 0, 0, ""));
  send_all(fdb, frame_bytes(FrameType::kRankFin, "beta", 0, 3,
                            R"({"samples":2,"drops":1})"));
  send_all(fdb, frame_bytes(FrameType::kJobEnd, "beta", 0, 0, ""));
  bool ended_a = false;
  while (read_frame(fda2, deca2, f, 10.0)) {
    if (f.type == FrameType::kJobEndAck) {
      ended_a = true;
      break;
    }
  }
  EXPECT_TRUE(ended_a);
  runner.join();  // exit_after_jobs = 2
  ipm::live::net::close_fd(fda2);
  ipm::live::net::close_fd(fdb);

  // Per-job transport state: alpha applied 3 samples, deduped 1 resend.
  const auto* ra = runner.d.job_ranks("alpha");
  const auto* rb = runner.d.job_ranks("beta");
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  ASSERT_EQ(ra->size(), 1u);
  ASSERT_EQ(rb->size(), 1u);
  EXPECT_EQ(ra->at(0).samples, 3u);
  EXPECT_EQ(ra->at(0).resent, 1u);
  EXPECT_EQ(ra->at(0).last_epoch, 4u);
  EXPECT_TRUE(ra->at(0).finalized);
  EXPECT_EQ(rb->at(0).samples, 2u);
  EXPECT_EQ(rb->at(0).resent, 0u);
  EXPECT_EQ(rb->at(0).drops, 1u);

  // Job streams stay separate: each file carries only its own events.
  const std::string path_a = runner.d.job_timeseries_path("alpha");
  const std::string path_b = runner.d.job_timeseries_path("beta");
  ASSERT_NE(path_a, path_b);
  const ipm::live::TimeSeries ts_a = ipm::live::read_timeseries_file(path_a);
  const ipm::live::TimeSeries ts_b = ipm::live::read_timeseries_file(path_b);
  EXPECT_EQ(ts_a.command, "./alpha");
  EXPECT_EQ(ts_b.command, "./beta");
  ASSERT_EQ(ts_a.samples.size(), 3u);
  ASSERT_EQ(ts_b.samples.size(), 2u);
  std::uint64_t count_a = 0;
  for (const ipm::live::Sample& s : ts_a.samples) {
    for (const ipm::live::KeyDelta& d : s.deltas) {
      EXPECT_EQ(d.name_str, "MPI_Allreduce");
      count_a += d.dcount;
    }
  }
  EXPECT_EQ(count_a, 7u);  // 4 + 2 + 1, the resend counted once
  for (const ipm::live::Sample& s : ts_b.samples) {
    for (const ipm::live::KeyDelta& d : s.deltas) {
      EXPECT_EQ(d.name_str, "cudaMemcpy");
    }
  }
  EXPECT_FALSE(ts_a.points.empty());
  // The fleet stream merged both jobs in virtual time.
  EXPECT_FALSE(
      ipm::live::read_timeseries_file(runner.d.fleet_timeseries_path()).points.empty());

  // One exposition, labelled per job and per rank.
  const std::string prom = slurp(runner.d.prom_path());
  EXPECT_NE(prom.find("ipm_agg_jobs 2"), std::string::npos);
  EXPECT_NE(prom.find("ipm_agg_jobs_ended 2"), std::string::npos);
  EXPECT_NE(prom.find("ipm_agg_rank_samples_total{job=\"alpha\",rank=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("ipm_agg_rank_samples_total{job=\"beta\",rank=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("ipm_agg_rank_resent_total{job=\"alpha\",rank=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("ipm_agg_rank_drops_total{job=\"beta\",rank=\"0\"} 1"),
            std::string::npos);
}

/// Totals over a stream's points: the integer fields, and the seconds,
/// flops and device-counter fields as double sums.
struct PointTotals {
  std::uint64_t samples = 0, devents = 0, mpi_bytes = 0, cuda_bytes = 0;
  std::array<double, 9> sums{};
  std::map<std::string, double> region_flops;

  void add(const ipm::live::ClusterPoint& p) {
    samples += p.samples;
    devents += p.devents;
    mpi_bytes += p.mpi_bytes;
    cuda_bytes += p.cuda_bytes;
    const std::array<double, 9> v = {p.mpi_s,  p.cuda_s, p.gpu_s,
                                     p.idle_s, p.blas_s, p.fft_s,
                                     p.flops,  p.dev_flops, p.dev_bytes};
    for (std::size_t i = 0; i < v.size(); ++i) sums[i] += v[i];
    for (const auto& [region, flops] : p.region_flops) region_flops[region] += flops;
  }
};

/// The fleet merger adds the folds its jobs' mergers added: through one
/// daemon, the fleet stream's point totals, per-region flops included,
/// equal the sum of the two jobs' (integers exactly, seconds and flops to
/// 1e-12 relative).  Each job's samples mix every family, regions and
/// device counters over three ranks, and every third sample line repeats,
/// as a resumed tail repeats it: the repeat dedupes and leaves nothing in
/// either merge.
TEST(Aggd, FleetPointsSumTheJobsPoints) {
  const std::string dir = test_dir("aggd_fleet_sum");
  static constexpr const char* kNames[] = {
      "MPI_Allreduce", "MPI_Send", "cudaMemcpy(H2D)", "cuLaunchKernel",
      "cublasDgemm",   "cufftExecZ2Z", "@CUDA_EXEC:k", "@CUDA_HOST_IDLE", "user_fn"};
  std::vector<std::string> tails;
  simx::Xoshiro256 rng(0xF1EE7);
  for (const std::string job : {"fold_a", "fold_b"}) {
    const std::string path = dir + "/" + job + "_timeseries.jsonl";
    std::ofstream out(path, std::ios::trunc);
    out << ipm::live::timeseries_header_line("./" + job, 0.5) << '\n';
    constexpr int kSteps = 12;
    for (int step = 0; step < kSteps; ++step) {
      for (int rank = 0; rank < 3; ++rank) {
        ipm::live::Sample s;
        s.rank = rank;
        s.seq = static_cast<std::uint64_t>(step);
        s.t0 = 0.3 * step;
        s.t1 = 0.3 * (step + 1) + 0.01 * rank;
        s.final_flush = step == kSteps - 1;
        s.ddev_flops = rng.uniform(0.0, 1e6);
        s.ddev_bytes = rng.uniform(0.0, 1e5);
        s.regions = {"ipm_global", "solver"};
        for (const char* name : kNames) {
          ipm::live::KeyDelta d;
          d.name_str = name;
          d.region = static_cast<std::uint32_t>(rng.uniform_u64(2));
          d.dcount = 1 + rng.uniform_u64(9);
          d.dbytes = rng.uniform_u64(1 << 20);
          d.dtsum = rng.uniform(0.0, 0.1);
          d.dflops = rng.uniform_u64(2) == 0 ? 0.0 : rng.uniform(0.0, 1e9);
          s.deltas.push_back(std::move(d));
        }
        out << ipm::live::sample_line(s) << '\n';
        if ((step * 3 + rank) % 3 == 0) out << ipm::live::sample_line(s) << '\n';
      }
    }
    out << ipm::live::end_line(0) << '\n';
    tails.push_back(path);
  }

  ipm::aggd::Options opt;
  opt.out_dir = dir;
  opt.tails = tails;
  opt.fleet_interval = 0.5;
  opt.workers = 2;
  ipm::aggd::Daemon d(opt);
  std::string err;
  ASSERT_TRUE(d.start(err)) << err;
  d.run();  // tail-only mode: returns once both tailed streams ended
  ASSERT_EQ(d.protocol_errors(), 0u);

  PointTotals jobs;
  for (const char* job : {"fold_a", "fold_b"}) {
    const ipm::live::TimeSeries ts =
        ipm::live::read_timeseries_file(d.job_timeseries_path(job));
    PointTotals mine;
    for (const ipm::live::ClusterPoint& p : ts.points) {
      mine.add(p);
      jobs.add(p);
    }
    EXPECT_EQ(mine.samples, 36u) << job;
    for (std::size_t i = 0; i < mine.sums.size(); ++i) {
      EXPECT_GT(mine.sums[i], 0.0) << job << " field " << i;
    }
    EXPECT_EQ(mine.region_flops.size(), 2u) << job;
    std::uint64_t resent = 0;
    for (const auto& [rank, rs] : *d.job_ranks(job)) resent += rs.resent;
    EXPECT_EQ(resent, 12u) << job;
  }
  const ipm::live::TimeSeries fleet_ts =
      ipm::live::read_timeseries_file(d.fleet_timeseries_path());
  PointTotals fleet;
  for (const ipm::live::ClusterPoint& p : fleet_ts.points) fleet.add(p);
  EXPECT_EQ(fleet.samples, jobs.samples);
  EXPECT_EQ(fleet.devents, jobs.devents);
  EXPECT_EQ(fleet.mpi_bytes, jobs.mpi_bytes);
  EXPECT_EQ(fleet.cuda_bytes, jobs.cuda_bytes);
  for (std::size_t i = 0; i < fleet.sums.size(); ++i) {
    EXPECT_NEAR(fleet.sums[i], jobs.sums[i], 1e-12 * jobs.sums[i])
        << "field " << i;
  }
  ASSERT_EQ(fleet.region_flops.size(), jobs.region_flops.size());
  for (const auto& [region, flops] : jobs.region_flops) {
    EXPECT_NEAR(fleet.region_flops[region], flops, 1e-12 * flops) << region;
  }
}

std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

/// The last line of a time-series file is its end line.
bool ends_with_end_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) last = line;
  ipm::live::TimeSeries ignored;
  return ipm::live::parse_timeseries_line(last, ignored) == ipm::live::LineKind::kEnd;
}

/// Job churn: a job's file is open only while a batch appends to it.  Many
/// short jobs in a row must not hold one descriptor each until the daemon
/// exits: neither jobs that end, nor jobs whose client vanishes after its
/// HELLO and one sample, with no RANK_FIN or JOB_END.  Every file still
/// holds its header and its one sample and ends with its end line (an
/// unended job's is written when shutdown ends it; an ended job's late
/// sample writes nothing).
TEST(Aggd, EndedJobsCloseTheirStream) {
  if (!std::filesystem::exists("/proc/self/fd")) GTEST_SKIP() << "no /proc";
  constexpr int kJobs = 64;
  const std::string dir = test_dir("aggd_churn");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  opt.workers = 2;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());
  const int fd = connect_block(sock);
  ASSERT_GE(fd, 0);
  Decoder dec;
  Frame f;
  const std::size_t before = open_fds();
  for (int j = 0; j < kJobs; ++j) {
    const std::string job = "churn-" + std::to_string(j);
    send_all(fd, frame_bytes(FrameType::kHello, job, 0, 0,
                             ipm::live::wire::hello_payload("./churn", 0.5)));
    send_all(fd, sample_bytes(job, make_sample(0, 0, 0.0, 0.5, "MPI_Barrier", 1,
                                               0, 0.25)));
    send_all(fd, frame_bytes(FrameType::kRankFin, job, 0, 2,
                             R"({"samples":1,"drops":0})"));
    send_all(fd, frame_bytes(FrameType::kJobEnd, job, 0, 0, ""));
    bool ended = false;
    while (!ended && read_frame(fd, dec, f)) {
      ended = f.type == FrameType::kJobEndAck && f.job == job;
    }
    ASSERT_TRUE(ended) << job;
    // A late sample for an ended job (its epoch past the RANK_FIN's) is
    // acked, and its line never follows the end line.
    send_all(fd, sample_bytes(job, make_sample(0, 2, 1.0, 1.5, "MPI_Barrier", 1,
                                               0, 0.25)));
    bool acked = false;
    while (!acked && read_frame(fd, dec, f)) {
      acked = f.type == FrameType::kAck && f.job == job;
    }
    ASSERT_TRUE(acked) << job;
  }
  const std::size_t after = open_fds();
  for (int j = 0; j < kJobs; ++j) {
    const std::string job = "vanish-" + std::to_string(j);
    const int c = connect_block(sock);
    ASSERT_GE(c, 0);
    Decoder cdec;
    send_all(c, frame_bytes(FrameType::kHello, job, 0, 0,
                            ipm::live::wire::hello_payload("./vanish", 0.5)));
    send_all(c, sample_bytes(job, make_sample(0, 0, 0.0, 0.5, "MPI_Barrier", 1,
                                              0, 0.25)));
    bool acked = false;
    while (!acked && read_frame(c, cdec, f)) acked = f.type == FrameType::kAck;
    ipm::live::net::close_fd(c);
    ASSERT_TRUE(acked) << job;
  }
  const std::size_t after_vanished = open_fds();
  ipm::live::net::close_fd(fd);
  runner.d.stop();
  runner.join();

  // No job file stays open between batches, so neither kind of job holds a
  // descriptor; the slack covers a concurrent exposition rewrite and a
  // closed session the daemon has not reaped yet.
  EXPECT_LT(after, before + kJobs / 4) << before << " -> " << after;
  EXPECT_LT(after_vanished, before + kJobs / 4) << before << " -> " << after_vanished;
  for (int j = 0; j < kJobs; j += 21) {
    const std::string job = "churn-" + std::to_string(j);
    const std::string path = runner.d.job_timeseries_path(job);
    EXPECT_TRUE(ends_with_end_line(path)) << path;
    EXPECT_EQ(ipm::live::read_timeseries_file(path).samples.size(), 1u) << path;
  }
  for (int j = 0; j < kJobs; ++j) {
    const std::string job = "vanish-" + std::to_string(j);
    const std::string path = runner.d.job_timeseries_path(job);
    ipm::live::TimeSeries ts;
    ASSERT_NO_THROW(ts = ipm::live::read_timeseries_file(path)) << path;
    EXPECT_EQ(ts.command, "./vanish") << path;
    EXPECT_EQ(ts.samples.size(), 1u) << path;
    EXPECT_TRUE(ends_with_end_line(path)) << path;
  }
}

/// Every job writes a file no other stream holds: a job named "fleet" does
/// not write into the fleet stream's file, and "a:b" and "a_b", which
/// sanitize to one name, get a file each.  Each job's JSONL holds one
/// header and exactly the sample lines it was sent, and the fleet file
/// reads back.
TEST(Aggd, JobPathsNeverCollide) {
  const std::string dir = test_dir("aggd_paths");
  const std::string sock = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = sock;
  opt.out_dir = dir;
  DaemonRunner runner(opt);
  ASSERT_TRUE(runner.start());
  const std::vector<std::string> jobs = {"fleet", "a:b", "a_b"};
  const int fd = connect_block(sock);
  ASSERT_GE(fd, 0);
  Decoder dec;
  Frame f;
  for (const std::string& job : jobs) {
    send_all(fd, frame_bytes(FrameType::kHello, job, 0, 0,
                             ipm::live::wire::hello_payload("./" + job, 0.5)));
    ASSERT_TRUE(read_frame(fd, dec, f));
    ASSERT_EQ(f.type, FrameType::kWelcome);
  }
  // Four samples per job over two ranks, the jobs interleaved, each job's
  // deltas its own.
  std::map<std::string, std::vector<std::string>> sent;
  for (std::uint64_t k = 0; k < 4; ++k) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const int rank = static_cast<int>(k % 2);
      const std::uint64_t seq = k / 2;
      const double t0 = 0.5 * static_cast<double>(seq);
      const ipm::live::Sample s =
          make_sample(rank, seq, t0, t0 + 0.5, "MPI_Send", 1 + j, 8 * (k + 1),
                      0.125 * static_cast<double>(j + 1) + 1e-3 * static_cast<double>(k));
      sent[jobs[j]].push_back(ipm::live::sample_line(s));
      send_all(fd, sample_bytes(jobs[j], s));
      ASSERT_TRUE(read_frame(fd, dec, f));
      ASSERT_EQ(f.type, FrameType::kAck);
      EXPECT_EQ(f.job, jobs[j]);
      EXPECT_EQ(f.epoch, seq + 1);
    }
  }
  for (const std::string& job : jobs) {
    for (std::uint32_t rank = 0; rank < 2; ++rank) {
      send_all(fd, frame_bytes(FrameType::kRankFin, job, rank, 0,
                               ipm::live::wire::rank_fin_payload(2, 0)));
      ASSERT_TRUE(read_frame(fd, dec, f));
      ASSERT_EQ(f.type, FrameType::kAck);
    }
    send_all(fd, frame_bytes(FrameType::kJobEnd, job, 0, 0, ""));
    ASSERT_TRUE(read_frame(fd, dec, f));
    ASSERT_EQ(f.type, FrameType::kJobEndAck);
    EXPECT_EQ(f.job, job);
  }
  ipm::live::net::close_fd(fd);
  runner.d.stop();
  runner.join();

  std::set<std::string> paths = {runner.d.fleet_timeseries_path()};
  for (const std::string& job : jobs) {
    SCOPED_TRACE(job);
    const std::string path = runner.d.job_timeseries_path(job);
    ASSERT_FALSE(path.empty());
    EXPECT_TRUE(paths.insert(path).second) << path << " is another stream's file";
    const std::string text = slurp(path);
    std::size_t headers = 0;
    for (std::size_t at = text.find("{\"ipm_timeseries\""); at != std::string::npos;
         at = text.find("{\"ipm_timeseries\"", at + 1)) {
      ++headers;
    }
    EXPECT_EQ(headers, 1u);
    const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(path);
    EXPECT_EQ(ts.command, "./" + job);
    std::vector<std::string> stored;
    for (const ipm::live::Sample& s : ts.samples) stored.push_back(ipm::live::sample_line(s));
    EXPECT_EQ(stored, sent[job]);  // bit-exact: each line as it was sent
  }
  // An id sanitize() keeps keeps its name; only "fleet" is reserved.
  EXPECT_EQ(runner.d.job_timeseries_path("a_b"), dir + "/a_b_timeseries.jsonl");
  ipm::live::TimeSeries fleet;
  ASSERT_NO_THROW(fleet = ipm::live::read_timeseries_file(runner.d.fleet_timeseries_path()));
  EXPECT_EQ(fleet.command, "fleet");
  EXPECT_TRUE(fleet.samples.empty());
  EXPECT_FALSE(fleet.points.empty());
}

/// The exposition is replaced through `<prom>.tmp`: a tmp that cannot be
/// written (here a symlink to /dev/full) is reported and removed, and the
/// previously published exposition stays in place; it is never replaced by
/// the symlink or a partial file.
TEST(Aggd, FailedExpositionWriteKeepsThePreviousFile) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "/dev/full not available";
  namespace fs = std::filesystem;
  const std::string dir = test_dir("aggd_prom_full");
  ipm::aggd::Options opt;
  opt.out_dir = dir;
  ipm::aggd::Daemon d(opt);
  std::string err;
  ASSERT_TRUE(d.start(err)) << err;  // publishes the first exposition
  const std::string prom = d.prom_path();
  const std::string tmp = prom + ".tmp";
  const std::string published = slurp(prom);
  ASSERT_NE(published.find("ipm_agg_jobs 0"), std::string::npos) << published;

  fs::create_symlink("/dev/full", tmp);
  ::testing::internal::CaptureStderr();
  d.stop();
  d.run();  // its final rewrite fails on the full device
  const std::string log = ::testing::internal::GetCapturedStderr();

  EXPECT_NE(log.find("cannot publish exposition " + prom), std::string::npos) << log;
  EXPECT_FALSE(fs::is_symlink(prom));
  EXPECT_EQ(slurp(prom), published);
  EXPECT_FALSE(fs::exists(fs::symlink_status(tmp)));
}

/// A time-series file that cannot be written is reported and counted, never
/// truncated silently.  The fleet stream (here a symlink to /dev/full) is
/// checked at shutdown.  A job's file fails every append its batches make,
/// whether it is a symlink to /dev/full or was removed after the job's first
/// batch (an append never creates the file): each failure counts in
/// ipm_agg_write_errors_total, and stderr names the job's file once, however
/// many batches the job ran.
TEST(Aggd, FailedFleetWriteIsReported) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "/dev/full not available";
  const std::string dir = test_dir("aggd_fleet_full");
  const std::string fleet = dir + "/fleet_timeseries.jsonl";
  std::filesystem::create_symlink("/dev/full", fleet);
  ipm::aggd::Options opt;
  opt.out_dir = dir;
  ipm::aggd::Daemon d(opt);
  std::string err;
  ASSERT_TRUE(d.start(err)) << err;
  ASSERT_EQ(d.fleet_timeseries_path(), fleet);
  ::testing::internal::CaptureStderr();
  d.stop();
  d.run();  // the fleet stream's one append, header and end line, fails
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("ipm_aggd: time-series write failed for " + fleet),
            std::string::npos)
      << log;
  const std::string prom = slurp(d.prom_path());
  EXPECT_NE(prom.find("\nipm_agg_write_errors_total 1\n"), std::string::npos) << prom;

  // A fleet file removed after its first append: the appends after it fail,
  // since an append never creates the file, and each one counts; stderr
  // names the file once.  Each round of four 0.5 s samples closes two fleet
  // intervals, so each floor's emission after a round appends points.
  {
    SCOPED_TRACE("fleet file removed");
    const std::string rdir = test_dir("aggd_fleet_removed");
    const std::string sock = "unix:" + rdir + "/agg.sock";
    const std::string rfleet = rdir + "/fleet_timeseries.jsonl";
    const std::string rprom = rdir + "/ipm_agg.prom";
    ipm::aggd::Options ropt;
    ropt.listen = sock;
    ropt.out_dir = rdir;
    ropt.workers = 0;
    DaemonRunner runner(ropt);
    ::testing::internal::CaptureStderr();
    ASSERT_TRUE(runner.start());
    const int fd = connect_block(sock);
    ASSERT_GE(fd, 0);
    Decoder dec;
    Frame f;
    send_all(fd, frame_bytes(FrameType::kHello, "rm", 0, 0,
                             ipm::live::wire::hello_payload("./rm", 0.5)));
    EXPECT_TRUE(read_frame(fd, dec, f));
    std::uint64_t seq = 0;
    const auto round = [&] {
      for (int k = 0; k < 4; ++k, ++seq) {
        const double t0 = 0.5 * static_cast<double>(seq);
        send_all(fd, sample_bytes("rm", make_sample(0, seq, t0, t0 + 0.5, "MPI_Bcast", 1,
                                                    64, 0.125)));
        EXPECT_TRUE(read_frame(fd, dec, f));
      }
    };
    const auto wait_until = [](auto done) {
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!done() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      return done();
    };
    round();
    std::error_code ec;
    EXPECT_TRUE(wait_until([&] { return std::filesystem::file_size(rfleet, ec) > 0; }))
        << "no fleet append";
    EXPECT_TRUE(std::filesystem::remove(rfleet));
    round();
    // The next floor's append fails and is counted; so is the shutdown's.
    EXPECT_TRUE(wait_until([&] {
      return slurp(rprom).find("\nipm_agg_write_errors_total 1\n") != std::string::npos;
    })) << slurp(rprom);
    ipm::live::net::close_fd(fd);
    runner.d.stop();
    runner.join();
    const std::string rlog = ::testing::internal::GetCapturedStderr();
    const std::string line = "ipm_aggd: time-series write failed for " + rfleet + "\n";
    std::size_t reported = 0;
    for (std::size_t at = rlog.find(line); at != std::string::npos;
         at = rlog.find(line, at + 1)) {
      ++reported;
    }
    EXPECT_EQ(reported, 1u) << rlog;
    EXPECT_FALSE(std::filesystem::exists(rfleet));
    const std::string final_prom = slurp(rprom);
    EXPECT_NE(final_prom.find("\nipm_agg_write_errors_total 2\n"), std::string::npos)
        << final_prom;
  }

  // A job's file that cannot be written: a symlink to /dev/full, or a file
  // removed after the job's first batch, which a later append must not
  // create again.  Serial mode runs one batch per round trip.
  for (const bool removed : {false, true}) {
    SCOPED_TRACE(removed ? "removed" : "/dev/full");
    const std::string jdir = test_dir(removed ? "aggd_job_removed" : "aggd_job_full");
    const std::string sock = "unix:" + jdir + "/agg.sock";
    const std::string path = jdir + "/full_timeseries.jsonl";
    if (!removed) std::filesystem::create_symlink("/dev/full", path);
    ipm::aggd::Options jopt;
    jopt.listen = sock;
    jopt.out_dir = jdir;
    jopt.workers = 0;
    DaemonRunner runner(jopt);
    ::testing::internal::CaptureStderr();
    ASSERT_TRUE(runner.start());
    const int fd = connect_block(sock);
    ASSERT_GE(fd, 0);
    Decoder dec;
    Frame f;
    constexpr std::uint64_t kSamples = 3;
    send_all(fd, frame_bytes(FrameType::kHello, "full", 0, 0,
                             ipm::live::wire::hello_payload("./full", 0.5)));
    EXPECT_TRUE(read_frame(fd, dec, f));
    if (removed) {
      EXPECT_TRUE(std::filesystem::remove(path));  // the header's batch ran
    }
    for (std::uint64_t k = 0; k < kSamples; ++k) {
      const double t0 = 0.5 * static_cast<double>(k);
      send_all(fd, sample_bytes("full", make_sample(0, k, t0, t0 + 0.5, "MPI_Bcast", 1,
                                                    64, 0.125)));
      EXPECT_TRUE(read_frame(fd, dec, f));
      EXPECT_EQ(f.type, FrameType::kAck);
    }
    send_all(fd, frame_bytes(FrameType::kJobEnd, "full", 0, 0, ""));
    EXPECT_TRUE(read_frame(fd, dec, f));
    EXPECT_EQ(f.type, FrameType::kJobEndAck);
    ipm::live::net::close_fd(fd);
    runner.d.stop();
    runner.join();
    const std::string jlog = ::testing::internal::GetCapturedStderr();

    const std::string line = "ipm_aggd: time-series write failed for " + path + "\n";
    std::size_t reported = 0;
    for (std::size_t at = jlog.find(line); at != std::string::npos;
         at = jlog.find(line, at + 1)) {
      ++reported;
    }
    EXPECT_EQ(reported, 1u) << jlog;
    if (removed) {
      EXPECT_FALSE(std::filesystem::exists(path));
    }
    // One failed append per sample and the JOB_END's; on /dev/full the
    // HELLO's too.
    const std::string jprom = slurp(runner.d.prom_path());
    const std::string key = "\nipm_agg_write_errors_total ";
    const std::size_t at = jprom.find(key);
    ASSERT_NE(at, std::string::npos) << jprom;
    EXPECT_GE(std::stoull(jprom.substr(at + key.size())), kSamples + (removed ? 1 : 2))
        << jprom;
  }
}

/// With no other traffic, a reply goes out as soon as its frame is applied:
/// a wake-up the event-driven IO loop missed would hold a round trip until
/// its next deadline, or forever when none is pending.  Serial and with
/// four workers; both answer through the outbox.
TEST(Aggd, IdleDaemonAnswersEveryRoundTripPromptly) {
  for (const int workers : {0, 4}) {
    SCOPED_TRACE(workers);
    const std::string dir = test_dir("aggd_round_trip" + std::to_string(workers));
    const std::string sock = "unix:" + dir + "/agg.sock";
    ipm::aggd::Options opt;
    opt.listen = sock;
    opt.out_dir = dir;
    opt.workers = workers;
    DaemonRunner runner(opt);
    ASSERT_TRUE(runner.start());
    const int fd = connect_block(sock);
    ASSERT_GE(fd, 0);
    Decoder dec;
    Frame f;
    std::vector<double> ms;
    // Each round trip is judged as it completes, so a lost wake-up fails at
    // the first slow one instead of after 400 of them.
    const auto round_trip = [&](const std::string& bytes, FrameType reply) {
      const auto t0 = std::chrono::steady_clock::now();
      send_all(fd, bytes);
      ASSERT_TRUE(read_frame(fd, dec, f));
      ms.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
      ASSERT_EQ(f.type, reply);
      ASSERT_LT(ms.back(), 1000.0) << "round trip " << ms.size() << " (ms)";
    };
    const std::string hello = frame_bytes(
        FrameType::kHello, "rt", 0, 0, ipm::live::wire::hello_payload("./rt", 0.5));
    for (std::uint64_t k = 0; k < 200 && !HasFatalFailure(); ++k) {
      round_trip(hello, FrameType::kWelcome);
      if (HasFatalFailure()) break;
      const double t0 = 0.5 * static_cast<double>(k);
      round_trip(sample_bytes("rt", make_sample(0, k, t0, t0 + 0.5, "MPI_Bcast", 1,
                                                64, 0.125)),
                 FrameType::kAck);
      EXPECT_EQ(f.epoch, k + 1);
    }
    ipm::live::net::close_fd(fd);
    runner.d.stop();
    runner.join();
    ASSERT_EQ(ms.size(), 400u);
    std::sort(ms.begin(), ms.end());
    EXPECT_LT(ms[ms.size() / 2], 5.0) << "median round trip (ms)";
    EXPECT_EQ(runner.d.job_ranks("rt")->at(0).samples, 200u);
  }
}

/// A job that goes quiet while it is still running gets its outputs caught
/// up: the exposition's rank counter, the job's points and the fleet's
/// points all reach their files within a few floors, with no frame after
/// the last acked sample (no RANK_FIN, no JOB_END) and the daemon still
/// running.  Ten back-to-back samples of one rank close ten job intervals
/// (0.5 s each) and five fleet intervals (1 s).  Serial and with two
/// workers.
TEST(Aggd, QuietJobCatchesUpWhileRunning) {
  for (const int workers : {0, 2}) {
    SCOPED_TRACE(workers);
    const std::string dir = test_dir("aggd_quiet" + std::to_string(workers));
    const std::string sock = "unix:" + dir + "/agg.sock";
    ipm::aggd::Options opt;
    opt.listen = sock;
    opt.out_dir = dir;
    opt.workers = workers;
    DaemonRunner runner(opt);
    ASSERT_TRUE(runner.start());
    const int fd = connect_block(sock);
    ASSERT_GE(fd, 0);
    Decoder dec;
    Frame f;
    send_all(fd, frame_bytes(FrameType::kHello, "quiet", 0, 0,
                             ipm::live::wire::hello_payload("./quiet", 0.5)));
    ASSERT_TRUE(read_frame(fd, dec, f));
    ASSERT_EQ(f.type, FrameType::kWelcome);
    for (std::uint64_t k = 0; k < 10; ++k) {
      const double t0 = 0.5 * static_cast<double>(k);
      send_all(fd, sample_bytes("quiet", make_sample(0, k, t0, t0 + 0.5, "MPI_Bcast",
                                                     1, 64, 0.125)));
      ASSERT_TRUE(read_frame(fd, dec, f));
      ASSERT_EQ(f.type, FrameType::kAck);
      ASSERT_EQ(f.epoch, k + 1);
    }
    // Point lines among a file's complete lines: a live stream may end in a
    // line still being written.
    const auto points = [](const std::string& path) {
      std::string text = slurp(path);
      text.resize(text.rfind('\n') + 1);
      std::size_t n = 0;
      for (std::size_t at = text.find("{\"type\":\"point\""); at != std::string::npos;
           at = text.find("{\"type\":\"point\"", at + 1)) {
        ++n;
      }
      return n;
    };
    const std::string rank_line = "\nipm_agg_rank_samples_total{job=\"quiet\",rank=\"0\"} 10\n";
    bool rank_seen = false;
    std::size_t job_points = 0;
    std::size_t fleet_points = 0;
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < give_up) {
      rank_seen = slurp(dir + "/ipm_agg.prom").find(rank_line) != std::string::npos;
      job_points = points(dir + "/quiet_timeseries.jsonl");
      fleet_points = points(dir + "/fleet_timeseries.jsonl");
      if (rank_seen && job_points == 10 && fleet_points == 5) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(rank_seen) << "exposition never showed the 10 applied samples";
    EXPECT_EQ(job_points, 10u);
    EXPECT_EQ(fleet_points, 5u);
    ipm::live::net::close_fd(fd);
  }
}

/// stop() wakes a loop blocked with no deadline pending.  Should it not,
/// the test wakes the loop itself with a connection, so it fails instead
/// of hanging.
TEST(Aggd, StopWakesAnIdleDaemon) {
  for (const int workers : {0, 4}) {
    SCOPED_TRACE(workers);
    const std::string dir = test_dir("aggd_stop" + std::to_string(workers));
    ipm::aggd::Options opt;
    opt.listen = "unix:" + dir + "/agg.sock";
    opt.out_dir = dir;
    opt.workers = workers;
    ipm::aggd::Daemon d(opt);
    std::string err;
    ASSERT_TRUE(d.start(err)) << err;
    std::promise<void> returned;
    std::future<void> done = returned.get_future();
    std::thread th([&] {
      d.run();
      returned.set_value();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // now idle
    d.stop();
    const bool prompt =
        done.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
    if (!prompt) ipm::live::net::close_fd(connect_block(opt.listen));
    th.join();
    EXPECT_TRUE(prompt) << "stop() left run() blocked";
  }
}

}  // namespace
