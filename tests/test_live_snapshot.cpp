// Live telemetry (ipm_live): the per-rank delta publisher, the channel
// drop accounting, and the cluster collector's JSONL export.  A capture
// folds its rank's hash table on the owning thread; the multi-rank tests
// here (8 rank threads plus the collector thread) run under TSan in CI, so
// a table read from any thread but its owner's is a reported race.
//
// The subsystem's core correctness property is *conservation*: folding every
// published delta sample reproduces the finalize profile bit-exactly — in
// memory and through the JSONL file (%.17g round-trips doubles).  A full
// channel must not break this: the skipped window coalesces into the next
// successful capture.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "cudasim/control.hpp"
#include "cudasim/kernel.hpp"
#include "ipm/monitor.hpp"
#include "ipm/report.hpp"
#include "ipm_live/live.hpp"
#include "ipm_live/merge.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "simcommon/rng.hpp"

namespace {

using TripleKey = std::tuple<std::string, std::uint32_t, std::int32_t>;

struct Fold {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double tsum = 0.0;
};

/// Fold published delta samples at the profile's (name, region, select)
/// granularity — the consumer side of the conservation invariant.
std::map<TripleKey, Fold> fold_samples(const std::vector<ipm::live::Sample>& samples) {
  std::map<TripleKey, Fold> folded;
  for (const ipm::live::Sample& s : samples) {
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
void expect_conserved(const ipm::RankProfile& p, const std::map<TripleKey, Fold>& fold) {
  for (const ipm::EventRecord& e : p.events) {
    const auto it = fold.find({e.name, e.region, e.select});
    ASSERT_NE(it, fold.end()) << e.name;
    EXPECT_EQ(it->second.count, e.count) << e.name;
    EXPECT_EQ(it->second.bytes, e.bytes) << e.name;
    EXPECT_EQ(it->second.tsum, e.tsum) << e.name;  // bit-exact, not NEAR
  }
  EXPECT_EQ(fold.size(), p.events.size());
}

// --- publisher conservation --------------------------------------------------

TEST(LiveSnapshot, InMemoryDeltaConservation) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.snapshot_interval = 0.25;
  cfg.timeseries_path = ::testing::TempDir() + "/live_mem_timeseries.jsonl";
  ipm::job_begin(cfg, "./live_mem");
  // Consume the channel manually: the collector is stopped so drain() is
  // the only consumer (SPSC).
  ipm::live::collector_stop();
  ipm::Monitor* mon = ipm::monitor();
  ASSERT_NE(mon, nullptr);
  ASSERT_TRUE(mon->live());

  simx::Xoshiro256 rng(42);
  const ipm::PreparedKey names[3] = {ipm::prepare_key("live_a"), ipm::prepare_key("live_b"),
                                     ipm::prepare_key("live_c")};
  std::vector<ipm::live::Sample> samples;
  for (int i = 0; i < 400; ++i) {
    // Irregular virtual-time progress across many interval boundaries.
    simx::host_compute(0.01 + 1e-4 * static_cast<double>(rng.uniform_u64(100)));
    const ipm::PreparedKey n = names[rng.uniform_u64(3)];
    mon->record(n, 0, 0.0, 1e-5 + 1e-7 * static_cast<double>(rng.uniform_u64(97)),
                rng.uniform_u64(4) * 256, static_cast<std::int32_t>(rng.uniform_u64(2)));
    if (i % 64 == 0) {
      // Drain mid-run too: conservation must hold across partial folds.
      for (ipm::live::Sample& s : ipm::live::drain(*mon)) {
        samples.push_back(std::move(s));
      }
    }
  }
  ipm::live::final_flush(*mon);
  for (ipm::live::Sample& s : ipm::live::drain(*mon)) samples.push_back(std::move(s));
  ASSERT_GT(samples.size(), 4u);  // periodic captures actually fired
  // Monotone per-rank sample windows: t0 of sample k+1 == t1 of sample k.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].t0, samples[i - 1].t1);
    EXPECT_EQ(samples[i].seq, samples[i - 1].seq + 1);
  }
  const ipm::RankProfile p = mon->snapshot();
  expect_conserved(p, fold_samples(samples));
  ipm::job_end();
}

TEST(LiveSnapshot, FullChannelDropsAreCoalescedNotLost) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.snapshot_interval = 1e6;        // due-check never fires on its own
  cfg.snapshot_log2_samples = 2;      // 4-slot channel: drops are certain
  cfg.timeseries_path = ::testing::TempDir() + "/live_drop_timeseries.jsonl";
  ipm::job_begin(cfg, "./live_drop");
  ipm::live::collector_stop();
  ipm::Monitor* mon = ipm::monitor();
  ASSERT_NE(mon, nullptr);
  ASSERT_TRUE(mon->live());

  const ipm::PreparedKey n = ipm::prepare_key("drop_evt");
  constexpr int kCaptures = 16;
  for (int i = 0; i < kCaptures; ++i) {
    simx::host_compute(0.5);
    mon->record(n, 0, 0.0, 1e-4);
    ipm::live::capture(*mon);  // nobody drains: channel fills after 4
  }
  ipm::live::final_flush(*mon);  // bypasses the full channel
  const std::vector<ipm::live::Sample> samples = ipm::live::drain(*mon);
  // 4 channel slots + the final-flush overflow sample; the rest dropped.
  EXPECT_LT(samples.size(), static_cast<std::size_t>(kCaptures));
  EXPECT_TRUE(samples.back().final_flush);
  const ipm::RankProfile p = mon->snapshot();
  // All 16 updates survive: dropped windows coalesce into later deltas.
  expect_conserved(p, fold_samples(samples));
  ipm::job_end();
  // The drop count reaches the profile (banner + XML accounting).
  // Note: job_end() above already consumed the monitor; re-run a tiny job
  // to check the accounting path end to end instead.
}

/// No double d lands 0x1p-53 + d on 1 + 0x1p-52: both candidates round a
/// tie to even (d = 1 lands on 1, the next double on 1 + 0x1p-51).  The
/// publisher must still conserve, in memory and through the sample lines.
TEST(LiveSnapshot, UnlandableDeltaIsClosedByCorrection) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.snapshot_interval = 1e6;  // captures only when the test asks
  cfg.timeseries_path = ::testing::TempDir() + "/live_ulp_timeseries.jsonl";
  ipm::job_begin(cfg, "./live_ulp");
  ipm::live::collector_stop();
  ipm::Monitor* mon = ipm::monitor();
  ASSERT_NE(mon, nullptr);
  ASSERT_TRUE(mon->live());

  const ipm::PreparedKey n = ipm::prepare_key("ulp_evt");
  mon->record(n, 0, 0.0, 0x1p-53);
  ipm::live::capture(*mon);
  mon->record(n, 0, 0.0, 1.0);  // tsum 0x1p-53 + 1 rounds to 1
  mon->record(n, 0, 0.0, 0x1p-52);
  ipm::live::capture(*mon);
  const std::vector<ipm::live::Sample> samples = ipm::live::drain(*mon);
  const ipm::RankProfile p = mon->snapshot();
  ASSERT_EQ(p.events.size(), 1u);
  ASSERT_EQ(p.events[0].tsum, 1.0 + 0x1p-52);
  ASSERT_EQ(samples.size(), 2u);
  ASSERT_EQ(samples[1].deltas.size(), 2u);
  EXPECT_EQ(samples[1].deltas[1].dcount, 0u);  // the correction carries no call
  expect_conserved(p, fold_samples(samples));

  std::vector<ipm::live::Sample> parsed(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::string line = ipm::live::sample_line(samples[i]);
    ASSERT_TRUE(ipm::live::parse_sample_line(line, parsed[i])) << line;
  }
  expect_conserved(p, fold_samples(parsed));
  ipm::job_end();
}

/// Drop/sample counters travel monitor -> RankProfile -> XML -> parse.
TEST(LiveSnapshot, DropAccountingReachesProfileAndXml) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.snapshot_interval = 1e6;
  cfg.snapshot_log2_samples = 2;
  cfg.timeseries_path = ::testing::TempDir() + "/live_acct_timeseries.jsonl";
  ipm::job_begin(cfg, "./live_acct");
  ipm::live::collector_stop();
  mpisim::ClusterConfig cluster;
  cluster.ranks = 1;
  mpisim::run_cluster(cluster, [](int) {
    MPI_Init(nullptr, nullptr);
    ipm::Monitor* mon = ipm::monitor();
    const ipm::PreparedKey n = ipm::prepare_key("acct_evt");
    for (int i = 0; i < 12; ++i) {
      simx::host_compute(0.25);
      mon->record(n, 0, 0.0, 1e-4);
      ipm::live::capture(*mon);
    }
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();
  ASSERT_EQ(job.ranks.size(), 1u);
  EXPECT_GT(job.ranks[0].snapshot_samples, 0u);
  EXPECT_GT(job.ranks[0].snapshot_drops, 0u);
  EXPECT_EQ(job.snapshot_samples(), job.ranks[0].snapshot_samples);
  EXPECT_EQ(job.snapshot_drops(), job.ranks[0].snapshot_drops);

  std::ostringstream xml;
  ipm::write_xml(xml, job);
  const ipm::JobProfile back = ipm::parse_xml(xml.str());
  ASSERT_EQ(back.ranks.size(), 1u);
  EXPECT_EQ(back.ranks[0].snapshot_samples, job.ranks[0].snapshot_samples);
  EXPECT_EQ(back.ranks[0].snapshot_drops, job.ranks[0].snapshot_drops);
  const std::string banner = ipm::banner_string(job);
  EXPECT_NE(banner.find("# timeseries"), std::string::npos);
  EXPECT_NE(banner.find("dropped"), std::string::npos);
}

// --- collector + JSONL end to end --------------------------------------------

TEST(LiveSnapshot, ClusterJsonlConservation) {
  simx::reset_default_context();
  const std::string ts_path = ::testing::TempDir() + "/live_cluster_timeseries.jsonl";
  const std::string prom_path = ::testing::TempDir() + "/live_cluster_metrics.prom";
  ipm::Config cfg;
  cfg.snapshot_interval = 0.5;
  cfg.timeseries_path = ts_path;
  cfg.prom_path = prom_path;
  ipm::job_begin(cfg, "./live_cluster");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 8;
  mpisim::run_cluster(cluster, [](int rank) {
    MPI_Init(nullptr, nullptr);
    simx::Xoshiro256 rng(static_cast<std::uint64_t>(0xC0FFEE + rank));
    for (int i = 0; i < 40; ++i) {
      simx::host_compute(0.05 + 1e-3 * static_cast<double>(rng.uniform_u64(50)));
      double x = static_cast<double>(rank);
      double y = 0;
      MPI_Allreduce(&x, &y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
      // Deterministic schedule: collectives must match across ranks.
      if (i % 4 == 0) {
        char buf[256];
        MPI_Bcast(buf, sizeof buf, MPI_BYTE, 0, MPI_COMM_WORLD);
      }
    }
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();
  ASSERT_EQ(job.ranks.size(), 8u);
  EXPECT_EQ(job.timeseries_file, ts_path);
  EXPECT_GT(job.snapshot_intervals, 0u);
  EXPECT_GT(job.snapshot_samples(), 0u);

  const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(ts_path);
  EXPECT_EQ(ts.command, "./live_cluster");
  EXPECT_DOUBLE_EQ(ts.interval, 0.5);
  EXPECT_EQ(ts.points.size(), job.snapshot_intervals);
  // Conservation through the file: per rank, the folded JSONL deltas equal
  // the finalize profile bit-exactly (%.17g round-trips every double).
  for (const ipm::RankProfile& r : job.ranks) {
    std::vector<ipm::live::Sample> mine;
    for (const ipm::live::Sample& s : ts.samples) {
      if (s.rank == r.rank) mine.push_back(s);
    }
    ASSERT_FALSE(mine.empty()) << "rank " << r.rank;
    expect_conserved(r, fold_samples(mine));
  }
  // Cluster points cover the job's virtual time span and count every event.
  std::uint64_t point_events = 0;
  for (const ipm::live::ClusterPoint& pt : ts.points) point_events += pt.devents;
  std::uint64_t profile_events = 0;
  for (const ipm::RankProfile& r : job.ranks) {
    for (const ipm::EventRecord& e : r.events) profile_events += e.count;
  }
  EXPECT_EQ(point_events, profile_events);
  // The Prometheus exposition ends in the final (job down) state.
  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream ss;
  ss << prom.rdbuf();
  EXPECT_NE(ss.str().find("ipm_up 0"), std::string::npos);
  EXPECT_NE(ss.str().find("ipm_ranks 8"), std::string::npos);
  EXPECT_NE(ss.str().find("ipm_mpi_seconds_total"), std::string::npos);
  // Every value reads as printf("%.17g") prints the double it parses to.
  std::istringstream lines(ss.str());
  std::string line;
  std::size_t values = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string text = line.substr(sp + 1);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::strtod(text.c_str(), nullptr));
    EXPECT_EQ(text, buf) << line;
    ++values;
  }
  EXPECT_GT(values, 5u);
}

/// A time series that never reached the disk is not reported as written:
/// the job references no file, the banner says "(unwritten)", the XML has
/// no <timeseries> element, and stderr names the failed path.
TEST(LiveSnapshot, FullDiskLeavesTheTimeSeriesUnwritten) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "/dev/full not available";
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.snapshot_interval = 0.5;
  cfg.timeseries_path = "/dev/full";
  ipm::job_begin(cfg, "./live_full_disk");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 2;
  ::testing::internal::CaptureStderr();
  mpisim::run_cluster(cluster, [](int) {
    MPI_Init(nullptr, nullptr);
    for (int i = 0; i < 10; ++i) {
      simx::host_compute(0.25);
      MPI_Barrier(MPI_COMM_WORLD);
    }
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("ipm: time-series write failed for /dev/full"), std::string::npos)
      << err;
  EXPECT_TRUE(job.timeseries_file.empty());
  EXPECT_GT(job.snapshot_samples(), 0u);
  const std::string banner = ipm::banner_string(job);
  EXPECT_NE(banner.find("# timeseries : "), std::string::npos) << banner;
  EXPECT_NE(banner.find(" in (unwritten) ("), std::string::npos) << banner;
  EXPECT_EQ(banner.find("/dev/full"), std::string::npos) << banner;
  std::ostringstream xml;
  ipm::write_xml(xml, job);
  EXPECT_EQ(xml.str().find("<timeseries"), std::string::npos);
  EXPECT_EQ(xml.str().find("/dev/full"), std::string::npos);
}

/// A time-series file removed while its job runs is neither written again
/// nor referenced: the collector's next append fails (an append never
/// creates the file), stderr names the path once, the banner says
/// "(unwritten)" and the XML has no <timeseries> element.
TEST(LiveSnapshot, RemovedTimeSeriesIsReportedNotReferenced) {
  simx::reset_default_context();
  const std::string ts_path = ::testing::TempDir() + "/live_removed_timeseries.jsonl";
  std::filesystem::remove(ts_path);
  ipm::Config cfg;
  cfg.snapshot_interval = 0.5;
  cfg.timeseries_path = ts_path;
  ipm::job_begin(cfg, "./live_removed");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 2;
  bool removed = false;
  ::testing::internal::CaptureStderr();
  mpisim::run_cluster(cluster, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    for (int i = 0; i < 20; ++i) {
      simx::host_compute(0.25);
      MPI_Barrier(MPI_COMM_WORLD);
      if (rank == 0 && i == 9) {
        // Once the collector's first append (the header, at least) is on
        // disk, the file goes away mid-run.
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        std::error_code ec;
        while (std::filesystem::file_size(ts_path, ec) == 0 &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        removed = std::filesystem::remove(ts_path);
      }
    }
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(removed);
  const std::string line = "ipm: time-series write failed for " + ts_path + "\n";
  std::size_t reported = 0;
  for (std::size_t at = err.find(line); at != std::string::npos; at = err.find(line, at + 1)) {
    ++reported;
  }
  EXPECT_EQ(reported, 1u) << err;
  EXPECT_FALSE(std::filesystem::exists(ts_path));
  EXPECT_TRUE(job.timeseries_file.empty()) << job.timeseries_file;
  EXPECT_GT(job.snapshot_samples(), 0u);
  const std::string banner = ipm::banner_string(job);
  EXPECT_NE(banner.find(" in (unwritten) ("), std::string::npos) << banner;
  std::ostringstream xml;
  ipm::write_xml(xml, job);
  EXPECT_EQ(xml.str().find("<timeseries"), std::string::npos);
  EXPECT_EQ(xml.str().find(ts_path), std::string::npos);
}

// --- serialization + report helpers ------------------------------------------

TEST(LiveSnapshot, TimeseriesLinesRoundTripThroughFile) {
  ipm::live::Sample s;
  s.rank = 3;
  s.seq = 7;
  s.t0 = 1.25;
  s.t1 = 2.5000000000000004;  // not representable in short decimal
  s.regions = {"ipm_global", R"(we"ird\region)"};
  ipm::live::KeyDelta d;
  d.name = ipm::intern_name(R"(quoted"name\x)");
  d.name_str = R"(quoted"name\x)";
  d.region = 1;
  d.select = -2;
  d.dcount = 5;
  d.dbytes = 4096;
  d.dtsum = 0.1 + 0.2;  // 0.30000000000000004
  d.dflops = 123.5;
  s.deltas.push_back(d);
  ipm::live::ClusterPoint pt;
  pt.k = 2;
  pt.t0 = 1.0;
  pt.t1 = 1.5;
  pt.ranks = 4;
  pt.ranks_live = 8;
  pt.samples = 4;
  pt.devents = 99;
  pt.mpi_s = 0.25;
  pt.flops = 1e9;
  pt.region_flops = {{"ipm_global", 1e9}};

  const std::string path = ::testing::TempDir() + "/live_roundtrip.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << ipm::live::timeseries_header_line("./rt \"app\"", 0.5) << "\n";
    out << ipm::live::sample_line(s) << "\n";
    out << ipm::live::point_line(pt) << "\n";
  }
  const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(path);
  EXPECT_EQ(ts.command, "./rt \"app\"");
  EXPECT_DOUBLE_EQ(ts.interval, 0.5);
  ASSERT_EQ(ts.samples.size(), 1u);
  const ipm::live::Sample& rs = ts.samples[0];
  EXPECT_EQ(rs.rank, 3);
  EXPECT_EQ(rs.seq, 7u);
  EXPECT_EQ(rs.t0, 1.25);
  EXPECT_EQ(rs.t1, s.t1);  // bit-exact through %.17g
  ASSERT_EQ(rs.regions.size(), 2u);
  EXPECT_EQ(rs.regions[1], s.regions[1]);
  ASSERT_EQ(rs.deltas.size(), 1u);
  EXPECT_EQ(rs.deltas[0].name_str, d.name_str);
  EXPECT_EQ(rs.deltas[0].region, 1u);
  EXPECT_EQ(rs.deltas[0].select, -2);
  EXPECT_EQ(rs.deltas[0].dcount, 5u);
  EXPECT_EQ(rs.deltas[0].dbytes, 4096u);
  EXPECT_EQ(rs.deltas[0].dtsum, d.dtsum);
  EXPECT_EQ(rs.deltas[0].dflops, 123.5);
  ASSERT_EQ(ts.points.size(), 1u);
  EXPECT_EQ(ts.points[0].k, 2u);
  EXPECT_EQ(ts.points[0].ranks, 4);
  EXPECT_EQ(ts.points[0].ranks_live, 8);
  EXPECT_EQ(ts.points[0].devents, 99u);
  EXPECT_DOUBLE_EQ(ts.points[0].mpi_s, 0.25);
  ASSERT_EQ(ts.points[0].region_flops.size(), 1u);
  EXPECT_EQ(ts.points[0].region_flops[0].first, "ipm_global");

  std::ostringstream report;
  ipm::live::write_timeseries_report(report, ts);
  EXPECT_NE(report.str().find("time series"), std::string::npos);
  EXPECT_NE(report.str().find("gflop/s"), std::string::npos);
}

TEST(LiveSnapshot, FlopsModelMatchesOperandSizes) {
  // BLAS-3: bytes = n*n*esize, flops = 2*n^3 (square-operand model).
  EXPECT_DOUBLE_EQ(ipm::live::flops_per_call("cublasDgemm", 8 * 64 * 64),
                   2.0 * 64 * 64 * 64);
  EXPECT_DOUBLE_EQ(ipm::live::flops_per_call("cublasSgemm", 4 * 32 * 32),
                   2.0 * 32 * 32 * 32);
  // BLAS-1: bytes = n*esize, flops = 2n (real) / 8n (complex).
  EXPECT_DOUBLE_EQ(ipm::live::flops_per_call("cublasDaxpy", 8 * 1000), 2.0 * 1000);
  EXPECT_DOUBLE_EQ(ipm::live::flops_per_call("cublasZaxpy", 16 * 1000), 8.0 * 1000);
  // Transfers and queries do no arithmetic.
  EXPECT_DOUBLE_EQ(ipm::live::flops_per_call("cublasSetMatrix", 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(ipm::live::flops_per_call("cublasGetVector", 4096), 0.0);
  EXPECT_DOUBLE_EQ(ipm::live::flops_per_call("cudaMemcpy(H2D)", 1 << 20), 0.0);
  // FFT work is attributed at plan time: 5 n log2 n per transform.
  EXPECT_DOUBLE_EQ(ipm::live::flops_per_call("cufftPlan1d", 1024),
                   5.0 * 1024 * 10);
  EXPECT_DOUBLE_EQ(ipm::live::flops_per_call("cufftExecC2C", 0), 0.0);
}

// --- adaptive snapshot cadence -----------------------------------------------

TEST(LiveSnapshot, AdaptiveCadenceWidensUnderPressureAndRecovers) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.snapshot_interval = 0.25;
  cfg.snapshot_log2_samples = 2;  // 4-slot channel: pressure is certain
  cfg.timeseries_path = ::testing::TempDir() + "/live_adaptive_timeseries.jsonl";
  ipm::job_begin(cfg, "./live_adaptive");
  ipm::live::collector_stop();
  ipm::Monitor* mon = ipm::monitor();
  ASSERT_NE(mon, nullptr);
  EXPECT_EQ(ipm::live::backoff_factor(*mon), 1u);
  const ipm::PreparedKey n = ipm::prepare_key("adaptive_evt");
  std::vector<ipm::live::Sample> samples;
  // Nobody drains: occupancy crosses the 3/4 high-water mark, publishes get
  // refused, and the grid multiplier doubles to its x64 cap.
  for (int i = 0; i < 12; ++i) {
    simx::host_compute(0.5);
    mon->record(n, 0, 0.0, 1e-4);
    ipm::live::capture(*mon);
  }
  EXPECT_EQ(ipm::live::backoff_factor(*mon), 64u);
  // Recovery: with a consumer draining, occupancy sits at the low-water
  // mark and the multiplier halves back to the base grid.
  for (int i = 0; i < 12; ++i) {
    for (ipm::live::Sample& s : ipm::live::drain(*mon)) samples.push_back(std::move(s));
    simx::host_compute(0.5);
    mon->record(n, 0, 0.0, 1e-4);
    ipm::live::capture(*mon);
  }
  EXPECT_EQ(ipm::live::backoff_factor(*mon), 1u);
  // Cadence adaptation changes only the sampling grid: the refused windows
  // coalesced into later deltas, so conservation is untouched.
  ipm::live::final_flush(*mon);
  for (ipm::live::Sample& s : ipm::live::drain(*mon)) samples.push_back(std::move(s));
  const ipm::RankProfile p = mon->snapshot();
  expect_conserved(p, fold_samples(samples));
  ipm::job_end();

  // With IPM_SNAPSHOT_ADAPTIVE=0 the multiplier never moves.
  simx::reset_default_context();
  cfg.snapshot_adaptive = false;
  ipm::job_begin(cfg, "./live_fixed");
  ipm::live::collector_stop();
  mon = ipm::monitor();
  for (int i = 0; i < 12; ++i) {
    simx::host_compute(0.5);
    mon->record(n, 0, 0.0, 1e-4);
    ipm::live::capture(*mon);
  }
  EXPECT_EQ(ipm::live::backoff_factor(*mon), 1u);
  ipm::job_end();
}

// --- device-counter ground truth ---------------------------------------------

/// The operand-size GFLOP estimate (flops_per_call) validated against the
/// simulator's exact hardware counters: a square-DGEMM-shaped kernel whose
/// modelled flops equal the estimate makes the ratio exactly 1, and both
/// streams fold bit-exactly into samples and ClusterPoints.
TEST(LiveSnapshot, DeviceCounterGroundTruthMatchesFlopsEstimate) {
  simx::reset_default_context();
  cusim::reset();
  ipm::Config cfg;
  cfg.snapshot_interval = 0.25;
  cfg.timeseries_path = ::testing::TempDir() + "/live_dev_timeseries.jsonl";
  ipm::job_begin(cfg, "./live_dev");
  ipm::live::collector_stop();
  ipm::Monitor* mon = ipm::monitor();
  ASSERT_NE(mon, nullptr);

  constexpr int kN = 64;
  constexpr double kFlopsPerCall = 2.0 * kN * kN * kN;  // square dgemm 2mnk
  const cusim::KernelDef gemm{
      "dgemm_sim",
      {.flops_per_thread = kFlopsPerCall, .dram_bytes_per_thread = 3.0 * 8 * kN * kN},
      nullptr};
  const ipm::PreparedKey name = ipm::prepare_key("cublasDgemm");
  std::vector<ipm::live::Sample> samples;
  constexpr int kCalls = 24;
  for (int i = 0; i < kCalls; ++i) {
    // The wrapped launch also creates the ipm_cuda layer state, which
    // registers the cusim-backed GpuProbe (one rank per node reports).
    cusim::launch(gemm, dim3{1, 1, 1}, dim3{1, 1, 1}, [](const cusim::LaunchGeom&) {});
    simx::host_compute(0.1);
    mon->record(name, 0, 0.0, 1e-3, 8 * kN * kN, 0);
    if (i % 5 == 4) {
      ipm::live::capture(*mon);
      for (ipm::live::Sample& s : ipm::live::drain(*mon)) samples.push_back(std::move(s));
    }
  }
  ASSERT_NE(ipm::live::gpu_probe(), nullptr);  // ipm_cuda layer registered it
  ipm::live::final_flush(*mon);
  for (ipm::live::Sample& s : ipm::live::drain(*mon)) samples.push_back(std::move(s));

  double dev_flops = 0.0;
  double dev_bytes = 0.0;
  double est_flops = 0.0;
  for (const ipm::live::Sample& s : samples) {
    dev_flops += s.ddev_flops;
    dev_bytes += s.ddev_bytes;
    for (const ipm::live::KeyDelta& d : s.deltas) est_flops += d.dflops;
  }
  const cusim::DeviceCounters truth = cusim::device_counters(0, 0);
  EXPECT_GT(truth.flops, 0.0);
  // Conserved deltas fold back to the cumulative counters bit-exactly.
  EXPECT_EQ(dev_flops, truth.flops);
  EXPECT_EQ(dev_bytes, truth.dram_bytes);
  // Estimate vs ground truth: equal by construction of the kernel model.
  ASSERT_GT(dev_flops, 0.0);
  EXPECT_DOUBLE_EQ(est_flops / dev_flops, 1.0);

  // Both streams reach the merged ClusterPoints (dev_flops/dev_bytes).
  ipm::live::JobMerger merger(cfg.snapshot_interval);
  for (const ipm::live::Sample& s : samples) merger.add_sample(s);
  merger.finalize_rank(samples.front().rank);
  std::vector<ipm::live::ClusterPoint> pts;
  merger.emit_all(1, pts);
  double pt_dev_flops = 0.0;
  double pt_est_flops = 0.0;
  for (const ipm::live::ClusterPoint& p : pts) {
    pt_dev_flops += p.dev_flops;
    pt_est_flops += p.flops;
  }
  EXPECT_EQ(pt_dev_flops, dev_flops);
  EXPECT_DOUBLE_EQ(pt_est_flops / pt_dev_flops, 1.0);
  ipm::job_end();
  cusim::reset();
}

/// The CUDA layer's device-counter probe ends with the job that installed
/// it: a later live job in the same process that makes no CUDA call runs no
/// probe and reports no device counters, although the simulator still
/// holds the first job's kernels.
TEST(LiveSnapshot, GpuProbeEndsWithItsJob) {
  simx::reset_default_context();
  cusim::reset();
  ipm::Config cfg;
  cfg.snapshot_interval = 0.25;
  cfg.timeseries_path = ::testing::TempDir() + "/live_probe_cuda_timeseries.jsonl";
  ipm::job_begin(cfg, "./probe_cuda");
  const cusim::KernelDef kernel{"probe_kernel", {.flops_per_thread = 10.0}, nullptr};
  for (int i = 0; i < 4; ++i) {
    cusim::launch(kernel, dim3{1, 1, 1}, dim3{1, 1, 1}, [](const cusim::LaunchGeom&) {});
    simx::host_compute(0.1);
  }
  ipm::job_end();
  ASSERT_NE(ipm::live::gpu_probe(), nullptr);
  ASSERT_GT(cusim::device_counters(0, 0).flops, 0.0);

  simx::reset_default_context();
  cfg.timeseries_path = ::testing::TempDir() + "/live_probe_mpi_timeseries.jsonl";
  ipm::job_begin(cfg, "./probe_mpi");
  EXPECT_EQ(ipm::live::gpu_probe(), nullptr);
  mpisim::ClusterConfig cluster;
  cluster.ranks = 2;
  cluster.ranks_per_node = 2;
  mpisim::run_cluster(cluster, [](int rank) {
    MPI_Init(nullptr, nullptr);
    for (int i = 0; i < 8; ++i) {
      simx::host_compute(0.1);
      double x = static_cast<double>(rank);
      double y = 0;
      MPI_Allreduce(&x, &y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    }
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();
  EXPECT_EQ(ipm::live::gpu_probe(), nullptr);
  const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(job.timeseries_file);
  ASSERT_FALSE(ts.samples.empty());
  for (const ipm::live::Sample& s : ts.samples) {
    EXPECT_EQ(s.ddev_flops, 0.0) << "rank " << s.rank << " seq " << s.seq;
    EXPECT_EQ(s.ddev_bytes, 0.0) << "rank " << s.rank << " seq " << s.seq;
  }
  cusim::reset();
}

/// Ranks on nodes the topology lacks share its devices (the simulator wraps
/// their nodes onto it), so they report no device counters of their own:
/// four ranks, one per node, on the default one-node topology count each
/// of their 32 kernels once, through node 0's rank.  Nodes and GPUs outside
/// the topology have no counters.
TEST(LiveSnapshot, RanksBeyondTheTopologyCountEachDeviceOnce) {
  simx::reset_default_context();
  cusim::reset();
  ipm::Config cfg;
  cfg.snapshot_interval = 0.25;
  cfg.timeseries_path = ::testing::TempDir() + "/live_wrapped_dev_timeseries.jsonl";
  ipm::job_begin(cfg, "./wrapped_dev");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 4;
  cluster.ranks_per_node = 1;
  mpisim::run_cluster(cluster, [](int) {
    static const cusim::KernelDef kernel{
        "wrapped_kernel", {.flops_per_thread = 10.0}, nullptr};
    MPI_Init(nullptr, nullptr);
    for (int i = 0; i < 8; ++i) {
      cusim::launch(kernel, dim3{1, 1, 1}, dim3{1, 1, 1},
                    [](const cusim::LaunchGeom&) {});
      simx::host_compute(0.1);
    }
    cudaDeviceSynchronize();
    MPI_Barrier(MPI_COMM_WORLD);  // every kernel counted before any rank finalizes
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();
  const cusim::DeviceCounters truth = cusim::device_counters(0, 0);
  EXPECT_EQ(truth.kernels, 32u);
  const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(job.timeseries_file);
  double dev_flops = 0.0;
  for (const ipm::live::Sample& s : ts.samples) {
    dev_flops += s.ddev_flops;
    if (s.rank != 0) {
      EXPECT_EQ(s.ddev_flops, 0.0) << "rank " << s.rank;
    }
  }
  EXPECT_EQ(dev_flops, truth.flops);
  EXPECT_EQ(truth.flops, 320.0);
  EXPECT_THROW((void)cusim::device_counters(1, 0), std::out_of_range);
  EXPECT_THROW((void)cusim::device_counters(0, 1), std::out_of_range);
  EXPECT_THROW((void)cusim::device_counters(-1, 0), std::out_of_range);
  cusim::reset();
}

/// fold_sample classifies each delta once and the merger adds the fold:
/// every family lands in its own ClusterPoint field, a name of no family
/// counts only as an event, flops go to their region by name, and a rank
/// with two samples in one interval counts once.
TEST(LiveSnapshot, MergerAddsEachFamilyToItsField) {
  struct Named {
    const char* name;
    double dtsum;
    std::uint64_t dbytes;
  };
  static constexpr Named kDeltas[] = {
      {"MPI_Allreduce", 1.0, 8},       {"cudaMemcpy(H2D)", 2.0, 16},
      {"cuLaunchKernel", 0.5, 32},     {"cublasXtDgemm", 4.0, 64},
      {"cufftPlan3d", 8.0, 128},       {"@CUDA_EXEC:square", 16.0, 0},
      {"@CUDA_HOST_IDLE", 32.0, 0},    {"cu", 64.0, 256},
      {"MPI", 128.0, 512},             {"user_fn", 256.0, 1024},
  };
  ipm::live::Sample s;
  s.rank = 3;
  s.t1 = 0.25;
  s.regions = {"ipm_global", "solver"};
  for (const Named& n : kDeltas) {
    ipm::live::KeyDelta d;
    d.name_str = n.name;
    d.dcount = 1;
    d.dbytes = n.dbytes;
    d.dtsum = n.dtsum;
    s.deltas.push_back(d);
  }
  s.deltas[3].region = 1;      // cublasXtDgemm in "solver"
  s.deltas[3].dflops = 1000.0;
  s.deltas[4].region = 7;      // cufftPlan3d in a region the sample does not name
  s.deltas[4].dflops = 500.0;

  ipm::live::JobMerger merger(1.0);
  merger.add_sample(s);
  s.seq = 1;
  s.t1 = 0.5;
  merger.add_sample(s);  // rank 3 again, same interval
  s.rank = 1;
  s.seq = 0;
  merger.add_sample(s);
  std::vector<ipm::live::ClusterPoint> pts;
  merger.emit_all(2, pts);
  ASSERT_EQ(pts.size(), 1u);
  const ipm::live::ClusterPoint& p = pts[0];
  EXPECT_EQ(p.ranks, 2);
  EXPECT_EQ(p.samples, 3u);
  EXPECT_EQ(p.devents, 30u);
  EXPECT_EQ(p.mpi_s, 3.0);
  EXPECT_EQ(p.cuda_s, 7.5);  // cudaMemcpy + cuLaunchKernel
  EXPECT_EQ(p.blas_s, 12.0);
  EXPECT_EQ(p.fft_s, 24.0);
  EXPECT_EQ(p.gpu_s, 48.0);
  EXPECT_EQ(p.idle_s, 96.0);
  EXPECT_EQ(p.mpi_bytes, 24u);
  EXPECT_EQ(p.cuda_bytes, 144u);
  EXPECT_EQ(p.flops, 4500.0);
  const std::vector<std::pair<std::string, double>> regions = {{"region7", 1500.0},
                                                               {"solver", 3000.0}};
  EXPECT_EQ(p.region_flops, regions);
}

TEST(LiveSnapshot, SparklineScalesToPeak) {
  EXPECT_EQ(ipm::live::sparkline({}), "");
  const std::string line = ipm::live::sparkline({0.0, 1.0, 2.0, 4.0});
  ASSERT_EQ(line.size(), 4u);
  EXPECT_EQ(line.front(), ' ');   // zero
  EXPECT_EQ(line.back(), '@');    // peak
  EXPECT_EQ(ipm::live::sparkline({0.0, 0.0}), "  ");  // all-zero series
}

}  // namespace
