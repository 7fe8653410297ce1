// Unit tests for the IPM core monitor: lifecycle, regions, derived-metric
// classification, banner structure, and XML log round-tripping.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include <unistd.h>

#include "ipm/report.hpp"
#include "simcommon/clock.hpp"
#include "simcommon/rng.hpp"

namespace {

/// Fresh monitoring job for each test.
ipm::Monitor& fresh(ipm::Config cfg = {}, const std::string& command = "./test") {
  simx::reset_default_context();
  ipm::job_begin(cfg, command);
  ipm::Monitor* m = ipm::monitor();
  EXPECT_NE(m, nullptr);
  return *m;
}

TEST(MonitorCore, DisabledJobYieldsNoMonitor) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.enabled = false;
  ipm::job_begin(cfg, "./off");
  EXPECT_EQ(ipm::monitor(), nullptr);
  const ipm::JobProfile job = ipm::job_end();
  EXPECT_EQ(job.nranks, 0);
}

TEST(MonitorCore, UpdateAggregatesIntoSnapshot) {
  ipm::Monitor& m = fresh();
  const ipm::PreparedKey name = ipm::prepare_key("MPI_Send");
  m.record(name, 0, 0.0, 0.25, 1024, 1);
  m.record(name, 0, 0.0, 0.75, 1024, 1);
  m.record(name, 0, 0.0, 0.10, 2048, 1);  // other byte size merges in the snapshot
  const ipm::RankProfile p = ipm::rank_finalize();
  ipm::job_end();
  ASSERT_EQ(p.events.size(), 1u);
  const ipm::EventRecord& e = p.events[0];
  EXPECT_EQ(e.name, "MPI_Send");
  EXPECT_EQ(e.count, 3u);
  EXPECT_DOUBLE_EQ(e.tsum, 1.10);
  EXPECT_DOUBLE_EQ(e.tmin, 0.10);
  EXPECT_DOUBLE_EQ(e.tmax, 0.75);
  EXPECT_EQ(e.bytes, 1024u * 2 + 2048u);
}

// Regression oracle for the tagged SoA hash table + staged hashing: a
// randomized event stream, alternating a key prepared per call from the
// NameId with one prepared once, must aggregate exactly like a naive
// std::map keyed on the merged snapshot signature (name, region, select).
TEST(MonitorCore, RandomStreamMatchesMapOracle) {
  ipm::Config cfg;
  cfg.table_log2_slots = 6;  // 64 slots — small, but the stream stays under it
  ipm::Monitor& m = fresh(cfg);

  const std::array<const char*, 4> names = {"oracle_MPI_Send", "oracle_MPI_Recv",
                                            "oracle_memcpy", "oracle_gemm"};
  std::array<ipm::NameId, 4> ids{};
  std::array<ipm::PreparedKey, 4> prepared{};
  for (std::size_t i = 0; i < names.size(); ++i) {
    ids[i] = ipm::intern_name(names[i]);
    prepared[i] = ipm::prepare_key(ids[i]);
  }

  struct Agg {
    std::uint64_t count = 0;
    double tsum = 0.0, tmin = 0.0, tmax = 0.0;
    std::uint64_t bytes = 0;
  };
  std::map<std::tuple<std::string, std::uint32_t, std::int32_t>, Agg> oracle;

  simx::Xoshiro256 rng(20260806);
  for (int i = 0; i < 5000; ++i) {
    const std::size_t which = rng.uniform_u64(names.size());
    const std::int32_t select = static_cast<std::int32_t>(rng.uniform_u64(3));
    const std::uint64_t bytes = (1 + rng.uniform_u64(4)) * 4096;
    const double dur = static_cast<double>(1 + rng.uniform_u64(1000)) * 1e-6;
    if (i % 2 == 0) {
      m.record(ipm::prepare_key(ids[which]), 0, 0.0, dur, bytes, select);
    } else {
      m.record(prepared[which], 0, 0.0, dur, bytes, select);
    }
    Agg& a = oracle[{names[which], 0, select}];
    if (a.count == 0) {
      a.tmin = a.tmax = dur;
    } else {
      a.tmin = std::min(a.tmin, dur);
      a.tmax = std::max(a.tmax, dur);
    }
    a.count += 1;
    a.tsum += dur;
    a.bytes += bytes;
  }

  const ipm::RankProfile p = ipm::rank_finalize();
  ipm::job_end();
  EXPECT_EQ(p.table_overflow, 0u);
  ASSERT_EQ(p.events.size(), oracle.size());
  for (const ipm::EventRecord& e : p.events) {
    const auto it = oracle.find({e.name, e.region, e.select});
    ASSERT_NE(it, oracle.end()) << e.name << " region=" << e.region
                                << " select=" << e.select;
    const Agg& a = it->second;
    EXPECT_EQ(e.count, a.count) << e.name;
    EXPECT_EQ(e.bytes, a.bytes) << e.name;
    EXPECT_DOUBLE_EQ(e.tmin, a.tmin) << e.name;
    EXPECT_DOUBLE_EQ(e.tmax, a.tmax) << e.name;
    // Summation order differs between the per-slot table and the oracle.
    EXPECT_NEAR(e.tsum, a.tsum, 1e-9 * a.tsum) << e.name;
  }
}

// Rows with equal tsum sort by name, not by NameId: rank threads race to
// intern names, so NameId order differs between runs of the same binary.
TEST(MonitorCore, EqualTsumRowsSortByName) {
  ipm::Monitor& m = fresh();
  const ipm::PreparedKey b = ipm::prepare_key("MonitorCoreTie_b");  // interned first
  const ipm::PreparedKey a = ipm::prepare_key("MonitorCoreTie_a");
  m.record(b, 0, 0.0, 0.5);
  m.record(a, 0, 0.0, 0.5);
  const ipm::RankProfile p = ipm::rank_finalize();
  ipm::job_end();
  ASSERT_EQ(p.events.size(), 2u);
  EXPECT_EQ(p.events[0].name, "MonitorCoreTie_a");
  EXPECT_EQ(p.events[1].name, "MonitorCoreTie_b");
}

TEST(MonitorCore, RegionsAttributeEvents) {
  ipm::Monitor& m = fresh();
  const ipm::PreparedKey name = ipm::prepare_key("cudaMemcpy(D2H)");
  m.record(name, m.current_region(), 0.0, 1.0);
  m.region_begin("solver");
  EXPECT_EQ(m.current_region(), 1u);
  m.record(name, m.current_region(), 0.0, 2.0);
  m.region_begin("solver");  // same name reuses the id
  EXPECT_EQ(m.current_region(), 1u);
  m.region_end();
  m.region_end();
  EXPECT_EQ(m.current_region(), 0u);
  EXPECT_THROW(m.region_end(), std::logic_error);
  const ipm::RankProfile p = ipm::rank_finalize();
  ipm::job_end();
  ASSERT_EQ(p.events.size(), 2u);  // one per region
  ASSERT_EQ(p.regions.size(), 2u);
  EXPECT_EQ(p.regions[1], "solver");
}

TEST(MonitorCore, FamilyClassification) {
  ipm::Monitor& m = fresh();
  m.record(ipm::prepare_key("MPI_Allreduce"), 0, 0.0, 1.0);
  m.record(ipm::prepare_key("cudaMemcpy(H2D)"), 0, 0.0, 2.0);
  m.record(ipm::prepare_key("cuMemcpyDtoH"), 0, 0.0, 0.5);
  m.record(ipm::prepare_key("cublasDgemm"), 0, 0.0, 4.0);
  m.record(ipm::prepare_key("cufftExecZ2Z"), 0, 0.0, 8.0);
  m.record(ipm::prepare_key("@CUDA_EXEC:square"), 0, 0.0, 16.0);
  m.record(ipm::prepare_key("@CUDA_HOST_IDLE"), 0, 0.0, 32.0);
  const ipm::RankProfile p = ipm::rank_finalize();
  ipm::job_end();
  EXPECT_DOUBLE_EQ(p.time_in("MPI"), 1.0);
  EXPECT_DOUBLE_EQ(p.time_in("CUDA"), 2.5);  // cuda* and cu[A-Z]*, not cublas/cufft
  EXPECT_DOUBLE_EQ(p.time_in("CUBLAS"), 4.0);
  EXPECT_DOUBLE_EQ(p.time_in("CUFFT"), 8.0);
  EXPECT_DOUBLE_EQ(p.time_in("GPU"), 16.0);
  EXPECT_DOUBLE_EQ(p.time_in("IDLE"), 32.0);
  EXPECT_EQ(p.calls_in("MPI"), 1u);
  EXPECT_DOUBLE_EQ(p.time_in("BLAS"), 0.0);  // not a family label
  // The classifier's boundaries: a bare prefix or an unprefixed name is in
  // no family, and cu[A-Z]* is CUDA unless it is CUBLAS or CUFFT.
  EXPECT_EQ(ipm::family_of("cu"), ipm::Family::kNone);
  EXPECT_EQ(ipm::family_of("MPI"), ipm::Family::kNone);
  EXPECT_EQ(ipm::family_of("user_fn"), ipm::Family::kNone);
  EXPECT_EQ(ipm::family_of("cudaMalloc"), ipm::Family::kCuda);
  EXPECT_EQ(ipm::family_of("cuLaunchKernel"), ipm::Family::kCuda);
  EXPECT_EQ(ipm::family_of("cublasXtDgemm"), ipm::Family::kCublas);
  EXPECT_EQ(ipm::family_of("cufftPlan3d"), ipm::Family::kCufft);
  EXPECT_EQ(ipm::family_of("@CUDA_EXEC_STRM00"), ipm::Family::kGpu);
  EXPECT_EQ(ipm::family_of("@CUDA_HOST_IDLE"), ipm::Family::kIdle);
}

TEST(MonitorCore, MonitorChargePerturbsVirtualTime) {
  ipm::Config cfg;
  cfg.monitor_charge = 0.001;
  ipm::Monitor& m = fresh(cfg);
  const double before = simx::virtual_now();
  for (int i = 0; i < 10; ++i) m.record(ipm::prepare_key("x_charge"), 0, 0.0, 1e-6);
  EXPECT_NEAR(simx::virtual_now() - before, 0.010, 1e-12);
  ipm::job_end();
}

TEST(MonitorCore, TimedEventRecordsDuration) {
  fresh();
  const ipm::PreparedKey name = ipm::prepare_key("timed_thing");
  const int ret = ipm::timed_event(name, 42, 0, ipm::ErrDomain::kNone, [] {
    simx::host_compute(0.5);
    return 7;
  });
  EXPECT_EQ(ret, 7);
  const ipm::RankProfile p = ipm::rank_finalize();
  ipm::job_end();
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_NEAR(p.events[0].tsum, 0.5, 1e-9);
  EXPECT_EQ(p.events[0].bytes, 42u);
}

TEST(MonitorCore, ConfigFromEnv) {
  setenv("IPM_REPORT", "none", 1);
  setenv("IPM_KERNEL_TIMING", "0", 1);
  setenv("IPM_HOST_IDLE", "1", 1);
  setenv("IPM_KTT_POLICY", "every", 1);
  setenv("IPM_HASH_BITS", "10", 1);
  setenv("IPM_LOG", "/tmp/ipm_test.xml", 1);
  const ipm::Config cfg = ipm::config_from_env();
  EXPECT_FALSE(cfg.banner_to_stdout);
  EXPECT_FALSE(cfg.kernel_timing);
  EXPECT_TRUE(cfg.host_idle);
  EXPECT_EQ(cfg.ktt_policy, ipm::KttPolicy::kOnEveryCall);
  EXPECT_EQ(cfg.table_log2_slots, 10u);
  EXPECT_EQ(cfg.log_path, "/tmp/ipm_test.xml");
  setenv("IPM_KTT_POLICY", "bogus", 1);
  EXPECT_THROW((void)ipm::config_from_env(), std::runtime_error);
  unsetenv("IPM_REPORT");
  unsetenv("IPM_KERNEL_TIMING");
  unsetenv("IPM_HOST_IDLE");
  unsetenv("IPM_KTT_POLICY");
  unsetenv("IPM_HASH_BITS");
  unsetenv("IPM_LOG");

  // Numeric variables: a bad value throws an error that names the variable;
  // the ends of each range are taken as they are.
  const auto rejected = [](const char* key, const char* value) {
    setenv(key, value, 1);
    std::string what;
    try {
      (void)ipm::config_from_env();
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    unsetenv(key);
    return what.find(key) != std::string::npos &&
           what.find(std::string("'") + value + "'") != std::string::npos;
  };
  for (const char* key : {"IPM_SNAPSHOT", "IPM_AGG_FLUSH_TIMEOUT"}) {
    for (const char* bad : {"nan", "inf", "-inf", "-1", "-0.5", "abc", "1s", ""}) {
      EXPECT_TRUE(rejected(key, bad)) << key << "=" << bad;
    }
  }
  for (const char* key : {"IPM_HASH_BITS", "IPM_TRACE_RECORDS", "IPM_SNAPSHOT_SAMPLES",
                          "IPM_AGG_CHAOS_KILL_EVERY"}) {
    for (const char* bad : {"-1", "4294967296", "99999999999999999999", "1.5", "x", ""}) {
      EXPECT_TRUE(rejected(key, bad)) << key << "=" << bad;
    }
  }
  setenv("IPM_SNAPSHOT", "0", 1);
  setenv("IPM_AGG_FLUSH_TIMEOUT", "1e300", 1);
  setenv("IPM_HASH_BITS", "0", 1);
  setenv("IPM_TRACE_RECORDS", "4294967295", 1);
  setenv("IPM_SNAPSHOT_SAMPLES", "4294967295", 1);
  setenv("IPM_AGG_CHAOS_KILL_EVERY", "0", 1);
  const ipm::Config edge = ipm::config_from_env();
  EXPECT_EQ(edge.snapshot_interval, 0.0);
  EXPECT_EQ(edge.agg_flush_timeout, 1e300);
  EXPECT_EQ(edge.table_log2_slots, 0u);
  EXPECT_EQ(edge.trace_log2_records, 4294967295u);
  EXPECT_EQ(edge.snapshot_log2_samples, 4294967295u);
  EXPECT_EQ(edge.agg_chaos_kill_every, 0u);
  for (const char* key : {"IPM_SNAPSHOT", "IPM_AGG_FLUSH_TIMEOUT", "IPM_HASH_BITS",
                          "IPM_TRACE_RECORDS", "IPM_SNAPSHOT_SAMPLES",
                          "IPM_AGG_CHAOS_KILL_EVERY"}) {
    unsetenv(key);
  }
}

ipm::JobProfile sample_job() {
  ipm::Monitor& m = fresh({}, "./sample_app");
  m.set_mem_bytes(1ULL << 30);
  m.record(ipm::prepare_key("MPI_Send"), 0, 0.0, 1.0, 4096, 2);
  m.record(ipm::prepare_key("cudaMemcpy(D2H)"), 0, 0.0, 2.5, 800000, 0);
  m.record(ipm::prepare_key("@CUDA_EXEC:square"), 0, 0.0, 2.4);
  m.region_begin("io");
  m.record(ipm::prepare_key("MPI_Send"), m.current_region(), 0.0, 0.5, 64, 1);
  m.region_end();
  simx::host_compute(10.0);
  ipm::rank_finalize();
  return ipm::job_end();
}

/// The XML log is the run's result: a write the disk refuses throws an
/// error naming the path instead of leaving a truncated file behind a
/// successful return.
TEST(Report, XmlLogOnAFullDiskThrows) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "/dev/full not available";
  const ipm::JobProfile job = sample_job();
  const std::string path = ::testing::TempDir() + "/full_disk_profile.xml";
  std::filesystem::remove(path);
  std::filesystem::create_symlink("/dev/full", path);
  std::string what;
  try {
    ipm::write_xml_file(path, job);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  std::filesystem::remove(path);
  EXPECT_NE(what.find(path), std::string::npos) << "no error naming the log: " << what;
}

TEST(Report, XmlRoundTripPreservesEverything) {
  const ipm::JobProfile job = sample_job();
  std::ostringstream ss;
  ipm::write_xml(ss, job);
  const ipm::JobProfile back = ipm::parse_xml(ss.str());
  ASSERT_EQ(back.nranks, job.nranks);
  EXPECT_EQ(back.command, job.command);
  ASSERT_EQ(back.ranks.size(), job.ranks.size());
  const ipm::RankProfile& a = job.ranks[0];
  const ipm::RankProfile& b = back.ranks[0];
  EXPECT_EQ(a.hostname, b.hostname);
  EXPECT_EQ(a.mem_bytes, b.mem_bytes);
  EXPECT_NEAR(a.wallclock(), b.wallclock(), 1e-6);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].name, b.events[i].name);
    EXPECT_EQ(a.events[i].count, b.events[i].count);
    EXPECT_NEAR(a.events[i].tsum, b.events[i].tsum, 1e-9);
    EXPECT_EQ(a.events[i].bytes, b.events[i].bytes);
    EXPECT_EQ(a.events[i].region, b.events[i].region);
    EXPECT_EQ(a.events[i].select, b.events[i].select);
  }
  EXPECT_EQ(b.regions.size(), 2u);
  EXPECT_EQ(b.regions[1], "io");
}

TEST(Report, BannerContainsStructure) {
  const ipm::JobProfile job = sample_job();
  const std::string banner = ipm::banner_string(job);
  EXPECT_NE(banner.find("##IPMv2.0"), std::string::npos);
  EXPECT_NE(banner.find("./sample_app"), std::string::npos);
  EXPECT_NE(banner.find("cudaMemcpy(D2H)"), std::string::npos);
  EXPECT_NE(banner.find("@CUDA_EXEC_STRM00"), std::string::npos);
  EXPECT_NE(banner.find("MPI_Send"), std::string::npos);
}

TEST(Report, FunctionTableSortedAndGrouped) {
  const ipm::JobProfile job = sample_job();
  const std::vector<ipm::FuncRow> rows = ipm::function_table(job);
  ASSERT_GE(rows.size(), 3u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].tsum, rows[i].tsum) << "not sorted at " << i;
  }
  // MPI_Send rows from both regions merge into one.
  int send_rows = 0;
  for (const auto& r : rows) {
    if (r.name == "MPI_Send") {
      ++send_rows;
      EXPECT_EQ(r.count, 2u);
      EXPECT_DOUBLE_EQ(r.tsum, 1.5);
    }
  }
  EXPECT_EQ(send_rows, 1);
}

TEST(Report, PerRankTimes) {
  const ipm::JobProfile job = sample_job();
  const auto m = ipm::per_rank_times(job, {"@CUDA_EXEC:square", "absent"});
  ASSERT_EQ(m.size(), 2u);
  ASSERT_EQ(m[0].size(), 1u);
  EXPECT_DOUBLE_EQ(m[0][0], 2.4);
  EXPECT_DOUBLE_EQ(m[1][0], 0.0);
}

TEST(Report, ParseRejectsNonIpmXml) {
  EXPECT_THROW((void)ipm::parse_xml("<notipm/>"), std::runtime_error);
  EXPECT_THROW((void)ipm::parse_xml_file("/nonexistent/file.xml"), std::runtime_error);
}

}  // namespace

#include "ipm/ipm.h"

namespace {

TEST(CApi, RegionsAndMemHint) {
  simx::reset_default_context();
  ipm::job_begin(ipm::Config{}, "./capi");
  ipm_region_begin("step");
  ipm::Monitor* mon = ipm::monitor();
  EXPECT_EQ(mon->current_region(), 1u);
  mon->record(ipm::prepare_key("work_in_region"), mon->current_region(), 0.0, 0.5);
  ipm_region_end();
  EXPECT_EQ(ipm::monitor()->current_region(), 0u);
  ipm_region_begin(nullptr);  // tolerated, named "(unnamed)"
  ipm_region_end();
  ipm_set_mem_bytes(123456);
  EXPECT_GE(ipm_gettime(), 0.0);
  const ipm::RankProfile p = ipm::rank_finalize();
  ipm::job_end();
  EXPECT_EQ(p.mem_bytes, 123456u);
  ASSERT_GE(p.regions.size(), 2u);
  EXPECT_EQ(p.regions[1], "step");
  bool found = false;
  for (const auto& e : p.events) {
    if (e.name == "work_in_region") {
      EXPECT_EQ(e.region, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CApi, NoMonitorIsSafe) {
  simx::reset_default_context();
  ipm::Config off;
  off.enabled = false;
  ipm::job_begin(off, "./capi_off");
  ipm_region_begin("x");  // all no-ops without a monitor
  ipm_region_end();
  ipm_set_mem_bytes(1);
  ipm::job_end();
}

}  // namespace
