// Trace ring semantics (trace.hpp): bounded wait-free appends, drop
// accounting at saturation, file round-trips, and the end-to-end contract
// that a saturated ring degrades the *timeline* only — hash-table profiles,
// XML logs, and banners stay complete, with the drops reported.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cfloat>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "cudasim/control.hpp"
#include "ipm/report.hpp"
#include "ipm/trace.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"

namespace {

ipm::TraceRecord rec(double t0, double dur, ipm::NameId name) {
  ipm::TraceRecord r;
  r.t0 = t0;
  r.dur = dur;
  r.name = name;
  return r;
}

TEST(TraceRing, PushAppendsInOrder) {
  ipm::TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 16u);
  EXPECT_EQ(ring.size(), 0u);
  const ipm::NameId name = ipm::intern_name("ring_event");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ring.push(rec(i * 1.0, 0.5, name)));
  }
  ASSERT_EQ(ring.size(), 10u);
  EXPECT_EQ(ring.drops(), 0u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(ring[i].t0, static_cast<double>(i));
    EXPECT_EQ(ring[i].name, name);
  }
}

TEST(TraceRing, SaturationDropsNewRecordsAndCounts) {
  ipm::TraceRing ring(4);  // 16 records
  const ipm::NameId name = ipm::intern_name("sat_event");
  for (int i = 0; i < 100; ++i) ring.push(rec(i * 1.0, 1.0, name));
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.drops(), 84u);
  // Append-only, never circular: the *head* of the run is preserved.
  for (std::size_t i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(ring[i].t0, static_cast<double>(i));
}

TEST(TraceRing, CapacityClampedToSaneRange) {
  // Lower clamp (a zero-size ring would make every push a drop); the upper
  // clamp (24 bits) exists too but allocating 16M records in a unit test
  // is not worth it.
  EXPECT_EQ(ipm::TraceRing(0).capacity(), 1u << 4);
  EXPECT_EQ(ipm::TraceRing(10).capacity(), 1u << 10);
}

TEST(TraceRing, ClearForgetsRecordsAndDrops) {
  ipm::TraceRing ring(4);
  const ipm::NameId name = ipm::intern_name("clear_event");
  for (int i = 0; i < 40; ++i) ring.push(rec(0.0, 1.0, name));
  EXPECT_GT(ring.drops(), 0u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.drops(), 0u);
  EXPECT_TRUE(ring.push(rec(0.0, 1.0, name)));
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(TraceFile, RoundTripsExactly) {
  ipm::RankProfile p;
  p.rank = 3;
  p.hostname = "dirac03";
  p.start = 0.125;
  p.stop = 17.000000000000004;  // not representable in few digits
  p.regions = {"ipm_global", "solve \"quoted\" C:\\"};
  ipm::TraceRing ring(6);
  ipm::TraceRecord r;
  r.name = ipm::intern_name("MPI_Allreduce");
  r.region = 1;
  r.t0 = 1.0000000000000002;
  r.dur = 3.0000000000000004e-6;
  r.bytes = 8000;
  r.select = -1;
  ring.push(r);
  r.err = 2;  // a failed call
  ring.push(r);
  r.err = 0;
  r.name = ipm::intern_name("@CUDA_EXEC:dgemm");
  r.kind = ipm::TraceKind::kKernel;
  r.select = 2;
  ring.push(r);
  r.kind = ipm::TraceKind::kIdle;
  r.name = ipm::intern_name("@CUDA_HOST_IDLE");
  ring.push(r);
  r.kind = ipm::TraceKind::kMarker;
  r.dur = 0.0;
  r.region = 9;  // unknown region id: read back as the global region
  ring.push(r);
  // Edge values travel as their bits, NaN payload and signed zero included.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double edges[] = {0.0,     -0.0, std::numeric_limits<double>::denorm_min(),
                          DBL_MAX, 0.1,  1e16, 1e17, 3.0, -42.0, 123456789.0, kInf, -kInf,
                          std::bit_cast<double>(std::uint64_t{0x7ff4'0000'dead'beef})};
  r.kind = ipm::TraceKind::kHost;
  r.region = 0;
  for (const double v : edges) {
    r.t0 = v;
    r.dur = v;
    ring.push(r);
  }

  const std::string path = ::testing::TempDir() + "/roundtrip.rank3.ipmt";
  ipm::write_trace_file(path, ring, p);
  const std::string bytes = file_bytes(path);
  EXPECT_EQ(bytes.substr(0, 12), std::string("IPMTRACE\x01\0\0\0", 12));  // magic, version 1

  const ipm::RankTrace back = ipm::read_trace_file(path);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(back.rank, p.rank);
  EXPECT_EQ(back.hostname, p.hostname);
  EXPECT_EQ(bits(back.start), bits(p.start));
  EXPECT_EQ(bits(back.stop), bits(p.stop));
  EXPECT_EQ(back.drops, 0u);
  ASSERT_EQ(back.spans.size(), ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const ipm::TraceRecord& want = ring[i];
    const ipm::TraceSpan& got = back.spans[i];
    EXPECT_EQ(got.name, ipm::name_of(want.name)) << i;
    const bool known = want.region < p.regions.size();
    EXPECT_EQ(got.region, known ? p.regions[want.region] : "ipm_global") << i;
    EXPECT_EQ(bits(got.t0), bits(want.t0)) << i;
    EXPECT_EQ(bits(got.dur), bits(want.dur)) << i;
    EXPECT_EQ(got.bytes, want.bytes) << i;
    EXPECT_EQ(got.select, want.select) << i;
    EXPECT_EQ(got.err, want.err) << i;
    EXPECT_EQ(got.kind, want.kind) << i;
  }
}

TEST(TraceFile, PathFormatAndErrors) {
  EXPECT_EQ(ipm::trace_file_path("run_trace", 12), "run_trace.rank12.ipmt");
  EXPECT_THROW((void)ipm::read_trace_file("/nonexistent/trace.ipmt"), std::runtime_error);
  // A trace from the retired JSONL writer is not read as one.
  const std::string jsonl = ::testing::TempDir() + "/old.rank3.jsonl";
  write_bytes(jsonl,
              R"({"ipm_trace":1,"rank":3,"host":"dirac03","start":0.125,)"
              R"("stop":17.000000000000004,"drops":0,"spans":1})"
              "\n"
              R"({"t0":1.0000000000000002,"dur":3.0000000000000005e-06,)"
              R"("name":"MPI_Allreduce","region":"ipm_global",)"
              R"("bytes":8000,"select":-1,"kind":"host"})"
              "\n");
  try {
    (void)ipm::read_trace_file(jsonl);
    ADD_FAILURE() << "a JSONL trace was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not an IPM trace file"), std::string::npos)
        << e.what();
  }
  const ipm::TraceRing ring(4);
  const ipm::RankProfile p;
  EXPECT_THROW(ipm::write_trace_file("/nonexistent_dir/x.ipmt", ring, p),
               std::runtime_error);
}

// --- reader rejection wall: the file is outside input -----------------------

/// Two records over a three-region (two named + the global fallback),
/// one-name table; see write_trace_file for the layout the offsets below
/// follow.
std::string valid_trace(const std::string& path) {
  ipm::RankProfile p;
  p.rank = 1;
  p.hostname = "node";
  p.regions = {"ipm_global", "step"};
  ipm::TraceRing ring(4);
  ipm::TraceRecord r = rec(0.5, 0.25, ipm::intern_name("wall_event"));
  ring.push(r);
  r.region = 1;
  r.kind = ipm::TraceKind::kKernel;
  ring.push(r);
  ipm::write_trace_file(path, ring, p);
  return file_bytes(path);
}

constexpr std::size_t kRecordBytes = 41;
constexpr std::size_t kHostLenAt = 16;   // magic 8, version 4, rank 4
constexpr std::size_t kSpansAt = 48;     // + host (4 + 4), start, stop, drops
constexpr std::size_t kRegionsAt = 56;   // u32 region count

void put_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/// read_trace_file must reject `bytes` with a runtime_error naming `what`.
void expect_rejected(const std::string& path, const std::string& bytes,
                     const std::string& what) {
  write_bytes(path, bytes);
  try {
    (void)ipm::read_trace_file(path);
    ADD_FAILURE() << "accepted a corrupt trace (" << what << ")";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(TraceFile, ReaderRejectsTruncationAtEveryOffset) {
  const std::string path = ::testing::TempDir() + "/wall.rank1.ipmt";
  const std::string bytes = valid_trace(path);
  ASSERT_EQ(ipm::read_trace_file(path).spans.size(), 2u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(path, bytes.substr(0, len));
    EXPECT_THROW((void)ipm::read_trace_file(path), std::runtime_error) << "length " << len;
  }
}

TEST(TraceFile, ReaderRejectsCorruptFields) {
  const std::string path = ::testing::TempDir() + "/wall_fields.rank1.ipmt";
  const std::string good = valid_trace(path);
  const std::size_t records = good.size() - 2 * kRecordBytes;
  ASSERT_EQ(good.substr(kHostLenAt + 4, 4), "node");
  ASSERT_EQ(good[kSpansAt], 2);
  ASSERT_EQ(good[kRegionsAt], 3);

  std::string b = good;
  b[0] = 'X';
  expect_rejected(path, b, "not an IPM trace file");
  b = good;
  b[8] = 2;
  expect_rejected(path, b, "version 2");
  b = good;
  b[kSpansAt] = 3;
  expect_rejected(path, b, "spans its header counts");
  b = good;
  for (std::size_t i = 0; i < 8; ++i) b[kSpansAt + i] = '\xff';  // 2^64 - 1 spans
  expect_rejected(path, b, "spans its header counts");
  b = good;
  put_u32(b, kHostLenAt, 0xFFFFFFFFu);
  expect_rejected(path, b, "truncated");
  b = good;
  put_u32(b, kRegionsAt, 0xFFFFFFFFu);  // must fail before reserving 4G entries
  expect_rejected(path, b, "truncated");
  b = good;
  b[records + kRecordBytes - 1] = 4;  // kind of record 0 past kMarker
  expect_rejected(path, b, "unknown kind 4");
  b = good;
  put_u32(b, records + 16, 1);  // name index of record 0: the table holds one
  expect_rejected(path, b, "not in its tables");
  b = good;
  put_u32(b, records + 20, 3);  // region index of record 0: the table holds three
  expect_rejected(path, b, "not in its tables");
}

TEST(TraceFile, ReaderSurvivesRandomBitFlips) {
  const std::string path = ::testing::TempDir() + "/wall_flips.rank1.ipmt";
  const std::string good = valid_trace(path);
  std::mt19937_64 rng(5u);
  int rejected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string b = good;
    const std::size_t pos = rng() % b.size();
    b[pos] = static_cast<char>(b[pos] ^ (1 << (rng() % 8)));
    write_bytes(path, b);
    try {
      (void)ipm::read_trace_file(path);  // a flipped t0 bit is still a trace
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 100);  // the flips do reach the checked fields
}

TEST(TraceFile, FullDiskFailsTheFlush) {
  // A trace far smaller than any stream buffer: the write error surfaces
  // only at the final flush, which must still be checked.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "/dev/full not available";
  ipm::TraceRing ring(4);
  ring.push(rec(0.0, 1.0, ipm::intern_name("full_disk_event")));
  const ipm::RankProfile p;
  EXPECT_THROW(ipm::write_trace_file("/dev/full", ring, p), std::runtime_error);
}

// --- end-to-end saturation: profile unharmed, drops reported ----------------

ipm::JobProfile run_traced(unsigned ring_log2, const std::string& prefix,
                           bool trace = true) {
  cusim::Topology topo;
  topo.timing.init_cost = 0.0;
  cusim::configure(topo);
  ipm::Config cfg;
  cfg.trace = trace;
  cfg.trace_log2_records = ring_log2;
  cfg.trace_path = prefix;
  ipm::job_begin(cfg, "./saturation");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 2;
  cluster.ranks_per_node = 1;
  mpisim::run_cluster(cluster, [](int) {
    MPI_Init(nullptr, nullptr);
    for (int i = 0; i < 200; ++i) MPI_Barrier(MPI_COMM_WORLD);
    MPI_Finalize();
  });
  return ipm::job_end();
}

TEST(TraceSaturation, DropsCountedProfileUnchanged) {
  const std::string prefix = ::testing::TempDir() + "/sat_trace";
  // 200 barriers + init/finalize >> 16 ring slots: massive saturation.
  const ipm::JobProfile traced = run_traced(4, prefix);
  const ipm::JobProfile plain = run_traced(4, prefix + "_off", /*trace=*/false);
  ASSERT_EQ(traced.nranks, 2);
  for (const ipm::RankProfile& r : traced.ranks) {
    EXPECT_FALSE(r.trace_file.empty());
    EXPECT_EQ(r.trace_spans, 16u);
    EXPECT_GT(r.trace_drops, 100u);
    const ipm::RankTrace t = ipm::read_trace_file(r.trace_file);
    EXPECT_EQ(t.spans.size(), 16u);
    EXPECT_EQ(t.drops, r.trace_drops);
  }
  // The aggregated profile is identical to an untraced run: a full ring
  // degrades the timeline, never the hash-table counters.
  ASSERT_EQ(plain.nranks, traced.nranks);
  for (int r = 0; r < 2; ++r) {
    const auto& a = traced.ranks[static_cast<std::size_t>(r)];
    const auto& b = plain.ranks[static_cast<std::size_t>(r)];
    EXPECT_TRUE(b.trace_file.empty());
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].name, b.events[i].name);
      EXPECT_EQ(a.events[i].count, b.events[i].count);
      EXPECT_DOUBLE_EQ(a.events[i].tsum, b.events[i].tsum);
    }
  }
}

TEST(TraceSaturation, DropsReportedInBannerAndXml) {
  const std::string prefix = ::testing::TempDir() + "/rep_trace";
  const ipm::JobProfile job = run_traced(4, prefix);
  const std::string banner = ipm::banner_string(job, {.max_rows = 4, .full = true});
  EXPECT_NE(banner.find("# trace"), std::string::npos) << banner;
  EXPECT_NE(banner.find("dropped"), std::string::npos) << banner;

  const std::string xml_path = ::testing::TempDir() + "/rep_trace.xml";
  ipm::write_xml_file(xml_path, job);
  const ipm::JobProfile back = ipm::parse_xml_file(xml_path);
  ASSERT_EQ(back.nranks, job.nranks);
  for (int r = 0; r < job.nranks; ++r) {
    const auto& a = job.ranks[static_cast<std::size_t>(r)];
    const auto& b = back.ranks[static_cast<std::size_t>(r)];
    EXPECT_EQ(b.trace_file, a.trace_file);
    EXPECT_EQ(b.trace_spans, a.trace_spans);
    EXPECT_EQ(b.trace_drops, a.trace_drops);
  }
}

TEST(TraceSaturation, UntracedXmlHasNoTraceAttributes) {
  const ipm::JobProfile job = run_traced(4, "", /*trace=*/false);
  std::ostringstream ss;
  ipm::write_xml(ss, job);
  EXPECT_EQ(ss.str().find("trace"), std::string::npos) << ss.str();
}

}  // namespace
