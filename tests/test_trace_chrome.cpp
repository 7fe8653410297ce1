// Golden/validity tests for the merged Chrome trace: the XML log +
// per-rank trace files round-trip through ipm_parse::load_job_traces into
// one trace-viewer document with per-rank process lanes, per-stream kernel
// sub-lanes, host-idle spans, and lifecycle markers — structurally valid
// and with non-overlapping spans per lane.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "cudasim/control.hpp"
#include "cudasim/cuda_runtime.h"
#include "cudasim/kernel.hpp"
#include "ipm/report.hpp"
#include "ipm/trace.hpp"
#include "ipm_parse/trace.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"

namespace {

constexpr int kRanks = 2;

/// Workload designed to light up every lane type: kernels on two streams,
/// an async kernel followed by a synchronous D2H copy (forces a host-idle
/// wait well above the 5 us threshold), and MPI traffic.  No ASSERT before
/// the last barrier: a rank returning early leaves the others waiting in
/// MPI_Barrier forever.
void chrome_rank_body(int) {
  MPI_Init(nullptr, nullptr);
  cudaStream_t s1 = nullptr;
  EXPECT_EQ(cudaStreamCreate(&s1), cudaSuccess);
  cusim::KernelDef def;
  def.name = "chrome_kernel";
  def.cost.fixed_us = 500.0;
  void* dev = nullptr;
  EXPECT_EQ(cudaMalloc(&dev, 4096), cudaSuccess);
  char host[4096];
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cusim::launch_timed(def, dim3(1), dim3(32)), cudaSuccess);
    EXPECT_EQ(cusim::launch_timed(def, dim3(1), dim3(32), s1), cudaSuccess);
    // The kernels are still running: this sync copy blocks the host far
    // beyond the idle threshold -> @CUDA_HOST_IDLE spans.
    cudaMemcpy(host, dev, sizeof host, cudaMemcpyDeviceToHost);
    MPI_Barrier(MPI_COMM_WORLD);
  }
  cudaThreadSynchronize();
  cudaMemcpy(host, dev, sizeof host, cudaMemcpyDeviceToHost);
  cudaFree(dev);
  cudaStreamDestroy(s1);
  MPI_Finalize();
}

class ChromeTraceTest : public ::testing::Test {
 protected:
  // gtest_discover_tests runs every case as its own process, each of which
  // runs this setup, so the files are per process: under `ctest -j` a
  // shared path would be rewritten while another process reads it.
  static void SetUpTestSuite() {
    cusim::Topology topo;
    topo.timing.init_cost = 0.0;
    cusim::configure(topo);
    const std::string base =
        ::testing::TempDir() + "/chrome." + std::to_string(::getpid());
    ipm::Config cfg;
    cfg.trace = true;
    cfg.trace_log2_records = 12;
    cfg.trace_path = base + "_trace";
    cfg.log_path = base + "_profile.xml";
    ipm::job_begin(cfg, "./chrome");
    mpisim::ClusterConfig cluster;
    cluster.ranks = kRanks;
    cluster.ranks_per_node = 1;
    mpisim::run_cluster(cluster, chrome_rank_body);
    job_ = new ipm::JobProfile(ipm::job_end());
    ipm::write_xml_file(cfg.log_path, *job_);
    traces_ = new std::vector<ipm::RankTrace>(
        ipm_parse::load_job_traces(ipm::parse_xml_file(cfg.log_path), ""));
    std::remove(cfg.log_path.c_str());
    for (const ipm::RankProfile& r : job_->ranks) std::remove(r.trace_file.c_str());
  }
  static void TearDownTestSuite() {
    delete job_;
    delete traces_;
    job_ = nullptr;
    traces_ = nullptr;
  }
  void SetUp() override {
    ASSERT_NE(job_, nullptr) << "suite setup failed";
    ASSERT_NE(traces_, nullptr) << "suite setup failed";
  }
  static ipm::JobProfile* job_;
  static std::vector<ipm::RankTrace>* traces_;
};

ipm::JobProfile* ChromeTraceTest::job_ = nullptr;
std::vector<ipm::RankTrace>* ChromeTraceTest::traces_ = nullptr;

TEST_F(ChromeTraceTest, LoadsOneTracePerRank) {
  ASSERT_EQ(traces_->size(), static_cast<std::size_t>(kRanks));
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ((*traces_)[static_cast<std::size_t>(r)].rank, r);
    EXPECT_GT((*traces_)[static_cast<std::size_t>(r)].spans.size(), 20u);
  }
}

TEST_F(ChromeTraceTest, DocumentIsStructurallyValid) {
  std::ostringstream ss;
  ipm_parse::write_chrome_trace(ss, *traces_);
  const std::string doc = ss.str();
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.front(), '{');
  // Balanced braces/brackets (cheap well-formedness proxy; the names in
  // this run contain neither).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'), std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['), std::count(doc.begin(), doc.end(), ']'));
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  // Every event carries ph and pid; complete events carry tid/ts/dur.
  const auto count_of = [&doc](const char* needle) {
    std::size_t n = 0;
    for (std::size_t pos = doc.find(needle); pos != std::string::npos;
         pos = doc.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  const std::size_t events = count_of("{\"ph\":\"");
  EXPECT_EQ(count_of("\"pid\":"), events);
  EXPECT_EQ(count_of("{\"ph\":\"M\""), static_cast<std::size_t>(kRanks));  // process_name
  EXPECT_GE(count_of("{\"ph\":\"i\""), static_cast<std::size_t>(2 * kRanks));  // markers
  EXPECT_GT(count_of("{\"ph\":\"X\""), 0u);
  EXPECT_EQ(count_of("{\"ph\":\"X\"") + count_of("{\"ph\":\"i\"") +
                count_of("{\"ph\":\"M\""),
            events);
  EXPECT_EQ(count_of("\"ts\":") + static_cast<std::size_t>(kRanks), events);
}

TEST_F(ChromeTraceTest, EveryLaneTypeIsPresent) {
  for (const ipm::RankTrace& t : *traces_) {
    std::set<std::string> lanes;
    bool idle_span = false;
    bool kernel_span = false;
    bool marker = false;
    for (const ipm::TraceSpan& s : t.spans) {
      lanes.insert(ipm_parse::trace_lane(s));
      idle_span |= s.kind == ipm::TraceKind::kIdle && s.dur >= 5e-6;
      kernel_span |= s.kind == ipm::TraceKind::kKernel;
      marker |= s.kind == ipm::TraceKind::kMarker;
    }
    EXPECT_TRUE(lanes.count("host") == 1) << "rank " << t.rank;
    EXPECT_TRUE(lanes.count("host.idle") == 1) << "rank " << t.rank;
    // Two streams -> two kernel sub-lanes (default stream + s1).
    EXPECT_TRUE(lanes.count("gpu.strm0") == 1) << "rank " << t.rank;
    EXPECT_TRUE(lanes.count("gpu.strm1") == 1) << "rank " << t.rank;
    EXPECT_TRUE(idle_span) << "rank " << t.rank;
    EXPECT_TRUE(kernel_span) << "rank " << t.rank;
    EXPECT_TRUE(marker) << "rank " << t.rank;
  }
}

TEST_F(ChromeTraceTest, SpansPerLaneAreMonotoneAndNonOverlapping) {
  // One lane = one serial resource (the host thread, one device stream):
  // sorted by start, each span must end before the next begins.
  for (const ipm::RankTrace& t : *traces_) {
    std::map<std::string, std::vector<const ipm::TraceSpan*>> lanes;
    for (const ipm::TraceSpan& s : t.spans) {
      if (s.kind == ipm::TraceKind::kMarker) continue;  // zero-width instants
      lanes[ipm_parse::trace_lane(s)].push_back(&s);
    }
    for (auto& [lane, spans] : lanes) {
      std::stable_sort(spans.begin(), spans.end(),
                       [](const ipm::TraceSpan* a, const ipm::TraceSpan* b) {
                         return a->t0 < b->t0;
                       });
      for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i]->t0 + 1e-9, spans[i - 1]->t1())
            << "rank " << t.rank << " lane " << lane << " span " << i << " ("
            << spans[i]->name << " overlaps " << spans[i - 1]->name << ")";
      }
      // All spans live inside the rank's monitored window.
      for (const ipm::TraceSpan* s : spans) {
        EXPECT_GE(s->t0 + 1e-9, t.start) << lane;
        EXPECT_LE(s->t1(), t.stop + 1e-9) << lane;
      }
    }
  }
}

TEST_F(ChromeTraceTest, KernelSpansMatchProfileTotals) {
  // The timeline and the aggregate view describe the same run: per-rank
  // GPU seconds from kernel spans == @CUDA_EXEC tsum in the profile.
  for (int r = 0; r < kRanks; ++r) {
    const ipm::RankTrace& t = (*traces_)[static_cast<std::size_t>(r)];
    const ipm::RankProfile& p = job_->ranks[static_cast<std::size_t>(r)];
    double span_gpu = 0.0;
    for (const ipm::TraceSpan& s : t.spans) {
      if (s.kind == ipm::TraceKind::kKernel) span_gpu += s.dur;
    }
    EXPECT_NEAR(span_gpu, p.time_in("GPU"), 1e-9 * (1.0 + span_gpu));
  }
}

TEST_F(ChromeTraceTest, TimelineRendersEveryRank) {
  std::ostringstream ss;
  ipm_parse::write_timeline(ss, *job_, *traces_, 48);
  const std::string out = ss.str();
  EXPECT_NE(out.find("# timeline"), std::string::npos);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_NE(out.find("# rank " + std::to_string(r)), std::string::npos) << out;
  }
  EXPECT_NE(out.find("gpu.strm0"), std::string::npos);
  EXPECT_NE(out.find("K"), std::string::npos);
}

TEST_F(ChromeTraceTest, ControlCharactersAreEscaped) {
  ipm::RankTrace t;
  t.hostname = "host\"1\"";
  ipm::TraceSpan s;
  s.name = "MPI_Send\\x";
  s.region = "a\tb";
  s.dur = 1e-6;
  t.spans.push_back(s);
  std::ostringstream ss;
  ipm_parse::write_chrome_trace(ss, {t});
  const std::string doc = ss.str();
  EXPECT_NE(doc.find(R"x("args":{"name":"rank 0 (host\"1\")"})x"), std::string::npos) << doc;
  EXPECT_NE(doc.find(R"("name":"MPI_Send\\x")"), std::string::npos) << doc;
  EXPECT_NE(doc.find(R"("region":"a\tb")"), std::string::npos) << doc;
}

TEST_F(ChromeTraceTest, ChromeFileWriteFailsLoudly) {
  EXPECT_THROW(ipm_parse::write_chrome_trace_file("/nonexistent_dir/x.json", *traces_),
               std::runtime_error);
}

}  // namespace
