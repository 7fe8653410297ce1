// Tests of ipm_parse: banner regeneration from the XML log, HTML report,
// and the CUBE-like export (structure verified by parsing it back), plus
// CLI behavior of the installed binary (flag validation).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cudasim/control.hpp"
#include "cudasim/cuda_runtime.h"
#include "cudasim/kernel.hpp"
#include "ipm/report.hpp"
#include "ipm_live/live.hpp"
#include "ipm_parse/export.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "simcommon/xml.hpp"

namespace {

/// A small monitored 2-rank job with MPI + CUDA + kernel events.
ipm::JobProfile make_job() {
  cusim::Topology topo;
  topo.nodes = 2;
  topo.timing.init_cost = 0.05;
  cusim::configure(topo);
  ipm::job_begin(ipm::Config{}, "./parse_app");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 2;
  mpisim::run_cluster(cluster, [](int rank) {
    MPI_Init(nullptr, nullptr);
    static const cusim::KernelDef kK{"parse_kernel", {.flops_per_thread = 0, .dram_bytes_per_thread = 0, .serial_iterations = 1, .efficiency = 1, .fixed_us = 5000.0, .double_precision = false}, nullptr};
    void* dev = nullptr;
    cudaMalloc(&dev, 4096);
    char h[4096];
    cudaMemcpy(dev, h, 4096, cudaMemcpyHostToDevice);
    EXPECT_EQ(cusim::launch_timed(kK, dim3(2), dim3(64)), cudaSuccess);
    cudaMemcpy(h, dev, 4096, cudaMemcpyDeviceToHost);
    cudaFree(dev);
    simx::host_compute(0.1 * (rank + 1));
    double x = 1;
    double y = 0;
    MPI_Allreduce(&x, &y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    MPI_Finalize();
  });
  return ipm::job_end();
}

TEST(IpmParse, BannerRegeneratedFromXmlMatchesDirectBanner) {
  const ipm::JobProfile job = make_job();
  std::ostringstream xml;
  ipm::write_xml(xml, job);
  const ipm::JobProfile parsed = ipm::parse_xml(xml.str());
  // The regenerated banner must be identical (the paper: "the parser can
  // re-produce the banner").
  EXPECT_EQ(ipm::banner_string(parsed), ipm::banner_string(job));
}

TEST(IpmParse, HtmlReportContainsTheProfile) {
  const ipm::JobProfile job = make_job();
  std::ostringstream html;
  ipm_parse::write_html(html, job);
  const std::string out = html.str();
  EXPECT_NE(out.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(out.find("./parse_app"), std::string::npos);
  EXPECT_NE(out.find("cudaMemcpy(D2H)"), std::string::npos);
  EXPECT_NE(out.find("MPI_Allreduce"), std::string::npos);
  EXPECT_NE(out.find("@CUDA_EXEC_STRM00"), std::string::npos);
  EXPECT_NE(out.find("<td>dirac01</td>"), std::string::npos);
  // Single-region, error-free job: the optional sections stay absent.
  EXPECT_EQ(out.find("<h2>Regions</h2>"), std::string::npos);
  EXPECT_EQ(out.find("<h2>Errors</h2>"), std::string::npos);
}

TEST(IpmParse, HtmlReportHasRegionAndErrorSections) {
  ipm::RankProfile r;
  r.rank = 0;
  r.hostname = "h";
  r.stop = 10.0;
  r.regions = {"ipm_global", "solve"};
  ipm::EventRecord send;
  send.name = "MPI_Send";
  send.region = 0;
  send.count = 4;
  send.tsum = 1.0;
  send.bytes = 4096;
  r.events.push_back(send);
  ipm::EventRecord gemm;
  gemm.name = "cublasDgemm";
  gemm.region = 1;
  gemm.count = 2;
  gemm.tsum = 3.0;
  r.events.push_back(gemm);
  ipm::EventRecord fail;
  fail.name = "cudaMemcpy(H2D)[ERR=invalid-value]";
  fail.region = 0;
  fail.count = 1;
  fail.tsum = 0.5;
  r.events.push_back(fail);
  ipm::JobProfile job;
  job.command = "./region_app";
  job.nranks = 1;
  job.ranks.push_back(std::move(r));

  std::ostringstream html;
  ipm_parse::write_html(html, job);
  const std::string out = html.str();
  EXPECT_NE(out.find("<h2>Regions</h2>"), std::string::npos);
  EXPECT_NE(out.find("<td>solve</td>"), std::string::npos);
  EXPECT_NE(out.find("<td>ipm_global</td>"), std::string::npos);
  EXPECT_NE(out.find("<td>3.000</td>"), std::string::npos);  // solve region time
  EXPECT_NE(out.find("<h2>Errors</h2>"), std::string::npos);
  EXPECT_NE(out.find("<td>invalid-value</td>"), std::string::npos);
  EXPECT_NE(out.find("<td>cudaMemcpy(H2D)</td>"), std::string::npos);
}

TEST(IpmParse, CubeExportIsWellFormedAndComplete) {
  const ipm::JobProfile job = make_job();
  std::ostringstream cube;
  ipm_parse::write_cube(cube, job);
  const auto doc = simx::xml::parse(cube.str());
  EXPECT_EQ(doc->name, "cube");
  EXPECT_EQ(doc->attr("version"), "3.0");
  const auto* metrics = doc->child("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->children_named("metric").size(), 3u);
  const auto* program = doc->child("program");
  ASSERT_NE(program, nullptr);
  // Branches: at least MPI, CUDA, GPU kernels.
  EXPECT_GE(program->children_named("cnode").size(), 3u);
  const auto* system = doc->child("system");
  ASSERT_NE(system, nullptr);
  EXPECT_EQ(system->children_named("node").size(), 2u);  // two hosts
  const auto* severity = doc->child("severity");
  ASSERT_NE(severity, nullptr);
  // Every event of every rank appears with a time row.
  std::size_t expected_rows = 0;
  for (const auto& r : job.ranks) expected_rows += r.events.size();
  std::size_t time_rows = 0;
  for (const auto* row : severity->children_named("row")) {
    if (row->attr("metric") == "0") ++time_rows;
  }
  EXPECT_EQ(time_rows, expected_rows);
}

TEST(IpmParse, FileRoundTripViaDisk) {
  const ipm::JobProfile job = make_job();
  const std::string dir = ::testing::TempDir();
  const std::string xml_path = dir + "/profile.xml";
  ipm::write_xml_file(xml_path, job);
  const ipm::JobProfile back = ipm::parse_xml_file(xml_path);
  EXPECT_EQ(back.nranks, 2);
  ipm_parse::write_html_file(dir + "/profile.html", back);
  ipm_parse::write_cube_file(dir + "/profile.cube", back);
  std::ifstream html(dir + "/profile.html");
  std::ifstream cubef(dir + "/profile.cube");
  EXPECT_TRUE(html.good());
  EXPECT_TRUE(cubef.good());
  EXPECT_THROW(ipm_parse::write_html_file("/nonexistent_dir/x.html", back),
               std::runtime_error);
}

// --- CLI behavior of the ipm_parse binary ------------------------------------

/// Run a shell command, capture combined stdout+stderr, return the raw
/// wait status (use WEXITSTATUS).
int run_capture(const std::string& cmd, std::string* output) {
  std::array<char, 4096> buf{};
  output->clear();
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    *output += buf.data();
  }
  return pclose(pipe);
}

const std::string kParseBin = IPM_PARSE_BIN;

TEST(IpmParseCli, UnknownFlagIsNamedOnStderrAndExitsNonzero) {
  std::string out;
  const int rc = run_capture(kParseBin + " --frobnicate profile.xml", &out);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2) << out;
  EXPECT_NE(out.find("unknown option '--frobnicate'"), std::string::npos) << out;
  EXPECT_NE(out.find("usage: ipm_parse"), std::string::npos) << out;
}

TEST(IpmParseCli, ValueFlagWithoutArgumentIsRejected) {
  std::string out;
  const int rc = run_capture(kParseBin + " --html", &out);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2) << out;
  EXPECT_NE(out.find("option '--html' requires a file argument"), std::string::npos)
      << out;
}

TEST(IpmParseCli, NoInputPrintsUsage) {
  std::string out;
  const int rc = run_capture(kParseBin, &out);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2) << out;
  EXPECT_NE(out.find("usage: ipm_parse"), std::string::npos) << out;
}

TEST(IpmParseCli, BannerRoundTripsThroughTheBinary) {
  const ipm::JobProfile job = make_job();
  const std::string dir = ::testing::TempDir();
  const std::string xml_path = dir + "/cli_profile.xml";
  ipm::write_xml_file(xml_path, job);
  std::string out;
  const int rc = run_capture(kParseBin + " " + xml_path, &out);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 0) << out;
  EXPECT_NE(out.find("##IPMv2.0"), std::string::npos);
  EXPECT_NE(out.find("./parse_app"), std::string::npos);
}

/// Write `lines` joined by '\n' to `path` (no newline after the last one).
void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < lines.size(); ++i) out << (i == 0 ? "" : "\n") << lines[i];
}

ipm::live::Sample one_delta_sample() {
  ipm::live::Sample s;
  s.seq = 3;
  s.t1 = 0.5;
  ipm::live::KeyDelta d;
  d.name_str = "MPI_Allreduce";
  d.dcount = 2;
  d.dtsum = 0.125;
  s.deltas.push_back(d);
  return s;
}

TEST(IpmParseCli, FollowFailsOnAMalformedLine) {
  const std::string path = ::testing::TempDir() + "/cli_follow_timeseries.jsonl";
  // The trailing "" ends the end line with its newline, so --follow reads it.
  write_lines(path, {ipm::live::timeseries_header_line("./cli", 0.5),
                     R"({"type":"sample","rank":0,"bogus":1})",
                     ipm::live::end_line(0), ""});
  std::string out;
  const int rc =
      run_capture(kParseBin + " --follow --follow-timeout 5 " + path, &out);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1) << out;
  EXPECT_NE(out.find("ipm_parse: " + path + ":2: "), std::string::npos) << out;
}

TEST(IpmParseCli, ConserveFailsOnATornLastLine) {
  const std::string dir = ::testing::TempDir();
  const std::string xml_path = dir + "/cli_conserve_profile.xml";
  const std::string ts_path = dir + "/cli_conserve_timeseries.jsonl";
  ipm::write_xml_file(xml_path, make_job());
  const std::string sample = ipm::live::sample_line(one_delta_sample());
  write_lines(ts_path, {ipm::live::timeseries_header_line("./cli", 0.5), sample,
                        sample.substr(0, sample.size() / 2)});
  std::string out;
  const int rc = run_capture(kParseBin + " --conserve " + ts_path + " " + xml_path, &out);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1) << out;
  EXPECT_NE(out.find("ipm_parse: " + ts_path + ":3: "), std::string::npos) << out;
}

}  // namespace

namespace {

TEST(IpmParse, CompareHighlightsDeltas) {
  // Two synthetic profiles: B is the "accelerated" run — less dgemm, added
  // transfers (the PARATEC re-linking picture).
  const auto make = [](const char* cmd, double gemm, double set_matrix) {
    ipm::RankProfile r;
    r.rank = 0;
    r.hostname = "h";
    r.stop = 10.0;
    r.regions = {"ipm_global"};
    ipm::EventRecord e1;
    e1.name = "dgemm_host";
    e1.count = 5;
    e1.tsum = gemm;
    r.events.push_back(e1);
    if (set_matrix > 0) {
      ipm::EventRecord e2;
      e2.name = "cublasSetMatrix";
      e2.count = 10;
      e2.tsum = set_matrix;
      r.events.push_back(e2);
    }
    ipm::JobProfile job;
    job.command = cmd;
    job.nranks = 1;
    job.ranks.push_back(std::move(r));
    return job;
  };
  const ipm::JobProfile a = make("./mkl_run", 8.0, 0.0);
  const ipm::JobProfile b = make("./cublas_run", 1.0, 3.0);
  const auto rows = ipm_parse::compare(a, b);
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by |delta|: dgemm shrank by 7, SetMatrix grew by 3.
  EXPECT_EQ(rows[0].name, "dgemm_host");
  EXPECT_DOUBLE_EQ(rows[0].delta(), -7.0);
  EXPECT_EQ(rows[1].name, "cublasSetMatrix");
  EXPECT_DOUBLE_EQ(rows[1].delta(), 3.0);
  EXPECT_EQ(rows[1].count_a, 0u);
  EXPECT_EQ(rows[1].count_b, 10u);
  std::ostringstream report;
  ipm_parse::write_compare(report, a, b);
  EXPECT_NE(report.str().find("./mkl_run"), std::string::npos);
  EXPECT_NE(report.str().find("-7.000"), std::string::npos);
}

}  // namespace
