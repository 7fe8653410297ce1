// EXP-F9 — reproduces Figure 9: CUDA and MPI profile of the CUDA-
// accelerated HPL on 16 nodes.  Prints the per-kernel, per-stream, per-rank
// GPU time breakdown that the CUBE view of Fig. 9 shows, writes the XML
// profiling log, and exports the CUBE-like file via the parser library.
//
// Expected shape: four GPU kernels (dgemm_nn_e_kernel, dgemm_nt_tex_kernel,
// dtrsm_gpu_64_mm, transpose) with well-balanced per-rank times;
// @CUDA_HOST_IDLE ≈ 0 (async copies); a few seconds of
// cudaEventSynchronize per task (HPL's manual event-API synchronization).
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <tuple>

#include "apps/hpl.hpp"
#include "ipm_live/live.hpp"
#include "ipm_parse/export.hpp"
#include "ipm_parse/trace.hpp"
#include "mpisim/mpi.h"
#include "support/harness.hpp"

int main() {
  std::puts("# EXP-F9: CUDA+MPI profile of mini-HPL on 16 nodes");
  constexpr int kNodes = 16;
  benchx::fresh_sim(kNodes, /*init_cost=*/0.4);
  cusim::set_execute_bodies(false);
  mpisim::ClusterConfig cluster;
  cluster.ranks = kNodes;
  cluster.ranks_per_node = 1;
  ipm::Config cfg;
  cfg.kernel_timing = true;
  cfg.host_idle = true;
  cfg.trace = true;
  cfg.trace_log2_records = 18;
  cfg.trace_path = "fig9_hpl_trace";
  // Live cluster telemetry: one snapshot per virtual second per rank,
  // merged into fig9_hpl_timeseries.jsonl + a Prometheus-style file.
  cfg.snapshot_interval = 1.0;
  cfg.timeseries_path = "fig9_hpl_timeseries.jsonl";
  cfg.prom_path = "fig9_hpl_metrics.prom";
  // Honor IPM_* overrides — notably IPM_FAULT, so error-path behavior of
  // the full stack can be exercised on this harness.
  cfg = ipm::config_from_env(cfg);
  const ipm::JobProfile job = benchx::monitored_cluster_run(
      cluster, cfg, "./xhpl.cuda", [](int) {
        MPI_Init(nullptr, nullptr);
        apps::hpl::Config hcfg;
        hcfg.n = 32768;
        hcfg.nb = 128;
        hcfg.backend = apps::hpl::Backend::kCublas;
        try {
          apps::hpl::run_rank(hcfg);
        } catch (const std::exception& e) {
          // Injected faults legitimately abort the solve (HPL checks CUDA
          // status); fail gracefully so the banner/XML still get written.
          std::fprintf(stderr, "rank aborted: %s\n", e.what());
        }
        MPI_Finalize();
      });
  cusim::set_execute_bodies(true);

  // Per-kernel, per-rank GPU-time matrix (the Fig. 9 breakdown).
  const std::vector<std::string> kernels = {
      "@CUDA_EXEC:dgemm_nn_e_kernel", "@CUDA_EXEC:dgemm_nt_tex_kernel",
      "@CUDA_EXEC:dtrsm_gpu_64_mm", "@CUDA_EXEC:transpose"};
  const auto matrix = ipm::per_rank_times(job, kernels);
  std::printf("%-34s", "GPU kernel \\ rank");
  for (int r = 0; r < kNodes; ++r) std::printf(" %6d", r);
  std::putchar('\n');
  benchx::print_rule();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    std::printf("%-34s", kernels[k].c_str() + 11);  // strip "@CUDA_EXEC:"
    for (int r = 0; r < kNodes; ++r) {
      std::printf(" %6.2f", matrix[k][static_cast<std::size_t>(r)]);
    }
    std::putchar('\n');
  }
  benchx::print_rule();
  const double idle = benchx::family_time(job, "IDLE");
  const double evsync = benchx::total_time(job, "cudaEventSynchronize");
  const double mpi = benchx::family_time(job, "MPI");
  std::printf("wallclock (slowest rank)      : %8.2f s\n", benchx::job_wall(job));
  std::printf("@CUDA_HOST_IDLE total         : %8.4f s (expected ~0: async copies)\n",
              idle);
  std::printf("cudaEventSynchronize per task : %8.2f s (paper: 2-5 s per task)\n",
              evsync / kNodes);
  std::printf("MPI total                     : %8.2f s\n", mpi);

  ipm::write_xml_file("fig9_hpl_profile.xml", job);
  ipm_parse::write_cube_file("fig9_hpl_profile.cube", job);
  std::puts("wrote fig9_hpl_profile.xml and fig9_hpl_profile.cube");

  // Live telemetry: re-read the JSONL the collector wrote during the run
  // and (a) check the conservation invariant — folding every published
  // per-rank delta must land bit-exactly on the finalize profile — then
  // (b) render the cluster roll-up report the operator would watch.
  //
  // With IPM_AGG_ADDR set the samples streamed to the out-of-process
  // ipm_aggd daemon instead and there is no local JSONL: the same check
  // runs against the daemon's per-job file via `ipm_parse --conserve`
  // (the CI aggregation leg does exactly that).  In process, no file means
  // the collector could not write it, and said so on stderr.
  if (job.timeseries_file.empty() && cfg.agg_addr.empty() && cfg.snapshot_interval > 0.0) {
    std::fprintf(stderr, "fig9_hpl: no time series was written: conservation not checked\n");
    return 1;
  }
  if (job.timeseries_file.empty()) {
    std::printf("snapshots                     : %llu samples, %llu dropped "
                "(streamed to ipm_aggd at %s)\n",
                static_cast<unsigned long long>(job.snapshot_samples()),
                static_cast<unsigned long long>(job.snapshot_drops()),
                cfg.agg_addr.c_str());
    std::puts("snapshot conservation         : deferred — run "
              "`ipm_parse --conserve <daemon job.jsonl> fig9_hpl_profile.xml`");
    return 0;
  }
  const ipm::live::TimeSeries ts =
      ipm::live::read_timeseries_file(job.timeseries_file);
  struct Fold {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    double tsum = 0.0;
  };
  std::map<std::tuple<int, std::string, std::uint32_t, std::int32_t>, Fold> fold;
  for (const ipm::live::Sample& s : ts.samples) {
    for (const ipm::live::KeyDelta& d : s.deltas) {
      Fold& f = fold[{s.rank, d.name_str, d.region, d.select}];
      f.count += d.dcount;
      f.bytes += d.dbytes;
      f.tsum += d.dtsum;
    }
  }
  std::uint64_t checked = 0;
  std::uint64_t bad = 0;
  for (const auto& r : job.ranks) {
    for (const auto& e : r.events) {
      ++checked;
      const auto it = fold.find({r.rank, e.name, e.region, e.select});
      if (it == fold.end() || it->second.count != e.count ||
          it->second.bytes != e.bytes || it->second.tsum != e.tsum) {
        ++bad;
      }
    }
  }
  std::printf("snapshot conservation         : %llu/%llu event records bit-exact\n",
              static_cast<unsigned long long>(checked - bad),
              static_cast<unsigned long long>(checked));
  std::printf("snapshots                     : %llu samples, %llu dropped, "
              "%llu intervals\n",
              static_cast<unsigned long long>(job.snapshot_samples()),
              static_cast<unsigned long long>(job.snapshot_drops()),
              static_cast<unsigned long long>(job.snapshot_intervals));
  if (bad != 0) {
    std::fprintf(stderr, "fig9_hpl: conservation violated for %llu records\n",
                 static_cast<unsigned long long>(bad));
    return 1;
  }
  ipm::live::write_timeseries_report(std::cout, ts);
  std::puts("wrote fig9_hpl_timeseries.jsonl and fig9_hpl_metrics.prom");

  // Merge the per-rank traces into one Chrome-tracing JSON (the timeline
  // view of the same run) and print a terminal occupancy summary.
  const auto traces = ipm_parse::load_job_traces(job, "");
  ipm_parse::write_chrome_trace_file("fig9_hpl_trace.json", traces);
  std::uint64_t spans = 0;
  for (const auto& t : traces) spans += t.spans.size();
  std::printf("wrote fig9_hpl_trace.json (%d rank lanes, %llu spans)\n",
              static_cast<int>(traces.size()), static_cast<unsigned long long>(spans));
  ipm_parse::write_timeline(std::cout, job, traces);
  return 0;
}
