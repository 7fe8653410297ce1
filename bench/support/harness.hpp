// Shared helpers for the experiment harnesses (bench/*).  Each harness
// regenerates one table or figure of the paper: it builds a fresh simulated
// cluster, runs the workload under IPM monitoring, and prints the same rows
// or series the paper reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cudasim/control.hpp"
#include "ipm/report.hpp"
#include "mpisim/cluster.hpp"
#include "simcommon/clock.hpp"
#include "simcommon/jsonl.hpp"

namespace benchx {

/// Reset the whole simulation stack and configure a cluster of `nodes`
/// Dirac-style nodes (one C2050 per node).
inline void fresh_sim(int nodes, double init_cost = 1.29) {
  cusim::Topology topo;
  topo.nodes = nodes;
  topo.timing.init_cost = init_cost;
  cusim::configure(topo);
  simx::reset_default_context();
}

/// Run `body(rank)` on a monitored cluster and return the aggregated job
/// profile.  `body` must call MPI_Init/MPI_Finalize (the wrappers start and
/// finalize per-rank monitoring).
template <typename Body>
ipm::JobProfile monitored_cluster_run(const mpisim::ClusterConfig& cluster,
                                      const ipm::Config& ipm_cfg,
                                      const std::string& command, Body&& body) {
  ipm::job_begin(ipm_cfg, command);
  mpisim::run_cluster(cluster, std::forward<Body>(body));
  return ipm::job_end();
}

/// Job wallclock = slowest rank (what the banner's "wallclock" shows).
inline double job_wall(const ipm::JobProfile& job) {
  double wall = 0.0;
  for (const auto& r : job.ranks) wall = std::max(wall, r.wallclock());
  return wall;
}

/// Sum of tsum over all ranks for one exact event name.
inline double total_time(const ipm::JobProfile& job, const std::string& name) {
  double total = 0.0;
  for (const auto& r : job.ranks) {
    for (const auto& e : r.events) {
      if (e.name == name) total += e.tsum;
    }
  }
  return total;
}

/// Sum of per-rank family times ("MPI", "CUDA", "CUBLAS", "CUFFT", "GPU",
/// "IDLE") over the whole job.
inline double family_time(const ipm::JobProfile& job, const std::string& family) {
  double total = 0.0;
  for (const auto& r : job.ranks) total += r.time_in(family);
  return total;
}

inline void print_rule() {
  std::puts("-------------------------------------------------------------------------");
}

// --- benchmark JSON trajectory ----------------------------------------------
//
// Micro-benchmark results are persisted as BENCH_<suite>.json so the perf
// trajectory of the monitoring hot path can be compared across changes.
// Schema ("ipm-bench-v1"):
//   { "schema": "ipm-bench-v1", "suite": "<name>",
//     "benchmarks": [ { "name": "...", "iterations": N, "ns_per_op": X,
//                       "counters": { "<key>": V, ... } }, ... ] }

struct BenchResult {
  std::string name;
  std::int64_t iterations = 0;
  double ns_per_op = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Write `results` to `path` in the ipm-bench-v1 schema; a non-finite value
/// is written as 0.  Returns false if the file cannot be written.
inline bool write_bench_json(const std::string& path, const std::string& suite,
                             const std::vector<BenchResult>& results) {
  const auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
  std::string text;
  simx::JsonlWriter w(text);
  w.lit("{\n  \"schema\": \"ipm-bench-v1\",\n  \"suite\": ").str(suite);
  w.lit(",\n  \"benchmarks\": [");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    w.lit(i == 0 ? "\n    {\"name\": " : ",\n    {\"name\": ").str(r.name);
    w.lit(", \"iterations\": ").num(r.iterations);
    w.lit(", \"ns_per_op\": ").num(finite(r.ns_per_op)).lit(", \"counters\": {");
    for (std::size_t k = 0; k < r.counters.size(); ++k) {
      w.lit(k == 0 ? "" : ", ").str(r.counters[k].first);
      w.lit(": ").num(finite(r.counters[k].second));
    }
    w.lit("}}");
  }
  w.lit("\n  ]\n}\n");
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace benchx
