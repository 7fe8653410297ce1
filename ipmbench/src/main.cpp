// ipmbench — the repository benchmark runner.
//
//   ipmbench --workload <amber_stream|hpl_collect|fleet_burst|fleet_idle>
//            --seed N --seconds S --trace 0|1
//   ipmbench --workload fleet_burst --closed-loop 1 --seconds S
//
// The second form measures the daemon's saturation throughput instead of
// the workload (see fleet_workloads.cpp).
//
// Runs one workload for about S seconds, verifies every output it produced
// (conservation, trace sums, applied == offered), prints a human-readable
// table and, as its last line, one JSON object with every metric it
// measured.  run.py selects the metrics BENCHMARK.json names for the mode.
// Exit code 1 on any verification failure.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload amber_stream|hpl_collect|fleet_burst|fleet_idle\n"
               "          [--seed N] [--seconds S] [--trace 0|1] [--closed-loop 0|1]\n",
               argv0);
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  ipmbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(val) != 0;
    } else if (arg == "--closed-loop") {
      opt.closed_loop = std::atoi(val) != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.seconds <= 0.0) return usage(argv[0]);
  const bool app = opt.workload == "amber_stream" || opt.workload == "hpl_collect";
  const bool fleet = opt.workload == "fleet_burst" || opt.workload == "fleet_idle";
  if (!app && !fleet) return usage(argv[0]);
  if (opt.closed_loop && opt.workload != "fleet_burst") return usage(argv[0]);

  opt.work_dir = ".bench_out/" + opt.workload + "-" + std::to_string(getpid());
  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  ipmbench::Spans::get().enable(opt.trace);

  ipmbench::Report rep;
  try {
    rep = app ? ipmbench::run_app(opt) : ipmbench::run_fleet(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ipmbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::printf("# ipmbench %s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& line : rep.notes) std::printf("%s\n", line.c_str());
  if (opt.trace) {
    const ipmbench::Spans& spans = ipmbench::Spans::get();
    std::printf("# span self time (s), %zu spans\n", spans.size());
    for (const auto& [name, self] : spans.self_times()) {
      std::printf("  %-28s %12.6f\n", name.c_str(), self);
    }
    const std::string path = ".bench_out/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!spans.write(path)) std::fprintf(stderr, "ipmbench: cannot write %s\n", path.c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);

  std::printf("# error_rate %.6g ratio (%llu failed of %llu checks)\n",
              rep.attempted ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                            : 1.0,
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  std::string line = "{\"correct\": ";
  line += rep.failed == 0 && rep.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(rep.attempted);
  line += ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const ipmbench::Metric& m = rep.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return rep.failed == 0 && rep.attempted > 0 ? 0 : 1;
}
