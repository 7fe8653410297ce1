// ipm_aggd — out-of-process cluster aggregation daemon (aggd.hpp).
//
//   ipm_aggd --listen unix:/tmp/ipm_agg.sock --out /var/lib/ipm
//   IPM_AGG_ADDR=unix:/tmp/ipm_agg.sock ./monitored_app   (x N jobs)
//   curl-less scrape: cat /var/lib/ipm/ipm_agg.prom
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "ipm_aggd/aggd.hpp"
#include "simcommon/str.hpp"

namespace {

ipm::aggd::Daemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();
}

int usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --listen <addr>         accept sample streams on a socket\n"
      "                          (unix:/path.sock | tcp:host:port)\n"
      "  --out <dir>             output directory (default .)\n"
      "  --prom <file>           exposition file (default <out>/ipm_agg.prom)\n"
      "  --tail <file.jsonl>     follow an existing time-series file\n"
      "                          (file-transport fallback; repeatable)\n"
      "  --fleet-interval <s>    fleet-wide merge interval (> 0, default 1.0)\n"
      "  --exit-after-jobs <n>   exit once n jobs completed (0 = never)\n"
      "  --workers <n>           worker threads (-1 auto, 0 serial, max 256)\n"
      "  --stall-ms <ms>         disconnect clients stalled this long (> 0)\n"
      "  --outbuf-max <bytes>    per-session outbound buffer bound (> 0, <= 1 TiB)\n"
      "\n"
      "Point monitored jobs at the daemon with IPM_AGG_ADDR=<addr> (plus\n"
      "IPM_SNAPSHOT=<interval> and an IPM_JOB_ID per job).  The daemon\n"
      "writes <out>/<job>_timeseries.jsonl per job, a fleet-wide\n"
      "fleet_timeseries.jsonl, and one Prometheus exposition with\n"
      "job/rank labels.\n",
      argv0);
  return code;
}

[[noreturn]] void bad_value(const char* argv0, const std::string& flag,
                            const char* value) {
  std::fprintf(stderr, "%s: invalid value '%s' for %s\n", argv0, value, flag.c_str());
  std::exit(usage(argv0, 2));
}

}  // namespace

int main(int argc, char** argv) {
  ipm::aggd::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A numeric value in range; anything else exits 2 with the usage text.
    const auto integer = [&](std::int64_t lo, std::int64_t hi) {
      const char* v = value();
      try {
        const std::int64_t n = simx::parse_i64(v);
        if (n >= lo && n <= hi) return n;
      } catch (const std::runtime_error&) {
      }
      bad_value(argv[0], arg, v);
    };
    const auto positive = [&] {
      const char* v = value();
      try {
        const double x = simx::parse_double(v);
        if (std::isfinite(x) && x > 0.0) return x;
      } catch (const std::runtime_error&) {
      }
      bad_value(argv[0], arg, v);
    };
    if (arg == "--listen") {
      opt.listen = value();
    } else if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--prom") {
      opt.prom_path = value();
    } else if (arg == "--tail") {
      opt.tails.emplace_back(value());
    } else if (arg == "--fleet-interval") {
      opt.fleet_interval = positive();
    } else if (arg == "--exit-after-jobs") {
      opt.exit_after_jobs = static_cast<int>(integer(0, INT_MAX));
    } else if (arg == "--workers") {
      opt.workers = static_cast<int>(integer(-1, 256));
    } else if (arg == "--stall-ms") {
      opt.stall_ms = static_cast<int>(integer(1, INT_MAX));
    } else if (arg == "--outbuf-max") {
      opt.session_outbuf_max =
          static_cast<std::size_t>(integer(1, std::int64_t{1} << 40));
    } else if (arg == "-h" || arg == "--help") {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      return usage(argv[0], 2);
    }
  }
  if (opt.listen.empty() && opt.tails.empty()) {
    std::fprintf(stderr, "%s: need --listen and/or --tail\n", argv[0]);
    return usage(argv[0], 2);
  }
  ipm::aggd::Daemon daemon(opt);
  std::string err;
  if (!daemon.start(err)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
    return 1;
  }
  g_daemon = &daemon;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  daemon.run();
  return 0;
}
