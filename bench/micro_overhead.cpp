// EXP-M1 — measures the *real* CPU cost of the monitoring machinery with
// google-benchmark: hash-table updates, name interning, the full wrapped-
// call path, kernel-launch wrapping (KTT insertion), the host-idle probe,
// and the read path of live sample lines.  These are the
// nanoseconds-per-event numbers behind the paper's "<0.5 % perturbation"
// claim (§II) and the 0.21 % dilatation of Fig. 8; the measured figure
// feeds Config::monitor_charge in the Fig. 8 harness.
//
// Results are also written to BENCH_hotpath.json (ipm-bench-v1 schema, see
// bench/support/harness.hpp) so the hot-path perf trajectory is tracked
// across changes; the bench_smoke ctest target validates the file.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "cudasim/control.hpp"
#include "cudasim/cuda_runtime.h"
#include "cudasim/kernel.hpp"
#include "ipm/hashtable.hpp"
#include "ipm/monitor.hpp"
#include "ipm_live/live.hpp"
#include "simcommon/clock.hpp"
#include "simcommon/rng.hpp"
#include "support/harness.hpp"

namespace {

void BM_HashTableUpdateHit(benchmark::State& state) {
  ipm::PerfHashTable table(13);
  ipm::EventKey key{ipm::intern_name("bench_event"), 0, 4096, 0};
  table.update(key, 1e-6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.update(key, 1e-6));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashTableUpdateHit);

void BM_HashTableUpdateManyKeys(benchmark::State& state) {
  // Byte sizes vary per call (as real memcpy traffic does), touching many
  // distinct slots: the realistic cold-ish path.
  ipm::PerfHashTable table(static_cast<unsigned>(state.range(0)));
  ipm::EventKey key{ipm::intern_name("bench_event2"), 0, 0, 0};
  simx::Xoshiro256 rng(7);
  for (auto _ : state) {
    key.bytes = rng.uniform_u64(1024) * 64;
    benchmark::DoNotOptimize(table.update(key, 1e-6));
  }
  state.counters["fill"] =
      static_cast<double>(table.size()) / static_cast<double>(table.capacity());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashTableUpdateManyKeys)->Arg(10)->Arg(13)->Arg(16);

/// Tag-probe hit: find() an existing key in a table under realistic fill.
void BM_HashTableFindHit(benchmark::State& state) {
  ipm::PerfHashTable table(13);
  simx::Xoshiro256 rng(11);
  ipm::EventKey key{ipm::intern_name("bench_find"), 0, 0, 0};
  for (int i = 0; i < 2048; ++i) {
    key.bytes = static_cast<std::uint64_t>(i) * 64;
    table.update(key, 1e-6);
  }
  key.bytes = 1024 * 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(key));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashTableFindHit);

/// Tag-probe miss: find() an absent key — probes tag bytes until the first
/// empty slot, never touching the key/stats arrays.
void BM_HashTableFindMiss(benchmark::State& state) {
  ipm::PerfHashTable table(13);
  ipm::EventKey key{ipm::intern_name("bench_find"), 0, 0, 0};
  for (int i = 0; i < 2048; ++i) {
    key.bytes = static_cast<std::uint64_t>(i) * 64;
    table.update(key, 1e-6);
  }
  ipm::EventKey missing{ipm::intern_name("bench_absent"), 7, 1, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(missing));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashTableFindMiss);

/// Monitor::record with the key prepared per call from a NameId: the
/// stage-1 name mix is recomputed every time (a dynamically named site).
void BM_MonitorUpdate(benchmark::State& state) {
  simx::reset_default_context();
  ipm::job_begin(ipm::Config{}, "bench");
  ipm::Monitor* mon = ipm::monitor();
  const ipm::NameId name = ipm::intern_name("bench_monitor");
  for (auto _ : state) {
    mon->record(ipm::prepare_key(name), 0, 0.0, 1e-6, 4096, 0);
  }
  ipm::job_end();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MonitorUpdate);

/// Monitor::record by PreparedKey: only bytes/region/select folded per call
/// (the path the generated wrappers use).
void BM_MonitorUpdatePrepared(benchmark::State& state) {
  simx::reset_default_context();
  ipm::job_begin(ipm::Config{}, "bench");
  ipm::Monitor* mon = ipm::monitor();
  const ipm::PreparedKey key = ipm::prepare_key("bench_monitor_prepared");
  for (auto _ : state) {
    mon->record(key, 0, 0.0, 1e-6, 4096, 0);
  }
  ipm::job_end();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MonitorUpdatePrepared);

/// Traced variant of the prepared-key path: the same record() call now
/// also appends one trace-ring record (the cost of Config::trace on the
/// hot path).  Acceptance: <= 2x BM_MonitorUpdatePrepared.
void BM_MonitorUpdateTraced(benchmark::State& state) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.trace = true;  // default ring size (2^16): the shipped configuration
  ipm::job_begin(cfg, "bench");
  ipm::Monitor* mon = ipm::monitor();
  const ipm::PreparedKey key = ipm::prepare_key("bench_monitor_traced");
  ipm::TraceRing* ring = mon->trace_ring();
  const std::size_t cap = ring->capacity();
  std::size_t n = 0;
  for (auto _ : state) {
    mon->record(key, 0, 0.0, 1e-6, 4096, 0);
    // Recycle the ring at capacity so every iteration measures a real
    // append, not the drop path.
    if (++n == cap) {
      ring->clear();
      n = 0;
    }
  }
  ipm::job_end();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MonitorUpdateTraced);

/// The other half of a traced event: the rank-finalize flush of a filled
/// default-size ring (2^16 records) to its trace file.  `ns_per_record` is
/// the ledger row; the file lives in the temp directory, so the figure is
/// the encoding and write(2) cost, not the disk's.
void BM_TraceFlush(benchmark::State& state) {
  ipm::TraceRing ring(16);
  const ipm::NameId names[] = {
      ipm::intern_name("MPI_Allreduce"), ipm::intern_name("cudaMemcpy(D2H)"),
      ipm::intern_name("@CUDA_EXEC:bench_kernel"), ipm::intern_name("@CUDA_HOST_IDLE")};
  const ipm::TraceKind kinds[] = {ipm::TraceKind::kHost, ipm::TraceKind::kHost,
                                  ipm::TraceKind::kKernel, ipm::TraceKind::kIdle};
  simx::Xoshiro256 rng(3);
  double t = 0.0;
  for (std::size_t i = 0; i < ring.capacity(); ++i) {
    ipm::TraceRecord r;
    r.t0 = t;
    r.dur = rng.uniform(1e-6, 1e-4);
    t += r.dur + rng.uniform(0.0, 1e-5);
    r.name = names[i % 4];
    r.kind = kinds[i % 4];
    r.region = static_cast<std::uint32_t>(rng.uniform_u64(2));
    r.bytes = rng.uniform_u64(1u << 20);
    r.select = static_cast<std::int32_t>(i % 3);
    ring.push(r);
  }
  ipm::RankProfile p;
  p.hostname = "bench";
  p.stop = t;
  p.regions = {"ipm_global", "step"};
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "ipm_bm_trace_flush.rank0.ipmt";
  using Clock = std::chrono::steady_clock;
  double ns = 0.0;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    ipm::write_trace_file(path.string(), ring, p);
    ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }
  std::filesystem::remove(path);
  state.counters["ns_per_record"] = benchmark::Counter(
      ns / static_cast<double>(ring.size()), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ring.size()));
}
BENCHMARK(BM_TraceFlush)->Unit(benchmark::kMillisecond);

/// Live-telemetry variant of the prepared-key path: snapshot publishing is
/// on (IPM_SNAPSHOT), so every record adds the live due check (a publisher
/// pointer test and a clock read against the next due time) to the same
/// plain table update.  The interval is far past the virtual run time, so
/// no capture fires mid-loop — this is the steady-state per-event cost of
/// being observable.  Acceptance: <= 1.5x BM_MonitorUpdatePrepared,
/// enforced by bench_smoke via the IPM_BENCH_LIVE_RATIO_MAX hook in main()
/// below.
void BM_MonitorUpdateLive(benchmark::State& state) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.snapshot_interval = 3600.0;
  ipm::job_begin(cfg, "bench");
  ipm::Monitor* mon = ipm::monitor();
  const ipm::PreparedKey key = ipm::prepare_key("bench_monitor_live");
  for (auto _ : state) {
    mon->record(key, 0, 0.0, 1e-6, 4096, 0);
  }
  ipm::job_end();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MonitorUpdateLive);

/// One live capture on the owning thread: the slot-order fold of a
/// default-size table (8192 slots) holding 64 signatures, every one changed
/// since the previous capture, into a published delta sample.  The loop
/// drains the channel itself, as the collector would; `ns_per_capture`
/// times the capture alone.
void BM_LiveCapture(benchmark::State& state) {
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.snapshot_interval = 3600.0;  // captures only when the loop asks
  cfg.timeseries_path =
      (std::filesystem::temp_directory_path() / "ipm_bm_live_capture.jsonl").string();
  ipm::job_begin(cfg, "bench");
  ipm::live::collector_stop();
  ipm::Monitor* mon = ipm::monitor();
  std::vector<ipm::PreparedKey> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(ipm::prepare_key("bench_live_capture_" + std::to_string(i)));
  }
  using Clock = std::chrono::steady_clock;
  double ns = 0.0;
  for (auto _ : state) {
    for (const ipm::PreparedKey& k : keys) mon->record(k, 0, 0.0, 1e-6, 4096, 0);
    const Clock::time_point t0 = Clock::now();
    ipm::live::capture(*mon);
    ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    benchmark::DoNotOptimize(ipm::live::drain(*mon));
  }
  ipm::job_end();
  std::filesystem::remove(cfg.timeseries_path);
  state.counters["ns_per_capture"] = benchmark::Counter(ns, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LiveCapture);

/// A fig9_hpl-shaped sample line with `deltas` deltas: 6 is a rank's final
/// flush (~0.7 KB), 29 a steady-state one-second interval (~2.7 KB).
std::string fig9_sample_line(int deltas) {
  static const char* const kNames[] = {
      "MPI_Bcast",   "cudaMemcpyAsync(H2D)", "cudaEventSynchronize",
      "cublasDgemm", "@CUDA_EXEC:dgemm_nn_e_kernel", "cudaLaunch"};
  simx::Xoshiro256 rng(17);
  ipm::live::Sample s;
  s.rank = 11;
  s.seq = 14;
  s.t0 = 14.002848332340061;
  s.t1 = 15.011841505435445;
  s.ddev_flops = 42481790976.0;
  s.ddev_bytes = 4019257344.0;
  s.regions = {"ipm_global"};
  for (int i = 0; i < deltas; ++i) {
    ipm::live::KeyDelta d;
    d.name_str = kNames[i % 6];
    d.select = i / 6;
    d.dcount = 1 + rng.uniform_u64(256);
    d.dbytes = rng.uniform_u64(1ULL << 30);
    d.dtsum = rng.uniform(0.0, 0.1);
    if (i % 6 == 3) d.dflops = rng.uniform(0.0, 1e12);
    s.deltas.push_back(std::move(d));
  }
  return ipm::live::sample_line(s);
}

/// The daemon's per-SAMPLE parse: one sample line into a fresh Sample.
void BM_ParseSampleLine(benchmark::State& state) {
  const std::string line = fig9_sample_line(static_cast<int>(state.range(0)));
  ipm::live::Sample s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ipm::live::parse_sample_line(line, s));
    benchmark::DoNotOptimize(s.deltas.data());
  }
  state.counters["bytes"] = static_cast<double>(line.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseSampleLine)->Arg(6)->Arg(29);

/// The same lines through the time-series line dispatcher (file reader,
/// --follow, the daemon's tail transport).
void BM_ParseTimeSeriesLine(benchmark::State& state) {
  const std::string line = fig9_sample_line(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ipm::live::TimeSeries ts;
    benchmark::DoNotOptimize(ipm::live::parse_timeseries_line(line, ts));
    benchmark::DoNotOptimize(ts.samples.data());
  }
  state.counters["bytes"] = static_cast<double>(line.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseTimeSeriesLine)->Arg(6)->Arg(29);

/// Interning read path: re-interning an existing name (lock-free snapshot
/// lookup; this is what dynamically named call sites pay per call).
void BM_InternName(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ipm::intern_name("cudaMemcpy(D2H)"));
  }
}
BENCHMARK(BM_InternName);

/// Reverse lookup read path (report generation, KTT name resolution).
void BM_NameOf(benchmark::State& state) {
  const ipm::NameId id = ipm::intern_name("cudaMemcpy(H2D)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ipm::name_of(id));
  }
}
BENCHMARK(BM_NameOf);

/// Full wrapped-call path: this binary is linked with --wrap, so the
/// cudaStreamQuery below goes through the generated wrapper, the timed_call
/// helper, and Monitor::record — the complete per-event cost.
void BM_WrappedCudaCall(benchmark::State& state) {
  cusim::reset();
  simx::reset_default_context();
  ipm::job_begin(ipm::Config{}, "bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cudaStreamQuery(nullptr));
  }
  ipm::job_end();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WrappedCudaCall);

/// Same call with monitoring disabled: the pass-through overhead.
void BM_UnmonitoredCudaCall(benchmark::State& state) {
  cusim::reset();
  simx::reset_default_context();
  ipm::Config cfg;
  cfg.enabled = false;
  ipm::job_begin(cfg, "bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cudaStreamQuery(nullptr));
  }
  ipm::job_end();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UnmonitoredCudaCall);

/// Wrapped kernel launch: KTT slot claim + two event records + launch.
void BM_WrappedKernelLaunch(benchmark::State& state) {
  cusim::reset();
  simx::reset_default_context();
  ipm::job_begin(ipm::Config{}, "bench");
  static const cusim::KernelDef kKernel{
      "bench_kernel", {.flops_per_thread = 1.0, .dram_bytes_per_thread = 0.0,
                       .serial_iterations = 1.0, .efficiency = 1.0, .fixed_us = 1.0,
                       .double_precision = false},
      nullptr};
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cusim::launch_timed(kKernel, dim3(1), dim3(32)));
    // Drain the device periodically so the KTT never saturates.
    if (++i % 256 == 0) cudaThreadSynchronize();
  }
  ipm::job_end();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WrappedKernelLaunch);

/// Host-idle probe path: a monitored synchronous D2H memcpy.
void BM_WrappedSyncMemcpyD2H(benchmark::State& state) {
  cusim::reset();
  simx::reset_default_context();
  ipm::job_begin(ipm::Config{}, "bench");
  void* dev = nullptr;
  cudaMalloc(&dev, 4096);
  char host[4096];
  for (auto _ : state) {
    benchmark::DoNotOptimize(cudaMemcpy(host, dev, sizeof host, cudaMemcpyDeviceToHost));
  }
  cudaFree(dev);
  ipm::job_end();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WrappedSyncMemcpyD2H);

/// Console output as usual, plus collection of every run for the JSON
/// trajectory file.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      benchx::BenchResult r;
      r.name = run.benchmark_name();
      r.iterations = run.iterations;
      if (run.iterations > 0) {
        r.ns_per_op =
            run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
      }
      for (const auto& [key, counter] : run.counters) {
        r.counters.emplace_back(key, counter.value);
      }
      results.push_back(std::move(r));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<benchx::BenchResult> results;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!benchx::write_bench_json("BENCH_hotpath.json", "micro_overhead",
                                reporter.results)) {
    std::fprintf(stderr, "micro_overhead: cannot write BENCH_hotpath.json\n");
    return 1;
  }
  // Optional acceptance gate (set by bench_smoke with a filtered, longer
  // run): the live-telemetry path must stay within RATIO_MAX x the plain
  // prepared-key path.
  if (const char* max_str = std::getenv("IPM_BENCH_LIVE_RATIO_MAX")) {
    const double ratio_max = std::strtod(max_str, nullptr);
    double prepared = 0.0;
    double live = 0.0;
    for (const benchx::BenchResult& r : reporter.results) {
      if (r.name == "BM_MonitorUpdatePrepared") prepared = r.ns_per_op;
      if (r.name == "BM_MonitorUpdateLive") live = r.ns_per_op;
    }
    if (prepared <= 0.0 || live <= 0.0) {
      std::fprintf(stderr, "micro_overhead: live-ratio gate needs both "
                           "BM_MonitorUpdatePrepared and BM_MonitorUpdateLive\n");
      return 1;
    }
    const double ratio = live / prepared;
    std::fprintf(stderr, "micro_overhead: live/prepared = %.3f (max %.2f)\n", ratio,
                 ratio_max);
    if (ratio > ratio_max) {
      std::fprintf(stderr, "micro_overhead: live snapshot overhead ratio %.3f "
                           "exceeds %.2f\n", ratio, ratio_max);
      return 1;
    }
  }
  return 0;
}
