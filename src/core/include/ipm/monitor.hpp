// Per-rank monitoring context and job lifecycle.
//
// One Monitor per simulated rank (thread).  Wrappers obtain the calling
// rank's monitor via ipm::monitor() — created lazily on the first
// monitored event, exactly like real IPM initializes on the first
// intercepted call.  At rank finalize the profile is pushed into a
// process-wide collector; the report layer then aggregates across ranks
// (on a real cluster this is IPM's MPI reduction at MPI_Finalize).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ipm/errors.hpp"
#include "ipm/hashtable.hpp"
#include "ipm/trace.hpp"
#include "simcommon/clock.hpp"

namespace ipm {

class Monitor;

namespace live {
class LivePublisher;
void capture(Monitor& m) noexcept;  // live.hpp
}

/// Policy for when the kernel timing table checks for completed kernels
/// (paper §III-B: checking too often costs, too rarely delays attribution).
enum class KttPolicy {
  kOnD2HTransfer,  ///< paper default: poll only in device-to-host transfers
  kOnEveryCall,    ///< poll in every wrapped CUDA call (ablation)
  kNever,          ///< only drain at finalize (ablation)
};

struct Config {
  bool enabled = true;           ///< master switch (unmonitored baseline runs)
  bool kernel_timing = true;     ///< GPU kernel timing via the event API (§III-B)
  /// Subtract the calibrated event-bracket overhead from each kernel
  /// measurement (the timing-fidelity correction the paper says it is
  /// investigating in §IV-A).  Calibrated once per rank from an empty
  /// start/stop event pair on an idle stream.
  bool ktt_overhead_correction = false;
  bool host_idle = true;         ///< implicit-host-blocking detection (§III-C)
  KttPolicy ktt_policy = KttPolicy::kOnD2HTransfer;
  unsigned table_log2_slots = 13;
  /// Virtual-time charge per recorded event: models IPM's own perturbation
  /// of the application (set from the measured real wrapper cost; used by
  /// the Fig. 8 dilatation experiment).
  double monitor_charge = 0.0;
  bool banner_to_stdout = false;  ///< print the banner at job_end
  std::string log_path;           ///< XML profiling log ("" = no log)
  /// Emit the report automatically when the monitored thread exits (the
  /// LD_PRELOAD scenario, where no harness calls job_end explicitly).
  bool report_at_exit = false;
  /// Per-rank event tracing (trace.hpp): every monitored event additionally
  /// appends a timestamped record to a bounded ring, flushed to a per-rank
  /// binary trace file at finalize and referenced from the XML log.
  bool trace = false;
  /// Ring holds 2^trace_log2_records records per rank (drops counted beyond).
  unsigned trace_log2_records = 16;
  /// Trace file prefix ("" derives from log_path, or "ipm_trace"); rank N
  /// flushes to "<prefix>.rank<N>.ipmt" (view with `ipm_parse --trace`).
  std::string trace_path;
  /// Fault-injection spec installed into faultsim at job_begin (see
  /// faultsim/fault.hpp for the grammar), e.g.
  /// "cudaMalloc:oom@3,cudaMemcpy:err@p=0.01:seed=42".  Empty: leave the
  /// injector alone (IPM_FAULT in the environment still self-configures).
  std::string fault;
  /// Live telemetry (src/ipm_live): virtual-time interval in seconds between
  /// per-rank delta snapshots (IPM_SNAPSHOT).  0 = off (the default; the
  /// monitoring fast path then pays one relaxed load for the gate).
  double snapshot_interval = 0.0;
  /// Per-rank sample channel holds 2^snapshot_log2_samples pending samples;
  /// beyond that, samples coalesce into the next interval and a drop is
  /// counted (IPM_SNAPSHOT_SAMPLES).
  unsigned snapshot_log2_samples = 8;
  /// Cluster time-series JSONL path ("" derives "<log stem>_timeseries.jsonl"
  /// from log_path, or "ipm_timeseries.jsonl"; IPM_TIMESERIES).
  std::string timeseries_path;
  /// Prometheus-style text exposition file, rewritten atomically each emitted
  /// interval ("" = none; IPM_PROM_FILE).
  std::string prom_path;
  /// Adaptive snapshot cadence (IPM_SNAPSHOT_ADAPTIVE, default on): the
  /// publisher widens its virtual-time grid (backoff x2 up to x64) while
  /// channel occupancy crosses the 3/4 high-water mark and recovers below
  /// 1/4, trading resolution for fewer drops under a slow consumer.
  bool snapshot_adaptive = true;
  /// Out-of-process aggregation (src/ipm_aggd): address of the ipm_aggd
  /// daemon, "unix:/path.sock" or "tcp:host:port" (IPM_AGG_ADDR).  When set
  /// and snapshot_interval > 0, samples stream to the daemon instead of the
  /// in-process collector.
  std::string agg_addr;
  /// Job id labelling this run's stream at the daemon (IPM_JOB_ID; ""
  /// derives "job<pid>").
  std::string job_id;
  /// Real-time budget in seconds for the end-of-job socket flush handshake
  /// (IPM_AGG_FLUSH_TIMEOUT).
  double agg_flush_timeout = 10.0;
  /// Transport fault injection: drop the daemon connection after every N
  /// sample frames sent (IPM_AGG_CHAOS_KILL_EVERY; 0 = off).  Exercises the
  /// reconnect + epoch-resume path deterministically in tests and CI.
  unsigned agg_chaos_kill_every = 0;
};

/// Populate a Config from IPM_* environment variables
/// (IPM_REPORT=none|terse|full, IPM_LOG=<path>, IPM_KERNEL_TIMING=0|1,
///  IPM_HOST_IDLE=0|1, IPM_KTT_POLICY=d2h|every|never, IPM_HASH_BITS=<n>,
///  IPM_FAULT=<fault spec>).  Throws std::runtime_error naming the variable
/// on a value it cannot take: IPM_SNAPSHOT and IPM_AGG_FLUSH_TIMEOUT must be
/// finite numbers >= 0; IPM_HASH_BITS, IPM_TRACE_RECORDS,
/// IPM_SNAPSHOT_SAMPLES and IPM_AGG_CHAOS_KILL_EVERY integers in
/// 0..UINT_MAX (the table, ring and channel clamp their sizes further).
[[nodiscard]] Config config_from_env(Config base = {});

/// Flattened profile entry (merged over hash-table slots with equal name/
/// region/select; bytes are accumulated).
struct EventRecord {
  std::string name;
  std::uint32_t region = 0;
  std::int32_t select = 0;
  std::uint64_t count = 0;
  double tsum = 0.0;
  double tmin = 0.0;
  double tmax = 0.0;
  std::uint64_t bytes = 0;
};

struct RankProfile {
  int rank = 0;
  std::string hostname;
  double start = 0.0;
  double stop = 0.0;
  std::uint64_t mem_bytes = 0;
  std::uint64_t table_overflow = 0;
  std::string trace_file;           ///< per-rank trace file ("" = not traced)
  std::uint64_t trace_spans = 0;    ///< records flushed to trace_file
  std::uint64_t trace_drops = 0;    ///< records dropped (ring full)
  std::uint64_t snapshot_samples = 0;  ///< live delta samples published
  std::uint64_t snapshot_drops = 0;    ///< samples coalesced (channel full)
  std::vector<EventRecord> events;
  std::vector<std::string> regions;  ///< region id -> name

  [[nodiscard]] double wallclock() const noexcept { return stop - start; }
  /// Sum of tsum over events of one family_of() family, named "MPI",
  /// "CUDA", "CUBLAS", "CUFFT", "GPU" or "IDLE" (0 for any other name).
  [[nodiscard]] double time_in(const std::string& family) const;
  [[nodiscard]] std::uint64_t calls_in(const std::string& family) const;
};

struct JobProfile {
  std::string command = "./a.out";
  int nranks = 0;
  double start = 0.0;
  double stop = 0.0;
  std::string timeseries_file;       ///< cluster time-series JSONL ("" = none)
  double snapshot_interval = 0.0;    ///< live snapshot interval (0 = off)
  std::uint64_t snapshot_intervals = 0;  ///< cluster points emitted
  std::vector<RankProfile> ranks;  ///< indexed by rank

  /// Sum of per-rank live sample / drop counters.
  [[nodiscard]] std::uint64_t snapshot_samples() const noexcept;
  [[nodiscard]] std::uint64_t snapshot_drops() const noexcept;
};

/// Event family behind the derived metrics (RankProfile::time_in, the live
/// merge's per-family seconds and bytes).
enum class Family : std::uint8_t { kNone, kMpi, kCuda, kGpu, kIdle, kCublas, kCufft };

/// The one family classifier, by name prefix: MPI_* is kMpi, @CUDA_EXEC*
/// kGpu (kernel pseudo-events), @CUDA_HOST_IDLE* kIdle, cublas* kCublas,
/// cufft* kCufft, and cuda* or cu[A-Z]* (driver API) kCuda.
[[nodiscard]] Family family_of(std::string_view name) noexcept;

class Monitor {
 public:
  explicit Monitor(const Config& cfg);
  ~Monitor();
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Record one event: the UPDATE_DATA of the paper's Fig. 2 wrapper and
  /// the one entry point every monitored event goes through.  Folds `dur`
  /// into the hash-table slot of (key, region, bytes, select), appends a
  /// span carrying the *same* double to the trace ring when tracing (so
  /// per-key span sums conserve EventStats totals), then applies the
  /// Fig. 8 charge and the live due check.  `region` is explicit because a
  /// deferred measurement (a KTT completion) belongs to the region that was
  /// active at launch, not the current one.
  void record(const PreparedKey& key, std::uint32_t region, double t0, double dur,
              std::uint64_t bytes = 0, std::int32_t select = 0,
              TraceKind kind = TraceKind::kHost, std::int32_t err = 0) noexcept {
    table_.update_hashed(EventKey{key.name, region, bytes, select},
                         EventKey::finish(key.pre, region, bytes, select), dur);
    if (trace_ring_ != nullptr) {
      trace_ring_->push(TraceRecord{t0, dur, key.name, region, bytes, select, err, kind});
    }
    // Model IPM's own perturbation of the application (Fig. 8 experiment).
    if (cfg_.monitor_charge > 0.0) simx::current_context().clock.advance(cfg_.monitor_charge);
    // Live telemetry: virtual time only advances on this thread, so the
    // interval boundary is observed here.  Cost when attached but not due:
    // two loads and one predictable branch.
    if (live_pub_ != nullptr && clock_->now() >= live_next_due_) live::capture(*this);
  }

  /// Status front of record() for a wrapped call in the current region.  A
  /// call that failed (`is_error(domain, code)`) is recorded under its
  /// per-error-code key (`name[ERR=slug]`, see errors.hpp) with ZERO bytes
  /// credited — the work did not happen — while its duration is still
  /// accounted and its span carries the error code.
  void record_call(const PreparedKey& key, double t0, double dur, std::uint64_t bytes,
                   std::int32_t select, ErrDomain domain, std::int64_t code) {
    if (is_error(domain, code)) {
      // Cold path: mint (or re-intern) the error key outside any lock the
      // fast path takes.
      record(error_key(name_of(key.name).c_str(), domain, code), region_stack_.back(), t0,
             dur, 0, select, TraceKind::kHost, static_cast<std::int32_t>(code));
    } else {
      record(key, region_stack_.back(), t0, dur, bytes, select);
    }
  }

  /// True when this monitor keeps a trace ring (Config::trace).
  [[nodiscard]] bool tracing() const noexcept { return trace_ring_ != nullptr; }

  [[nodiscard]] TraceRing* trace_ring() noexcept { return trace_ring_.get(); }
  [[nodiscard]] const TraceRing* trace_ring() const noexcept { return trace_ring_.get(); }

  /// True when this monitor publishes live delta snapshots
  /// (Config::snapshot_interval > 0 and the publisher attached).
  [[nodiscard]] bool live() const noexcept { return live_pub_ != nullptr; }

  /// Region stack (MPI_Pcontrol-style user regions).
  void region_begin(const std::string& name);
  void region_end();
  [[nodiscard]] std::uint32_t current_region() const noexcept { return region_stack_.back(); }

  /// Hooks run at rank finalize *before* the profile snapshot (the CUDA
  /// layer drains its kernel timing table here).
  void add_finalize_hook(std::function<void()> hook);

  /// Memory footprint hint reported in the banner (paper reports "mem [GB]").
  void set_mem_bytes(std::uint64_t bytes) noexcept { mem_bytes_ = bytes; }

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] PerfHashTable& table() noexcept { return table_; }
  [[nodiscard]] const PerfHashTable& table() const noexcept { return table_; }
  [[nodiscard]] double start_time() const noexcept { return start_; }

  /// Snapshot this rank's profile (used by finalize and by tests).
  [[nodiscard]] RankProfile snapshot() const;

  /// Layer scratch space: the CUDA monitoring layer stores its kernel
  /// timing table here so the core stays layer-agnostic.
  void* layer_data = nullptr;
  std::function<void(void*)> layer_data_deleter;

 private:
  friend RankProfile rank_finalize();
  friend class live::LivePublisher;
  Config cfg_;
  PerfHashTable table_;
  std::unique_ptr<TraceRing> trace_ring_;  ///< present iff cfg_.trace
  double start_;
  std::uint64_t mem_bytes_ = 0;
  std::vector<std::uint32_t> region_stack_;
  std::vector<std::string> regions_;
  std::vector<std::function<void()>> finalize_hooks_;
  /// Live telemetry publisher state (owned by ipm::live, attached at
  /// construction when cfg_.snapshot_interval > 0).  The hot path checks
  /// the pointer and the due time only; captures run in ipm_live.
  live::LivePublisher* live_pub_ = nullptr;
  double live_next_due_ = 0.0;
  /// Calling rank's virtual clock, cached at construction so the per-event
  /// due check skips the thread-local context lookup.
  const simx::RankClock* clock_ = nullptr;
};

// --- job lifecycle ----------------------------------------------------------

/// Begin a monitored job: installs `cfg` for monitors created afterwards
/// and clears the collector.  Call once per experiment (any thread).
void job_begin(const Config& cfg, const std::string& command);

/// The calling rank's monitor (created lazily with the job config).
/// Returns nullptr when monitoring is disabled.
[[nodiscard]] Monitor* monitor();

/// True if the calling rank currently has a monitor.
[[nodiscard]] bool has_monitor();

/// Finalize the calling rank: run hooks, snapshot, push to the collector,
/// destroy the monitor.  Returns the snapshot.
RankProfile rank_finalize();

/// End the job: returns the aggregated profile (ranks sorted by rank id),
/// writes the banner/XML according to the job config.
JobProfile job_end();

/// The active job config.
[[nodiscard]] const Config& job_config();

/// Virtual wallclock of the calling rank (the get_time() of Fig. 2).
[[nodiscard]] double gettime() noexcept;

/// Instant lifecycle marker (MPI_Init / MPI_Finalize) on the calling
/// rank's trace; no-op when the rank is not tracing.  Called from
/// generated wrappers (wrapgen emits it for init/finalize-kind calls).
void trace_lifecycle_marker(const PreparedKey& key) noexcept;

/// Generic Fig. 2 wrapper body: begin/end timers around the real call plus
/// UPDATE_DATA (Monitor::record_call).  `fn`'s return value is a status in
/// `domain`; kNone, a void return and a non-integral return (a value such
/// as cublasSdot's float) always record a success.  The error is never
/// swallowed: the return value reaches the application unchanged.  The CUDA
/// layer's ipm::cuda::timed_call first services the kernel timing table.
template <typename Fn>
auto timed_event(const PreparedKey& key, std::uint64_t bytes, std::int32_t select,
                 ErrDomain domain, Fn&& fn) {
  Monitor* mon = monitor();
  if (mon == nullptr) return fn();
  const double begin = gettime();
  using Ret = decltype(fn());
  if constexpr (std::is_void_v<Ret>) {
    fn();
    mon->record_call(key, begin, gettime() - begin, bytes, select, domain, 0);
  } else {
    auto ret = fn();
    const double dur = gettime() - begin;
    std::int64_t code = 0;
    if constexpr (std::is_integral_v<Ret> || std::is_enum_v<Ret>) {
      code = static_cast<std::int64_t>(ret);
    }
    mon->record_call(key, begin, dur, bytes, select, domain, code);
    return ret;
  }
}

}  // namespace ipm
