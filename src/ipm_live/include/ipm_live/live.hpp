// Live cluster telemetry: in-run delta snapshots and aggregation.
//
// The paper's IPM reports only at MPI_Finalize; a 48-rank run is a black
// box until it exits.  This subsystem adds the operational layer: with
// Config::snapshot_interval > 0 (IPM_SNAPSHOT) each rank's monitor
// periodically folds its performance hash table (PerfHashTable::for_each,
// the visitor the finalize snapshot uses), computes *deltas* against the
// previous sample, and pushes them onto a bounded SPSC channel — the same
// drop-counting, never-blocking discipline as the trace ring.  A process-
// wide collector thread merges all ranks in virtual time into per-interval
// cluster points and writes a JSONL time-series file plus an optional
// Prometheus-style exposition file rewritten atomically every emitted
// interval.  The time series is written like every time-series stream here,
// the daemon's included: one checked append (open, write, close) per
// consumer pass, no file held open, the first append truncating the file
// and a later one never creating it.  The XML log references the file only
// when every append succeeded.
//
// Capture runs on the owning rank thread, piggybacked on Monitor::record —
// virtual time only advances there, so that is the one place an interval
// boundary can be observed.  The table and trace ring therefore have one
// owner and no synchronisation; what crosses threads is a published
// sample, through SampleChannel, and the publisher list in the collector
// registry.  The collector never touches a table.
//
// Conservation invariant: for every rank, folding all published deltas (in
// publish order) reproduces the finalize RankProfile bit-exactly — counts
// and bytes by exact integer arithmetic, tsum by construction: each
// published dtsum is nudged (std::nextafter) until prev + dtsum rounds to
// exactly the captured running total (where no double does, a zero-count
// correction delta for the same key follows), and the publisher mirrors
// the consumer's fold.  A full channel therefore never loses data: the sample
// is skipped, a drop is counted, and the *next* successful capture
// coalesces the skipped window; the finalize flush bypasses the channel
// entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "ipm/key.hpp"
#include "ipm/monitor.hpp"

namespace ipm::live {

/// KeyDelta::name of a delta that has no interned id: its name is name_str.
inline constexpr NameId kNoName = std::numeric_limits<NameId>::max();

/// Per-(name, region, select) delta between two consecutive samples.
struct KeyDelta {
  NameId name = kNoName;    ///< interned id (in-process samples only)
  std::string name_str;     ///< the name where `name` is kNoName (read back)
  std::uint32_t region = 0;
  std::int32_t select = 0;
  std::uint64_t dcount = 0;
  std::uint64_t dbytes = 0;
  double dtsum = 0.0;   ///< nudged so folding deltas conserves tsum exactly
  double dflops = 0.0;  ///< estimated flops (operand-size model, see flops_per_call)
};

/// One rank's published delta sample covering virtual time (t0, t1].
struct Sample {
  int rank = 0;
  std::uint64_t seq = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  bool final_flush = false;           ///< emitted on the finalize path
  /// Device-counter ground truth deltas (cusim::device_counters, via the
  /// GpuProbe seam; reported by one rank per node, 0 elsewhere).
  double ddev_flops = 0.0;
  double ddev_bytes = 0.0;
  std::vector<std::string> regions;   ///< region id -> name at capture time
  std::vector<KeyDelta> deltas;
};

/// Cluster-wide roll-up of one snapshot interval [t0, t1).
struct ClusterPoint {
  std::uint64_t k = 0;       ///< interval index (t0 = k * interval)
  double t0 = 0.0;
  double t1 = 0.0;
  int ranks = 0;             ///< ranks that contributed a sample
  int ranks_live = 0;        ///< ranks attached (denominator for busy %)
  std::uint64_t samples = 0;
  std::uint64_t devents = 0;   ///< monitored calls in the interval
  double mpi_s = 0.0;          ///< rank-seconds in MPI_*
  double cuda_s = 0.0;         ///< rank-seconds in CUDA API calls
  double gpu_s = 0.0;          ///< device-seconds (@CUDA_EXEC kernels)
  double idle_s = 0.0;         ///< rank-seconds in @CUDA_HOST_IDLE
  double blas_s = 0.0;         ///< rank-seconds in CUBLAS
  double fft_s = 0.0;          ///< rank-seconds in CUFFT
  std::uint64_t mpi_bytes = 0;
  std::uint64_t cuda_bytes = 0;
  double flops = 0.0;          ///< estimated flops completed in the interval
  double dev_flops = 0.0;      ///< device-counter flops (modelled ground truth)
  double dev_bytes = 0.0;      ///< device-counter DRAM traffic
  /// region name -> estimated flops (per-region GFLOP rates).
  std::vector<std::pair<std::string, double>> region_flops;

  [[nodiscard]] double span() const noexcept { return t1 - t0; }
};

/// Bounded single-producer / single-consumer sample channel.  push() never
/// blocks and never allocates slots: a full channel refuses the sample
/// (the publisher counts the drop and coalesces into the next capture).
class SampleChannel {
 public:
  explicit SampleChannel(unsigned log2_slots);

  /// Moves `s` into the channel and returns true, or returns false and
  /// leaves `s` untouched when the channel is full.
  bool push(Sample&& s) noexcept;
  bool pop(Sample& out);
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }
  /// Pending samples (producer-side view; the adaptive-cadence input).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(tail_.load(std::memory_order_relaxed) -
                                    head_.load(std::memory_order_acquire));
  }

 private:
  std::vector<Sample> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};  ///< consumer position
  std::atomic<std::uint64_t> tail_{0};  ///< producer position
};

/// Per-rank delta publisher, owned via Monitor::live_pub_ from attach to
/// detach/abandon (the consumer thread deletes it after the final drain).
class LivePublisher {
 public:
  LivePublisher(Monitor& m, int rank);

  /// Capture the delta since the previous successful sample and publish it.
  /// Runs on the owning rank thread only.
  void capture(bool final_flush) noexcept;

  /// Backends of the free seam functions below (LivePublisher is the
  /// Monitor friend; the free functions are not).
  static void do_attach(Monitor& m);
  static void do_capture(Monitor& m, bool final_flush) noexcept;
  static void do_detach(Monitor& m, RankProfile& p);
  static void do_abandon(Monitor& m) noexcept;
  static std::vector<Sample> do_drain(Monitor& m);
  static std::uint32_t do_backoff(Monitor& m) noexcept;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  /// Adaptive-cadence backoff: 1 at the base grid, doubled (up to 64) while
  /// channel occupancy sits above the high-water mark (see capture()).
  [[nodiscard]] std::uint32_t backoff_factor() const noexcept { return backoff_; }
  [[nodiscard]] SampleChannel& channel() noexcept { return channel_; }
  /// Finalize-flush samples that did not fit the channel (consumed by the
  /// collector after `finalized`; ordering via the registry mutex).
  [[nodiscard]] std::vector<Sample>& final_overflow() noexcept { return final_overflow_; }
  /// True once the owning rank detached (guarded by the registry mutex).
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

 private:
  /// Consumer-fold mirror per (name, region, select): what a consumer that
  /// folded every published delta holds right now.
  struct Mirror {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    double tsum = 0.0;
    double flops = 0.0;
  };

  void adapt_cadence(Monitor& m, double now, bool published) noexcept;

  Monitor* mon_;
  int rank_;
  SampleChannel channel_;
  std::map<std::tuple<NameId, std::uint32_t, std::int32_t>, Mirror> mirrors_;
  double prev_t_;
  /// Device-counter fold position (advances on publish, like mirrors_).
  double dev_flops_ = 0.0;
  double dev_bytes_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t drops_ = 0;
  std::uint32_t backoff_ = 1;  ///< adaptive cadence grid multiplier
  std::vector<Sample> final_overflow_;
  bool finalized_ = false;  ///< guarded by the collector registry mutex
};

// --- publisher seam (called from ipm core) ----------------------------------

/// Create and register this monitor's publisher (Monitor constructor calls
/// this when cfg.snapshot_interval > 0).
void attach_rank(Monitor& m);

/// Forced capture now (due-check lives in the Monitor hot path; tests call
/// this directly).  No-op when `m` has no publisher.
void capture(Monitor& m) noexcept;

/// Finalize flush: capture the remaining delta, bypassing the bounded
/// channel if full, so conservation holds unconditionally.  Call *before*
/// Monitor::snapshot() with no table updates in between.
void final_flush(Monitor& m) noexcept;

/// Record sample/drop counters into `p`, hand the publisher to the
/// collector (which drains and deletes it) and clear m's live state.
void detach_rank(Monitor& m, RankProfile& p);

/// Drop the publisher without flushing (stale monitor discarded at
/// job_begin, or Monitor destruction without finalize).
void abandon_rank(Monitor& m) noexcept;

/// Test hook: pop every pending sample of m's channel (+ final overflow).
/// Only valid while no collector is consuming (SPSC: one consumer).
[[nodiscard]] std::vector<Sample> drain(Monitor& m);

/// Adaptive-cadence grid multiplier of m's publisher (1 when none).
[[nodiscard]] std::uint32_t backoff_factor(Monitor& m) noexcept;

// --- device-counter ground truth seam ---------------------------------------

/// Optional ground-truth probe: fills cumulative modelled device flops and
/// DRAM bytes for the calling rank's share of the fleet (the ipm_cuda layer
/// registers one backed by cusim::device_counters; one rank per node
/// reports, the rest return false).  Called on the rank thread during
/// capture; keeps ipm_live free of any simulator dependency.
using GpuProbe = bool (*)(double& flops, double& dram_bytes);

void set_gpu_probe(GpuProbe probe) noexcept;
[[nodiscard]] GpuProbe gpu_probe() noexcept;

// --- sample sinks ------------------------------------------------------------

struct CollectorSummary {
  std::string timeseries_file;
  double interval = 0.0;
  std::uint64_t intervals = 0;  ///< cluster points emitted
};

/// Consumer side of the publisher channels.  One process-wide consumer
/// thread drains every rank channel and hands samples to exactly one sink:
/// the in-process collector (JSONL + exposition, the PR-4 behavior) or the
/// socket client streaming to an external `ipm_aggd` daemon.  All methods
/// run on the consumer thread with the registry lock held.
class SampleSink {
 public:
  virtual ~SampleSink() = default;

  /// Backpressure: while false the consumer stops popping rank channels,
  /// so samples stay under the publishers' bounded drop-and-coalesce
  /// discipline instead of accumulating unboundedly in the sink.
  [[nodiscard]] virtual bool ready() = 0;

  /// Take ownership of one published sample.  A consumed sample must never
  /// be lost: the publisher's conservation mirror has already advanced
  /// past it (finalize-flush consumption bypasses ready()).
  virtual void consume(Sample&& s) = 0;

  /// `rank` detached after its final flush was consumed.
  virtual void rank_finalized(int rank, std::uint64_t samples,
                              std::uint64_t drops) = 0;

  /// Periodic tick after each channel scan. `live_ranks` are the attached,
  /// not-yet-finalized ranks (interval emission barrier); `ranks_live` the
  /// attach count since start.
  virtual void tick(const std::vector<int>& live_ranks, int ranks_live) = 0;

  /// Everything drained; flush outputs and report what was written.  A
  /// socket sink blocks here (bounded by a real-time deadline) until the
  /// daemon acknowledged the stream.
  virtual CollectorSummary finish(int ranks_live) = 0;
};

/// Factory for the socket-client sink (client.cpp): streams samples to the
/// `ipm_aggd` daemon at cfg.agg_addr with bounded buffering, exponential
/// backoff reconnect and epoch-based resume.  Returns nullptr when
/// cfg.agg_addr does not parse (caller falls back to the in-process sink).
[[nodiscard]] std::unique_ptr<SampleSink> make_socket_sink(
    const Config& cfg, const std::string& command);

// --- collector --------------------------------------------------------------

/// Start the consumer thread (job_begin calls this when
/// cfg.snapshot_interval > 0).  With cfg.agg_addr set the samples stream to
/// the out-of-process daemon; otherwise the in-process collector merges
/// them.  Restarting an already running consumer stops it first.
void collector_start(const Config& cfg, const std::string& command);

/// Stop the consumer: drain every channel, finish the sink (emit pending
/// intervals / flush the socket) and return what was written.
CollectorSummary collector_stop();

// --- exposition file --------------------------------------------------------

/// Publish the exposition file `path` atomically: `text` is written to
/// `<path>.tmp`, which is closed and then renamed over `path`.  When the
/// write, the close or the rename fails, the failure is printed, the tmp
/// removed and the previous file kept, so a reader never sees a partial
/// exposition.
void publish_exposition(const std::string& path, std::string_view text);

// --- time-series file -------------------------------------------------------

/// Time-series path for a config: explicit timeseries_path, else derived
/// from the XML log path (profile.xml -> profile_timeseries.jsonl), else
/// "ipm_timeseries.jsonl".
[[nodiscard]] std::string timeseries_path(const Config& cfg);

/// In-memory form of a time-series file: line 1 is a header object
/// {"ipm_timeseries":1,"command":..,"interval":..}, then one JSON object
/// per record — per-rank delta samples ("type":"sample", the conservation
/// ground truth) interleaved with emitted cluster points ("type":"point").
struct TimeSeries {
  std::string command;
  double interval = 0.0;
  std::vector<ClusterPoint> points;
  std::vector<Sample> samples;
};

/// Read a whole time-series file, stopping at its end trailer.  Throws
/// std::runtime_error when the first line is not a header or when any later
/// line is rejected by parse_timeseries_line — a torn last line, which a
/// crashed writer leaves, included — naming it as "<path>:<line>: ...".
[[nodiscard]] TimeSeries read_timeseries_file(const std::string& path);

// Line codec: one writer per line kind (simx::JsonlWriter underneath) and
// one strict reader mirroring it field by field.  A reader accepts exactly
// the bytes its writer emits and returns false — its outputs then in an
// unspecified state — on anything else, a proper prefix included.

[[nodiscard]] std::string timeseries_header_line(const std::string& command,
                                                 double interval);
[[nodiscard]] bool parse_header_line(std::string_view line, std::string& command,
                                     double& interval);

/// parse_sample_line and fold_sample_line (merge.hpp) are one scan of this
/// grammar, so they accept the same bytes.  The aggregation daemon folds
/// millions of these as it reads them, without a Sample, and counts a
/// SAMPLE payload the scan rejects as a protocol error.
[[nodiscard]] std::string sample_line(const Sample& s);
[[nodiscard]] bool parse_sample_line(std::string_view line, Sample& out);

[[nodiscard]] std::string point_line(const ClusterPoint& p);
[[nodiscard]] bool parse_point_line(std::string_view line, ClusterPoint& out);

/// Trailer written when a stream completes ({"type":"end",...}); readers
/// stop at it, and `ipm_parse --follow` uses it to terminate.
[[nodiscard]] std::string end_line(std::uint64_t intervals);
[[nodiscard]] bool parse_end_line(std::string_view line, std::uint64_t& intervals);

/// What parse_timeseries_line found on a line.
enum class LineKind { kHeader, kSample, kPoint, kEnd, kRejected };

/// Parse one time-series line into `ts` with the reader of its kind: a
/// header fills command/interval, a sample or point is appended, an end
/// trailer changes nothing.  Any other line — malformed, torn or of an
/// unknown type — is kRejected and leaves `ts` unchanged.  Incremental form
/// of read_timeseries_file for --follow and the daemon's tail transport.
[[nodiscard]] LineKind parse_timeseries_line(std::string_view line, TimeSeries& ts);

/// Estimated flops of ONE call with this event name and per-call operand
/// bytes (the paper's §III-D byte counts: m*n*esize for BLAS-3, n*esize
/// for BLAS-1, transform points for cufftPlan*).  An explicit model, not a
/// measurement: BLAS-3 assumes square operands (flops = 2 * elems^1.5),
/// cufftExec* records zero bytes so FFT work is attributed at plan time.
[[nodiscard]] double flops_per_call(const std::string& name, std::uint64_t bytes);

/// Per-interval cluster roll-up report with an ASCII sparkline per metric
/// (`ipm_parse --timeseries`, fig9_hpl demo).
void write_timeseries_report(std::ostream& os, const TimeSeries& ts);

/// Sparkline helper: one glyph per value, " .:-=+*#%@" scaled to max.
[[nodiscard]] std::string sparkline(const std::vector<double>& values);

}  // namespace ipm::live
