// Virtual-time merge of per-rank delta samples into ClusterPoints.
//
// JobMerger is the aggregation core shared by the in-process collector
// thread (one job) and the out-of-process `ipm_aggd` daemon (many jobs,
// one merger each plus a fleet-wide one).  It is pure bookkeeping: the
// caller feeds samples and asks which intervals are closed; all IO (JSONL
// lines, exposition files) stays with the caller.  Its state has no
// serialized form: the daemon keeps every job's merger in memory, idle or
// not, and writes only the lines it emits.
//
// A sample is reduced once to a SampleFold: its deltas summed per family
// (ipm::family_of, one prefix check per delta), and its flops per region
// name appended to a caller-owned vector, so a fold is flat and owns no heap
// memory.  fold_sample reduces a Sample; fold_sample_line reduces a sample
// line as it reads it, with no Sample in between.  A merger adds a fold with
// its region entries, so the daemon folds each sample once, straight from
// the frame's bytes, and hands the same fold to the job's merger and to the
// fleet merger.
//
// Interval k = [k*interval, (k+1)*interval) closes once every *live* rank
// (attached, not finalized) has published a sample whose t1 reaches past
// the interval's end — the same watermark rule the PR-4 collector used, so
// points never change after emission even though ranks progress at
// different virtual speeds.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ipm_live/live.hpp"
#include "simcommon/jsonl.hpp"

namespace ipm::live {

/// Cumulative totals over every emitted interval of one merged stream
/// (the Prometheus counter sources).
struct MergeTotals {
  double mpi_s = 0.0, cuda_s = 0.0, gpu_s = 0.0, idle_s = 0.0;
  double blas_s = 0.0, fft_s = 0.0;
  double flops = 0.0;      ///< operand-size model estimate
  double dev_flops = 0.0;  ///< modelled device counters (ground truth)
  double dev_bytes = 0.0;
  std::uint64_t mpi_bytes = 0, cuda_bytes = 0;
  std::uint64_t events = 0, samples = 0;
};

/// Estimated flops by region name, in first-seen order.
using RegionFlops = std::vector<std::pair<std::string, double>>;

/// One sample reduced to what the merge adds: its deltas summed per
/// family, beside the sample's device counters.  Its flops per region
/// name are the last `regions` entries of the RegionFlops it was folded
/// into.
struct SampleFold {
  int rank = 0;
  double t1 = 0.0;             ///< the sample's end: picks the bucket
  std::uint64_t devents = 0;   ///< monitored calls, every family
  double mpi_s = 0.0, cuda_s = 0.0, gpu_s = 0.0, idle_s = 0.0;
  double blas_s = 0.0, fft_s = 0.0;
  std::uint64_t mpi_bytes = 0, cuda_bytes = 0;
  double flops = 0.0;
  double dev_flops = 0.0, dev_bytes = 0.0;
  std::uint32_t regions = 0;   ///< region-flops entries the fold appended
};

/// Classify each of `s`'s deltas once (ipm::family_of), sum them per family
/// and append their flops per region name to `region_flops`.
[[nodiscard]] SampleFold fold_sample(const Sample& s, RegionFlops& region_flops);

/// Storage fold_sample_line reuses from call to call: warm, a fold
/// allocates nothing but its new region entries.
struct FoldScratch {
  std::vector<simx::JsonlStr> regions;  ///< the line's region names
  std::string name;    ///< a delta name that holds an escape, unescaped
  std::string region;  ///< a region name that holds an escape, unescaped
};

/// fold_sample of the sample parse_sample_line reads from `line`, folded
/// as the line is read, without a Sample: the two readers are one scan, so
/// they accept the same bytes, and the fold and its region entries are
/// bit-identical.  A name without an escape is read in place.  False, with
/// `region_flops` as it was and `fold` unspecified, on a rejected line.
[[nodiscard]] bool fold_sample_line(std::string_view line, SampleFold& fold,
                                    RegionFlops& region_flops, FoldScratch& scratch);

class JobMerger {
 public:
  explicit JobMerger(double interval) : interval_(interval) {}

  [[nodiscard]] double interval() const noexcept { return interval_; }

  /// Same as add(fold_sample(s, regions), regions).
  void add_sample(const Sample& s);

  /// Add one sample's fold, with the region flops it appended, to its
  /// interval bucket and advance the rank's watermark.
  void add(const SampleFold& f,
           std::span<const std::pair<std::string, double>> region_flops);

  /// `rank` finished: it no longer holds back interval emission.
  void finalize_rank(int rank);

  /// Append every closed interval to `out`: closed means covered by all of
  /// `live_ranks` (ranks attached and not finalized; a rank that has not
  /// published yet pins the watermark at 0).  An empty `live_ranks` means
  /// nothing can grow anymore — equivalent to emit_all().
  void emit_due(const std::vector<int>& live_ranks, int ranks_live,
                std::vector<ClusterPoint>& out);

  /// Append everything still pending (shutdown; skips long idle gaps).
  void emit_all(int ranks_live, std::vector<ClusterPoint>& out);

  [[nodiscard]] const MergeTotals& totals() const noexcept { return totals_; }
  /// Most recently emitted point (gauge source; zero-value before the first).
  [[nodiscard]] const ClusterPoint& last() const noexcept { return last_; }
  [[nodiscard]] std::uint64_t intervals_emitted() const noexcept {
    return intervals_emitted_;
  }
  /// Virtual time covered by emitted intervals.
  [[nodiscard]] double emitted_virtual_seconds() const noexcept {
    return static_cast<double>(next_emit_) * interval_;
  }

 private:
  struct Bucket {
    ClusterPoint sums;       ///< samples through dev_bytes; the rest at emission
    std::vector<int> ranks;  ///< sorted, each rank once
    std::map<std::string, double> region_flops;
  };

  ClusterPoint emit_point(std::uint64_t k, int ranks_live);

  double interval_;
  std::map<std::uint64_t, Bucket> buckets_;
  std::unordered_map<int, double> watermark_;  ///< rank -> latest published t1
  int blocker_ = -1;  ///< emit_due: the live rank with the lowest watermark
  std::uint64_t next_emit_ = 0;
  std::uint64_t intervals_emitted_ = 0;
  MergeTotals totals_;
  ClusterPoint last_;
  RegionFlops sample_regions_;  ///< add_sample's region entries, reused
};

/// One metric of the Prometheus exposition for a merged stream.  items are
/// returned in a fixed order with fixed names, so a multi-job writer can
/// group the per-job samples of metric i under one HELP/TYPE block.
struct PromItem {
  const char* name;
  const char* help;
  bool counter;  ///< false = gauge
  double value;
};

[[nodiscard]] std::vector<PromItem> prom_items(const JobMerger& m,
                                               int ranks_live, bool up);

}  // namespace ipm::live
