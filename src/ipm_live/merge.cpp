// JobMerger: the virtual-time interval merge shared by the in-process
// collector and the ipm_aggd daemon (see merge.hpp).
#include "ipm_live/merge.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

#include "internal.hpp"
#include "ipm/key.hpp"
#include "ipm/monitor.hpp"

namespace ipm::live {

namespace {

/// The name a delta's region index does not resolve to: "region<index>".
struct IndexName {
  char buf[32];
  std::string_view operator()(std::uint32_t index) {
    std::memcpy(buf, "region", 6);
    return {buf, static_cast<std::size_t>(
                     std::to_chars(buf + 6, buf + sizeof buf, index).ptr - buf)};
  }
};

/// The per-delta step of both folds: the delta's family sums, then its
/// flops under its region's name, entries in first-seen order.  The
/// region's name is looked up only for a delta with flops.
template <typename RegionName>
void fold_delta(SampleFold& f, RegionFlops& region_flops, std::string_view name,
                std::uint64_t dcount, std::uint64_t dbytes, double dtsum,
                double dflops, RegionName&& region_name) {
  f.devents += dcount;
  switch (family_of(name)) {
    case Family::kMpi:
      f.mpi_s += dtsum;
      f.mpi_bytes += dbytes;
      break;
    case Family::kCuda:
      f.cuda_s += dtsum;
      f.cuda_bytes += dbytes;
      break;
    case Family::kGpu: f.gpu_s += dtsum; break;
    case Family::kIdle: f.idle_s += dtsum; break;
    case Family::kCublas: f.blas_s += dtsum; break;
    case Family::kCufft: f.fft_s += dtsum; break;
    case Family::kNone: break;
  }
  if (dflops == 0.0) return;
  f.flops += dflops;
  const std::string_view region = region_name();
  const auto mine = region_flops.end() - f.regions;  // this fold's entries
  const auto it = std::find_if(mine, region_flops.end(),
                               [&](const auto& rf) { return rf.first == region; });
  if (it == region_flops.end()) {
    region_flops.emplace_back(region, dflops);
    f.regions += 1;
  } else {
    it->second += dflops;
  }
}

}  // namespace

SampleFold fold_sample(const Sample& s, RegionFlops& region_flops) {
  SampleFold f;
  f.rank = s.rank;
  f.t1 = s.t1;
  f.dev_flops = s.ddev_flops;
  f.dev_bytes = s.ddev_bytes;
  IndexName index_name;
  for (const KeyDelta& d : s.deltas) {
    fold_delta(f, region_flops, detail::delta_name(d), d.dcount, d.dbytes, d.dtsum,
               d.dflops, [&]() -> std::string_view {
                 return d.region < s.regions.size() ? s.regions[d.region]
                                                    : index_name(d.region);
               });
  }
  return f;
}

bool fold_sample_line(std::string_view line, SampleFold& fold,
                      RegionFlops& region_flops, FoldScratch& scratch) {
  // Folds what detail::scan_sample_line reads, delta by delta.
  struct Folder {
    SampleFold& f;
    RegionFlops& out;
    FoldScratch& sc;
    IndexName index_name;
    void head(const detail::SampleHead& h) {
      f.rank = h.rank;
      f.t1 = h.t1;
      f.dev_flops = h.gf;
      f.dev_bytes = h.gb;
    }
    void region(const simx::JsonlStr& name) { sc.regions.push_back(name); }
    void delta(const detail::DeltaFields& d) {
      fold_delta(f, out, d.name.value(sc.name), d.dcount, d.dbytes, d.dtsum,
                 d.dflops, [&]() -> std::string_view {
                   return d.region < sc.regions.size()
                              ? sc.regions[d.region].value(sc.region)
                              : index_name(d.region);
                 });
    }
  };
  const std::size_t mark = region_flops.size();
  fold = SampleFold{};
  scratch.regions.clear();
  Folder folder{fold, region_flops, scratch, {}};
  if (detail::scan_sample_line(line, folder)) return true;
  region_flops.resize(mark);
  return false;
}

void JobMerger::add_sample(const Sample& s) {
  sample_regions_.clear();
  const SampleFold f = fold_sample(s, sample_regions_);
  add(f, sample_regions_);
}

void JobMerger::add(const SampleFold& f,
                    std::span<const std::pair<std::string, double>> region_flops) {
  std::uint64_t k =
      static_cast<std::uint64_t>(std::floor(std::max(0.0, f.t1) / interval_));
  // A sample landing behind the emission cursor is added to the next emitted
  // interval instead of stranding a bucket the emit loops can never consume
  // (fleet merge: a job joins after quiescence already drained all buckets
  // via emit_all, so its virtual time restarts behind next_emit_).
  if (k < next_emit_) k = next_emit_;
  Bucket& b = buckets_[k];
  const auto pos = std::lower_bound(b.ranks.begin(), b.ranks.end(), f.rank);
  if (pos == b.ranks.end() || *pos != f.rank) b.ranks.insert(pos, f.rank);
  ClusterPoint& p = b.sums;
  p.samples += 1;
  p.devents += f.devents;
  p.mpi_s += f.mpi_s;
  p.cuda_s += f.cuda_s;
  p.gpu_s += f.gpu_s;
  p.idle_s += f.idle_s;
  p.blas_s += f.blas_s;
  p.fft_s += f.fft_s;
  p.mpi_bytes += f.mpi_bytes;
  p.cuda_bytes += f.cuda_bytes;
  p.flops += f.flops;
  p.dev_flops += f.dev_flops;
  p.dev_bytes += f.dev_bytes;
  for (const auto& [region, flops] : region_flops) b.region_flops[region] += flops;
  auto [it, inserted] = watermark_.try_emplace(f.rank, f.t1);
  if (!inserted && f.t1 > it->second) it->second = f.t1;
}

void JobMerger::finalize_rank(int rank) { watermark_.erase(rank); }

ClusterPoint JobMerger::emit_point(std::uint64_t k, int ranks_live) {
  ClusterPoint p;
  const auto it = buckets_.find(k);
  if (it != buckets_.end()) {
    Bucket& b = it->second;
    p = std::move(b.sums);
    p.ranks = static_cast<int>(b.ranks.size());
    p.region_flops.assign(b.region_flops.begin(), b.region_flops.end());
    buckets_.erase(it);
  }
  p.k = k;
  p.t0 = static_cast<double>(k) * interval_;
  p.t1 = static_cast<double>(k + 1) * interval_;
  p.ranks_live = ranks_live;
  totals_.mpi_s += p.mpi_s;
  totals_.cuda_s += p.cuda_s;
  totals_.gpu_s += p.gpu_s;
  totals_.idle_s += p.idle_s;
  totals_.blas_s += p.blas_s;
  totals_.fft_s += p.fft_s;
  totals_.flops += p.flops;
  totals_.dev_flops += p.dev_flops;
  totals_.dev_bytes += p.dev_bytes;
  totals_.mpi_bytes += p.mpi_bytes;
  totals_.cuda_bytes += p.cuda_bytes;
  totals_.events += p.devents;
  totals_.samples += p.samples;
  last_ = p;
  intervals_emitted_ += 1;
  return p;
}

void JobMerger::emit_due(const std::vector<int>& live_ranks, int ranks_live,
                         std::vector<ClusterPoint>& out) {
  if (live_ranks.empty()) {  // nothing can grow anymore
    emit_all(ranks_live, out);
    return;
  }
  const auto watermark = [this](int rank) {
    const auto it = watermark_.find(rank);
    return it == watermark_.end() ? 0.0 : it->second;
  };
  // The rank that held the next interval back last time usually still does;
  // checking it first keeps a fleet-wide merge from looking up every live
  // rank's watermark on each call that emits nothing.
  if (watermark(blocker_) < static_cast<double>(next_emit_ + 1) * interval_ &&
      std::find(live_ranks.begin(), live_ranks.end(), blocker_) != live_ranks.end()) {
    return;
  }
  double min_wm = std::numeric_limits<double>::infinity();
  for (const int rank : live_ranks) {
    const double wm = watermark(rank);
    if (wm < min_wm) {
      min_wm = wm;
      blocker_ = rank;
    }
  }
  while (static_cast<double>(next_emit_ + 1) * interval_ <= min_wm) {
    out.push_back(emit_point(next_emit_, ranks_live));
    next_emit_ += 1;
  }
}

void JobMerger::emit_all(int ranks_live, std::vector<ClusterPoint>& out) {
  while (!buckets_.empty()) {
    // Skip over fully idle gaps at shutdown rather than emitting a point
    // per empty interval of a long tail.
    if (buckets_.begin()->first > next_emit_ &&
        buckets_.begin()->first > next_emit_ + 16) {
      next_emit_ = buckets_.begin()->first;
    }
    out.push_back(emit_point(next_emit_, ranks_live));
    next_emit_ += 1;
  }
}

std::vector<PromItem> prom_items(const JobMerger& m, int ranks_live, bool up) {
  const MergeTotals& t = m.totals();
  const ClusterPoint& last = m.last();
  // Last-interval gauges: rates over the interval, busy ratios over the
  // available rank-seconds (ranks_live * interval).
  const double span = last.span() > 0.0 ? last.span() : m.interval();
  const double avail = span * std::max(1, last.ranks_live);
  return {
      {"ipm_up", "1 while the monitored job is running.", false, up ? 1.0 : 0.0},
      {"ipm_ranks", "Ranks attached to the collector.", false,
       static_cast<double>(ranks_live)},
      {"ipm_virtual_seconds", "Virtual time covered by emitted intervals.",
       false, m.emitted_virtual_seconds()},
      {"ipm_snapshot_intervals_total", "Cluster points emitted.", true,
       static_cast<double>(m.intervals_emitted())},
      {"ipm_snapshot_samples_total", "Per-rank delta samples merged.", true,
       static_cast<double>(t.samples)},
      {"ipm_events_total", "Monitored calls aggregated.", true,
       static_cast<double>(t.events)},
      {"ipm_mpi_seconds_total", "Rank-seconds spent in MPI.", true, t.mpi_s},
      {"ipm_cuda_seconds_total", "Rank-seconds spent in CUDA API calls.", true,
       t.cuda_s},
      {"ipm_gpu_seconds_total", "Device-seconds of kernel execution.", true,
       t.gpu_s},
      {"ipm_host_idle_seconds_total",
       "Rank-seconds of implicit host blocking (@CUDA_HOST_IDLE).", true,
       t.idle_s},
      {"ipm_cublas_seconds_total", "Rank-seconds spent in CUBLAS.", true,
       t.blas_s},
      {"ipm_cufft_seconds_total", "Rank-seconds spent in CUFFT.", true, t.fft_s},
      {"ipm_mpi_bytes_total", "Bytes moved by MPI calls.", true,
       static_cast<double>(t.mpi_bytes)},
      {"ipm_cuda_bytes_total", "Bytes moved by CUDA memory calls.", true,
       static_cast<double>(t.cuda_bytes)},
      {"ipm_flops_total", "Estimated floating-point operations.", true, t.flops},
      {"ipm_device_flops_total",
       "Device-counter floating-point operations (modelled ground truth).",
       true, t.dev_flops},
      {"ipm_device_bytes_total", "Device-counter DRAM traffic (modelled).",
       true, t.dev_bytes},
      {"ipm_gpu_busy_ratio", "GPU busy fraction over the last interval.", false,
       last.gpu_s / avail},
      {"ipm_host_idle_ratio", "Host-idle fraction over the last interval.",
       false, last.idle_s / avail},
      {"ipm_mpi_ratio", "MPI fraction over the last interval.", false,
       last.mpi_s / avail},
      {"ipm_mpi_bytes_per_second",
       "MPI throughput over the last interval (virtual time).", false,
       static_cast<double>(last.mpi_bytes) / span},
      {"ipm_cuda_bytes_per_second",
       "CUDA memcpy throughput over the last interval (virtual time).", false,
       static_cast<double>(last.cuda_bytes) / span},
      {"ipm_gflops", "Estimated GFLOP rate over the last interval.", false,
       last.flops / span * 1e-9},
  };
}

}  // namespace ipm::live
