// Per-rank delta-snapshot publisher (owning-thread side of ipm_live).
#include "ipm_live/live.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "internal.hpp"
#include "simcommon/clock.hpp"

namespace ipm::live {

namespace {

/// Delta d, searched in one-ulp steps from fl(cur - prev), such that
/// prev + d rounds to exactly cur.  The naive fl(cur - prev) can miss by an
/// ulp (the subtraction rounds).  Usually a nearby d lands, but not always:
/// when cur's rounding interval holds no prev + d the search gives up next
/// to cur, and capture() appends a correction delta.
double conserved_delta(double prev, double cur) noexcept {
  double d = cur - prev;
  for (int i = 0; i < 64 && prev + d != cur; ++i) {
    d = std::nextafter(d, prev + d < cur ? std::numeric_limits<double>::infinity()
                                         : -std::numeric_limits<double>::infinity());
  }
  return d;
}

double next_due(double now, double interval) noexcept {
  return (std::floor(now / interval) + 1.0) * interval;
}

std::atomic<GpuProbe> g_gpu_probe{nullptr};

}  // namespace

void set_gpu_probe(GpuProbe probe) noexcept {
  g_gpu_probe.store(probe, std::memory_order_relaxed);
}

GpuProbe gpu_probe() noexcept {
  return g_gpu_probe.load(std::memory_order_relaxed);
}

SampleChannel::SampleChannel(unsigned log2_slots) {
  if (log2_slots < 2) log2_slots = 2;
  if (log2_slots > 20) log2_slots = 20;
  slots_.resize(static_cast<std::size_t>(1) << log2_slots);
  mask_ = slots_.size() - 1;
}

bool SampleChannel::push(Sample&& s) noexcept {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head > mask_) return false;
  slots_[tail & mask_] = std::move(s);
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

bool SampleChannel::pop(Sample& out) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  if (head == tail_.load(std::memory_order_acquire)) return false;
  out = std::move(slots_[head & mask_]);
  head_.store(head + 1, std::memory_order_release);
  return true;
}

LivePublisher::LivePublisher(Monitor& m, int rank)
    : mon_(&m),
      rank_(rank),
      channel_(m.config().snapshot_log2_samples),
      prev_t_(m.start_time()) {}

void LivePublisher::capture(bool final_flush) noexcept {
  Monitor& m = *mon_;
  const double t1 = m.clock_->now();
  const double grid = m.cfg_.snapshot_interval * static_cast<double>(backoff_);
  m.live_next_due_ = next_due(t1, grid);
  // Fold the current per-(name, region, select) totals with the visitor
  // Monitor::snapshot() merges with — the same slot order, so the
  // cumulative fold of every published delta lands on the finalize profile
  // bit-exactly.  The table is this thread's own: no other thread reads it.
  std::map<std::tuple<NameId, std::uint32_t, std::int32_t>, Mirror> cur;
  m.table_.for_each([&](const EventKey& key, const EventStats& st) {
    Mirror& c = cur[{key.name, key.region, key.select}];
    c.count += st.count;
    c.bytes += key.bytes * st.count;
    c.tsum += st.tsum;
    c.flops += flops_per_call(name_of(key.name), key.bytes) *
               static_cast<double>(st.count);
  });
  // Device-counter ground truth (cumulative; deltas under the same
  // conserved-fold discipline as tsum, advancing only on publish).
  double dev_f = dev_flops_;
  double dev_b = dev_bytes_;
  if (const GpuProbe probe = gpu_probe()) {
    double f = 0.0;
    double b = 0.0;
    if (probe(f, b)) {
      dev_f = f;
      dev_b = b;
    }
  }
  Sample s;
  s.rank = rank_;
  s.seq = seq_;
  s.t0 = prev_t_;
  s.t1 = t1;
  s.final_flush = final_flush;
  s.ddev_flops = conserved_delta(dev_flops_, dev_f);
  s.ddev_bytes = conserved_delta(dev_bytes_, dev_b);
  s.regions = m.regions_;
  for (const auto& [k, c] : cur) {
    const Mirror& mir = mirrors_[k];
    if (c.count == mir.count && c.bytes == mir.bytes && c.tsum == mir.tsum) continue;
    KeyDelta d;
    d.name = std::get<0>(k);
    d.region = std::get<1>(k);
    d.select = std::get<2>(k);
    d.dcount = c.count - mir.count;
    d.dbytes = c.bytes - mir.bytes;
    d.dtsum = conserved_delta(mir.tsum, c.tsum);
    d.dflops = c.flops - mir.flops;
    s.deltas.push_back(d);
    // Next to a rounding tie no delta lands at all (prev = 0x1p-53,
    // cur = 1 + 0x1p-52: d = 1 lands on 1, the next double on 1 + 0x1p-51).
    // A zero-count correction for the same key then closes the gap: the
    // landed value is adjacent to cur, so cur - landed is exact and a
    // consumer folding both deltas in order holds cur.
    const double landed = mir.tsum + d.dtsum;
    if (landed != c.tsum) {
      d.dcount = 0;
      d.dbytes = 0;
      d.dtsum = c.tsum - landed;
      d.dflops = 0.0;
      s.deltas.push_back(std::move(d));
    }
  }
  if (s.deltas.empty() && s.ddev_flops == 0.0 && s.ddev_bytes == 0.0) {
    adapt_cadence(m, t1, /*published=*/true);
    return;  // nothing happened since the last sample
  }
  bool published;
  if (final_flush) {
    // The finalize flush must never lose data: overflow past the channel
    // into a side vector the collector consumes after `finalized_`.  A
    // refused push leaves `s` whole.
    if (!channel_.push(std::move(s))) final_overflow_.push_back(std::move(s));
    published = true;
  } else {
    published = channel_.push(std::move(s));
  }
  if (published) {
    // Advance the consumer mirror: by construction mir.tsum + dtsum rounds
    // to exactly c.tsum, so a folding consumer now holds precisely `cur`.
    mirrors_ = std::move(cur);
    dev_flops_ = dev_f;
    dev_bytes_ = dev_b;
    prev_t_ = t1;
    seq_ += 1;
    samples_ += 1;
  } else {
    // Channel full: skip the sample, keep the mirrors — the next capture
    // coalesces this window, so only resolution is lost, never data.
    drops_ += 1;
  }
  adapt_cadence(m, t1, published);
}

/// Adaptive cadence: widen the snapshot grid x2 (up to x64) while the
/// channel sits above the 3/4 high-water mark (or a publish was refused),
/// halve it back once occupancy recovers below 1/4.  Only the *grid*
/// changes — drops are still counted and every published delta still folds
/// bit-exactly, so conservation is untouched.
void LivePublisher::adapt_cadence(Monitor& m, double now, bool published) noexcept {
  if (!m.cfg_.snapshot_adaptive) return;
  const std::size_t occ = channel_.size();
  const std::size_t cap = channel_.capacity();
  std::uint32_t next = backoff_;
  if (!published || occ * 4 >= cap * 3) {
    next = backoff_ < 64 ? backoff_ * 2 : 64;
  } else if (occ * 4 <= cap) {
    next = backoff_ > 1 ? backoff_ / 2 : 1;
  }
  if (next == backoff_) return;
  backoff_ = next;
  m.live_next_due_ =
      next_due(now, m.cfg_.snapshot_interval * static_cast<double>(backoff_));
}

void LivePublisher::do_attach(Monitor& m) {
  if (m.live_pub_ != nullptr) return;
  auto* pub = new LivePublisher(m, simx::current_context().world_rank);
  {
    detail::Registry& reg = detail::registry();
    std::scoped_lock lk(reg.mu);
    reg.pubs.push_back(pub);
    reg.attached_count += 1;
  }
  m.live_pub_ = pub;
  m.live_next_due_ = next_due(m.clock_->now(), m.cfg_.snapshot_interval);
}

void LivePublisher::do_capture(Monitor& m, bool final_flush) noexcept {
  if (m.live_pub_ != nullptr) m.live_pub_->capture(final_flush);
}

void LivePublisher::do_detach(Monitor& m, RankProfile& p) {
  LivePublisher* pub = m.live_pub_;
  if (pub == nullptr) return;
  p.snapshot_samples = pub->samples_;
  p.snapshot_drops = pub->drops_;
  m.live_pub_ = nullptr;
  detail::Registry& reg = detail::registry();
  std::scoped_lock lk(reg.mu);
  pub->finalized_ = true;
  if (reg.collector_running) {
    reg.cv.notify_all();  // collector drains + deletes
  } else {
    std::erase(reg.pubs, pub);
    delete pub;
  }
}

void LivePublisher::do_abandon(Monitor& m) noexcept {
  LivePublisher* pub = m.live_pub_;
  if (pub == nullptr) return;
  m.live_pub_ = nullptr;
  detail::Registry& reg = detail::registry();
  std::scoped_lock lk(reg.mu);
  std::erase(reg.pubs, pub);
  delete pub;
}

std::uint32_t LivePublisher::do_backoff(Monitor& m) noexcept {
  return m.live_pub_ != nullptr ? m.live_pub_->backoff_ : 1;
}

std::vector<Sample> LivePublisher::do_drain(Monitor& m) {
  std::vector<Sample> out;
  LivePublisher* pub = m.live_pub_;
  if (pub == nullptr) return out;
  Sample s;
  while (pub->channel_.pop(s)) out.push_back(std::move(s));
  for (Sample& f : pub->final_overflow_) out.push_back(std::move(f));
  pub->final_overflow_.clear();
  return out;
}

void attach_rank(Monitor& m) { LivePublisher::do_attach(m); }
void capture(Monitor& m) noexcept { LivePublisher::do_capture(m, false); }
void final_flush(Monitor& m) noexcept { LivePublisher::do_capture(m, true); }
void detach_rank(Monitor& m, RankProfile& p) { LivePublisher::do_detach(m, p); }
void abandon_rank(Monitor& m) noexcept { LivePublisher::do_abandon(m); }
std::vector<Sample> drain(Monitor& m) { return LivePublisher::do_drain(m); }
std::uint32_t backoff_factor(Monitor& m) noexcept { return LivePublisher::do_backoff(m); }

}  // namespace ipm::live
