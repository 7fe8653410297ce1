// IPM's central performance data hash table (paper §II, Fig. 1).
//
// Design follows the real IPM: a fixed-size, statically sized open-
// addressing table that is allocated once and never rehashes during the
// run, so the per-event cost is small and — crucially for a monitoring
// tool — *predictable*.  When the table fills up, further new signatures
// are counted in `overflow` and dropped rather than degrading the run.
//
// Layout is SwissTable-style struct-of-arrays: a contiguous 1-byte tag
// array is probed first (7 hash bits + occupancy in the top bit, 0 =
// empty), with the keys and stats in separate parallel arrays.  Tags are
// scanned 16 at a time (SSE2 when available): one compare yields a bitmask
// of candidate slots and of empty slots, so collision chains and misses
// cost a couple of vector ops per 16 slots instead of a branch per slot.
// The tag array carries a 16-byte mirror of its first group after the end,
// so a group load starting at any slot index never has to wrap.
//
// Single owner: a rank's table is written and read only by the thread that
// owns its Monitor (record, live capture, the finalize snapshot), so no
// field is atomic and no update pays for synchronisation.  Live telemetry
// crosses threads as published samples (ipm_live's SampleChannel), never as
// table reads; a read from a second thread is a data race, and the TSan CI
// leg reports it.
#pragma once

#include <cstdint>
#include <vector>

#include "ipm/key.hpp"

namespace ipm {

class PerfHashTable {
 public:
  /// `log2_slots`: table holds 2^log2_slots entries (default 8192, the
  /// classic IPM size).
  explicit PerfHashTable(unsigned log2_slots = 13);

  /// Insert-or-update: adds `duration` to the stats of `key`.  Returns
  /// false (and counts an overflow) if the table is full and `key` is new.
  bool update(const EventKey& key, double duration) noexcept {
    return update_hashed(key, key.hash(), duration);
  }

  /// Same, with the hash supplied by the caller (the PreparedKey fast path
  /// already holds the stage-1 mix; see EventKey::finish).  The home-slot
  /// hit — the steady-state case — is inlined: one tag byte compare, one
  /// key compare, no out-of-line call.
  bool update_hashed(const EventKey& key, std::uint64_t hash, double duration) noexcept {
    const std::size_t idx = hash & mask_;
    if (tags_[idx] == tag_of(hash) && keys_[idx] == key) {
      stats_[idx].add(duration);
      return true;
    }
    return update_probe(key, hash, duration);
  }

  /// Lookup without insertion (nullptr if absent).
  [[nodiscard]] const EventStats* find(const EventKey& key) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  /// Total probe steps beyond the home slot (collision pressure metric).
  [[nodiscard]] std::uint64_t probe_steps() const noexcept { return probe_steps_; }

  void clear() noexcept;

  /// Visit every occupied slot, in slot-index order: the order both
  /// Monitor::snapshot() and a live capture merge rows in, so their sums
  /// agree bit-exactly.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (tags_[i] != kEmpty) fn(keys_[i], stats_[i]);
    }
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::size_t kGroup = 16;  ///< tags probed per scan step

  /// 7 high hash bits with the occupancy bit set (never 0 for a full slot).
  [[nodiscard]] static std::uint8_t tag_of(std::uint64_t hash) noexcept {
    return static_cast<std::uint8_t>(0x80U | (hash >> 57));
  }

  /// Group-scan probe for everything past the home-slot hit: collision
  /// chains, first touches of a signature, and overflow.
  bool update_probe(const EventKey& key, std::uint64_t hash, double duration) noexcept;

  /// Writes a tag, keeping the wrap-around mirror of the first group in sync.
  void set_tag(std::size_t i, std::uint8_t t) noexcept {
    tags_[i] = t;
    if (i < kGroup) tags_[mask_ + 1 + i] = t;
  }

  std::vector<std::uint8_t> tags_;   ///< kEmpty or tag_of(hash); slots + kGroup mirror bytes
  std::vector<EventKey> keys_;       ///< parallel to tags_
  std::vector<EventStats> stats_;    ///< parallel to tags_
  std::size_t mask_;
  std::size_t used_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t probe_steps_ = 0;
};

}  // namespace ipm
