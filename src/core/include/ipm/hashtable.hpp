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
// Live snapshots (src/ipm_live): enable_live_snapshots() arms a per-slot
// seqlock so a concurrent reader thread can take consistent copies of
// occupied slots while the owning rank thread keeps updating.  Slots never
// move (the table never rehashes), so a slot index is a stable identity
// for delta computation.  The writer protocol is: bump the slot epoch to
// odd, store the data fields through relaxed std::atomic_ref accesses
// (plain machine stores on x86, but data-race-free for TSan and for the
// C++ memory model), then release-store the epoch back to even.  When live
// snapshots are off — the default — the only hot-path cost is one relaxed
// pointer load and a predictable branch, the same gate discipline as the
// fault-injection hooks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
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
      std::atomic<std::uint32_t>* const ep = epochs_.load(std::memory_order_relaxed);
      if (ep == nullptr) {
        stats_[idx].add(duration);
      } else {
        live_add(ep[idx], stats_[idx], duration);
      }
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

  /// Visit every occupied slot.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (tags_[i] != kEmpty) fn(keys_[i], stats_[i]);
    }
  }

  // --- live snapshot API (seqlock per slot) ---------------------------------

  /// Arm the per-slot epoch counters.  Must be called before the first
  /// concurrent read (the owning thread may already be updating: the gate
  /// flips from "plain stores" to "epoch-guarded atomic stores" at the next
  /// update).  Idempotent.  Not thread-safe itself: call from the owner.
  void enable_live_snapshots();

  [[nodiscard]] bool live_snapshots() const noexcept {
    return epochs_.load(std::memory_order_relaxed) != nullptr;
  }

  /// Consistent copy of slot `i` while the owner keeps updating: seqlock
  /// read with retry.  Returns false when the slot is empty.  Without
  /// enable_live_snapshots() this degrades to a plain (owner-only) read.
  [[nodiscard]] bool read_live_slot(std::size_t i, EventKey& key,
                                    EventStats& st) const noexcept;

  /// Visit every occupied slot via consistent live reads, in slot-index
  /// order; fn(slot_index, key, stats).  Safe from a concurrent reader
  /// thread once live snapshots are enabled.
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    // Pairs with enable_live_snapshots(): tags stored before it are visible.
    (void)epochs_.load(std::memory_order_acquire);
    auto* self = const_cast<PerfHashTable*>(this);  // atomic_ref needs non-const
    EventKey key;
    EventStats st;
    for (std::size_t i = 0; i <= mask_; ++i) {
      // A tag never returns to empty while a reader may be attached, so one
      // relaxed byte load skips an empty slot without its seqlock read; a
      // slot filled meanwhile is seen by the next pass.
      if (std::atomic_ref<std::uint8_t>(self->tags_[i]).load(std::memory_order_relaxed) ==
          kEmpty) {
        continue;
      }
      if (read_live_slot(i, key, st)) fn(i, key, st);
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

  /// Seqlock-guarded EventStats::add.  The owner is the only writer, so
  /// reads of the current values stay plain; only the *stores* go through
  /// atomic_ref (a concurrent snapshot reader may be copying the slot).
  static void live_add(std::atomic<std::uint32_t>& epoch, EventStats& st,
                       double duration) noexcept {
    const std::uint32_t e = epoch.load(std::memory_order_relaxed);
    epoch.store(e + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    if (st.count == 0) {
      std::atomic_ref<double>(st.tmin).store(duration, std::memory_order_relaxed);
      std::atomic_ref<double>(st.tmax).store(duration, std::memory_order_relaxed);
    } else {
      if (duration < st.tmin) {
        std::atomic_ref<double>(st.tmin).store(duration, std::memory_order_relaxed);
      }
      if (duration > st.tmax) {
        std::atomic_ref<double>(st.tmax).store(duration, std::memory_order_relaxed);
      }
    }
    std::atomic_ref<double>(st.tsum).store(st.tsum + duration, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(st.count).store(st.count + 1,
                                                   std::memory_order_relaxed);
    epoch.store(e + 2, std::memory_order_release);
  }

  /// Seqlock-guarded first write of a slot (tag + key + stats).
  void live_insert(std::size_t pos, std::uint8_t tag, const EventKey& key,
                   double duration) noexcept;

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
  /// Per-slot seqlock epochs; allocated by enable_live_snapshots().  The
  /// pointer doubles as the hot-path gate: nullptr = plain stores.
  std::unique_ptr<std::atomic<std::uint32_t>[]> epoch_storage_;
  std::atomic<std::atomic<std::uint32_t>*> epochs_{nullptr};
};

}  // namespace ipm
