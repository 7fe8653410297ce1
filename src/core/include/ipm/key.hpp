// Event signatures and statistics — the contents of IPM's performance data
// hash table (paper Fig. 1).
//
// The hash key ("event signature") combines the monitored call, the operand
// size in bytes, the active user region, and a per-call selector (memcpy
// direction, stream index, or peer rank).  For every distinct signature IPM
// keeps the call count and the total/min/max duration.
//
// Hashing is staged for the monitoring fast path: the name-dependent part
// is mixed once when a wrapper interns its display name (PreparedKey), and
// only the per-call fields (region, bytes, select) are folded per event.
#pragma once

#include <cstdint>
#include <string>

namespace ipm {

/// Interned name id.  Names are interned once (static local in each
/// wrapper), so the hot monitoring path never touches strings.
using NameId = std::uint32_t;

/// Intern a display name ("cudaMemcpy(D2H)", "@CUDA_HOST_IDLE", ...).
/// Returns a stable id; interning the same string twice yields the same id.
/// Lock-free for names that are already interned.
[[nodiscard]] NameId intern_name(const std::string& name);

/// Reverse lookup (valid for ids returned by intern_name).  Lock-free.
[[nodiscard]] const std::string& name_of(NameId id);

namespace detail {

/// splitmix64 finalizer: the avalanche stage shared by both hash phases.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t h) noexcept {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace detail

struct EventKey {
  NameId name = 0;
  std::uint32_t region = 0;
  std::uint64_t bytes = 0;
  std::int32_t select = 0;  ///< direction / stream / peer, call-specific

  friend bool operator==(const EventKey&, const EventKey&) = default;

  /// Stage 1: the name-only seed, computed once per interned name.  A
  /// single odd-constant multiply suffices: it is injective in 64 bits and
  /// the mix64 in finish() does all the avalanching, so stage 1 stays one
  /// instruction on the per-call path that cannot use a PreparedKey.
  [[nodiscard]] static constexpr std::uint64_t prehash(NameId name) noexcept {
    return (static_cast<std::uint64_t>(name) + 0x9e3779b97f4a7c15ULL) *
           0xff51afd7ed558ccdULL;
  }

  /// Stage 2: fold the per-call fields into a stage-1 seed.  `pre` must be
  /// prehash(name) for the hash to agree with EventKey::hash().
  [[nodiscard]] static constexpr std::uint64_t finish(std::uint64_t pre,
                                                      std::uint32_t region,
                                                      std::uint64_t bytes,
                                                      std::int32_t select) noexcept {
    std::uint64_t h = pre ^ (bytes * 0x9e3779b97f4a7c15ULL);
    h ^= (static_cast<std::uint64_t>(region) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(select));
    return detail::mix64(h);
  }

  [[nodiscard]] std::uint64_t hash() const noexcept {
    return finish(prehash(name), region, bytes, select);
  }
};

/// A name whose stage-1 hash is precomputed.  Wrappers build one per call
/// site (static local), so the per-event path only runs EventKey::finish.
struct PreparedKey {
  NameId name = 0;
  std::uint64_t pre = 0;  ///< EventKey::prehash(name)
};

[[nodiscard]] inline PreparedKey prepare_key(NameId name) noexcept {
  return PreparedKey{name, EventKey::prehash(name)};
}

/// Intern + prepare in one step (the call-site static initializer).
[[nodiscard]] inline PreparedKey prepare_key(const std::string& name) {
  return prepare_key(intern_name(name));
}

struct EventStats {
  std::uint64_t count = 0;
  double tsum = 0.0;
  double tmin = 0.0;
  double tmax = 0.0;

  void add(double duration) noexcept {
    if (count == 0) {
      tmin = tmax = duration;
    } else {
      if (duration < tmin) tmin = duration;
      if (duration > tmax) tmax = duration;
    }
    tsum += duration;
    count += 1;
  }
};

}  // namespace ipm
