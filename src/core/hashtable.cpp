#include "ipm/hashtable.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ipm {

PerfHashTable::PerfHashTable(unsigned log2_slots) {
  if (log2_slots < 4) log2_slots = 4;
  if (log2_slots > 24) log2_slots = 24;
  const std::size_t n = static_cast<std::size_t>(1) << log2_slots;
  // n is always a multiple of kGroup (>= 16 slots), so probe windows tile
  // the table exactly and only ever read into the kGroup-byte mirror.
  tags_.assign(n + kGroup, kEmpty);
  keys_.resize(n);
  stats_.resize(n);
  mask_ = n - 1;
}

bool PerfHashTable::update_probe(const EventKey& key, std::uint64_t hash,
                                 double duration) noexcept {
  const std::uint8_t tag = tag_of(hash);
  const std::size_t slots = mask_ + 1;
  std::size_t idx = hash & mask_;
#if defined(__SSE2__)
  const __m128i vtag = _mm_set1_epi8(static_cast<char>(tag));
  const __m128i vempty = _mm_setzero_si128();
  for (std::size_t probes = 0; probes < slots; probes += kGroup) {
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags_.data() + idx));
    unsigned match =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(group, vtag)));
    const unsigned empty =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(group, vempty)));
    const unsigned first_empty =
        empty ? static_cast<unsigned>(__builtin_ctz(empty))
              : static_cast<unsigned>(kGroup);
    while (match) {
      const unsigned off = static_cast<unsigned>(__builtin_ctz(match));
      if (off > first_empty) break;  // key can never live past an empty slot
      const std::size_t pos = (idx + off) & mask_;
      if (keys_[pos] == key) {
        stats_[pos].add(duration);
        probe_steps_ += probes + off;
        return true;
      }
      match &= match - 1;
    }
    if (empty) {
      if (used_ == slots - 1) break;  // keep one free slot: probe terminator
      const std::size_t pos = (idx + first_empty) & mask_;
      set_tag(pos, tag);
      keys_[pos] = key;
      stats_[pos] = EventStats{};
      stats_[pos].add(duration);
      used_ += 1;
      probe_steps_ += probes + first_empty;
      return true;
    }
    idx = (idx + kGroup) & mask_;
  }
#else
  for (std::size_t probes = 0; probes < slots; ++probes) {
    const std::uint8_t t = tags_[idx];
    if (t == kEmpty) {
      if (used_ == slots - 1) break;  // keep one free slot: probe terminator
      set_tag(idx, tag);
      keys_[idx] = key;
      stats_[idx] = EventStats{};
      stats_[idx].add(duration);
      used_ += 1;
      probe_steps_ += probes;
      return true;
    }
    if (t == tag && keys_[idx] == key) {
      stats_[idx].add(duration);
      probe_steps_ += probes;
      return true;
    }
    idx = (idx + 1) & mask_;
  }
#endif
  overflow_ += 1;
  return false;
}

const EventStats* PerfHashTable::find(const EventKey& key) const noexcept {
  const std::uint64_t hash = key.hash();
  const std::uint8_t tag = tag_of(hash);
  const std::size_t slots = mask_ + 1;
  std::size_t idx = hash & mask_;
  if (tags_[idx] == tag && keys_[idx] == key) return &stats_[idx];
#if defined(__SSE2__)
  const __m128i vtag = _mm_set1_epi8(static_cast<char>(tag));
  const __m128i vempty = _mm_setzero_si128();
  for (std::size_t probes = 0; probes < slots; probes += kGroup) {
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags_.data() + idx));
    unsigned match =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(group, vtag)));
    const unsigned empty =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(group, vempty)));
    const unsigned first_empty =
        empty ? static_cast<unsigned>(__builtin_ctz(empty))
              : static_cast<unsigned>(kGroup);
    while (match) {
      const unsigned off = static_cast<unsigned>(__builtin_ctz(match));
      if (off > first_empty) break;
      const std::size_t pos = (idx + off) & mask_;
      if (keys_[pos] == key) return &stats_[pos];
      match &= match - 1;
    }
    if (empty) return nullptr;
    idx = (idx + kGroup) & mask_;
  }
#else
  for (std::size_t probes = 0; probes < slots; ++probes) {
    const std::uint8_t t = tags_[idx];
    if (t == kEmpty) return nullptr;
    if (t == tag && keys_[idx] == key) return &stats_[idx];
    idx = (idx + 1) & mask_;
  }
#endif
  return nullptr;
}

void PerfHashTable::clear() noexcept {
  tags_.assign(tags_.size(), kEmpty);
  used_ = 0;
  overflow_ = 0;
  probe_steps_ = 0;
}

}  // namespace ipm
