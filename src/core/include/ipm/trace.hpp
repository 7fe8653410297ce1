// Per-rank event tracing (timeline view of the monitoring data).
//
// The hash table (hashtable.hpp) aggregates events and deliberately
// discards the timeline; modern GPU-fleet diagnosis is timeline-first, so
// the trace subsystem keeps the *when*: every monitored event can also be
// appended to a bounded per-rank ring of TraceRecords.  The ring follows
// the same predictable-overhead philosophy as the fixed-size hash table —
// allocated once at monitor creation, never grows, never blocks; when it
// fills, further records are dropped and counted (`drops`), never
// overwriting history (the head of a run is where initialization bugs
// live).
//
// One ring per rank, written and read only by the thread that owns its
// Monitor (the monitor is thread-local), so a push is a plain append with
// no atomics, like a hash-table update; a read from another thread is a
// data race, and the TSan CI leg reports it.  The ring is drained once, at
// rank finalize, on the same thread: the flush streams the records
// straight into a per-rank binary file of fixed-width records (names and
// regions go once each into tables at its head), and `ipm_parse --trace`
// merges the files into a single Chrome-tracing JSON.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ipm/key.hpp"

namespace ipm {

struct RankProfile;

/// Lane classification of a trace record.  Host API calls, device kernel
/// intervals and host-idle probes render on different timeline lanes; a
/// marker is an instant (zero-duration) lifecycle annotation.
enum class TraceKind : std::uint8_t {
  kHost = 0,    ///< wrapper-bracketed host call (MPI/CUDA/CUBLAS/CUFFT)
  kKernel = 1,  ///< @CUDA_EXEC device interval (event-resolved start/stop)
  kIdle = 2,    ///< @CUDA_HOST_IDLE implicit-blocking probe
  kMarker = 3,  ///< instant lifecycle marker (MPI_Init / MPI_Finalize)
};

/// One trace record.  Stores start + duration (not start/stop): the
/// duration double is byte-identical to the one folded into EventStats, so
/// per-key span sums conserve the hash-table totals exactly.
struct TraceRecord {
  double t0 = 0.0;      ///< virtual start time (host or device, see kind)
  double dur = 0.0;     ///< duration as recorded into the hash table
  NameId name = 0;
  std::uint32_t region = 0;
  std::uint64_t bytes = 0;
  std::int32_t select = 0;  ///< direction / stream index / peer rank
  std::int32_t err = 0;     ///< nonzero: the call failed with this code
  TraceKind kind = TraceKind::kHost;
};

/// Bounded append buffer of TraceRecords, owned by one rank thread.
///
/// push() is wait-free and allocation-free: one bounds check and one
/// struct store.
class TraceRing {
 public:
  /// Ring holds 2^log2_records records (clamped to [4, 24] bits).
  explicit TraceRing(unsigned log2_records);

  /// Append one record; returns false (and counts a drop) when full.
  bool push(const TraceRecord& rec) noexcept {
    if (count_ >= cap_) {
      drops_ += 1;
      return false;
    }
    slots_[count_++] = rec;
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] const TraceRecord& operator[](std::size_t i) const noexcept {
    return slots_[i];
  }

  /// Forget all records and drops (benchmark reuse; not used on live rings).
  void clear() noexcept {
    count_ = 0;
    drops_ = 0;
  }

 private:
  std::unique_ptr<TraceRecord[]> slots_;
  std::size_t cap_;
  std::size_t count_ = 0;
  std::uint64_t drops_ = 0;
};

// --- flushed form ------------------------------------------------------------

/// A span read back from a trace file: names and regions as strings, since
/// NameIds are process-local.
struct TraceSpan {
  std::string name;
  std::string region;
  double t0 = 0.0;
  double dur = 0.0;
  std::uint64_t bytes = 0;
  std::int32_t select = 0;
  std::int32_t err = 0;  ///< nonzero: the call failed with this code
  TraceKind kind = TraceKind::kHost;

  [[nodiscard]] double t1() const noexcept { return t0 + dur; }
};

/// One rank's flushed trace (the content of one per-rank trace file).
struct RankTrace {
  int rank = 0;
  std::string hostname;
  double start = 0.0;  ///< rank monitoring start (virtual seconds)
  double stop = 0.0;
  std::uint64_t drops = 0;
  std::vector<TraceSpan> spans;
};

/// Per-rank trace file path: "<prefix>.rank<N>.ipmt".
[[nodiscard]] std::string trace_file_path(const std::string& prefix, int rank);

/// Write `ring` as rank `p`'s trace file (`p` supplies rank, host,
/// start/stop and the region names).  Format, every integer little-endian
/// and every string a u32 byte length then its bytes:
///   "IPMTRACE", u32 version (1), i32 rank, host, f64 start, f64 stop,
///   u64 drops, u64 spans; u32 count + the region names, then
///   "ipm_global" for any region id past them; u32 count + the names the
///   ring references; then `spans` records of 41 bytes each:
///   f64 t0, f64 dur, u32 name index, u32 region index, u64 bytes,
///   i32 select, i32 err, u8 kind.
/// Doubles are stored as their IEEE-754 bits, so the round-trip is
/// bit-exact.  The records stream through one bounded buffer; every write
/// and the close are checked, so a full disk throws std::runtime_error.
void write_trace_file(const std::string& path, const TraceRing& ring,
                      const RankProfile& p);

/// Read one rank's trace file.  Throws std::runtime_error when the file
/// cannot be read or is not a well-formed trace: wrong magic or version, a
/// length or count running past the end, a span count that disagrees with
/// the file size, an unknown span kind, or a name or region index outside
/// its table.
[[nodiscard]] RankTrace read_trace_file(const std::string& path);

}  // namespace ipm
