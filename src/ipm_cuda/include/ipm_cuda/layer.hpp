// CUDA monitoring layer (paper §III).
//
// The generated wrappers (see generated/*.inc, produced by wrapgen from the
// API specs) are thin: each one interns its display name once and calls one
// of the policy helpers below.  The helpers implement the paper's three
// mechanisms:
//
//  * timed_call — the Fig. 2 anatomy (ipm::timed_event), after polling the
//    kernel timing table when KttPolicy::kOnEveryCall asks for it;
//  * wrap_memcpy — direction tagging (D2H/H2D), implicit-host-blocking
//    detection via a cudaStreamSynchronize probe (§III-C), and kernel-
//    timing-table polling on device-to-host transfers (§III-B);
//  * wrap_launch — kernel timing table insertion: bracket the launch with
//    CUDA events, resolve durations later via cudaEventElapsedTime.
//
// Every event the layer produces — wrapped calls, host-idle probes and
// kernel completions — is recorded through Monitor::record (wrapped calls
// through its status front, Monitor::record_call), so the hash table and
// the trace ring see the same doubles.  All internal probe traffic uses
// cudasim_real_* entry points so the layer never monitors itself.
#pragma once

#include <cstdint>
#include <utility>

#include "cudasim/cuda_runtime.h"
#include "ipm/monitor.hpp"

namespace ipm::cuda {

/// Transfer direction used for display-name tagging.
enum class Dir { kNone, kH2H, kH2D, kD2H, kD2D };

/// Direction-tagged display names for one memcpy-like call, interned and
/// pre-hashed once per wrapper (static local in the generated code).
struct DirNames {
  PreparedKey plain, h2h, h2d, d2h, d2d;
};

[[nodiscard]] DirNames make_dir_names(const char* base);
[[nodiscard]] Dir dir_of(cudaMemcpyKind kind) noexcept;
[[nodiscard]] PreparedKey pick(const DirNames& names, Dir dir) noexcept;

/// Statistics counters of the CUDA layer (for tests and ablations).
struct LayerStats {
  std::uint64_t ktt_inserts = 0;
  std::uint64_t ktt_polls = 0;        ///< completion sweeps executed
  std::uint64_t ktt_completed = 0;    ///< kernels whose timing got recorded
  std::uint64_t ktt_slots_exhausted = 0;
  std::uint64_t ktt_aborted = 0;      ///< entries rolled back (launch failed)
  std::uint64_t idle_probes = 0;
  std::uint64_t idle_recorded = 0;
};

/// Per-rank layer state lives in Monitor::layer_data; these operate on the
/// calling rank's monitor.
void note_configured_stream(cudaStream_t stream);
[[nodiscard]] cudaStream_t pending_stream();

/// Poll the kernel timing table: query stop events, record completed
/// kernels as @CUDA_EXEC pseudo-events, free their slots (§III-B).
void ktt_poll(Monitor& mon);

/// Finalize-time drain: synchronize on outstanding stop events so every
/// launched kernel is accounted for (registered as a finalize hook).
void ktt_drain(Monitor& mon);

[[nodiscard]] LayerStats layer_stats(Monitor& mon);

// --- wrapper policy helpers (called from generated code) --------------------

namespace detail {
void maybe_poll_on_call(Monitor& mon);
void host_idle_probe(Monitor& mon, cudaStream_t stream);
/// Claim a KTT slot and record the *start* event (before the launch).
/// Returns the slot index or -1 (table exhausted / events unavailable).
int ktt_begin(Monitor& mon, cudaStream_t stream);
/// Record the *stop* event after the launch, arming the slot for polling.
/// Resolves the kernel's display name *now* (the launch just registered it
/// with the simulator); the slot must not keep `func`, which may point at a
/// stack-local KernelDef that is gone by drain time.
void ktt_end(Monitor& mon, int slot, const void* func);
/// Roll back a claimed slot after a *failed* launch: destroy the cached
/// events (the start event was recorded for work that never ran) so neither
/// ktt_poll nor ktt_drain can observe the phantom kernel.
void ktt_abort(Monitor& mon, int slot);
}  // namespace detail

/// Fig. 2: poll the kernel timing table if the policy says every call, then
/// time the real call and record it under `key` (ipm::timed_event).
template <typename Fn>
auto timed_call(const PreparedKey& key, std::uint64_t bytes, std::int32_t select,
                ErrDomain domain, Fn&& fn) {
  Monitor* mon = ipm::monitor();
  if (mon == nullptr) return fn();
  detail::maybe_poll_on_call(*mon);
  return ipm::timed_event(key, bytes, select, domain, std::forward<Fn>(fn));
}

/// Memory-transfer wrapper: direction tagging + host-idle probe (sync ops
/// only) + KTT poll on device-to-host transfers.  Bytes are credited only
/// when the transfer succeeds; failures land on `name(DIR)[ERR=slug]`.
template <typename Fn>
auto wrap_memcpy(const DirNames& names, std::uint64_t bytes, Dir dir, bool sync,
                 cudaStream_t stream, ErrDomain domain, Fn&& fn) {
  Monitor* mon = ipm::monitor();
  if (mon == nullptr) return fn();
  if (sync && mon->config().host_idle && (dir == Dir::kH2D || dir == Dir::kD2H ||
                                          dir == Dir::kD2D)) {
    detail::host_idle_probe(*mon, stream);
  }
  if (dir == Dir::kD2H && mon->config().kernel_timing &&
      mon->config().ktt_policy == KttPolicy::kOnD2HTransfer) {
    ktt_poll(*mon);
  }
  detail::maybe_poll_on_call(*mon);
  const double begin = ipm::gettime();
  auto ret = fn();
  const double dur = ipm::gettime() - begin;
  mon->record_call(pick(names, dir), begin, dur, bytes, 0, domain,
                   static_cast<std::int64_t>(ret));
  return ret;
}

/// Kernel-launch wrapper: insert a KTT entry bracketing the launch with
/// start/stop events, then time the (asynchronous) launch call itself.  A
/// failed launch rolls its KTT entry back (no phantom @CUDA_EXEC record)
/// and is accounted under the per-error-code key instead.
template <typename Fn>
auto wrap_launch(const PreparedKey& key, const void* func, cudaStream_t stream,
                 ErrDomain domain, Fn&& fn) {
  Monitor* mon = ipm::monitor();
  if (mon == nullptr) return fn();
  detail::maybe_poll_on_call(*mon);
  const bool time_kernel = mon->config().kernel_timing;
  const double begin = ipm::gettime();
  const int slot = time_kernel ? detail::ktt_begin(*mon, stream) : -1;
  auto ret = fn();
  const double dur = ipm::gettime() - begin;
  const auto code = static_cast<std::int64_t>(ret);
  if (slot >= 0) {
    if (is_error(domain, code)) {
      detail::ktt_abort(*mon, slot);
    } else {
      detail::ktt_end(*mon, slot, func);
    }
  }
  mon->record_call(key, begin, dur, 0, 0, domain, code);
  return ret;
}

}  // namespace ipm::cuda
