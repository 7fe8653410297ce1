#include "ipm_cuda/layer.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>

#include "cudasim/control.hpp"
#include "cudasim/kernel.hpp"
#include "cudasim/real.h"
#include "ipm_live/live.hpp"
#include "simcommon/clock.hpp"
#include "simcommon/str.hpp"

namespace ipm::cuda {

namespace {

/// Below this duration an implicit-blocking probe is considered noise
/// (sync overhead) rather than a real missed-overlap opportunity; this is
/// why the Fig. 6 banner reports one @CUDA_HOST_IDLE entry, not one per
/// synchronous memory operation.
constexpr double kIdleThreshold = 5e-6;

constexpr int kKttSlots = 512;

struct KttEntry {
  bool armed = false;       ///< start+stop recorded, waiting for completion
  bool start_only = false;  ///< claimed, stop not yet recorded
  cudaEvent_t start = nullptr;
  cudaEvent_t stop = nullptr;
  cudaStream_t stream = nullptr;
  /// @CUDA_EXEC display name, resolved at ktt_end while the launch handle is
  /// still alive (it may point at a stack-local KernelDef).
  PreparedKey exec_key{};
  std::uint32_t region = 0;  ///< user region active at launch time
};

/// Cached @CUDA_EXEC key for one launch handle.  The handle address can be
/// reused for a *different* kernel (stack-local KernelDefs), so the cache
/// remembers the name it resolved and re-resolves on mismatch.
struct ExecName {
  std::string kernel;  ///< cusim kernel name the cache entry was built from
  PreparedKey key{};
};

/// Per-rank CUDA layer state, stowed in Monitor::layer_data.
struct State {
  std::array<KttEntry, kKttSlots> ktt;
  int next_slot_hint = 0;
  cudaStream_t configured_stream = nullptr;
  std::unordered_map<const void*, ExecName> exec_names;
  PreparedKey idle_name{};
  LayerStats stats;
  bool in_layer = false;  ///< reentrancy guard for probe-triggered wrappers
  double bracket_overhead = -1.0;  ///< calibrated empty-bracket duration (<0: not yet)
  /// Trace epoch: a synchronized reference event plus the host time observed
  /// right after its sync.  Kernel spans get absolute device start times as
  /// epoch_host + elapsed(epoch, start) — cudaEventElapsedTime is the only
  /// sanctioned way to read device timestamps (error <= one sync overhead).
  cudaEvent_t epoch = nullptr;
  double epoch_host = -1.0;
};

/// Calibrate the constant cost of an empty start/stop event bracket by
/// timing one on an idle stream (paper §IV-A: the event-based method
/// always measures the bracket, not just the kernel).
double calibrate_bracket_overhead() {
  cudaEvent_t a = nullptr;
  cudaEvent_t b = nullptr;
  if (cudasim_real_cudaEventCreate(&a) != cudaSuccess ||
      cudasim_real_cudaEventCreate(&b) != cudaSuccess) {
    return 0.0;
  }
  double overhead = 0.0;
  if (cudasim_real_cudaEventRecord(a, nullptr) == cudaSuccess &&
      cudasim_real_cudaEventRecord(b, nullptr) == cudaSuccess &&
      cudasim_real_cudaEventSynchronize(b) == cudaSuccess) {
    float ms = 0.0F;
    if (cudasim_real_cudaEventElapsedTime(&ms, a, b) == cudaSuccess) {
      overhead = static_cast<double>(ms) * 1e-3;
    }
  }
  cudasim_real_cudaEventDestroy(a);
  cudasim_real_cudaEventDestroy(b);
  return overhead;
}

/// Ground-truth GpuProbe for live snapshots (live.hpp): fold the simulated
/// hardware counters of this rank's node into the sample stream.  Exactly
/// one rank per node reports (local_rank 0), so summing over ranks counts
/// each device once; the probe returns cumulative totals and the publisher
/// takes conserved deltas.  A rank on a node the topology lacks reports
/// nothing: the simulator wraps its node onto one the topology has, whose
/// counters already include its kernels.
bool device_counter_probe(double& flops, double& dram_bytes) {
  const simx::ExecContext& ctx = simx::current_context();
  const cusim::Topology& topo = cusim::topology();
  if (ctx.local_rank != 0 || ctx.node_id < 0 || ctx.node_id >= topo.nodes) return false;
  flops = 0.0;
  dram_bytes = 0.0;
  for (int g = 0; g < topo.gpus_per_node; ++g) {
    const cusim::DeviceCounters c = cusim::device_counters(ctx.node_id, g);
    flops += c.flops;
    dram_bytes += c.dram_bytes;
  }
  return true;
}

State& state(Monitor& mon) {
  if (mon.layer_data == nullptr) {
    auto* s = new State();
    s->idle_name = prepare_key("@CUDA_HOST_IDLE");
    mon.layer_data = s;
    mon.layer_data_deleter = [](void* p) { delete static_cast<State*>(p); };
    mon.add_finalize_hook([&mon] { ktt_drain(mon); });
    ipm::live::set_gpu_probe(&device_counter_probe);
  }
  return *static_cast<State*>(mon.layer_data);
}

/// Resolve the @CUDA_EXEC key for a launch handle.  Must run while `func`
/// is still a live KernelDef (i.e. at launch time, not at drain time).
PreparedKey exec_key(State& s, const void* func) {
  const char* kernel = cusim::kernel_name(func);
  const auto it = s.exec_names.find(func);
  if (it != s.exec_names.end() && it->second.kernel == kernel) return it->second.key;
  const PreparedKey key = prepare_key(std::string("@CUDA_EXEC:") + kernel);
  s.exec_names[func] = ExecName{kernel, key};
  return key;
}

/// Establish the trace epoch: record + sync one reference event, then read
/// the host clock (the sync advanced it to the event's completion, so
/// epoch_host matches the event's device timestamp to within one sync
/// overhead).  Runs once per rank, before the first kernel start event.
void ensure_epoch(Monitor& mon, State& s) {
  if (s.epoch != nullptr || !mon.tracing()) return;
  if (cudasim_real_cudaEventCreate(&s.epoch) != cudaSuccess) return;
  if (cudasim_real_cudaEventRecord(s.epoch, nullptr) != cudaSuccess ||
      cudasim_real_cudaEventSynchronize(s.epoch) != cudaSuccess) {
    cudasim_real_cudaEventDestroy(s.epoch);
    s.epoch = nullptr;
    return;
  }
  s.epoch_host = ipm::gettime();
}

/// Record one completed KTT entry and free its slot.
void ktt_record(Monitor& mon, State& s, KttEntry& e) {
  float ms = 0.0F;
  if (cudasim_real_cudaEventElapsedTime(&ms, e.start, e.stop) == cudaSuccess) {
    double duration = static_cast<double>(ms) * 1e-3;
    if (mon.config().ktt_overhead_correction) {
      if (s.bracket_overhead < 0.0) s.bracket_overhead = calibrate_bracket_overhead();
      duration = std::max(0.0, duration - s.bracket_overhead);
    }
    // Span start: the absolute device start via the epoch, read only by a
    // traced rank (an untraced record drops t0).
    double t0 = 0.0;
    float ms0 = 0.0F;
    if (mon.tracing() && s.epoch != nullptr &&
        cudasim_real_cudaEventElapsedTime(&ms0, s.epoch, e.start) == cudaSuccess) {
      t0 = s.epoch_host + static_cast<double>(ms0) * 1e-3;
    }
    // Attribute to the region that was active when the kernel was
    // *launched* — completion is detected much later (often in another
    // region), but the work belongs where the launch happened.  select
    // carries the stream for lane mapping.
    mon.record(e.exec_key, e.region, t0, duration, 0, cusim::stream_index(e.stream),
               TraceKind::kKernel);
    s.stats.ktt_completed += 1;
  }
  e.armed = false;
  e.exec_key = PreparedKey{};
}

}  // namespace

DirNames make_dir_names(const char* base) {
  DirNames n;
  n.plain = prepare_key(base);
  n.h2h = prepare_key(simx::strprintf("%s(H2H)", base));
  n.h2d = prepare_key(simx::strprintf("%s(H2D)", base));
  n.d2h = prepare_key(simx::strprintf("%s(D2H)", base));
  n.d2d = prepare_key(simx::strprintf("%s(D2D)", base));
  return n;
}

Dir dir_of(cudaMemcpyKind kind) noexcept {
  switch (kind) {
    case cudaMemcpyHostToHost: return Dir::kH2H;
    case cudaMemcpyHostToDevice: return Dir::kH2D;
    case cudaMemcpyDeviceToHost: return Dir::kD2H;
    case cudaMemcpyDeviceToDevice: return Dir::kD2D;
    default: return Dir::kNone;
  }
}

PreparedKey pick(const DirNames& names, Dir dir) noexcept {
  switch (dir) {
    case Dir::kH2H: return names.h2h;
    case Dir::kH2D: return names.h2d;
    case Dir::kD2H: return names.d2h;
    case Dir::kD2D: return names.d2d;
    default: return names.plain;
  }
}

void note_configured_stream(cudaStream_t stream) {
  Monitor* mon = ipm::monitor();
  if (mon == nullptr) return;
  state(*mon).configured_stream = stream;
}

cudaStream_t pending_stream() {
  Monitor* mon = ipm::monitor();
  return mon == nullptr ? nullptr : state(*mon).configured_stream;
}

void ktt_poll(Monitor& mon) {
  State& s = state(mon);
  s.stats.ktt_polls += 1;
  for (KttEntry& e : s.ktt) {
    if (!e.armed) continue;
    if (cudasim_real_cudaEventQuery(e.stop) == cudaSuccess) ktt_record(mon, s, e);
  }
}

void ktt_drain(Monitor& mon) {
  State& s = state(mon);
  for (KttEntry& e : s.ktt) {
    if (!e.armed) continue;
    cudasim_real_cudaEventSynchronize(e.stop);
    ktt_record(mon, s, e);
  }
}

LayerStats layer_stats(Monitor& mon) { return state(mon).stats; }

namespace detail {

void maybe_poll_on_call(Monitor& mon) {
  if (mon.config().kernel_timing && mon.config().ktt_policy == KttPolicy::kOnEveryCall) {
    State& s = state(mon);
    if (s.in_layer) return;
    s.in_layer = true;
    ktt_poll(mon);
    s.in_layer = false;
  }
}

void host_idle_probe(Monitor& mon, cudaStream_t stream) {
  State& s = state(mon);
  s.stats.idle_probes += 1;
  const double begin = ipm::gettime();
  cudasim_real_cudaStreamSynchronize(stream);
  const double idle = ipm::gettime() - begin;
  if (idle >= kIdleThreshold) {
    mon.record(s.idle_name, mon.current_region(), begin, idle, 0,
               cusim::stream_index(stream), TraceKind::kIdle);
    s.stats.idle_recorded += 1;
  }
}

int ktt_begin(Monitor& mon, cudaStream_t stream) {
  State& s = state(mon);
  ensure_epoch(mon, s);
  for (int probe = 0; probe < kKttSlots; ++probe) {
    const int idx = (s.next_slot_hint + probe) % kKttSlots;
    KttEntry& e = s.ktt[idx];
    if (e.armed || e.start_only) continue;
    if (e.start == nullptr &&
        cudasim_real_cudaEventCreate(&e.start) != cudaSuccess) {
      return -1;
    }
    if (e.stop == nullptr && cudasim_real_cudaEventCreate(&e.stop) != cudaSuccess) {
      return -1;
    }
    if (cudasim_real_cudaEventRecord(e.start, stream) != cudaSuccess) return -1;
    e.start_only = true;
    e.stream = stream;
    e.region = mon.current_region();
    s.next_slot_hint = (idx + 1) % kKttSlots;
    s.stats.ktt_inserts += 1;
    return idx;
  }
  s.stats.ktt_slots_exhausted += 1;
  return -1;
}

void ktt_end(Monitor& mon, int slot, const void* func) {
  State& s = state(mon);
  KttEntry& e = s.ktt[static_cast<std::size_t>(slot)];
  if (!e.start_only) return;
  e.start_only = false;
  // Resolve the display name now: the launch has just registered the kernel
  // with the simulator, and `func` may not survive past this call.
  e.exec_key = exec_key(s, func);
  if (cudasim_real_cudaEventRecord(e.stop, e.stream) == cudaSuccess) e.armed = true;
}

void ktt_abort(Monitor& mon, int slot) {
  State& s = state(mon);
  KttEntry& e = s.ktt[static_cast<std::size_t>(slot)];
  if (!e.start_only) return;
  e.start_only = false;
  // The start event was recorded for work that never ran: destroy both
  // cached events (not just disarm) so neither ktt_poll nor ktt_drain can
  // observe the phantom kernel through a stale recorded event.
  if (e.start != nullptr) {
    cudasim_real_cudaEventDestroy(e.start);
    e.start = nullptr;
  }
  if (e.stop != nullptr) {
    cudasim_real_cudaEventDestroy(e.stop);
    e.stop = nullptr;
  }
  e.stream = nullptr;
  e.exec_key = PreparedKey{};
  s.stats.ktt_aborted += 1;
}

}  // namespace detail

}  // namespace ipm::cuda
