#include "engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "simcommon/noise.hpp"

namespace cusim::detail {

namespace {

/// Apply the calling rank's noise model to a device-side duration.
double jitter(double dt) {
  simx::NoiseModel* noise = simx::current_context().noise;
  return noise != nullptr ? noise->perturb(dt) : dt;
}

std::atomic<std::uint64_t> g_api_calls{0};
std::atomic<std::uint64_t> g_kernels{0};
std::atomic<std::uint64_t> g_memcpys{0};
std::atomic<std::uint64_t> g_bytes_h2d{0};
std::atomic<std::uint64_t> g_bytes_d2h{0};

}  // namespace

CtxExec& DeviceState::ctx_exec_slot(std::uint64_t ctx_id) {
  for (CtxExec& e : ctx_exec) {
    if (e.ctx_id == ctx_id) return e;
  }
  CtxExec& slot = ctx_exec.emplace_back();
  slot.ctx_id = ctx_id;
  return slot;
}

Engine& Engine::instance() {
  static Engine engine;
  return engine;
}

void Engine::configure(const Topology& topo) {
  std::scoped_lock lk(mu_);
  if (topo.nodes < 1 || topo.gpus_per_node < 1) {
    throw std::invalid_argument("cusim::configure: nodes and gpus_per_node must be >= 1");
  }
  // Free any leaked device allocations from the previous run.
  for (auto& dev : devices_) {
    for (auto& [ptr, size] : dev->allocs) std::free(const_cast<void*>(ptr));
  }
  topo_ = topo;
  devices_.clear();
  contexts_.clear();
  profile_.clear();
  g_api_calls = g_kernels = g_memcpys = g_bytes_h2d = g_bytes_d2h = 0;
  const int total = topo.nodes * topo.gpus_per_node;
  devices_.reserve(static_cast<std::size_t>(total));
  for (int n = 0; n < topo.nodes; ++n) {
    for (int g = 0; g < topo.gpus_per_node; ++g) {
      auto dev = std::make_unique<DeviceState>();
      dev->node = n;
      dev->index = g;
      dev->global_id = n * topo.gpus_per_node + g;
      devices_.push_back(std::move(dev));
    }
  }
}

double Engine::now() const { return simx::virtual_now(); }

void Engine::charge_host(double dt) {
  g_api_calls.fetch_add(1, std::memory_order_relaxed);
  simx::current_context().charge(dt);
}

void Engine::ensure_init(CudaContext& c) {
  if (!c.initialized) {
    c.initialized = true;
    simx::current_context().charge(topo_.timing.init_cost);
  }
}

CudaContext& Engine::ctx_no_init() {
  simx::ExecContext& ec = simx::current_context();
  std::scoped_lock lk(mu_);
  auto it = contexts_.find(ec.ctx_id);
  if (it == contexts_.end()) {
    auto c = std::make_unique<CudaContext>();
    c->ctx_id = ec.ctx_id;
    c->node = ec.node_id;
    if (c->node < 0 || c->node >= topo_.nodes) {
      // Ranks beyond the configured node count wrap around; keeps unit
      // tests that never call configure() well defined.
      c->node = ((c->node % topo_.nodes) + topo_.nodes) % topo_.nodes;
    }
    auto s = std::make_unique<CUstream_st>();
    s->owner_ctx = c->ctx_id;
    s->index = 0;
    c->streams.push_back(std::move(s));
    it = contexts_.emplace(ec.ctx_id, std::move(c)).first;
  }
  return *it->second;
}

CudaContext& Engine::ctx() {
  CudaContext& c = ctx_no_init();
  ensure_init(c);
  return c;
}

DeviceState& Engine::device_at(int node, int index) {
  if (node < 0 || node >= topo_.nodes || index < 0 || index >= topo_.gpus_per_node) {
    throw std::out_of_range("cusim: no device (node " + std::to_string(node) + ", gpu " +
                            std::to_string(index) + ") in the topology");
  }
  return *devices_[static_cast<std::size_t>(node) * topo_.gpus_per_node + index];
}

DeviceState& Engine::device_of(const CudaContext& c) {
  return device_at(c.node, c.device_index);
}

cudaError_t Engine::set_error(cudaError_t e) {
  if (e != cudaSuccess) ctx_no_init().last_error = e;
  return e;
}

cudaError_t Engine::set_error(cudaError_t e, bool sticky) {
  if (e != cudaSuccess) {
    CudaContext& c = ctx_no_init();
    c.last_error = e;
    if (sticky) c.sticky_error = e;
  }
  return e;
}

cudaError_t Engine::sticky_pending() { return ctx_no_init().sticky_error; }

void Engine::reset_errors() {
  CudaContext& c = ctx_no_init();
  c.last_error = cudaSuccess;
  c.sticky_error = cudaSuccess;
}

cudaError_t Engine::last_error_clear() {
  CudaContext& c = ctx_no_init();
  // A sticky error is reported but not cleared (real CUDA: the context
  // stays poisoned until cudaDeviceReset).
  if (c.sticky_error != cudaSuccess) return c.sticky_error;
  const cudaError_t e = c.last_error;
  c.last_error = cudaSuccess;
  return e;
}

cudaError_t Engine::last_error_peek() {
  CudaContext& c = ctx_no_init();
  if (c.sticky_error != cudaSuccess) return c.sticky_error;
  return c.last_error;
}

void Engine::record_profile(ProfileRecord rec) {
  std::scoped_lock lk(mu_);
  if (profiling_) profile_.push_back(std::move(rec));
}

CUstream_st* Engine::resolve_stream(CudaContext& c, CUstream_st* handle) {
  return handle == nullptr ? c.default_stream() : handle;
}

bool Engine::dev_range_ok(DeviceState& dev, const void* p, std::size_t count) {
  // Find the allocation whose range contains [p, p+count).
  const char* pc = static_cast<const char*>(p);
  for (const auto& [base, size] : dev.allocs) {
    const char* bc = static_cast<const char*>(base);
    if (pc >= bc && pc + count <= bc + size) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

cudaError_t Engine::malloc_dev(void** ptr, std::size_t size) {
  if (ptr == nullptr) return set_error(cudaErrorInvalidValue);
  CudaContext& c = ctx();
  charge_host(topo_.timing.malloc_overhead);
  DeviceState& dev = device_of(c);
  std::scoped_lock lk(dev.mu);
  if (dev.bytes_in_use + size > topo_.device.total_mem) {
    return set_error(cudaErrorMemoryAllocation);
  }
  // Zero-size allocations are legal in CUDA and return a unique pointer.
  // In model-only mode (execute_bodies disabled) allocations are virtual:
  // capacity accounting uses the requested size, the real backing is tiny,
  // which lets cluster-scale experiments exceed host RAM.
  const std::size_t backing = execute_bodies_ ? (size > 0 ? size : 1) : 1;
  void* mem = std::malloc(backing);
  if (mem == nullptr) return set_error(cudaErrorMemoryAllocation);
  dev.allocs.emplace(mem, size);
  dev.bytes_in_use += size;
  *ptr = mem;
  return cudaSuccess;
}

cudaError_t Engine::free_dev(void* ptr) {
  if (ptr == nullptr) return cudaSuccess;  // CUDA: freeing NULL is a no-op.
  CudaContext& c = ctx();
  charge_host(topo_.timing.malloc_overhead);
  DeviceState& dev = device_of(c);
  std::scoped_lock lk(dev.mu);
  const auto it = dev.allocs.find(ptr);
  if (it == dev.allocs.end()) return set_error(cudaErrorInvalidDevicePointer);
  dev.bytes_in_use -= it->second;
  std::free(ptr);
  dev.allocs.erase(it);
  return cudaSuccess;
}

cudaError_t Engine::memcpy_op(void* dst, const void* src, std::size_t count,
                              cudaMemcpyKind kind, CUstream_st* stream_handle, bool sync,
                              bool validate_dst_dev, bool validate_src_dev,
                              bool copy_data) {
  if ((dst == nullptr || src == nullptr) && count > 0) {
    return set_error(cudaErrorInvalidValue);
  }
  CudaContext& c = ctx();
  charge_host(topo_.timing.api_overhead);
  if (kind == cudaMemcpyHostToHost) {
    if (count > 0 && copy_data) std::memmove(dst, src, count);
    simx::current_context().charge(static_cast<double>(count) / topo_.timing.host_memcpy_bw);
    return cudaSuccess;
  }
  if (kind != cudaMemcpyHostToDevice && kind != cudaMemcpyDeviceToHost &&
      kind != cudaMemcpyDeviceToDevice) {
    return set_error(cudaErrorInvalidMemcpyDirection);
  }
  DeviceState& dev = device_of(c);
  const bool dst_dev = (kind == cudaMemcpyHostToDevice || kind == cudaMemcpyDeviceToDevice);
  const bool src_dev = (kind == cudaMemcpyDeviceToHost || kind == cudaMemcpyDeviceToDevice);
  if (execute_bodies_) {
    std::scoped_lock lk(dev.mu);
    if (dst_dev && validate_dst_dev && !dev_range_ok(dev, dst, count)) {
      return set_error(cudaErrorInvalidDevicePointer);
    }
    if (src_dev && validate_src_dev && !dev_range_ok(dev, src, count)) {
      return set_error(cudaErrorInvalidDevicePointer);
    }
  }
  // Perform the real data movement now (device memory is host memory).
  // Skipped in model-only mode, where device allocations have no full-size
  // backing store (timing is unaffected: it derives from `count`).
  if (count > 0 && copy_data && execute_bodies_) std::memmove(dst, src, count);

  double bw = topo_.device.mem_bandwidth * 0.5;  // DtoD round trip through DRAM
  if (kind == cudaMemcpyHostToDevice) bw = topo_.device.pcie_h2d_bw;
  if (kind == cudaMemcpyDeviceToHost) bw = topo_.device.pcie_d2h_bw;
  const double duration =
      jitter(topo_.device.pcie_latency + static_cast<double>(count) / bw);

  CUstream_st* s = resolve_stream(c, stream_handle);
  double start = 0.0;
  double end = 0.0;
  {
    std::scoped_lock lk(dev.mu);
    start = std::max(now(), s->busy_until);
    if (s->index == 0) {
      // Legacy NULL stream waits for all other streams of this context.
      for (const auto& other : c.streams) start = std::max(start, other->busy_until);
    } else {
      start = std::max(start, c.legacy_fence);
    }
    if (kind == cudaMemcpyHostToDevice) {
      start = std::max(start, dev.engine_free_h2d);
    } else if (kind == cudaMemcpyDeviceToHost) {
      start = std::max(start, dev.engine_free_d2h);
    }
    end = start + duration;
    if (kind == cudaMemcpyHostToDevice) dev.engine_free_h2d = end;
    if (kind == cudaMemcpyDeviceToHost) dev.engine_free_d2h = end;
    s->busy_until = end;
    if (s->index == 0) c.legacy_fence = std::max(c.legacy_fence, end);
  }
  if (sync) {
    // Implicit host blocking (paper §III-C): the host does not regain
    // control until all preceding work on the stream plus the transfer
    // itself have completed on the device.
    simx::current_context().clock.advance_to(end);
  }
  g_memcpys.fetch_add(1, std::memory_order_relaxed);
  if (kind == cudaMemcpyHostToDevice) g_bytes_h2d.fetch_add(count, std::memory_order_relaxed);
  if (kind == cudaMemcpyDeviceToHost) g_bytes_d2h.fetch_add(count, std::memory_order_relaxed);
  if (profiling_) {
    const char* method = kind == cudaMemcpyHostToDevice   ? "memcpyHtoD"
                         : kind == cudaMemcpyDeviceToHost ? "memcpyDtoH"
                                                          : "memcpyDtoD";
    record_profile({method, start, duration, device_of(c).global_id, s->index, c.ctx_id, 1.0});
  }
  return cudaSuccess;
}

cudaError_t Engine::memset_op(void* ptr, int value, std::size_t count) {
  CudaContext& c = ctx();
  charge_host(topo_.timing.api_overhead);
  DeviceState& dev = device_of(c);
  if (execute_bodies_) {
    std::scoped_lock lk(dev.mu);
    if (!dev_range_ok(dev, ptr, count)) return set_error(cudaErrorInvalidDevicePointer);
    if (count > 0) std::memset(ptr, value, count);
  }
  // cudaMemset runs device-side and — notably (paper §III-C) — does NOT
  // implicitly block the host: enqueue on the default stream, return.
  const double duration =
      jitter(static_cast<double>(count) / topo_.device.mem_bandwidth + 1e-6);
  CUstream_st* s = c.default_stream();
  std::scoped_lock lk(dev.mu);
  double start = std::max(now(), s->busy_until);
  for (const auto& other : c.streams) start = std::max(start, other->busy_until);
  s->busy_until = start + duration;
  c.legacy_fence = std::max(c.legacy_fence, s->busy_until);
  return cudaSuccess;
}

// ---------------------------------------------------------------------------
// Kernel launch
// ---------------------------------------------------------------------------

double Engine::kernel_duration(const KernelDef& def, const LaunchGeom& geom) const {
  const KernelCost& k = def.cost;
  const DeviceSpec& d = topo_.device;
  const double threads =
      static_cast<double>(geom.total_threads()) * std::max(1.0, k.serial_iterations);
  const double eff = std::clamp(k.efficiency, 1e-4, 1.0);
  // Sub-warp blocks waste SIMT lanes; tiny grids underfill the SMs.
  const double lane_util =
      std::min(1.0, static_cast<double>(geom.threads_per_block()) / 32.0);
  const double occ_util = std::min(
      1.0, static_cast<double>(geom.total_threads()) /
               (static_cast<double>(d.sm_count) * 512.0));
  const double util = std::max(1e-3, lane_util * occ_util);
  const double peak = k.double_precision ? d.peak_dp_flops : d.peak_sp_flops;
  const double flop_time = threads * k.flops_per_thread / (peak * eff * util);
  const double mem_time = threads * k.dram_bytes_per_thread / (d.mem_bandwidth * eff * util);
  return std::max(flop_time, mem_time) + k.fixed_us * 1e-6;
}

cudaError_t Engine::launch(const KernelDef* def, const LaunchGeom& geom,
                           CUstream_st* stream_handle,
                           std::function<void(const LaunchGeom&)> body) {
  if (def == nullptr) return set_error(cudaErrorInvalidValue);
  CudaContext& c = ctx();
  charge_host(topo_.timing.launch_overhead);
  if (geom.threads_per_block() == 0 || geom.blocks() == 0 ||
      geom.threads_per_block() >
          static_cast<unsigned long long>(topo_.device.max_threads_per_block)) {
    return set_error(cudaErrorInvalidValue);
  }
  const double duration = jitter(kernel_duration(*def, geom));
  DeviceState& dev = device_of(c);
  CUstream_st* s = resolve_stream(c, stream_handle);
  double start = 0.0;
  {
    std::scoped_lock lk(dev.mu);
    start = std::max(now() + topo_.timing.kernel_start_latency, s->busy_until);
    if (s->index == 0) {
      for (const auto& other : c.streams) start = std::max(start, other->busy_until);
    } else {
      start = std::max(start, c.legacy_fence);
    }
    CtxExec* mine = c.exec_cache_dev == &dev ? c.exec_cache : nullptr;
    if (mine == nullptr) {
      mine = &dev.ctx_exec_slot(c.ctx_id);
      c.exec_cache = mine;
      c.exec_cache_dev = &dev;
    }
    // Fermi: contexts never share the execution engine — a kernel waits for
    // every other context's outstanding kernels (GPU sharing, paper §I.5).
    for (const CtxExec& other : dev.ctx_exec) {
      if (&other != mine) start = std::max(start, other.exec_end);
    }
    // Concurrency cap within this context (16 concurrent kernels on Fermi).
    auto& active = mine->active_kernels;
    std::erase_if(active, [&](double end_time) { return end_time <= start; });
    if (static_cast<int>(active.size()) >= topo_.device.max_concurrent_kernels) {
      std::sort(active.begin(), active.end());
      const std::size_t drop =
          active.size() + 1 - static_cast<std::size_t>(topo_.device.max_concurrent_kernels);
      start = std::max(start, active[drop - 1]);
      std::erase_if(active, [&](double end_time) { return end_time <= start; });
    }
    const double end = start + duration;
    active.push_back(end);
    s->busy_until = std::max(s->busy_until, end);
    if (s->index == 0) c.legacy_fence = std::max(c.legacy_fence, end);
    mine->exec_end = std::max(mine->exec_end, end);
    // Hardware-counter accumulation (exact for the cost model).
    const double work_threads =
        static_cast<double>(geom.total_threads()) * std::max(1.0, def->cost.serial_iterations);
    dev.counters.kernels += 1;
    dev.counters.flops += work_threads * def->cost.flops_per_thread;
    dev.counters.dram_bytes += work_threads * def->cost.dram_bytes_per_thread;
    dev.counters.busy_time += duration;
    dev.counters.warps_launched +=
        geom.blocks() * ((geom.threads_per_block() + 31) / 32);
  }
  if (body && execute_bodies_) body(geom);  // real data effect, instant in real time
  detail_note_kernel(def);
  g_kernels.fetch_add(1, std::memory_order_relaxed);
  if (profiling_) {
    const double occ = std::min(
        1.0, static_cast<double>(geom.total_threads()) /
                 (static_cast<double>(topo_.device.sm_count) * 1536.0));
    record_profile({def->name, start, duration, dev.global_id, s->index, c.ctx_id, occ});
  }
  return cudaSuccess;
}

cudaError_t Engine::configure_call(const LaunchGeom& geom, CUstream_st* stream) {
  CudaContext& c = ctx();
  charge_host(topo_.timing.api_overhead);
  c.pending.configured = true;
  c.pending.geom = geom;
  c.pending.stream = stream;
  c.pending.args_bytes = 0;
  c.pending.args_count = 0;
  return cudaSuccess;
}

cudaError_t Engine::setup_argument(std::size_t size) {
  CudaContext& c = ctx();
  charge_host(topo_.timing.api_overhead);
  if (!c.pending.configured) return set_error(cudaErrorMissingConfiguration);
  c.pending.args_bytes += size;
  c.pending.args_count += 1;
  return cudaSuccess;
}

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

cudaError_t Engine::stream_create(CUstream_st** out) {
  if (out == nullptr) return set_error(cudaErrorInvalidValue);
  CudaContext& c = ctx();
  charge_host(topo_.timing.api_overhead);
  auto s = std::make_unique<CUstream_st>();
  s->owner_ctx = c.ctx_id;
  s->index = static_cast<int>(c.streams.size());
  // New streams begin after the legacy fence.
  s->busy_until = c.legacy_fence;
  CUstream_st* raw = s.get();
  c.streams.push_back(std::move(s));
  *out = raw;
  return cudaSuccess;
}

cudaError_t Engine::stream_destroy(CUstream_st* s) {
  if (s == nullptr) return set_error(cudaErrorInvalidResourceHandle);
  charge_host(topo_.timing.api_overhead);
  if (s->destroyed) return set_error(cudaErrorInvalidResourceHandle);
  s->destroyed = true;  // storage stays alive in the context (handle safety)
  return cudaSuccess;
}

cudaError_t Engine::stream_sync(CUstream_st* handle) {
  CudaContext& c = ctx();
  charge_host(topo_.timing.sync_overhead);
  CUstream_st* s = resolve_stream(c, handle);
  double target = s->busy_until;
  if (s->index == 0) {
    // Synchronizing the NULL stream waits for the whole context.
    for (const auto& other : c.streams) target = std::max(target, other->busy_until);
  }
  simx::current_context().clock.advance_to(target);
  return cudaSuccess;
}

cudaError_t Engine::stream_query(CUstream_st* handle) {
  CudaContext& c = ctx();
  charge_host(topo_.timing.api_overhead);
  CUstream_st* s = resolve_stream(c, handle);
  return s->busy_until <= now() ? cudaSuccess : cudaErrorNotReady;
}

cudaError_t Engine::stream_wait_event(CUstream_st* handle, CUevent_st* e) {
  if (e == nullptr) return set_error(cudaErrorInvalidResourceHandle);
  CudaContext& c = ctx();
  charge_host(topo_.timing.api_overhead);
  CUstream_st* s = resolve_stream(c, handle);
  if (e->recorded) s->busy_until = std::max(s->busy_until, e->timestamp);
  return cudaSuccess;
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

cudaError_t Engine::event_create(CUevent_st** out, unsigned int flags) {
  if (out == nullptr) return set_error(cudaErrorInvalidValue);
  CudaContext& c = ctx();
  charge_host(topo_.timing.api_overhead);
  auto e = std::make_unique<CUevent_st>();
  e->owner_ctx = c.ctx_id;
  e->timing = (flags & cudaEventDisableTiming) == 0;
  CUevent_st* raw = e.get();
  c.events.push_back(std::move(e));
  *out = raw;
  return cudaSuccess;
}

cudaError_t Engine::event_record(CUevent_st* e, CUstream_st* handle) {
  if (e == nullptr || e->destroyed) return set_error(cudaErrorInvalidResourceHandle);
  CudaContext& c = ctx();
  charge_host(topo_.timing.api_overhead);
  CUstream_st* s = resolve_stream(c, handle);
  double start = std::max(now(), s->busy_until);
  if (s->index == 0) {
    for (const auto& other : c.streams) start = std::max(start, other->busy_until);
  } else {
    start = std::max(start, c.legacy_fence);
  }
  // Event processing has a small device-side cost: this is what makes the
  // event-bracketing kernel-timing method report slightly more than the
  // true kernel duration (Table I's systematic positive difference).
  const double ts = start + topo_.timing.event_cost;
  e->recorded = true;
  e->timestamp = ts;
  s->busy_until = ts;
  if (s->index == 0) c.legacy_fence = std::max(c.legacy_fence, ts);
  return cudaSuccess;
}

cudaError_t Engine::event_query(CUevent_st* e) {
  if (e == nullptr || e->destroyed) return set_error(cudaErrorInvalidResourceHandle);
  ctx();
  charge_host(topo_.timing.api_overhead);
  if (!e->recorded) return cudaSuccess;  // CUDA semantics: "complete"
  return e->timestamp <= now() ? cudaSuccess : cudaErrorNotReady;
}

cudaError_t Engine::event_sync(CUevent_st* e) {
  if (e == nullptr || e->destroyed) return set_error(cudaErrorInvalidResourceHandle);
  ctx();
  charge_host(topo_.timing.sync_overhead);
  if (e->recorded) simx::current_context().clock.advance_to(e->timestamp);
  return cudaSuccess;
}

cudaError_t Engine::event_elapsed(float* ms, CUevent_st* a, CUevent_st* b) {
  if (ms == nullptr) return set_error(cudaErrorInvalidValue);
  if (a == nullptr || b == nullptr || a->destroyed || b->destroyed) {
    return set_error(cudaErrorInvalidResourceHandle);
  }
  ctx();
  charge_host(topo_.timing.api_overhead);
  if (!a->recorded || !b->recorded || !a->timing || !b->timing) {
    return set_error(cudaErrorInvalidResourceHandle);
  }
  if (a->timestamp > now() || b->timestamp > now()) {
    return set_error(cudaErrorNotReady);
  }
  *ms = static_cast<float>((b->timestamp - a->timestamp) * 1e3);
  return cudaSuccess;
}

cudaError_t Engine::event_destroy(CUevent_st* e) {
  if (e == nullptr || e->destroyed) return set_error(cudaErrorInvalidResourceHandle);
  ctx_no_init();
  charge_host(topo_.timing.api_overhead);
  e->destroyed = true;
  return cudaSuccess;
}

cudaError_t Engine::device_sync() {
  CudaContext& c = ctx();
  charge_host(topo_.timing.sync_overhead);
  double target = c.legacy_fence;
  for (const auto& s : c.streams) target = std::max(target, s->busy_until);
  {
    DeviceState& dev = device_of(c);
    std::scoped_lock lk(dev.mu);
    const CtxExec* mine = c.exec_cache_dev == &dev ? c.exec_cache : nullptr;
    if (mine == nullptr) {
      for (const CtxExec& e : dev.ctx_exec) {
        if (e.ctx_id == c.ctx_id) { mine = &e; break; }
      }
    }
    if (mine != nullptr) target = std::max(target, mine->exec_end);
  }
  simx::current_context().clock.advance_to(target);
  return cudaSuccess;
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

std::vector<ProfileRecord> Engine::profile_snapshot() {
  std::scoped_lock lk(mu_);
  return profile_;
}

SimStats Engine::stats_snapshot() {
  SimStats s;
  s.api_calls = g_api_calls.load(std::memory_order_relaxed);
  s.kernels_launched = g_kernels.load(std::memory_order_relaxed);
  s.memcpys = g_memcpys.load(std::memory_order_relaxed);
  s.bytes_h2d = g_bytes_h2d.load(std::memory_order_relaxed);
  s.bytes_d2h = g_bytes_d2h.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t Engine::device_bytes(int node, int gpu) {
  DeviceState& dev = device_at(node, gpu);
  std::scoped_lock lk(dev.mu);
  return dev.bytes_in_use;
}

DeviceCounters Engine::counters_snapshot(int node, int gpu) {
  DeviceState& dev = device_at(node, gpu);
  std::scoped_lock lk(dev.mu);
  return dev.counters;
}

}  // namespace cusim::detail

// ---------------------------------------------------------------------------
// Public control-plane functions (cudasim/control.hpp)
// ---------------------------------------------------------------------------

namespace cusim {

using detail::Engine;

void configure(const Topology& topology) { Engine::instance().configure(topology); }

void reset() { Engine::instance().configure(Topology{}); }

const Topology& topology() noexcept { return Engine::instance().topology(); }

void set_profiling(bool enabled) { Engine::instance().set_profiling(enabled); }

bool profiling_enabled() noexcept { return Engine::instance().profiling(); }

void set_execute_bodies(bool enabled) { Engine::instance().set_execute_bodies(enabled); }

bool execute_bodies_enabled() noexcept { return Engine::instance().execute_bodies(); }

std::vector<ProfileRecord> profile_log() { return Engine::instance().profile_snapshot(); }

void write_profile_log(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cusim: cannot open profile log '" + path + "'");
  out << "# CUDA_PROFILE_LOG_VERSION 2.0\n# CUDASIM (virtual device)\n";
  out << "# TIMESTAMPFACTOR 0\n";
  for (const auto& r : Engine::instance().profile_snapshot()) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "method=[ %s ] gputime=[ %.3f ] cputime=[ %.3f ] occupancy=[ %.3f ]\n",
                  r.method.c_str(), r.gpu_time * 1e6, r.gpu_time * 1e6 + 3.0, r.occupancy);
    out << line;
  }
}

SimStats stats() { return Engine::instance().stats_snapshot(); }

std::uint64_t device_bytes_in_use(int node, int gpu) {
  return Engine::instance().device_bytes(node, gpu);
}

DeviceCounters device_counters(int node, int gpu) {
  return Engine::instance().counters_snapshot(node, gpu);
}

void write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cusim: cannot open trace '" + path + "'");
  out << "[\n";
  bool first = true;
  for (const auto& r : Engine::instance().profile_snapshot()) {
    if (!first) out << ",\n";
    first = false;
    // Track: kernels on "dev<N>/strm<S>", copies on "dev<N>/copy".
    const bool is_copy = r.method.rfind("memcpy", 0) == 0;
    char line[384];
    std::snprintf(line, sizeof line,
                  "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": \"%s%d\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"ctx\": %llu, \"occupancy\": %.3f}}",
                  r.method.c_str(), r.device_global_id,
                  is_copy ? "copy" : "strm", is_copy ? 0 : r.stream_index,
                  r.gpu_start * 1e6, r.gpu_time * 1e6,
                  static_cast<unsigned long long>(r.ctx_id), r.occupancy);
    out << line;
  }
  out << "\n]\n";
}

int stream_index(CUstream_st* stream) noexcept {
  return stream == nullptr ? 0 : stream->index;
}

}  // namespace cusim
