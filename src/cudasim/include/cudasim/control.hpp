// Simulator control plane: cluster topology, device specification, timing
// parameters, ground-truth profiler, and reset.  This is the part of
// cudasim that has no counterpart in the real CUDA runtime — it is the
// "machine room" of the simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

struct CUstream_st;  // opaque stream handle (cuda_runtime.h)

namespace cusim {

/// Hardware description of one simulated GPU.  Defaults model the NVIDIA
/// Tesla C2050 ("Fermi") cards of NERSC's Dirac cluster (paper §IV).
struct DeviceSpec {
  std::string name = "Tesla C2050";
  std::uint64_t total_mem = 3ULL * 1024 * 1024 * 1024;  ///< 3 GB device memory.
  double peak_dp_flops = 515e9;   ///< double-precision peak (flop/s).
  double peak_sp_flops = 1030e9;  ///< single-precision peak (flop/s).
  double mem_bandwidth = 144e9;   ///< device DRAM bandwidth (B/s).
  double pcie_h2d_bw = 4.0e9;     ///< host→device transfer bandwidth (B/s).
  double pcie_d2h_bw = 3.2e9;     ///< device→host transfer bandwidth (B/s).
  double pcie_latency = 15e-6;    ///< per-transfer latency (s).
  int sm_count = 14;
  int max_threads_per_block = 1024;
  int max_concurrent_kernels = 16;  ///< Fermi limit (paper §III footnote 1).
  bool ecc_enabled = true;
};

/// Host-visible timing constants of the simulated runtime/driver.
struct RuntimeTiming {
  double init_cost = 1.29;          ///< one-time context/runtime setup on first call (s).
  double api_overhead = 0.8e-6;     ///< host cost of a trivial API call (s).
  double launch_overhead = 5e-6;    ///< host cost of an asynchronous launch (s).
  double kernel_start_latency = 3e-6;  ///< device-side delay before a kernel starts (s).
  double event_cost = 2.5e-6;       ///< device-side processing time of an event (s).
  double sync_overhead = 1.2e-6;    ///< host cost of a synchronize call (s).
  double malloc_overhead = 80e-6;   ///< host cost of cudaMalloc/cudaFree (s).
  double host_memcpy_bw = 6.0e9;    ///< host-to-host staging bandwidth (B/s).
};

/// Cluster shape: how many nodes, how many GPUs per node.  Ranks are mapped
/// to nodes by the mpisim cluster runner via simx::ExecContext::node_id.
struct Topology {
  int nodes = 1;
  int gpus_per_node = 1;
  DeviceSpec device;
  RuntimeTiming timing;
};

/// Ground-truth record of one device-side operation, as the real CUDA
/// profiler (CUDA_PROFILE=1) would log it.  gputime/cputime in seconds.
struct ProfileRecord {
  std::string method;     ///< kernel name, or "memcpyHtoD"/"memcpyDtoH"/...
  double gpu_start = 0.0;  ///< device-side start (virtual seconds).
  double gpu_time = 0.0;   ///< exact modelled duration (no event overhead).
  int device_global_id = 0;
  int stream_index = 0;
  std::uint64_t ctx_id = 0;
  double occupancy = 1.0;
};

/// Aggregate statistics counters of the simulator (monotone since reset).
struct SimStats {
  std::uint64_t kernels_launched = 0;
  std::uint64_t memcpys = 0;
  std::uint64_t api_calls = 0;
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
};

/// Replace the cluster and reset ALL simulator state (devices, contexts,
/// streams, events, profiler).  Not thread-safe versus concurrent API use.
void configure(const Topology& topology);

/// Reset to a pristine single-node/single-GPU default topology.
void reset();

/// The active topology (valid until the next configure/reset).
[[nodiscard]] const Topology& topology() noexcept;

/// Enable/disable the ground-truth profiler (CUDA_PROFILE analogue).
void set_profiling(bool enabled);
[[nodiscard]] bool profiling_enabled() noexcept;

/// Enable/disable execution of kernel data bodies.  Timing is unaffected
/// (durations always come from the cost model); disabling bodies lets
/// cluster-scale experiments run without paying the real O(N³) host
/// arithmetic.  Default: enabled (tests and examples validate numerics).
void set_execute_bodies(bool enabled);
[[nodiscard]] bool execute_bodies_enabled() noexcept;

/// Snapshot of all profiler records so far (across all devices/ranks).
[[nodiscard]] std::vector<ProfileRecord> profile_log();

/// Write the profiler log in the CUDA 3.x text format
/// ("method=[ k ] gputime=[ us ] cputime=[ us ] occupancy=[ x ]").
void write_profile_log(const std::string& path);

/// Simulator-wide statistics snapshot.
[[nodiscard]] SimStats stats();

/// Total device-memory bytes currently allocated on (node, gpu).  Throws
/// std::out_of_range for a (node, gpu) outside the topology.
[[nodiscard]] std::uint64_t device_bytes_in_use(int node, int gpu);

/// Simulated GPU hardware counters (the paper's §VI future-work item:
/// "integration of GPU hardware performance counters ... through PAPI").
/// Accumulated per device since the last configure()/reset(); derived from
/// the kernel cost model, so flop and DRAM counts are exact for the model.
struct DeviceCounters {
  std::uint64_t kernels = 0;       ///< kernels executed
  double flops = 0.0;              ///< useful floating-point operations
  double dram_bytes = 0.0;         ///< DRAM traffic (model input)
  double busy_time = 0.0;          ///< device seconds spent in kernels
  std::uint64_t warps_launched = 0;

  /// Achieved flop rate while busy (0 if never busy).
  [[nodiscard]] double flops_per_busy_second() const noexcept {
    return busy_time > 0.0 ? flops / busy_time : 0.0;
  }
};

/// Snapshot of (node, gpu)'s counters.  Throws std::out_of_range for a
/// (node, gpu) outside the topology.
[[nodiscard]] DeviceCounters device_counters(int node, int gpu);

/// Write the ground-truth profiler log in Chrome tracing JSON
/// (chrome://tracing / Perfetto): one track per (device, stream/copy
/// engine), durations in microseconds.  Requires profiling enabled.
void write_chrome_trace(const std::string& path);

/// Index of a stream within its context: 0 for the default stream, then
/// 1, 2, ... in creation order.  Used for @CUDA_EXEC_STRMnn naming.
[[nodiscard]] int stream_index(::CUstream_st* stream) noexcept;

}  // namespace cusim
