// Conservation oracle (the trace subsystem's core correctness property):
// every monitored event goes through Monitor::record, which folds one
// duration into the hash table and appends the *same* double to the trace
// ring, so per-key span sums reproduce the EventStats totals — in memory
// bit-exactly, and through the binary trace file (doubles stored as their
// bits) up to the summation order of the merged profile.
//
// Two legs: a fault-free run in the global region, and a run with injected
// memcpy and launch failures in which every other launch happens inside a
// user region, so the oracle also covers `[ERR=…]` records, rolled-back
// launches and kernel completions recorded in a region other than the
// current one.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <tuple>

#include "cudasim/control.hpp"
#include "cudasim/cuda_runtime.h"
#include "cudasim/kernel.hpp"
#include "faultsim/fault.hpp"
#include "ipm/hashtable.hpp"
#include "ipm/report.hpp"
#include "ipm/trace.hpp"
#include "ipm_cuda/layer.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "simcommon/rng.hpp"

namespace {

/// Slot-level key: the exact hash-table granularity, so oracle sums add the
/// same doubles in the same order the table did.
using SlotKey = std::tuple<ipm::NameId, std::uint32_t, std::uint64_t, std::int32_t>;

struct SlotSum {
  std::uint64_t count = 0;
  double tsum = 0.0;
};

/// What the ranks of one leg recorded beyond plain host calls, summed over
/// ranks (injected faults count calls process-wide, not per rank).
struct LegTally {
  std::atomic<std::uint64_t> error_spans{0};      ///< err != 0
  std::atomic<std::uint64_t> region_kernels{0};   ///< @CUDA_EXEC in launch_region
  std::atomic<std::uint64_t> ktt_aborted{0};      ///< rolled-back launches
};

/// Randomized CUDA+MPI workload across several streams.  `fault` is the
/// leg's fault spec ("" = the fault-free leg); under one, every other
/// launch runs inside the user region "launch_region" and failed calls are
/// expected.  The in-rank oracle assertions run before MPI_Finalize tears
/// the monitor down.  Nothing may ASSERT-return before the last barrier,
/// or the other ranks wait in MPI_Barrier forever.
void conservation_rank_body(int rank, const std::string& fault, LegTally& tally) {
  MPI_Init(nullptr, nullptr);
  const bool faulty = !fault.empty();
  ipm::Monitor* mon = ipm::monitor();
  simx::Xoshiro256 rng(static_cast<std::uint64_t>(0x5EED + rank));
  constexpr int kStreams = 3;
  cudaStream_t streams[kStreams] = {};
  for (auto& s : streams) EXPECT_EQ(cudaStreamCreate(&s), cudaSuccess);
  cusim::KernelDef def;
  def.name = "conservation_kernel";
  void* dev = nullptr;
  EXPECT_EQ(cudaMalloc(&dev, 1 << 16), cudaSuccess);
  char host[1 << 10];
  std::uint32_t launch_region = 0;
  for (int i = 0; i < 64; ++i) {
    def.cost.fixed_us = 10.0 + static_cast<double>(rng.uniform_u64(200));
    const auto stream = streams[rng.uniform_u64(kStreams)];
    const bool in_region = faulty && i % 2 == 1;
    if (in_region) {
      mon->region_begin("launch_region");
      launch_region = mon->current_region();
    }
    const cudaError_t rc = cusim::launch_timed(def, dim3(2), dim3(64), stream);
    if (in_region) mon->region_end();
    if (!faulty) {
      EXPECT_EQ(rc, cudaSuccess);
    }
    if (rng.uniform_u64(4) == 0) {
      // Sync D2H: host-idle probe + KTT poll on a random schedule.
      cudaMemcpy(host, dev, sizeof host, cudaMemcpyDeviceToHost);
    }
    // Deterministic schedule: collectives must match across ranks (the
    // per-rank RNG seeds differ, so a random barrier would deadlock).
    if (i % 8 == 0) MPI_Barrier(MPI_COMM_WORLD);
  }
  cudaThreadSynchronize();
  // One more D2H so the KTT poll records every completed kernel into both
  // the table and the ring before we snapshot them (the poll runs before
  // the copy, so an injected copy failure does not skip it).
  cudaMemcpy(host, dev, sizeof host, cudaMemcpyDeviceToHost);
  cudaFree(dev);
  for (auto& s : streams) cudaStreamDestroy(s);

  ASSERT_NE(mon, nullptr);
  ASSERT_TRUE(mon->tracing());
  const ipm::TraceRing& ring = *mon->trace_ring();
  ASSERT_EQ(ring.drops(), 0u);

  // Oracle: re-aggregate the ring at slot granularity.
  std::map<SlotKey, SlotSum> oracle;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const ipm::TraceRecord& r = ring[i];
    if (r.kind == ipm::TraceKind::kMarker) continue;  // instants, not in the table
    SlotSum& s = oracle[{r.name, r.region, r.bytes, r.select}];
    s.count += 1;
    s.tsum += r.dur;
    if (r.err != 0) {
      EXPECT_EQ(r.bytes, 0u) << ipm::name_of(r.name);  // failed work moves nothing
      tally.error_spans += 1;
    }
    if (faulty && r.kind == ipm::TraceKind::kKernel && r.region == launch_region) {
      tally.region_kernels += 1;
    }
  }
  tally.ktt_aborted += ipm::cuda::layer_stats(*mon).ktt_aborted;
  // Every table slot must be conserved bit-exactly (same doubles, same
  // order), and no slot may exist that the trace missed.
  std::size_t slots = 0;
  mon->table().for_each([&](const ipm::EventKey& key, const ipm::EventStats& st) {
    ++slots;
    const auto it = oracle.find({key.name, key.region, key.bytes, key.select});
    ASSERT_NE(it, oracle.end()) << ipm::name_of(key.name);
    EXPECT_EQ(it->second.count, st.count) << ipm::name_of(key.name);
    EXPECT_EQ(it->second.tsum, st.tsum) << ipm::name_of(key.name);
    oracle.erase(it);
  });
  EXPECT_GT(slots, 4u);  // MPI + CUDA API + @CUDA_EXEC + idle variety
  EXPECT_TRUE(oracle.empty()) << "trace has spans the table never saw";
  MPI_Finalize();
}

/// Run one leg on a 4-rank, 2-node cluster and check its flushed trace
/// files: they conserve the *merged* profile (byte-size variants folded
/// together) through the binary round-trip.
void run_leg(const std::string& fault, const std::string& trace_path, LegTally& tally) {
  cusim::Topology topo;
  topo.nodes = 2;
  topo.timing.init_cost = 0.0;
  cusim::configure(topo);
  ipm::Config cfg;
  cfg.trace = true;
  cfg.trace_log2_records = 14;
  cfg.trace_path = trace_path;
  cfg.fault = fault;  // installed at job_begin; "" leaves the injector alone
  ipm::job_begin(cfg, "./conservation");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 4;
  cluster.ranks_per_node = 2;
  mpisim::run_cluster(cluster,
                      [&](int rank) { conservation_rank_body(rank, fault, tally); });
  const ipm::JobProfile job = ipm::job_end();

  ASSERT_EQ(job.nranks, 4);
  for (const ipm::RankProfile& r : job.ranks) {
    ASSERT_FALSE(r.trace_file.empty());
    const ipm::RankTrace t = ipm::read_trace_file(r.trace_file);
    EXPECT_EQ(t.spans.size(), r.trace_spans);
    std::map<std::tuple<std::string, std::string, std::int32_t>, SlotSum> merged;
    for (const ipm::TraceSpan& s : t.spans) {
      if (s.kind == ipm::TraceKind::kMarker) continue;
      SlotSum& sum = merged[{s.name, s.region, s.select}];
      sum.count += 1;
      sum.tsum += s.dur;
    }
    ASSERT_FALSE(r.events.empty());
    for (const ipm::EventRecord& e : r.events) {
      const auto it = merged.find({e.name, r.regions.at(e.region), e.select});
      ASSERT_NE(it, merged.end()) << e.name;
      EXPECT_EQ(it->second.count, e.count) << e.name;
      // Summation order differs from the table's slot-merge order, so only
      // rounding-level divergence is allowed.
      EXPECT_NEAR(it->second.tsum, e.tsum, 1e-9 * (1.0 + e.tsum)) << e.name;
    }
  }
}

TEST(TraceConservation, RingConservesHashTableBitExactly) {
  LegTally tally;
  run_leg("", ::testing::TempDir() + "/conserve_trace", tally);
}

TEST(TraceConservation, ErrorAndDeferredRecordsConserve) {
  LegTally tally;
  run_leg("cudaMemcpy:inval@every5,cudaLaunch:launch@every7",
          ::testing::TempDir() + "/conserve_fault_trace", tally);
  // Restore whatever injector the environment configured.
  faultsim::clear();
  faultsim::configure_from_env();
  EXPECT_GT(tally.error_spans.load(), 0u);
  EXPECT_GT(tally.region_kernels.load(), 0u);
  EXPECT_GT(tally.ktt_aborted.load(), 0u);
}

}  // namespace
