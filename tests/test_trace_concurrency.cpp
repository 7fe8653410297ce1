// Concurrency stress for the tracing path, written to run clean under
// ThreadSanitizer: the lock-free name-interning fast path hammered from
// many threads, and per-rank ring isolation on a monitored cluster
// (threads-as-ranks: one rank's spans must never leak into another's
// ring).  A ring has one owner and plain counters, so TSan also reports
// any read of a ring from a thread other than its rank's.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "cudasim/control.hpp"
#include "ipm/report.hpp"
#include "ipm/trace.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "simcommon/str.hpp"

namespace {

TEST(TraceConcurrency, InternNameHammer) {
  // Mixed readers/writers: shared names exercise the lock-free snapshot
  // lookup, per-thread names force concurrent inserts, name_of races reads
  // against growth.  TSan flags any unsynchronized access.
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<ipm::NameId> shared_ids(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared_ids, &mismatch] {
      const ipm::NameId mine =
          ipm::intern_name(simx::strprintf("hammer_private_%d", t));
      for (int i = 0; i < kIters; ++i) {
        const ipm::NameId shared = ipm::intern_name("hammer_shared_name");
        const ipm::NameId fresh =
            ipm::intern_name(simx::strprintf("hammer_%d_%d", t, i % 64));
        if (ipm::intern_name(simx::strprintf("hammer_private_%d", t)) != mine) {
          mismatch.store(true);
        }
        if (ipm::name_of(shared) != std::string("hammer_shared_name")) {
          mismatch.store(true);
        }
        (void)ipm::name_of(fresh);
        (void)ipm::prepare_key("hammer_shared_name");
      }
      shared_ids[static_cast<std::size_t>(t)] = ipm::intern_name("hammer_shared_name");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(shared_ids[static_cast<std::size_t>(t)], shared_ids[0]);
  }
}

TEST(TraceConcurrency, PerRankRingsNeverInterleave) {
  // Every rank records a uniquely named event stream; each flushed ring
  // must contain its own rank's names only, and all of them.
  constexpr int kRanks = 8;
  constexpr int kEventsPerRank = 50;
  cusim::Topology topo;
  topo.nodes = 2;
  topo.timing.init_cost = 0.0;
  cusim::configure(topo);
  ipm::Config cfg;
  cfg.trace = true;
  cfg.trace_log2_records = 10;
  cfg.trace_path = ::testing::TempDir() + "/isolation_trace";
  ipm::job_begin(cfg, "./isolation");
  mpisim::ClusterConfig cluster;
  cluster.ranks = kRanks;
  cluster.ranks_per_node = 4;
  mpisim::run_cluster(cluster, [](int rank) {
    MPI_Init(nullptr, nullptr);
    const ipm::PreparedKey mine =
        ipm::prepare_key(simx::strprintf("rank%d_only_event", rank));
    for (int i = 0; i < kEventsPerRank; ++i) {
      ipm::timed_event(mine, static_cast<std::uint64_t>(rank), rank, ipm::ErrDomain::kNone,
                       [] { simx::host_compute(1e-4); });
      if (i % 10 == 0) MPI_Barrier(MPI_COMM_WORLD);
    }
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();
  ASSERT_EQ(job.nranks, kRanks);
  for (int rank = 0; rank < kRanks; ++rank) {
    const ipm::RankProfile& r = job.ranks[static_cast<std::size_t>(rank)];
    ASSERT_FALSE(r.trace_file.empty());
    EXPECT_EQ(r.trace_drops, 0u);
    const ipm::RankTrace t = ipm::read_trace_file(r.trace_file);
    EXPECT_EQ(t.rank, rank);
    int own = 0;
    std::set<std::string> foreign;
    for (const ipm::TraceSpan& s : t.spans) {
      if (s.name == simx::strprintf("rank%d_only_event", rank)) {
        ++own;
      } else if (s.name.find("_only_event") != std::string::npos) {
        foreign.insert(s.name);
      }
    }
    EXPECT_EQ(own, kEventsPerRank);
    EXPECT_TRUE(foreign.empty())
        << "rank " << rank << " ring contains " << *foreign.begin();
    // Spans are in this rank's program order: monotone non-decreasing start
    // times (one thread, one clock).
    for (std::size_t i = 1; i < t.spans.size(); ++i) {
      if (t.spans[i].kind == ipm::TraceKind::kKernel) continue;  // device lane
      EXPECT_GE(t.spans[i].t0 + 1e-12, t.spans[i - 1].t0) << "span " << i;
    }
  }
}

}  // namespace
