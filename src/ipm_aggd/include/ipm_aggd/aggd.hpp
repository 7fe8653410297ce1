// ipm_aggd: out-of-process cluster aggregation daemon, sharded.
//
// Receives per-rank delta-sample streams from many monitored processes —
// over the wire.hpp framed socket protocol (Unix-domain or TCP) or by
// tailing existing time-series JSONL files — and merges multiple
// concurrent jobs in virtual time:
//
//   out_dir/<job>_timeseries.jsonl   per-job samples + ClusterPoints
//   out_dir/fleet_timeseries.jsonl   fleet-wide ClusterPoints (all jobs)
//   prom_path (ipm_agg.prom)         one exposition, `job`/`rank` labels
//
// <job> is the job id where a file name can carry it unchanged; an id with
// other characters, and the reserved id "fleet", is written
// <sanitized id>~<16 hex digits of its hash>, so no two jobs, and no job
// and the fleet stream, share a file.
//
// Architecture (fleet scale): one epoll (level-triggered) IO thread accepts
// connections, reads/decodes frames, and routes each frame to its job's FIFO
// frame queue.  Every piece of state has one owning thread, and the IO thread
// and the worker threads meet at two places: the work queue and the outbox.
// The work queue is one FIFO of runnable jobs: a worker pops a job and runs
// batches of its frames until the job's queue is empty, and a scheduled flag
// keeps every other thread off that job meanwhile, so per-job state — the
// JobMerger, rank epochs, its file's write state — belongs to one thread at
// a time and needs no lock of its own.  Once created, a job is reached only
// through its queue, at shutdown too.  A queued frame is bytes: its header
// fields sit in the job's frame queue and its payload in the job's byte queue
// beside it, and a batch swaps both out, so their capacity passes back and
// forth.  The outbox carries back everything a batch produced: its replies,
// encoded in place into the outbox's reply bytes and queued at once; and at
// the batch's end its sample folds (live::fold_sample_line, made once per
// sample straight from the payload bytes; flat, their region flops in one
// vector per batch) with new and finalized composite ranks, the job's
// exposition values (live::prom_items and a copy of its rank states), and
// whether it ended the job.  The IO thread owns the sessions, the fleet
// merger, the fleet stream and the exposition: it takes the outbox at the
// end of each pass (swapping its buffers too), copies each reply into its
// session's write buffer (ids are never reused, so a reply whose session is
// gone is dropped), then folds the fleet and keeps each job's latest values.
// Serial mode (no workers) runs the same batch loop on the IO thread at the
// end of each pass, so a serial batch holds every frame its job received in
// that pass.  Warm, the daemon makes well under one heap allocation per
// frame on either side.  A client that stops reading is disconnected on a
// bounded stall budget and counted, never blocks the daemon.
//
// No time-series file stays open: a job's JSONL is its one on-disk format,
// and a batch gathers its job's sample, point and end lines in a buffer its
// Batch keeps and puts them on disk with one checked append (open, write,
// close; simx::append_stream) at its end.  The fleet stream appends its
// points at each fleet emission and its end line at shutdown, the same way.
// A stream's first append truncates the file and writes the header; a later
// append never creates the file, and nothing is appended after the end
// line.  A failed append is counted (ipm_agg_write_errors_total) and
// reported on stderr once per stream.
//
// Every batch leaves its job current: it emits the job's due points into
// its lines and hands the job's exposition values over in its record, so
// nothing is owed once it ends.  The IO thread emits fleet points and
// rewrites the exposition at most once per 1 s floor, and renders only the
// jobs whose values changed since its last rewrite.
//
// Event-driven: the IO thread sleeps in epoll_wait until a socket, the
// worker eventfd or its nearest pending deadline (stall check, exposition
// and fleet emission, tail poll) needs it; with none pending it
// blocks without a timeout, so an idle daemon burns no CPU.
//
// Conservation: a sample frame is applied (written + merged) only when its
// epoch exceeds the rank's last applied epoch, so client resends after a
// reconnect are idempotent and folding a job's JSONL reproduces each
// rank's finalize profile bit-exactly — the same invariant the in-process
// collector guarantees (live.hpp).  Per-job FIFO order makes this hold
// under sharding exactly as it did single-threaded.  A connection that
// closes mid-frame leaves a truncated frame: rejected, never partially
// applied, and counted.
//
// The daemon is a library class so tests run it in-process on a thread;
// main.cpp wraps it into the `ipm_aggd` binary.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ipm_live/merge.hpp"
#include "ipm_live/net.hpp"
#include "ipm_live/wire.hpp"

namespace ipm::aggd {

struct Options {
  /// Listen address ("unix:/path.sock" or "tcp:host:port"; "" = no socket,
  /// tail-only mode).
  std::string listen;
  /// Output directory for the per-job and fleet JSONL files.
  std::string out_dir = ".";
  /// Exposition file ("" derives out_dir + "/ipm_agg.prom").
  std::string prom_path;
  /// Fleet-wide merge interval in virtual seconds.
  double fleet_interval = 1.0;
  /// Existing time-series JSONL files to tail (file fallback transport).
  std::vector<std::string> tails;
  /// Exit run() once this many jobs ended (0 = run until stop()).
  int exit_after_jobs = 0;
  /// Worker threads: <0 auto-sizes from the host, 0 runs serial (the IO
  /// thread runs every batch), >0 is an explicit pool size.
  int workers = -1;
  /// Disconnect a session once its queued outbound bytes exceed this.
  std::size_t session_outbuf_max = 8u << 20;
  /// Disconnect a session blocked on writes for this long (milliseconds).
  int stall_ms = 5000;
};

/// Per-(job, rank) transport/resume state.
struct RankState {
  std::uint64_t last_epoch = 0;   ///< highest applied frame epoch
  std::uint64_t samples = 0;      ///< sample frames applied
  std::uint64_t resent = 0;       ///< duplicate frames deduplicated
  std::uint64_t drops = 0;        ///< client-side snapshot drops (at fin)
  bool finalized = false;
};

class Daemon {
 public:
  explicit Daemon(Options opt);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind the listener, open the tails, start the worker threads.  False +
  /// `err` on failure.
  [[nodiscard]] bool start(std::string& err);

  /// Serve until stop() or `exit_after_jobs` jobs ended.  Then ends every
  /// open job through its queue, lets the workers finish every queued item,
  /// stops them and ends the fleet stream before returning.
  void run();

  /// Signal run() to return and wake it (callable from any thread and from
  /// a signal handler).
  void stop();

  // --- introspection (not thread-safe: call after run() returned) ----------

  [[nodiscard]] std::string prom_path() const { return prom_path_; }
  [[nodiscard]] std::string fleet_timeseries_path() const;
  /// Output JSONL path for a job id ("" when the job is unknown).
  [[nodiscard]] std::string job_timeseries_path(const std::string& job) const;
  [[nodiscard]] std::vector<std::string> job_ids() const;
  [[nodiscard]] const std::map<std::uint32_t, RankState>* job_ranks(
      const std::string& job) const;
  /// Protocol violations observed (poisoned decoders, truncated frames).
  [[nodiscard]] std::uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  /// Frames cut off by a closing connection (also in protocol_errors()).
  [[nodiscard]] std::uint64_t truncated_frames() const {
    return truncated_frames_.load(std::memory_order_relaxed);
  }
  /// Sessions disconnected for blowing the outbound stall budget.
  [[nodiscard]] std::uint64_t stalled_disconnects() const {
    return stalled_disconnects_.load(std::memory_order_relaxed);
  }
  /// Full exposition rewrites performed (at most one per 1 s floor).
  [[nodiscard]] std::uint64_t prom_writes() const {
    return prom_writes_.load(std::memory_order_relaxed);
  }
  /// Batches run on a different worker than their job's previous batch
  /// (0 in serial mode).
  [[nodiscard]] std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job;

  struct Session {
    std::uint64_t id = 0;  ///< sessions_ key, assigned at accept, never reused
    int fd = -1;
    live::wire::Decoder dec;
    std::string wbuf;         ///< replies not yet written
    bool closed = false;
    bool want_write = false;  ///< EPOLLOUT currently armed
    bool blocked = false;     ///< wbuf non-empty since stall_since (in blocked_)
    Clock::time_point stall_since{};
    // Routing cache (IO-thread-owned): a session streams one job in
    // practice, and jobs_ entries are never erased, so the pointer is
    // stable — skips a map lookup per frame.
    Job* job_cache = nullptr;
    std::string job_cache_id;
  };

  /// A frame to apply.  Its payload (SAMPLE and RANK_FIN: the ones a batch
  /// reads) is bytes [off, off + len) of its job's byte queue; its job id
  /// is the job's.
  struct Work {
    live::wire::FrameType type = live::wire::FrameType::kHello;
    std::uint32_t rank = 0;
    std::uint64_t epoch = 0;
    std::uint64_t session = 0;  ///< reply to this session; 0: none
    std::size_t off = 0;
    std::size_t len = 0;
  };

  /// Reply frames for one session in the outbox: its bytes end at `end` of
  /// the outbox's reply bytes and begin where the previous entry's end.
  struct Reply {
    std::uint64_t session = 0;
    std::size_t end = 0;
  };

  /// A job's rank states, in rank order.
  using RankStates = std::vector<std::pair<std::uint32_t, RankState>>;

  /// What one batch produced for the IO thread besides its replies, left in
  /// the outbox at the batch's end.  Each sample arrives as the fold its
  /// job's merger added, so the fleet merger never classifies a delta.
  struct BatchOut {
    Job* job = nullptr;
    std::vector<live::SampleFold> folds;  ///< rank already composite
    live::RegionFlops region_flops;       ///< the folds' entries, in fold order
    std::vector<int> new_ranks;           ///< composite ranks first seen
    std::vector<int> fin_ranks;           ///< composite ranks finalized
    /// The job's exposition values as the batch left them.
    std::vector<live::PromItem> items;
    RankStates ranks;
    bool ended = false;  ///< the batch ended the job
  };

  /// A batch's buffers (each worker's, and the IO thread's in serial mode).
  struct Batch {
    std::vector<Work> work;
    std::string bytes;
    live::FoldScratch scratch;
    std::string lines;  ///< the batch's JSONL lines, appended at its end
    std::vector<int> live_ranks;  ///< emit_due_job's, reused
  };

  /// Batch-exclusive job state (scheduled flag: one batch of the job at a
  /// time, so no lock needed) once get_or_create_job has created the job.
  struct JobState {
    live::JobMerger merger{1.0};  ///< get_or_create_job sets the interval
    std::map<std::uint32_t, RankState> ranks;
    bool begun = false;         ///< the first batch truncated the file
    bool ended = false;         ///< end line gathered: nothing follows it
    bool write_failed = false;  ///< an append failed (reported once)
    int worker = -1;  ///< worker that ran the previous batch (-1: none yet)
  };

  struct Job {
    std::string id;
    std::string ts_path;
    std::string command;  ///< the header's, written by the first batch
    std::uint64_t fleet_base = 0;  ///< composite-rank offset, fleet merge
    std::vector<Work> q;     ///< guarded by work_mu_
    std::string qbytes;      ///< guarded by work_mu_: payloads of q's frames
    bool scheduled = false;  ///< guarded by work_mu_: runnable or running
    // IO thread: the exposition values of the last batch record taken
    // (none before the first), and the lines write_prom rendered from them
    // (`prom_ends[i]` ends the lines of metric i), stale while `changed`.
    std::vector<live::PromItem> items;
    RankStates ranks;
    bool changed = false;
    std::string prom_text;
    std::vector<std::size_t> prom_ends;
    bool ended = false;  ///< a taken batch record ended the job
    JobState st;
  };

  struct Tail {
    std::string path;
    std::string job;
    std::ifstream in;
    bool done = false;
  };

  // --- IO thread ------------------------------------------------------------
  void accept_pending();
  void read_session(Session& ses, bool closing);
  void close_session(Session& ses);
  void flush_session(Session& ses);
  void take_outbox(bool write);
  void apply_batch(BatchOut& b);
  void reap_closed();
  void set_write_interest(Session& ses, bool on);
  void mark_closed(Session& ses);
  void route_frame(Session& ses, const live::wire::Frame& f);
  void pump_tails();
  int wait_ms(Clock::time_point now);
  void run_due(Clock::time_point now);
  void check_stalls(Clock::time_point now);
  void refresh_outputs(Clock::time_point now);
  static void render_lines(Job& job);
  void write_prom();
  void append_fleet(const std::vector<live::ClusterPoint>& pts, bool end);
  void shutdown_flush();
  void drain_outbounds();

  Job& get_or_create_job(const std::string& id, const std::string& command,
                         double interval);
  void enqueue(Job& job, Work w, std::string_view payload = {});
  void run_serial();
  void stop_workers();

  // --- batch side (exclusive per job via the scheduled flag) ----------------
  void work(int me);
  bool run_next_job(int me, Batch& b, std::unique_lock<std::mutex>& lock);
  void handle_batch(Job& job, Batch& b);
  void handle_frame(Job& job, const Work& w, Batch& b, BatchOut& out, bool& replied);
  void apply_sample(Job& job, RankState& rs, const Work& w, std::string_view line,
                    Batch& b, BatchOut& out);
  void finalize_rank(Job& job, RankState& rs, const Work& w,
                     std::string_view payload, BatchOut& out);
  void end_job(Job& job, std::string& lines, BatchOut& out);
  static void emit_due_job(Job& job, Batch& b);
  void append_lines(const std::string& path, std::string& lines, bool& begun,
                    bool& failed);
  void push_reply(std::uint64_t session, live::wire::FrameType type,
                  const std::string& job, std::uint32_t rank, std::uint64_t epoch,
                  std::string_view payload = {});
  bool hand_over(BatchOut&& out);
  [[nodiscard]] bool claim_wake();
  void wake_io();

  Options opt_;
  std::string prom_path_;
  std::string fleet_path_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  // IO thread (and introspection after run()): sessions, jobs, tails, the
  // fleet merger and stream, and the exposition's state.
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;  ///< by id
  std::uint64_t last_session_id_ = 0;
  std::set<std::uint64_t> blocked_;    ///< sessions with Session::blocked
  std::vector<std::uint64_t> closed_;  ///< marked closed, not yet reaped
  std::vector<Tail> tails_;
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  live::wire::Frame frame_;  ///< each decoded frame, its strings reused
  // What take_outbox took, kept from take to take for the capacity.
  std::string taken_bytes_;
  std::vector<Reply> taken_replies_;
  std::vector<BatchOut> taken_batches_;
  std::vector<Session*> replied_;  ///< sessions the taken replies went to
  Batch io_batch_;  ///< the IO thread's batch buffers (serial mode)
  std::uint64_t fleet_next_base_ = 0;
  live::JobMerger fleet_;
  bool fleet_begun_ = false;         ///< the fleet stream's header is written
  bool fleet_write_failed_ = false;  ///< a fleet append failed (reported once)
  std::set<int> fleet_live_;  ///< composite ranks seen, not finalized
  int jobs_ended_ = 0;
  bool prom_dirty_ = false;    ///< the exposition is out of date
  bool fleet_folded_ = false;  ///< folds added since the last fleet emission

  std::mutex work_mu_;  ///< guards runnable_, workers_quit_, every Job::q/scheduled
  std::condition_variable work_cv_;  ///< idle workers wait here
  std::deque<Job*> runnable_;        ///< scheduled jobs no worker has taken
  bool workers_quit_ = false;        ///< exit once runnable_ is empty
  std::atomic<std::uint64_t> steals_{0};

  std::mutex out_mu_;  ///< guards out_bytes_, out_replies_, out_batches_, out_woken_
  std::string out_bytes_;              ///< reply frames, encoded in place
  std::vector<Reply> out_replies_;     ///< oldest first
  std::vector<BatchOut> out_batches_;  ///< in the order the batches ended
  bool out_woken_ = false;  ///< the eventfd was written for the outbox

  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> truncated_frames_{0};
  std::atomic<std::uint64_t> stalled_disconnects_{0};
  std::atomic<std::uint64_t> write_errors_{0};
  std::atomic<std::uint64_t> prom_writes_{0};
  std::atomic<bool> stop_{false};
  // IO-thread deadlines; each counts only while its condition holds (see
  // wait_ms): time_point::max() when disarmed.
  Clock::time_point prom_next_{};
  Clock::time_point stall_next_ = Clock::time_point::max();
  Clock::time_point tail_next_{};

  /// Empty in serial mode (workers == 0).  Declared last: the threads use
  /// every member above, and run() or the destructor joins them.
  std::vector<std::thread> workers_;
};

}  // namespace ipm::aggd
