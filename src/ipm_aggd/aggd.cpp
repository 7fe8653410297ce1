// Sharded ipm_aggd daemon core (see aggd.hpp): the epoll IO thread routes
// frames to per-job FIFO queues, as header fields and payload bytes, and
// worker threads take runnable jobs from one work queue and hand everything
// a batch produced back through one outbox, ACKs encoded in place.  With no
// workers the IO thread runs the same batch loop at the end of each pass.
// A SAMPLE folds straight from its bytes into a flat fold.  Per-job state
// is batch-exclusive (scheduled flag), and a job's queue is the only way
// into it, at shutdown too; the IO thread owns the sessions, the fleet
// merger and the exposition, and takes the outbox at the end of each pass.
// A batch puts its job's lines on disk with one checked append, as the fleet
// stream does its points, so no time-series file stays open; every batch
// leaves its job's due points written and its exposition values handed
// over, which the IO thread renders at its floor.  Slow clients are
// disconnected on a bounded stall budget.  The IO thread waits on its
// sockets, the worker eventfd and its nearest deadline.
#include "ipm_aggd/aggd.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <thread>
#include <utility>

#include "aggd_util.hpp"
#include "ipm_live/live.hpp"
#include "simcommon/jsonl.hpp"
#include "simcommon/outfile.hpp"

namespace ipm::aggd {

using live::wire::Frame;
using live::wire::FrameType;

using detail::job_stem;
using detail::kFleetStride;
using detail::prom_escape;
using detail::read_hello;
using detail::read_rank_fin_drops;
using detail::tail_job_id;

namespace {

// The IO thread's outputs are brought up to date at most once per floor:
// the fleet emission (an O(fleet ranks) watermark scan) and the exposition
// rewrite (~15 us per changed job).  Prometheus scrape intervals are >= 1 s,
// so a 1 s floor loses nothing.
constexpr std::chrono::milliseconds kFloor{1000};
// Tailed files are re-read at this period while any of them is open.
constexpr std::chrono::milliseconds kTailPollPeriod{10};
// A long batch hands its replies to the IO thread at this period, so its
// first acks do not wait for its last frame.
constexpr std::chrono::microseconds kReplyFlushPeriod{250};
// At shutdown, unwritten replies get this long to reach their clients.
constexpr std::chrono::milliseconds kShutdownWriteBudget{200};
constexpr std::chrono::steady_clock::time_point kNever =
    std::chrono::steady_clock::time_point::max();
// epoll keys of the listener and the eventfd; a session's key is its id,
// counted from 1.
constexpr std::uint64_t kListenKey = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kWakeKey = kListenKey - 1;

/// Per-rank transport state (provenance through aggregation).
struct RankMetric {
  const char* name;
  const char* help;
  bool counter;
  std::uint64_t RankState::*field;
};
constexpr RankMetric kRankMetrics[] = {
    {"ipm_agg_rank_samples_total", "Sample frames applied per rank.", true,
     &RankState::samples},
    {"ipm_agg_rank_epoch", "Last applied frame epoch per rank.", false,
     &RankState::last_epoch},
    {"ipm_agg_rank_resent_total", "Duplicate frames deduplicated on resume.", true,
     &RankState::resent},
    {"ipm_agg_rank_drops_total", "Client-side snapshot drops reported at finalize.",
     true, &RankState::drops},
};

void report_write_failure(const std::string& path) {
  std::fprintf(stderr, "ipm_aggd: time-series write failed for %s\n", path.c_str());
}

}  // namespace

Daemon::Daemon(Options opt)
    : opt_(std::move(opt)),
      fleet_(opt_.fleet_interval > 0.0 ? opt_.fleet_interval : 1.0) {}

Daemon::~Daemon() {
  stop_workers();
  for (const auto& [id, ses] : sessions_) live::net::close_fd(ses->fd);
  live::net::close_fd(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
}

bool Daemon::start(std::string& err) {
  prom_path_ = opt_.prom_path.empty() ? opt_.out_dir + "/ipm_agg.prom"
                                      : opt_.prom_path;
  fleet_path_ = opt_.out_dir + "/fleet_timeseries.jsonl";
  try {  // create check: the fleet's first append writes its header
    simx::OutFile(fleet_path_, simx::OutFile::Mode::kTruncate).close();
  } catch (const std::runtime_error&) {
    err = "cannot open " + fleet_path_;
    return false;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    err = "cannot create epoll/eventfd";
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  if (!opt_.listen.empty()) {
    const live::net::Addr addr = live::net::parse_addr(opt_.listen);
    listen_fd_ = live::net::listen_fd(addr, err);
    if (listen_fd_ < 0) return false;
    ev.events = EPOLLIN;
    ev.data.u64 = kListenKey;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  for (const std::string& path : opt_.tails) {
    Tail t;
    t.path = path;
    t.job = tail_job_id(path);
    t.in.open(path);
    if (!t.in) {
      err = "cannot open tail file " + path;
      return false;
    }
    tails_.push_back(std::move(t));
  }
  int nw = opt_.workers;
  if (nw < 0) {
    // Workers need real parallelism to pay for the IO->worker handoff
    // (enqueue futex + eventfd wake + two context switches per batch); on
    // a single-core host serial mode, applying inline on the IO thread, is
    // strictly faster.  An explicit workers count always wins.
    const unsigned hc = std::thread::hardware_concurrency();
    nw = hc >= 2 ? static_cast<int>(std::clamp(hc, 2u, 8u)) : 0;
  }
  for (int i = 0; i < nw; ++i) workers_.emplace_back([this, i] { work(i); });
  write_prom();
  return true;
}

void Daemon::stop() {
  stop_.store(true, std::memory_order_relaxed);
  wake_io();
}

Daemon::Job& Daemon::get_or_create_job(const std::string& id,
                                       const std::string& command,
                                       double interval) {
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) return *it->second;
  auto& slot = jobs_[id];
  slot = std::make_unique<Job>();
  Job& job = *slot;
  job.id = id;
  job.st.merger = live::JobMerger(interval > 0.0 ? interval : 1.0);
  const std::string stem = opt_.out_dir + "/" + job_stem(id);
  job.ts_path = stem + "_timeseries.jsonl";
  // A tailed file that is the output file (compared as files: one file has
  // many path spellings) would be its own output: write beside it.
  for (const Tail& t : tails_) {
    std::error_code ec;  // no output file yet: not the tailed one
    if (std::filesystem::equivalent(t.path, job.ts_path, ec)) {
      job.ts_path = stem + "_agg_timeseries.jsonl";
      break;
    }
  }
  job.command = command;
  job.fleet_base = fleet_next_base_;
  fleet_next_base_ += kFleetStride;
  // From here on only batches touch job.st; the first one writes the job's
  // file and hands over its exposition values.
  prom_dirty_ = true;
  return job;
}

void Daemon::enqueue(Job& job, Work w, std::string_view payload) {
  w.len = payload.size();
  {
    const std::lock_guard<std::mutex> lock(work_mu_);
    w.off = job.qbytes.size();
    job.qbytes.append(payload);
    job.q.push_back(w);
    if (job.scheduled) return;  // whoever runs the job takes this in a batch
    job.scheduled = true;
    runnable_.push_back(&job);
  }
  // With no workers the IO thread runs the job at the end of its pass.
  if (!workers_.empty()) work_cv_.notify_one();
}

void Daemon::run_serial() {
  // No workers: this thread runs their batch loop until no job is runnable.
  if (!workers_.empty()) return;
  std::unique_lock<std::mutex> lock(work_mu_);
  while (run_next_job(0, io_batch_, lock)) {
  }
}

void Daemon::stop_workers() {
  {
    const std::lock_guard<std::mutex> lock(work_mu_);
    workers_quit_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

// --- batch side -------------------------------------------------------------

void Daemon::work(int me) {
  Batch b;
  std::unique_lock<std::mutex> lock(work_mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return !runnable_.empty() || workers_quit_; });
    if (!run_next_job(me, b, lock)) return;  // quitting, and every item ran
  }
}

bool Daemon::run_next_job(int me, Batch& b, std::unique_lock<std::mutex>& lock) {
  if (runnable_.empty()) return false;
  Job* job = runnable_.front();
  runnable_.pop_front();
  // The job stays scheduled until its queue is observed empty under
  // work_mu_, so no other thread takes it meanwhile and job->st needs no
  // lock.  An enqueue that saw it scheduled left its frame in job->q.
  while (!job->q.empty()) {
    // The job keeps the emptied buffers: both capacities pass back and
    // forth, so a warm queue allocates nothing.
    b.work.swap(job->q);
    b.bytes.swap(job->qbytes);
    lock.unlock();
    if (job->st.worker != me) {
      if (job->st.worker >= 0) steals_.fetch_add(1, std::memory_order_relaxed);
      job->st.worker = me;
    }
    handle_batch(*job, b);
    b.work.clear();
    b.bytes.clear();
    lock.lock();
  }
  job->scheduled = false;
  return true;
}

void Daemon::handle_batch(Job& job, Batch& b) {
  JobState& st = job.st;
  if (!st.begun) {
    b.lines.append(live::timeseries_header_line(job.command, st.merger.interval()));
    b.lines += '\n';
  }
  BatchOut out;
  out.job = &job;
  out.folds.reserve(b.work.size());
  bool replied = false;
  Clock::time_point next_flush = Clock::now() + kReplyFlushPeriod;
  for (const Work& w : b.work) {
    handle_frame(job, w, b, out, replied);
    if (replied && !workers_.empty() && Clock::now() >= next_flush) {
      if (claim_wake()) wake_io();
      next_flush = Clock::now() + kReplyFlushPeriod;
    }
  }
  // The batch leaves its job current: the due points join its lines, and
  // the exposition values go to the IO thread, so nothing is owed once it
  // ends.  A job's points and values change only in its own batches.
  emit_due_job(job, b);
  out.items = live::prom_items(st.merger, static_cast<int>(st.ranks.size()), !st.ended);
  out.ranks.assign(st.ranks.begin(), st.ranks.end());
  append_lines(job.ts_path, b.lines, st.begun, st.write_failed);
  // In serial mode this is the IO thread, which takes the outbox right after
  // its batch loop.
  if (hand_over(std::move(out)) && !workers_.empty()) wake_io();
}

void Daemon::handle_frame(Job& job, const Work& w, Batch& b, BatchOut& out,
                          bool& replied) {
  JobState& st = job.st;
  const std::string_view payload = std::string_view(b.bytes).substr(w.off, w.len);
  // A reply is queued at once, so an IO pass that runs during the batch
  // sends it; the eventfd waits for the batch's end (claim_wake).
  const auto reply = [&](FrameType type, std::uint32_t rank, std::uint64_t epoch,
                         std::string_view body) {
    if (w.session == 0) return;
    push_reply(w.session, type, job.id, rank, epoch, body);
    replied = true;
  };
  const auto ensure_rank = [&](std::uint32_t rank) -> RankState& {
    const auto [it, inserted] = st.ranks.try_emplace(rank);
    if (inserted) {
      out.new_ranks.push_back(static_cast<int>(job.fleet_base + rank));
    }
    return it->second;
  };
  switch (w.type) {
    case FrameType::kHello: {
      // WELCOME: per-rank resume epochs, so the client prunes everything
      // already applied and resends only the rest.
      std::vector<std::pair<std::uint32_t, std::uint64_t>> epochs;
      epochs.reserve(st.ranks.size());
      for (const auto& [rank, rs] : st.ranks) {
        epochs.emplace_back(rank, rs.last_epoch);
      }
      reply(FrameType::kWelcome, 0, 0, live::wire::welcome_payload(epochs));
      break;
    }
    case FrameType::kSample: {
      RankState& rs = ensure_rank(w.rank);
      apply_sample(job, rs, w, payload, b, out);
      reply(FrameType::kAck, w.rank, rs.last_epoch, {});
      break;
    }
    case FrameType::kRankFin: {
      RankState& rs = ensure_rank(w.rank);
      finalize_rank(job, rs, w, payload, out);
      reply(FrameType::kAck, w.rank, rs.last_epoch, {});
      break;
    }
    case FrameType::kJobEnd:
      end_job(job, b.lines, out);
      reply(FrameType::kJobEndAck, 0, 0, {});
      break;
    default:
      break;  // filtered by route_frame
  }
}

void Daemon::apply_sample(Job& job, RankState& rs, const Work& w,
                          std::string_view line, Batch& b, BatchOut& out) {
  // Every SAMPLE payload is a live::sample_line(), folded as it is read;
  // anything else is a protocol error, acked at the rank's previous epoch
  // and not applied, whatever its epoch.
  JobState& st = job.st;
  const std::size_t mark = out.region_flops.size();
  live::SampleFold fold;
  if (!live::fold_sample_line(line, fold, out.region_flops, b.scratch)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (w.epoch <= rs.last_epoch) {  // resend of an applied frame: dedupe
    rs.resent += 1;
    out.region_flops.resize(mark);
    return;
  }
  rs.last_epoch = w.epoch;
  rs.samples += 1;
  if (!st.ended) b.lines.append(line) += '\n';
  st.merger.add(fold, std::span(out.region_flops).subspan(mark));
  fold.rank = static_cast<int>(job.fleet_base + w.rank);
  out.folds.push_back(fold);
}

void Daemon::finalize_rank(Job& job, RankState& rs, const Work& w,
                           std::string_view payload, BatchOut& out) {
  JobState& st = job.st;
  if (w.epoch != 0 && w.epoch <= rs.last_epoch && rs.finalized) {
    rs.resent += 1;
    return;
  }
  if (w.epoch > rs.last_epoch) rs.last_epoch = w.epoch;
  rs.finalized = true;
  if (!read_rank_fin_drops(payload, rs.drops)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  st.merger.finalize_rank(static_cast<int>(w.rank));
  out.fin_ranks.push_back(static_cast<int>(job.fleet_base + w.rank));
}

void Daemon::end_job(Job& job, std::string& lines, BatchOut& out) {
  JobState& st = job.st;
  if (st.ended) return;
  for (auto& [rank, rs] : st.ranks) {
    if (!rs.finalized) {
      rs.finalized = true;
      st.merger.finalize_rank(static_cast<int>(rank));
      out.fin_ranks.push_back(static_cast<int>(job.fleet_base + rank));
    }
  }
  std::vector<live::ClusterPoint> pts;
  st.merger.emit_all(static_cast<int>(st.ranks.size()), pts);
  for (const live::ClusterPoint& p : pts) lines.append(live::point_line(p)) += '\n';
  lines.append(live::end_line(st.merger.intervals_emitted())) += '\n';
  st.ended = true;
  out.ended = true;
}

void Daemon::emit_due_job(Job& job, Batch& b) {
  JobState& st = job.st;
  // An ended job's end line followed every point; a job with no rank has
  // nothing to emit.
  if (st.ended || st.ranks.empty()) return;
  b.live_ranks.clear();
  for (const auto& [rank, rs] : st.ranks) {
    if (!rs.finalized) b.live_ranks.push_back(static_cast<int>(rank));
  }
  std::vector<live::ClusterPoint> pts;
  st.merger.emit_due(b.live_ranks, static_cast<int>(st.ranks.size()), pts);
  for (const live::ClusterPoint& p : pts) b.lines.append(live::point_line(p)) += '\n';
}

void Daemon::append_lines(const std::string& path, std::string& lines, bool& begun,
                          bool& failed) {
  // A stream's lines go to disk in one checked append, the file open only
  // while it is written (the first append truncates it).  The caller owns
  // the stream: a batch its job's, the IO thread the fleet's.
  if (lines.empty()) return;
  try {
    simx::append_stream(path, lines, begun);
  } catch (const std::runtime_error&) {
    write_errors_.fetch_add(1, std::memory_order_relaxed);
    if (!std::exchange(failed, true)) report_write_failure(path);
  }
  lines.clear();
}

void Daemon::push_reply(std::uint64_t session, FrameType type, const std::string& job,
                        std::uint32_t rank, std::uint64_t epoch,
                        std::string_view payload) {
  // Encoded in place, straight into the bytes the IO thread sends:
  // consecutive replies to one session share an entry.
  const std::lock_guard<std::mutex> lock(out_mu_);
  live::wire::encode_to(out_bytes_, type, job, rank, epoch, payload);
  if (!out_replies_.empty() && out_replies_.back().session == session) {
    out_replies_.back().end = out_bytes_.size();
  } else {
    out_replies_.push_back(Reply{session, out_bytes_.size()});
  }
}

// Coalesced wake: one eventfd write per outbox the IO thread takes.  It reads
// the eventfd before it takes the outbox, and what a batch leaves after the
// take is claimed by that batch's end.
bool Daemon::hand_over(BatchOut&& out) {
  const std::lock_guard<std::mutex> lock(out_mu_);
  out_batches_.push_back(std::move(out));
  return !std::exchange(out_woken_, true);
}

bool Daemon::claim_wake() {
  const std::lock_guard<std::mutex> lock(out_mu_);
  if ((out_replies_.empty() && out_batches_.empty()) || out_woken_) return false;
  out_woken_ = true;
  return true;
}

void Daemon::wake_io() {
  if (event_fd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto r = ::write(event_fd_, &one, sizeof one);
}

// --- IO thread --------------------------------------------------------------

void Daemon::accept_pending() {
  for (;;) {
    const int fd = live::net::accept_fd(listen_fd_);
    if (fd < 0) break;
    auto ses = std::make_unique<Session>();
    ses->id = ++last_session_id_;
    ses->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ses->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    sessions_.emplace(ses->id, std::move(ses));
  }
}

void Daemon::route_frame(Session& ses, const Frame& f) {
  const auto cached = [&ses](const std::string& id) -> Job* {
    return ses.job_cache != nullptr && ses.job_cache_id == id ? ses.job_cache
                                                              : nullptr;
  };
  const auto remember = [&ses](Job& job, const std::string& id) -> Job& {
    ses.job_cache = &job;
    ses.job_cache_id = id;
    return job;
  };
  Work w;
  w.type = f.type;
  w.rank = f.rank;
  w.epoch = f.epoch;
  w.session = ses.id;
  switch (f.type) {
    case FrameType::kHello: {
      std::string command;
      double interval = 0.0;
      if (!read_hello(f.payload, command, interval)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      enqueue(remember(get_or_create_job(f.job, command, interval), f.job), w);
      break;
    }
    case FrameType::kSample:
    case FrameType::kRankFin: {
      Job* jp = cached(f.job);
      Job& job =
          jp != nullptr ? *jp : remember(get_or_create_job(f.job, "?", 0.0), f.job);
      enqueue(job, w, f.payload);
      break;
    }
    case FrameType::kJobEnd: {
      Job* job = cached(f.job);
      if (job == nullptr) {
        const auto it = jobs_.find(f.job);
        if (it != jobs_.end()) job = it->second.get();
      }
      if (job == nullptr) {
        // Unknown job: ack directly, nothing to end (seed behavior).  This
        // thread takes the outbox at the end of its pass.
        push_reply(ses.id, FrameType::kJobEndAck, f.job, 0, 0);
      } else {
        enqueue(*job, w);
      }
      break;
    }
    default:
      // Daemon-to-client types arriving here are a protocol violation.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      mark_closed(ses);
      break;
  }
}

void Daemon::read_session(Session& ses, bool closing) {
  char buf[16384];
  bool eof = closing;
  for (;;) {
    const long r = live::net::read_some(ses.fd, buf, sizeof buf);
    if (r < 0) {
      eof = true;
      break;
    }
    if (r == 0) break;
    ses.dec.feed(buf, static_cast<std::size_t>(r));
    // A short read emptied the socket: the level-triggered epoll reports
    // whatever arrives next, so skip the read that would return EAGAIN.
    // Closing reads on to EOF to see every byte the peer sent.
    if (!closing && static_cast<std::size_t>(r) < sizeof buf) break;
  }
  while (!ses.closed && ses.dec.next(frame_)) route_frame(ses, frame_);
  if (ses.closed) return;  // route_frame dropped it for a protocol violation
  if (!ses.dec.error().empty()) {
    std::fprintf(stderr, "ipm_aggd: protocol error: %s\n",
                 ses.dec.error().c_str());
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    mark_closed(ses);
  } else if (eof) {
    // Bytes still pending after the drain are a truncated frame — rejected,
    // never partially applied (the decoder only yields complete frames).
    if (ses.dec.pending() > 0) {
      truncated_frames_.fetch_add(1, std::memory_order_relaxed);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    mark_closed(ses);
  }
}

void Daemon::close_session(Session& ses) {
  // A failed write or a blown stall budget closes the session before its
  // EOF is read: route what the peer sent and count a partial frame, as
  // an EOF would.
  if (!ses.closed) read_session(ses, /*closing=*/true);
}

void Daemon::mark_closed(Session& ses) {
  if (ses.closed) return;
  ses.closed = true;
  // Deregister immediately: a dead fd left in the level-triggered epoll set
  // storms EPOLLHUP on every wait until it is reaped, turning the IO loop
  // into a busy loop.  reap_closed() releases the fd at the end of the pass.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, ses.fd, nullptr);
  closed_.push_back(ses.id);
}

void Daemon::set_write_interest(Session& ses, bool on) {
  if (ses.want_write == on) return;
  ses.want_write = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.u64 = ses.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, ses.fd, &ev);
}

void Daemon::flush_session(Session& ses) {
  if (ses.closed) return;
  // An empty wbuf is never blocked nor armed for EPOLLOUT: both are reset
  // by the write that empties it.
  if (ses.wbuf.empty()) return;
  const long w = live::net::write_some(ses.fd, ses.wbuf.data(), ses.wbuf.size());
  if (w < 0) {
    close_session(ses);
    return;
  }
  ses.wbuf.erase(0, static_cast<std::size_t>(w));
  if (ses.wbuf.empty()) {
    if (ses.blocked) blocked_.erase(ses.id);
    ses.blocked = false;
    set_write_interest(ses, false);
    return;
  }
  // Stalled since the last write progress.
  if (!ses.blocked || w > 0) {
    if (!ses.blocked) blocked_.insert(ses.id);
    ses.blocked = true;
    ses.stall_since = Clock::now();
    stall_next_ = std::min(stall_next_, ses.stall_since +
                                            std::chrono::milliseconds(opt_.stall_ms));
  }
  set_write_interest(ses, true);
  if (ses.wbuf.size() > opt_.session_outbuf_max) {
    std::fprintf(stderr,
                 "ipm_aggd: disconnecting stalled client (%zu outbound "
                 "bytes queued)\n",
                 ses.wbuf.size());
    stalled_disconnects_.fetch_add(1, std::memory_order_relaxed);
    close_session(ses);
  }
}

void Daemon::take_outbox(bool write) {
  {
    // Swapped, not moved: each buffer's capacity passes back and forth
    // between the workers and this thread.
    const std::lock_guard<std::mutex> lock(out_mu_);
    taken_bytes_.swap(out_bytes_);
    taken_replies_.swap(out_replies_);
    taken_batches_.swap(out_batches_);
    out_woken_ = false;
  }
  // Replies first, so no ack waits for the fleet fold.
  replied_.clear();
  std::size_t begin = 0;
  for (const Reply& r : taken_replies_) {
    const std::string_view bytes(taken_bytes_.data() + begin, r.end - begin);
    begin = r.end;
    // Ids are never reused: a reply whose session is gone is dropped.
    const auto it = sessions_.find(r.session);
    if (it == sessions_.end() || it->second->closed) continue;
    it->second->wbuf += bytes;
    replied_.push_back(it->second.get());
  }
  taken_bytes_.clear();
  taken_replies_.clear();
  if (write) {
    std::sort(replied_.begin(), replied_.end());
    replied_.erase(std::unique(replied_.begin(), replied_.end()), replied_.end());
    for (Session* ses : replied_) flush_session(*ses);
  }
  if (taken_batches_.empty()) return;
  for (BatchOut& b : taken_batches_) apply_batch(b);
  taken_batches_.clear();
  prom_dirty_ = true;
}

void Daemon::apply_batch(BatchOut& b) {
  // The fleet merger is the IO thread's: no lock.
  for (const int r : b.new_ranks) fleet_live_.insert(r);
  const std::span<const std::pair<std::string, double>> regions(b.region_flops);
  std::size_t at = 0;
  for (const live::SampleFold& f : b.folds) {
    fleet_.add(f, regions.subspan(at, f.regions));
    at += f.regions;
  }
  for (const int r : b.fin_ranks) {
    fleet_.finalize_rank(r);
    fleet_live_.erase(r);
  }
  if (!b.folds.empty() || !b.new_ranks.empty() || !b.fin_ranks.empty()) {
    fleet_folded_ = true;
  }
  // The job's latest values; write_prom renders them at its next rewrite.
  Job& job = *b.job;
  job.items.swap(b.items);
  job.ranks.swap(b.ranks);
  job.changed = true;
  if (b.ended) {
    job.ended = true;
    ++jobs_ended_;
  }
}

void Daemon::reap_closed() {
  if (closed_.empty()) return;
  for (const std::uint64_t id : closed_) {
    const auto it = sessions_.find(id);
    blocked_.erase(id);
    live::net::close_fd(it->second->fd);
    sessions_.erase(it);
  }
  closed_.clear();
  prom_dirty_ = true;
}

void Daemon::pump_tails() {
  for (Tail& t : tails_) {
    if (t.done) continue;
    for (;;) {
      const auto pos = t.in.tellg();
      std::string line;
      if (!std::getline(t.in, line) || t.in.eof()) {
        // EOF, or a last line without its newline yet: rewind and retry on
        // the next pass once the writer appended more.
        t.in.clear();
        t.in.seekg(pos);
        break;
      }
      live::TimeSeries tmp;
      const live::LineKind kind = live::parse_timeseries_line(line, tmp);
      if (kind == live::LineKind::kEnd) {  // the stream is complete
        const auto it = jobs_.find(t.job);
        if (it != jobs_.end()) {
          Work w;
          w.type = FrameType::kJobEnd;
          enqueue(*it->second, w);
        }
        t.done = true;
        break;
      }
      if (kind == live::LineKind::kRejected) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      } else if (kind == live::LineKind::kHeader) {
        get_or_create_job(t.job, tmp.command, tmp.interval);
      } else if (kind == live::LineKind::kSample) {
        const live::Sample& s = tmp.samples.front();
        Job& job = get_or_create_job(t.job, "?", 0.0);
        // The file carries no epochs; seq+1 is the same monotone epoch the
        // socket client derives, so resumed tails dedupe identically.
        Work w;
        w.type = FrameType::kSample;
        w.rank = static_cast<std::uint32_t>(s.rank);
        w.epoch = s.seq + 1;
        enqueue(job, w, line);
        if (s.final_flush) {
          w.type = FrameType::kRankFin;
          w.epoch = 0;
          enqueue(job, w);
        }
      }
      // Emitted points in the file are ignored: the daemon re-derives them.
    }
  }
}

int Daemon::wait_ms(Clock::time_point now) {
  // Each deadline counts only while its condition holds; with none pending
  // the IO thread blocks until a socket or the eventfd wakes it.
  Clock::time_point next = kNever;
  if (!blocked_.empty()) next = std::min(next, stall_next_);
  if (prom_dirty_ || fleet_folded_) next = std::min(next, prom_next_);
  const bool tailing = std::any_of(tails_.begin(), tails_.end(),
                                   [](const Tail& t) { return !t.done; });
  if (tailing) next = std::min(next, tail_next_);
  if (next == kNever) return -1;
  if (next <= now) return 0;
  // Round up: waking before the deadline would only spin back here.
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(next - now).count();
  return static_cast<int>(std::min<decltype(ms)>(ms, std::numeric_limits<int>::max()));
}

void Daemon::run_due(Clock::time_point now) {
  if (!blocked_.empty() && now >= stall_next_) check_stalls(now);
  if ((prom_dirty_ || fleet_folded_) && now >= prom_next_) {
    refresh_outputs(now);
  }
  if (!tails_.empty() && now >= tail_next_) {
    pump_tails();
    tail_next_ = now + kTailPollPeriod;
  }
  reap_closed();
}

void Daemon::check_stalls(Clock::time_point now) {
  // Stall budget: a client that stopped reading gets disconnected, never
  // blocks the daemon.  Only blocked sessions are walked.
  const auto budget = std::chrono::milliseconds(opt_.stall_ms);
  std::vector<std::uint64_t> expired;
  stall_next_ = kNever;
  for (const std::uint64_t id : blocked_) {
    const Session& ses = *sessions_.at(id);
    if (ses.closed) continue;  // reaped at the end of this pass
    const Clock::time_point due = ses.stall_since + budget;
    if (now >= due) {
      expired.push_back(id);
    } else {
      stall_next_ = std::min(stall_next_, due);
    }
  }
  for (const std::uint64_t id : expired) {
    Session& ses = *sessions_.at(id);
    std::fprintf(stderr,
                 "ipm_aggd: disconnecting stalled client (no write "
                 "progress for %lld ms)\n",
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         now - ses.stall_since)
                         .count()));
    stalled_disconnects_.fetch_add(1, std::memory_order_relaxed);
    close_session(ses);
  }
}

void Daemon::refresh_outputs(Clock::time_point now) {
  prom_next_ = now + kFloor;
  if (fleet_folded_) {
    fleet_folded_ = false;
    std::vector<live::ClusterPoint> pts;
    fleet_.emit_due(std::vector<int>(fleet_live_.begin(), fleet_live_.end()),
                    static_cast<int>(jobs_.size()), pts);
    append_fleet(pts, /*end=*/false);
  }
  if (prom_dirty_) {
    prom_dirty_ = false;
    write_prom();
  }
}

void Daemon::render_lines(Job& job) {
  job.prom_text.clear();
  job.prom_ends.clear();
  simx::JsonlWriter w(job.prom_text);
  const std::string label = prom_escape(job.id);
  for (const live::PromItem& item : job.items) {
    w.lit(item.name).lit("{job=\"").lit(label).lit("\"} ").num(item.value);
    w.lit("\n");
    job.prom_ends.push_back(job.prom_text.size());
  }
  for (const RankMetric& m : kRankMetrics) {
    for (const auto& [rank, rs] : job.ranks) {
      w.lit(m.name).lit("{job=\"").lit(label).lit("\",rank=\"").num(rank);
      w.lit("\"} ").num(rs.*m.field).lit("\n");
    }
    job.prom_ends.push_back(job.prom_text.size());
  }
  job.changed = false;
}

void Daemon::write_prom() {
  prom_writes_.fetch_add(1, std::memory_order_relaxed);
  // A job's lines are rendered from its values once per change, so a
  // rewrite renders the changed jobs and concatenates every job's lines,
  // jobs in id order as the seed iterated its map; a job whose first batch
  // record is not taken yet has none.  The metrics of prom_items() have a
  // fixed order; their names are taken once.
  static const std::vector<live::PromItem> kItems =
      live::prom_items(live::JobMerger(1.0), 0, /*up=*/true);
  const std::size_t items = jobs_.empty() ? 0 : kItems.size();
  std::string text;
  std::size_t bytes = 4096;
  for (const auto& [id, job] : jobs_) {
    if (job->changed) render_lines(*job);
    bytes += job->prom_text.size();
  }
  text.reserve(bytes + 128 * (items + std::size(kRankMetrics)));
  simx::JsonlWriter w(text);
  const auto head = [&w](const char* name, const char* help, bool counter) {
    w.lit("# HELP ").lit(name).lit(" ").lit(help).lit("\n# TYPE ").lit(name);
    w.lit(counter ? " counter\n" : " gauge\n");
  };
  // Metric i of every job, under one HELP/TYPE block.
  const auto section = [this, &w](std::size_t i) {
    for (const auto& [id, job] : jobs_) {
      if (job->prom_ends.empty()) continue;
      const std::size_t begin = i == 0 ? 0 : job->prom_ends[i - 1];
      w.lit(std::string_view(job->prom_text).substr(begin, job->prom_ends[i] - begin));
    }
  };
  const auto scalar = [&](const char* name, const char* help, bool counter,
                          std::uint64_t value) {
    head(name, help, counter);
    w.lit(name).lit(" ").num(value).lit("\n");
  };
  scalar("ipm_agg_jobs", "Jobs known to the aggregation daemon.", false,
         jobs_.size());
  scalar("ipm_agg_jobs_ended", "Jobs that completed their stream.", false,
         static_cast<std::uint64_t>(jobs_ended_));
  scalar("ipm_agg_connections", "Open client connections.", false, sessions_.size());
  scalar("ipm_agg_protocol_errors_total", "Rejected frames/streams.", true,
         protocol_errors_.load(std::memory_order_relaxed));
  scalar("ipm_agg_truncated_frames_total",
         "Frames cut off by a closing connection, never applied (also in "
         "ipm_agg_protocol_errors_total).",
         true, truncated_frames_.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < items; ++i) {
    head(kItems[i].name, kItems[i].help, kItems[i].counter);
    section(i);
  }
  for (std::size_t m = 0; m < std::size(kRankMetrics); ++m) {
    head(kRankMetrics[m].name, kRankMetrics[m].help, kRankMetrics[m].counter);
    section(items + m);
  }
  // Sharded-daemon health counters (additions over the seed exposition).
  scalar("ipm_agg_stalled_disconnects_total",
         "Sessions dropped for blowing the outbound stall budget.", true,
         stalled_disconnects_.load(std::memory_order_relaxed));
  scalar("ipm_agg_write_errors_total",
         "Failed time-series appends, the jobs' and the fleet stream's.",
         true, write_errors_.load(std::memory_order_relaxed));
  scalar("ipm_agg_worker_steals_total",
         "Batches run on a different worker than their job's previous batch.", true,
         steals());
  scalar("ipm_agg_workers", "Worker threads (0 = serial mode).", false, workers());
  live::publish_exposition(prom_path_, text);
}

void Daemon::drain_outbounds() {
  // Best-effort: in-flight acks (e.g. the JOB_END acks that triggered the
  // shutdown) get a bounded time to reach their clients before run()
  // returns, waiting in poll(2) on the sessions that still hold bytes.
  const Clock::time_point deadline = Clock::now() + kShutdownWriteBudget;
  std::vector<Session*> pending;
  std::vector<pollfd> fds;
  for (;;) {
    pending.clear();
    fds.clear();
    for (const auto& [id, ses] : sessions_) {
      if (ses->closed || ses->wbuf.empty()) continue;
      pending.push_back(ses.get());
      fds.push_back(pollfd{ses->fd, POLLOUT, 0});
    }
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now()).count();
    if (fds.empty() || left <= 0) return;
    if (::poll(fds.data(), fds.size(), static_cast<int>(left)) < 0 && errno != EINTR) {
      return;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Session& ses = *pending[i];
      const long w = live::net::write_some(ses.fd, ses.wbuf.data(), ses.wbuf.size());
      if (w < 0) {
        ses.closed = true;
      } else {
        ses.wbuf.erase(0, static_cast<std::size_t>(w));
      }
    }
  }
}

void Daemon::append_fleet(const std::vector<live::ClusterPoint>& pts, bool end) {
  std::string lines;
  if (!fleet_begun_) {
    lines.append(live::timeseries_header_line("fleet", fleet_.interval())) += '\n';
  }
  for (const live::ClusterPoint& p : pts) lines.append(live::point_line(p)) += '\n';
  if (end) lines.append(live::end_line(fleet_.intervals_emitted())) += '\n';
  append_lines(fleet_path_, lines, fleet_begun_, fleet_write_failed_);
}

void Daemon::shutdown_flush() {
  // Every job ended through its queue, and its batch records are taken: the
  // fleet's last emission and its end line.
  std::vector<live::ClusterPoint> pts;
  fleet_.emit_all(static_cast<int>(jobs_.size()), pts);
  append_fleet(pts, /*end=*/true);
}

void Daemon::run() {
  std::vector<epoll_event> evs(128);
  for (;;) {
    run_due(Clock::now());
    // Serial mode runs what this pass queued (routed frames, run_due's
    // items); each pass ends by taking the outbox.
    run_serial();
    take_outbox(/*write=*/true);
    if (stop_.load(std::memory_order_relaxed)) break;
    if (opt_.exit_after_jobs > 0 && jobs_ended_ >= opt_.exit_after_jobs) break;
    // Tail-only mode is done once every tailed stream ended.
    if (listen_fd_ < 0 && !tails_.empty() &&
        std::all_of(tails_.begin(), tails_.end(),
                    [](const Tail& t) { return t.done; })) {
      break;
    }
    const int n = ::epoll_wait(epoll_fd_, evs.data(), static_cast<int>(evs.size()),
                               wait_ms(Clock::now()));
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = evs[i].data.u64;
      if (key == kListenKey) {
        accept_pending();
      } else if (key == kWakeKey) {
        // Read before take_outbox() takes the outbox: a worker that leaves
        // output after the take writes the eventfd again.
        std::uint64_t count = 0;
        [[maybe_unused]] const auto r = ::read(event_fd_, &count, sizeof count);
      } else {
        const auto it = sessions_.find(key);
        if (it != sessions_.end()) {
          if ((evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
            read_session(*it->second, /*closing=*/false);
          }
          // A blocked session wakes us with EPOLLOUT.
          if ((evs[i].events & EPOLLOUT) != 0) flush_session(*it->second);
        }
      }
    }
  }
  // Each job not known to have ended ends through its queue, and every
  // queued item runs.
  for (auto& [id, job] : jobs_) {
    if (job->ended) continue;
    Work w;
    w.type = FrameType::kJobEnd;
    enqueue(*job, w);
  }
  run_serial();
  stop_workers();
  take_outbox(/*write=*/false);  // the last replies and batch records
  drain_outbounds();
  shutdown_flush();
  write_prom();
}

std::string Daemon::fleet_timeseries_path() const { return fleet_path_; }

std::string Daemon::job_timeseries_path(const std::string& job) const {
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? std::string() : it->second->ts_path;
}

std::vector<std::string> Daemon::job_ids() const {
  std::vector<std::string> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(id);
  return out;
}

const std::map<std::uint32_t, RankState>* Daemon::job_ranks(
    const std::string& job) const {
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second->st.ranks;
}

}  // namespace ipm::aggd
