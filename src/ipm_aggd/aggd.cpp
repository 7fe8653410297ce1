// Sharded ipm_aggd daemon core (see aggd.hpp): epoll IO thread routes
// frames to per-job FIFO queues executed by a work-stealing pool; per-job
// state is worker-exclusive (scheduled-flag protocol), the fleet merge
// folds batches under one narrow mutex, idle jobs close their JSONL stream,
// and slow clients are disconnected on a bounded stall budget.
#include "ipm_aggd/aggd.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "aggd_util.hpp"
#include "ipm_live/live.hpp"

namespace ipm::aggd {

using live::wire::Frame;
using live::wire::FrameType;

using detail::kFleetStride;
using detail::kPollMs;
using detail::prom_escape;
using detail::read_hello;
using detail::read_rank_fin_drops;
using detail::sanitize;
using detail::tail_job_id;

namespace {

/// last_active_ms sentinel: job is spilled or ended — never a spill
/// candidate until a worker touches it again.
constexpr std::int64_t kInactive = std::numeric_limits<std::int64_t>::max();
// Cadence for per-job point emission from the worker (live tailing only;
// terminal paths emit everything pending regardless).
constexpr std::int64_t kJobEmitMs = 20;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Daemon::Daemon(Options opt)
    : opt_(std::move(opt)),
      fleet_(opt_.fleet_interval > 0.0 ? opt_.fleet_interval : 1.0) {}

Daemon::~Daemon() {
  if (pool_) pool_->stop();
  for (const auto& [fd, s] : sessions_) live::net::close_fd(fd);
  live::net::close_fd(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
}

bool Daemon::start(std::string& err) {
  prom_path_ = opt_.prom_path.empty() ? opt_.out_dir + "/ipm_agg.prom"
                                      : opt_.prom_path;
  fleet_path_ = opt_.out_dir + "/fleet_timeseries.jsonl";
  fleet_out_.open(fleet_path_, std::ios::trunc);
  if (!fleet_out_) {
    err = "cannot open " + fleet_path_;
    return false;
  }
  fleet_out_ << live::timeseries_header_line("fleet", fleet_.interval()) << '\n';
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    err = "cannot create epoll/eventfd";
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = event_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  if (!opt_.listen.empty()) {
    const live::net::Addr addr = live::net::parse_addr(opt_.listen);
    listen_fd_ = live::net::listen_fd(addr, err);
    if (listen_fd_ < 0) return false;
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
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
    // A pool needs real parallelism to pay for the IO->worker handoff
    // (enqueue futex + eventfd wake + two context switches per batch); on
    // a single-core host serial mode, applying inline on the IO thread, is
    // strictly faster.  An explicit workers count always wins.
    const unsigned hc = std::thread::hardware_concurrency();
    nw = hc >= 2 ? static_cast<int>(std::clamp(hc, 2u, 8u)) : 0;
  }
  if (nw > 0) pool_ = std::make_unique<WorkerPool>(static_cast<unsigned>(nw));
  write_prom();
  return true;
}

Daemon::Job& Daemon::get_or_create_job(const std::string& id,
                                       const std::string& command,
                                       double interval) {
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) return *it->second;
  auto& slot = jobs_[id];
  slot = std::make_unique<Job>();
  Job& job = *slot;
  job.id = id;
  job.st.merger = live::JobMerger(interval > 0.0 ? interval : 1.0);
  job.ts_path = opt_.out_dir + "/" + sanitize(id) + "_timeseries.jsonl";
  // A tailed file in out_dir would be its own output: write beside it.
  for (const Tail& t : tails_) {
    if (t.path == job.ts_path) {
      job.ts_path = opt_.out_dir + "/" + sanitize(id) + "_agg_timeseries.jsonl";
      break;
    }
  }
  job.fleet_base = fleet_next_base_;
  fleet_next_base_ += kFleetStride;
  job.home = static_cast<unsigned>(n_jobs_.load(std::memory_order_relaxed));
  job.st.out.open(job.ts_path, std::ios::trunc);
  if (!job.st.out) {
    std::fprintf(stderr, "ipm_aggd: cannot open %s\n", job.ts_path.c_str());
  } else {
    job.st.out << live::timeseries_header_line(command,
                                               job.st.merger.interval())
               << '\n';
  }
  // Initial exposition snapshot so the job appears in ipm_agg.prom before
  // its first batch completes (the worker refreshes it afterwards).
  job.snap.items = prom_items(job.st.merger, 0, /*up=*/true);
  n_jobs_.fetch_add(1, std::memory_order_relaxed);
  prom_dirty_.store(true, std::memory_order_relaxed);
  return job;
}

void Daemon::enqueue(Job& job, Work&& w) {
  bool submit = false;
  {
    const std::lock_guard<std::mutex> lock(job.q_mu);
    job.q.push_back(std::move(w));
    if (!job.scheduled) {
      job.scheduled = true;
      submit = true;
    }
  }
  if (!submit) return;
  Job* jp = &job;
  if (pool_) {
    pool_->submit(job.home, [this, jp] { process_job(jp); });
  } else {
    process_job(jp);  // serial mode: apply inline on the IO thread
  }
}

// --- worker side ------------------------------------------------------------

void Daemon::process_job(Job* job) {
  // The scheduled flag guarantees at most one invocation per job is alive,
  // so everything below touches job->st without locks.  Loop until the
  // queue is observed empty under q_mu, then clear the flag in the same
  // critical section — an enqueue that saw scheduled=true has its work in
  // the batch we are about to take, or will re-submit after we clear.
  for (;;) {
    std::deque<Work> batch;
    {
      const std::lock_guard<std::mutex> lock(job->q_mu);
      if (job->q.empty()) {
        job->scheduled = false;
        return;
      }
      batch.swap(job->q);
    }
    handle_batch(*job, batch);
  }
}

void Daemon::handle_batch(Job& job, std::deque<Work>& batch) {
  JobState& st = job.st;
  bool any_frame = false;
  for (const Work& w : batch) {
    if (w.kind == Work::Kind::kFrame) {
      any_frame = true;
      break;
    }
  }
  if (st.spilled && any_frame) rehydrate_job(job);
  FleetBatch fb;
  bool wake = false;
  for (Work& w : batch) {
    if (w.kind == Work::Kind::kSpill) {
      // Re-check under worker exclusivity; a frame in the same batch means
      // the job is active again, so the spill request is stale.
      if (!any_frame && !st.ended && !st.spilled) spill_job(job);
      continue;
    }
    handle_frame(job, w, fb, wake);
  }
  // Per-job point emission is a live-tailing convenience, not a
  // correctness step (end_job/shutdown emit_all everything pending), so
  // run the bucket scan at a bounded cadence instead of per batch —
  // trickling clients otherwise pay it per sample.
  if (!st.ended && any_frame) {
    const std::int64_t nowm = now_ms();
    if (st.last_emit_ms < 0 || nowm - st.last_emit_ms >= kJobEmitMs) {
      emit_due_job(job);
      st.last_emit_ms = nowm;
    }
  }
  fold_fleet(fb);
  // The snapshot only feeds the rate-limited exposition writer: rebuilding
  // it (prom_items + a full rank-map copy) on every small batch dominates
  // trickle-load CPU, so refresh at the prom cadence instead.  A terminal
  // batch (job end) refreshes unconditionally; shutdown_flush re-snapshots
  // every job post-drain, so final values are always exact.
  const std::int64_t nowm = now_ms();
  if (st.ended || st.last_snap_ms < 0 ||
      nowm - st.last_snap_ms >= std::max(opt_.prom_interval_ms, 0)) {
    update_snap(job);
    st.last_snap_ms = nowm;
  }
  prom_dirty_.store(true, std::memory_order_relaxed);
  job.last_active_ms.store(st.spilled || st.ended ? kInactive : now_ms(),
                           std::memory_order_relaxed);
  if (wake) wake_io_lazy();
}

void Daemon::handle_frame(Job& job, Work& w, FleetBatch& fb, bool& wake) {
  JobState& st = job.st;
  Frame& f = w.frame;
  const auto append_reply = [&](const std::string& bytes) {
    if (!w.reply) return;
    {
      const std::lock_guard<std::mutex> lock(w.reply->mu);
      if (w.reply->closed) return;
      w.reply->buf += bytes;
    }
    w.reply->ready.store(true, std::memory_order_release);
    wake = true;
  };
  const auto ensure_rank = [&](std::uint32_t rank) -> RankState& {
    const auto [it, inserted] = st.ranks.try_emplace(rank);
    if (inserted) {
      fb.new_ranks.push_back(static_cast<int>(job.fleet_base + rank));
    }
    return it->second;
  };
  switch (f.type) {
    case FrameType::kHello: {
      // WELCOME: per-rank resume epochs, so the client prunes everything
      // already applied and resends only the rest.
      std::vector<std::pair<std::uint32_t, std::uint64_t>> epochs;
      epochs.reserve(st.ranks.size());
      for (const auto& [rank, rs] : st.ranks) {
        epochs.emplace_back(rank, rs.last_epoch);
      }
      Frame welcome;
      welcome.type = FrameType::kWelcome;
      welcome.job = f.job;
      welcome.payload = live::wire::welcome_payload(epochs);
      append_reply(live::wire::encode(welcome));
      break;
    }
    case FrameType::kSample: {
      RankState& rs = ensure_rank(f.rank);
      // Every SAMPLE payload is a live::sample_line(); anything else is a
      // protocol error, acked at the rank's previous epoch and not applied.
      live::Sample s;
      if (live::parse_sample_line(f.payload, s)) {
        apply_sample(job, f.rank, f.epoch, std::move(s), f.payload, fb);
      } else {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      Frame a;
      a.type = FrameType::kAck;
      a.rank = f.rank;
      a.epoch = rs.last_epoch;
      a.job = f.job;
      append_reply(live::wire::encode(a));
      break;
    }
    case FrameType::kRankFin: {
      RankState& rs = ensure_rank(f.rank);
      finalize_rank(job, f.rank, f.epoch, f.payload, fb);
      Frame a;
      a.type = FrameType::kAck;
      a.rank = f.rank;
      a.epoch = rs.last_epoch;
      a.job = f.job;
      append_reply(live::wire::encode(a));
      break;
    }
    case FrameType::kJobEnd: {
      end_job(job, fb);
      Frame a;
      a.type = FrameType::kJobEndAck;
      a.job = f.job;
      append_reply(live::wire::encode(a));
      break;
    }
    default:
      break;  // filtered by route_frame
  }
}

void Daemon::apply_sample(Job& job, std::uint32_t rank, std::uint64_t epoch,
                          live::Sample&& s, const std::string& raw_line,
                          FleetBatch& fb) {
  JobState& st = job.st;
  RankState& rs = st.ranks[rank];
  if (epoch <= rs.last_epoch) {  // resend of an applied frame: dedupe
    rs.resent += 1;
    return;
  }
  rs.last_epoch = epoch;
  rs.samples += 1;
  if (st.out) st.out << raw_line << '\n';
  st.merger.add_sample(s);
  s.rank = static_cast<int>(job.fleet_base + rank);
  fb.add.push_back(std::move(s));
}

void Daemon::finalize_rank(Job& job, std::uint32_t rank, std::uint64_t epoch,
                           const std::string& payload, FleetBatch& fb) {
  JobState& st = job.st;
  RankState& rs = st.ranks[rank];
  if (epoch != 0 && epoch <= rs.last_epoch && rs.finalized) {
    rs.resent += 1;
    return;
  }
  if (epoch > rs.last_epoch) rs.last_epoch = epoch;
  rs.finalized = true;
  if (!read_rank_fin_drops(payload, rs.drops)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  st.merger.finalize_rank(static_cast<int>(rank));
  fb.fin_ranks.push_back(static_cast<int>(job.fleet_base + rank));
}

void Daemon::end_job(Job& job, FleetBatch& fb) {
  JobState& st = job.st;
  if (st.ended) return;
  for (auto& [rank, rs] : st.ranks) {
    if (!rs.finalized) {
      rs.finalized = true;
      st.merger.finalize_rank(static_cast<int>(rank));
      fb.fin_ranks.push_back(static_cast<int>(job.fleet_base + rank));
    }
  }
  std::vector<live::ClusterPoint> pts;
  st.merger.emit_all(static_cast<int>(st.ranks.size()), pts);
  if (st.out) {
    for (const live::ClusterPoint& p : pts) {
      st.out << live::point_line(p) << '\n';
    }
    st.out << live::end_line(st.merger.intervals_emitted()) << '\n';
  }
  close_stream(job);
  st.ended = true;
  jobs_ended_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::emit_due_job(Job& job) {
  JobState& st = job.st;
  std::vector<int> live_ranks;
  for (const auto& [rank, rs] : st.ranks) {
    if (!rs.finalized) live_ranks.push_back(static_cast<int>(rank));
  }
  if (live_ranks.empty() && st.ranks.empty()) return;  // nothing seen yet
  std::vector<live::ClusterPoint> pts;
  st.merger.emit_due(live_ranks, static_cast<int>(st.ranks.size()), pts);
  if (pts.empty() || !st.out) return;
  for (const live::ClusterPoint& p : pts) st.out << live::point_line(p) << '\n';
  st.out.flush();
}

void Daemon::fold_fleet(FleetBatch& fb) {
  if (fb.empty()) return;
  const std::lock_guard<std::mutex> lock(fleet_mu_);
  if (!fb.new_ranks.empty()) fleet_any_ = true;
  for (const int r : fb.new_ranks) fleet_live_.insert(r);
  for (const live::Sample& s : fb.add) fleet_.add_sample(s);
  for (const int r : fb.fin_ranks) {
    fleet_.finalize_rank(r);
    fleet_live_.erase(r);
  }
  if (!fb.new_ranks.empty() || !fb.fin_ranks.empty()) fleet_live_dirty_ = true;
}

void Daemon::update_snap(Job& job) {
  JobState& st = job.st;
  const std::lock_guard<std::mutex> lock(job.snap_mu);
  job.snap.items =
      prom_items(st.merger, static_cast<int>(st.ranks.size()), !st.ended);
  job.snap.ranks.assign(st.ranks.begin(), st.ranks.end());
  job.snap.ended = st.ended;
}

void Daemon::close_stream(Job& job) {
  std::ofstream& out = job.st.out;
  if (!out.is_open()) return;
  // close() flushes: a failed write, flush or close leaves `out` failed.
  out.close();
  if (!out) {
    std::fprintf(stderr, "ipm_aggd: time-series write failed for %s\n",
                 job.ts_path.c_str());
  }
}

void Daemon::spill_job(Job& job) {
  // The JSONL is the job's only file: spilling closes it, releasing its
  // descriptor and stream buffer, while the merger and rank epochs stay in
  // memory for the next frame.
  close_stream(job);
  job.st.spilled = true;
  spills_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::rehydrate_job(Job& job) {
  job.st.out.open(job.ts_path, std::ios::app);
  if (!job.st.out) {
    std::fprintf(stderr, "ipm_aggd: cannot open %s\n", job.ts_path.c_str());
  }
  job.st.spilled = false;
  rehydrations_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::wake_io() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto r = ::write(event_fd_, &one, sizeof one);
}

void Daemon::wake_io_lazy() {
  // Reply-ready nudge from a worker.  In serial mode the IO thread is the
  // caller and flushes in the same loop pass — no syscall needed.  With a
  // pool, coalesce: one eventfd write per IO wake, not one per batch.
  if (!pool_) return;
  if (!wake_pending_.exchange(true, std::memory_order_acq_rel)) wake_io();
}

// --- IO thread --------------------------------------------------------------

void Daemon::accept_pending() {
  for (;;) {
    const int fd = live::net::accept_fd(listen_fd_);
    if (fd < 0) break;
    if (opt_.session_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opt_.session_sndbuf,
                   sizeof opt_.session_sndbuf);
    }
    auto ses = std::make_unique<Session>();
    ses->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    sessions_.emplace(fd, std::move(ses));
  }
}

void Daemon::route_frame(Session& ses, Frame&& f) {
  const auto cached = [&ses](const std::string& id) -> Job* {
    return ses.job_cache != nullptr && ses.job_cache_id == id ? ses.job_cache
                                                              : nullptr;
  };
  const auto remember = [&ses](Job& job, const std::string& id) -> Job& {
    ses.job_cache = &job;
    ses.job_cache_id = id;
    return job;
  };
  switch (f.type) {
    case FrameType::kHello: {
      std::string command;
      double interval = 0.0;
      if (!read_hello(f.payload, command, interval)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      Job& job = remember(get_or_create_job(f.job, command, interval), f.job);
      Work w;
      w.frame = std::move(f);
      w.reply = ses.out;
      enqueue(job, std::move(w));
      break;
    }
    case FrameType::kSample:
    case FrameType::kRankFin: {
      Job* jp = cached(f.job);
      Job& job =
          jp != nullptr ? *jp : remember(get_or_create_job(f.job, "?", 0.0), f.job);
      Work w;
      w.frame = std::move(f);
      w.reply = ses.out;
      enqueue(job, std::move(w));
      break;
    }
    case FrameType::kJobEnd: {
      Job* job = cached(f.job);
      if (job == nullptr) {
        const std::lock_guard<std::mutex> lock(jobs_mu_);
        const auto it = jobs_.find(f.job);
        if (it != jobs_.end()) job = it->second.get();
      }
      if (job == nullptr) {
        // Unknown job: ack directly, nothing to end (seed behavior).
        Frame a;
        a.type = FrameType::kJobEndAck;
        a.job = f.job;
        {
          const std::lock_guard<std::mutex> lock(ses.out->mu);
          ses.out->buf += live::wire::encode(a);
        }
        ses.out->ready.store(true, std::memory_order_release);
      } else {
        Work w;
        w.frame = std::move(f);
        w.reply = ses.out;
        enqueue(*job, std::move(w));
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

void Daemon::read_session(Session& ses) {
  char buf[16384];
  bool eof = false;
  for (;;) {
    const long r = live::net::read_some(ses.fd, buf, sizeof buf);
    if (r == 0) break;
    if (r < 0) {
      eof = true;
      break;
    }
    ses.dec.feed(buf, static_cast<std::size_t>(r));
  }
  Frame f;
  while (!ses.closed && ses.dec.next(f)) route_frame(ses, std::move(f));
  if (!ses.dec.error().empty()) {
    std::fprintf(stderr, "ipm_aggd: protocol error: %s\n",
                 ses.dec.error().c_str());
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    mark_closed(ses);
  } else if (eof) {
    // Bytes still pending after the drain are a truncated frame — rejected,
    // never partially applied (the decoder only yields complete frames).
    if (ses.dec.pending() > 0) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "ipm_aggd: connection dropped mid-frame (%zu bytes "
                   "discarded)\n",
                   ses.dec.pending());
    }
    mark_closed(ses);
  }
}

void Daemon::mark_closed(Session& ses) {
  if (ses.closed) return;
  ses.closed = true;
  // Deregister immediately: a dead fd left in the level-triggered epoll set
  // storms EPOLLHUP on every wait until the next reap pass, turning the IO
  // loop into a busy loop.  The fd itself is released by reap_sessions().
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, ses.fd, nullptr);
}

void Daemon::set_write_interest(Session& ses, bool on) {
  if (ses.want_write == on) return;
  ses.want_write = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.fd = ses.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, ses.fd, &ev);
}

void Daemon::flush_session(Session& ses) {
  if (ses.closed) return;
  // Idle fast path: nothing staged and no worker appended since the last
  // drain.  The flush pass runs over every session each wake, so this
  // check must not take the mutex.  (want_write implies wbuf non-empty,
  // so a session needing disarm never takes this branch.)
  if (ses.wbuf.empty() &&
      !ses.out->ready.load(std::memory_order_acquire)) {
    return;
  }
  ses.out->ready.store(false, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(ses.out->mu);
    if (!ses.out->buf.empty()) {
      if (ses.wbuf.empty()) {
        ses.wbuf = std::move(ses.out->buf);
      } else {
        ses.wbuf += ses.out->buf;
      }
      ses.out->buf.clear();
    }
  }
  if (ses.wbuf.empty()) {
    ses.blocked = false;
    set_write_interest(ses, false);
    return;
  }
  const long w = live::net::write_some(ses.fd, ses.wbuf.data(), ses.wbuf.size());
  if (w < 0) {
    mark_closed(ses);
    return;
  }
  if (w > 0) {
    ses.wbuf.erase(0, static_cast<std::size_t>(w));
    ses.blocked = false;
  }
  if (ses.wbuf.empty()) {
    ses.blocked = false;
    set_write_interest(ses, false);
    return;
  }
  if (!ses.blocked) {
    ses.blocked = true;
    ses.stall_since = Clock::now();
  }
  set_write_interest(ses, true);
  if (ses.wbuf.size() > opt_.session_outbuf_max) {
    std::fprintf(stderr,
                 "ipm_aggd: disconnecting stalled client (%zu outbound "
                 "bytes queued)\n",
                 ses.wbuf.size());
    stalled_disconnects_.fetch_add(1, std::memory_order_relaxed);
    mark_closed(ses);
  }
}

void Daemon::reap_sessions() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session& ses = *it->second;
    if (!ses.closed) {
      ++it;
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(ses.out->mu);
      ses.out->closed = true;  // workers stop appending replies
      ses.out->buf.clear();
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, ses.fd, nullptr);
    live::net::close_fd(ses.fd);
    it = sessions_.erase(it);
    prom_dirty_.store(true, std::memory_order_relaxed);
  }
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
        Job* job = nullptr;
        {
          const std::lock_guard<std::mutex> lock(jobs_mu_);
          const auto it = jobs_.find(t.job);
          if (it != jobs_.end()) job = it->second.get();
        }
        if (job != nullptr) {
          Work w;
          w.frame.type = FrameType::kJobEnd;
          w.frame.job = t.job;
          enqueue(*job, std::move(w));
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
        w.frame.type = FrameType::kSample;
        w.frame.rank = static_cast<std::uint32_t>(s.rank);
        w.frame.epoch = s.seq + 1;
        w.frame.job = t.job;
        w.frame.payload = line;
        const bool fin = s.final_flush;
        enqueue(job, std::move(w));
        if (fin) {
          Work wf;
          wf.frame.type = FrameType::kRankFin;
          wf.frame.rank = static_cast<std::uint32_t>(s.rank);
          wf.frame.epoch = 0;
          wf.frame.job = t.job;
          enqueue(job, std::move(wf));
        }
      }
      // Emitted points in the file are ignored: the daemon re-derives them.
    }
  }
}

void Daemon::maintenance() {
  const Clock::time_point now = Clock::now();
  // Stall budget + reap: O(sessions) scans, so run them at a bounded
  // cadence rather than on every epoll wake.  A closed session lingers at
  // most one period before its fd is released.
  if (now >= maint_next_) {
    maint_next_ = now + std::chrono::milliseconds(50);
    // Stall budget: a client that stopped reading gets disconnected, never
    // blocks the daemon.
    for (auto& [fd, ses] : sessions_) {
      if (ses->closed || !ses->blocked) continue;
      const auto stalled =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - ses->stall_since)
              .count();
      if (stalled > opt_.stall_ms) {
        std::fprintf(stderr,
                     "ipm_aggd: disconnecting stalled client (no write "
                     "progress for %lld ms)\n",
                     static_cast<long long>(stalled));
        stalled_disconnects_.fetch_add(1, std::memory_order_relaxed);
        mark_closed(*ses);
      }
    }
    reap_sessions();
  }
  // Fleet emission under the narrow merge mutex, rate-limited.
  if (now >= fleet_next_) {
    // Fleet intervals are >= 1 virtual second; checking at 100ms keeps
    // emission latency negligible while the O(fleet ranks) watermark scan
    // stays off the per-wake path.
    fleet_next_ = now + std::chrono::milliseconds(100);
    std::vector<live::ClusterPoint> pts;
    {
      const std::lock_guard<std::mutex> lock(fleet_mu_);
      if (fleet_any_) {
        if (fleet_live_dirty_) {
          fleet_live_vec_.assign(fleet_live_.begin(), fleet_live_.end());
          fleet_live_dirty_ = false;
        }
        fleet_.emit_due(fleet_live_vec_,
                        static_cast<int>(n_jobs_.load(std::memory_order_relaxed)),
                        pts);
        for (const live::ClusterPoint& p : pts) {
          fleet_out_ << live::point_line(p) << '\n';
        }
        if (!pts.empty()) fleet_out_.flush();
      }
    }
    if (!pts.empty()) prom_dirty_.store(true, std::memory_order_relaxed);
  }
  // Idle-job spill scan.
  if (opt_.spill_idle_ms > 0 && now >= spill_next_) {
    spill_next_ =
        now + std::chrono::milliseconds(std::max(opt_.spill_idle_ms / 2, 5));
    const std::int64_t cutoff = now_ms() - opt_.spill_idle_ms;
    const std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [id, job] : jobs_) {
      const std::int64_t la = job->last_active_ms.load(std::memory_order_relaxed);
      if (la == 0 || la == kInactive || la >= cutoff) continue;
      job->last_active_ms.store(kInactive, std::memory_order_relaxed);
      Work w;
      w.kind = Work::Kind::kSpill;
      enqueue(*job, std::move(w));
    }
  }
  // Exposition rewrite, rate-limited (the seed rewrote every dirty loop).
  if (prom_dirty_.load(std::memory_order_relaxed) && now >= prom_next_) {
    prom_next_ = now + std::chrono::milliseconds(
                           std::max(opt_.prom_interval_ms, 0));
    prom_dirty_.store(false, std::memory_order_relaxed);
    write_prom();
  }
}

void Daemon::write_prom() {
  prom_writes_.fetch_add(1, std::memory_order_relaxed);
  live::publish_exposition(prom_path_, [this](std::ostream& os) {
    char buf[64];
    const auto num = [&buf](double v) -> const char* {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return buf;
    };
    // Snapshot the job set (sorted by id, as the seed iterated its map).
    struct JobSnap {
      std::string id;
      PromSnap snap;
    };
    std::vector<JobSnap> per_job;
    {
      const std::lock_guard<std::mutex> lock(jobs_mu_);
      per_job.reserve(jobs_.size());
      for (const auto& [id, job] : jobs_) {
        const std::lock_guard<std::mutex> snap_lock(job->snap_mu);
        per_job.push_back({id, job->snap});
      }
    }
    os << "# HELP ipm_agg_jobs Jobs known to the aggregation daemon.\n"
          "# TYPE ipm_agg_jobs gauge\n"
       << "ipm_agg_jobs " << per_job.size() << '\n';
    os << "# HELP ipm_agg_jobs_ended Jobs that completed their stream.\n"
          "# TYPE ipm_agg_jobs_ended gauge\n"
       << "ipm_agg_jobs_ended " << jobs_ended_.load(std::memory_order_relaxed)
       << '\n';
    os << "# HELP ipm_agg_connections Open client connections.\n"
          "# TYPE ipm_agg_connections gauge\n"
       << "ipm_agg_connections " << sessions_.size() << '\n';
    os << "# HELP ipm_agg_protocol_errors_total Rejected frames/streams.\n"
          "# TYPE ipm_agg_protocol_errors_total counter\n"
       << "ipm_agg_protocol_errors_total "
       << protocol_errors_.load(std::memory_order_relaxed) << '\n';
    // Per-job metrics, grouped by metric name (one HELP/TYPE block, one
    // labelled sample per job — prom_items() has a fixed order).
    if (!per_job.empty()) {
      const std::size_t n_items = per_job.front().snap.items.size();
      for (std::size_t i = 0; i < n_items; ++i) {
        const live::PromItem& proto = per_job.front().snap.items[i];
        os << "# HELP " << proto.name << ' ' << proto.help << "\n# TYPE "
           << proto.name << (proto.counter ? " counter\n" : " gauge\n");
        for (const JobSnap& js : per_job) {
          os << proto.name << "{job=\"" << prom_escape(js.id) << "\"} "
             << num(js.snap.items[i].value) << '\n';
        }
      }
    }
    // Per-rank transport state (provenance through aggregation).
    struct RankMetric {
      const char* name;
      const char* help;
      bool counter;
      std::uint64_t RankState::*field;
    };
    static constexpr RankMetric kRankMetrics[] = {
        {"ipm_agg_rank_samples_total", "Sample frames applied per rank.", true,
         &RankState::samples},
        {"ipm_agg_rank_epoch", "Last applied frame epoch per rank.", false,
         &RankState::last_epoch},
        {"ipm_agg_rank_resent_total",
         "Duplicate frames deduplicated on resume.", true, &RankState::resent},
        {"ipm_agg_rank_drops_total",
         "Client-side snapshot drops reported at finalize.", true,
         &RankState::drops},
    };
    for (const RankMetric& m : kRankMetrics) {
      os << "# HELP " << m.name << ' ' << m.help << "\n# TYPE " << m.name
         << (m.counter ? " counter\n" : " gauge\n");
      for (const JobSnap& js : per_job) {
        for (const auto& [rank, rs] : js.snap.ranks) {
          os << m.name << "{job=\"" << prom_escape(js.id) << "\",rank=\""
             << rank << "\"} " << rs.*m.field << '\n';
        }
      }
    }
    // Sharded-daemon health counters (additions over the seed exposition).
    os << "# HELP ipm_agg_stalled_disconnects_total Sessions dropped for "
          "blowing the outbound stall budget.\n"
          "# TYPE ipm_agg_stalled_disconnects_total counter\n"
       << "ipm_agg_stalled_disconnects_total "
       << stalled_disconnects_.load(std::memory_order_relaxed) << '\n';
    os << "# HELP ipm_agg_spills_total Idle jobs whose JSONL stream was "
          "closed.\n"
          "# TYPE ipm_agg_spills_total counter\n"
       << "ipm_agg_spills_total " << spills_.load(std::memory_order_relaxed)
       << '\n';
    os << "# HELP ipm_agg_rehydrations_total Spilled jobs whose stream "
          "reopened on new traffic.\n"
          "# TYPE ipm_agg_rehydrations_total counter\n"
       << "ipm_agg_rehydrations_total "
       << rehydrations_.load(std::memory_order_relaxed) << '\n';
    os << "# HELP ipm_agg_worker_steals_total Batches run off their home "
          "worker.\n"
          "# TYPE ipm_agg_worker_steals_total counter\n"
       << "ipm_agg_worker_steals_total " << (pool_ ? pool_->steals() : 0)
       << '\n';
    os << "# HELP ipm_agg_workers Worker threads (0 = serial mode).\n"
          "# TYPE ipm_agg_workers gauge\n"
       << "ipm_agg_workers " << (pool_ ? pool_->size() : 0) << '\n';
  });
}

void Daemon::drain_outbounds() {
  // Best-effort post-drain flush so in-flight acks (e.g. JOB_END acks that
  // triggered the shutdown) reach their clients before run() returns.
  for (int round = 0; round < 200; ++round) {
    bool pending = false;
    bool progress = false;
    for (auto& [fd, ses] : sessions_) {
      if (ses->closed) continue;
      {
        const std::lock_guard<std::mutex> lock(ses->out->mu);
        if (!ses->out->buf.empty()) {
          ses->wbuf += ses->out->buf;
          ses->out->buf.clear();
        }
      }
      if (ses->wbuf.empty()) continue;
      const long w =
          live::net::write_some(ses->fd, ses->wbuf.data(), ses->wbuf.size());
      if (w < 0) {
        ses->closed = true;
        continue;
      }
      if (w > 0) {
        ses->wbuf.erase(0, static_cast<std::size_t>(w));
        progress = true;
      }
      if (!ses->wbuf.empty()) pending = true;
    }
    if (!pending) return;
    if (!progress) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Daemon::shutdown_flush() {
  // Post-drain: the pool is quiescent, so job state is safe to touch from
  // this thread (the drain gave us the happens-before edge).
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  for (auto& [id, job] : jobs_) {
    if (job->st.spilled) rehydrate_job(*job);  // reopen for the end line
    FleetBatch fb;
    end_job(*job, fb);
    fold_fleet(fb);
    update_snap(*job);
  }
  {
    const std::lock_guard<std::mutex> fleet_lock(fleet_mu_);
    std::vector<live::ClusterPoint> pts;
    fleet_.emit_all(static_cast<int>(jobs_.size()), pts);
    for (const live::ClusterPoint& p : pts) {
      fleet_out_ << live::point_line(p) << '\n';
    }
    fleet_out_ << live::end_line(fleet_.intervals_emitted()) << '\n';
    fleet_out_.flush();
  }
}

void Daemon::run() {
  std::vector<epoll_event> evs(128);
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, evs.data(),
                               static_cast<int>(evs.size()), kPollMs);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const int fd = evs[i].data.fd;
      if (fd == listen_fd_) {
        accept_pending();
      } else if (fd == event_fd_) {
        std::uint64_t drain = 0;
        while (::read(event_fd_, &drain, sizeof drain) > 0) {
        }
        wake_pending_.store(false, std::memory_order_release);
      } else {
        const auto it = sessions_.find(fd);
        if (it != sessions_.end()) {
          if ((evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
            read_session(*it->second);
          }
          // Serial mode appends replies inline during read_session, and a
          // blocked session wakes us with EPOLLOUT — either way only THIS
          // session can have new outbound bytes, so flush it directly.
          flush_session(*it->second);
        }
      }
    }
    // Pool mode: workers append replies asynchronously and signal via the
    // eventfd without telling us which session, so retry every one.
    if (pool_) {
      for (auto& [fd, ses] : sessions_) flush_session(*ses);
    }
    pump_tails();
    maintenance();
    if (opt_.exit_after_jobs > 0 &&
        jobs_ended_.load(std::memory_order_relaxed) >= opt_.exit_after_jobs) {
      break;
    }
    // Tail-only mode is done once every tailed stream ended.
    if (listen_fd_ < 0 && !tails_.empty()) {
      const bool all_done = std::all_of(tails_.begin(), tails_.end(),
                                        [](const Tail& t) { return t.done; });
      if (all_done) break;
    }
  }
  if (pool_) pool_->drain();
  drain_outbounds();
  shutdown_flush();
  write_prom();
  if (pool_) pool_->stop();
}

std::string Daemon::fleet_timeseries_path() const { return fleet_path_; }

std::string Daemon::job_timeseries_path(const std::string& job) const {
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? std::string() : it->second->ts_path;
}

std::vector<std::string> Daemon::job_ids() const {
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  std::vector<std::string> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(id);
  return out;
}

const std::map<std::uint32_t, RankState>* Daemon::job_ranks(
    const std::string& job) const {
  const std::lock_guard<std::mutex> lock(jobs_mu_);
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second->st.ranks;
}

}  // namespace ipm::aggd
