// SocketSink: streams per-rank delta samples to the out-of-process
// `ipm_aggd` aggregation daemon (wire.hpp protocol) with the conservation
// discipline intact across transport faults:
//
//  - Bounded buffering: ready() turns false while disconnected or while
//    the outbound/unacked buffers are full, so the consumer stops popping
//    the rank channels and the publishers' counted-drop coalescing takes
//    over.  A sample this sink *has* consumed is never dropped — the
//    publisher's mirror already advanced past it.
//  - Exponential-backoff reconnect (10ms doubling to 1s, real time).
//  - Epoch-based resume: every frame of a rank carries a strictly
//    increasing epoch; the daemon's WELCOME reports the last applied epoch
//    per rank, the client prunes acknowledged frames and resends the rest.
//    Resends are idempotent at the daemon, so a mid-run connection kill
//    never double-counts a delta.
//  - Finalize flush: rank-final samples are consumed bypassing ready()
//    (see collector.cpp) and finish() pumps until the daemon acknowledged
//    the whole stream or a real-time deadline expires, waiting on the
//    socket (or, while disconnected, until the next reconnect attempt).
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "ipm_live/live.hpp"
#include "ipm_live/net.hpp"
#include "ipm_live/wire.hpp"
#include "simcommon/str.hpp"

namespace ipm::live {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kOutboundBound = 256u << 10;  ///< bytes queued to write
constexpr std::size_t kUnackedBound = 1024;         ///< frames awaiting ack
constexpr std::chrono::milliseconds kBackoffMin{10};
constexpr std::chrono::milliseconds kBackoffMax{1000};

class SocketSink final : public SampleSink {
 public:
  SocketSink(net::Addr addr, const Config& cfg, const std::string& command)
      : addr_(std::move(addr)),
        job_(cfg.job_id.empty() ? simx::strprintf("job%d", getpid()) : cfg.job_id),
        command_(command),
        interval_(cfg.snapshot_interval),
        flush_timeout_(cfg.agg_flush_timeout),
        chaos_kill_every_(cfg.agg_chaos_kill_every) {}

  ~SocketSink() override { net::close_fd(fd_); }

  bool ready() override {
    return state_ == State::kStreaming && outbuf_.size() < kOutboundBound &&
           unacked_.size() < kUnackedBound;
  }

  void consume(Sample&& s) override {
    Pending p;
    p.rank = static_cast<std::uint32_t>(s.rank);
    p.epoch = next_epoch(p.rank);
    const std::string line = sample_line(s);
    p.bytes.reserve(4 + wire::kHeaderBytes + job_.size() + line.size());
    wire::encode_to(p.bytes, wire::FrameType::kSample, job_, p.rank, p.epoch, line);
    if (state_ == State::kStreaming) outbuf_ += p.bytes;
    unacked_.push_back(std::move(p));
    if (chaos_kill_every_ > 0 && ++chaos_count_ >= chaos_kill_every_) {
      chaos_count_ = 0;
      chaos_kill_pending_ = true;  // dropped once the queued bytes are out
    }
  }

  void rank_finalized(int rank, std::uint64_t samples,
                      std::uint64_t drops) override {
    Pending p;
    p.rank = static_cast<std::uint32_t>(rank);
    p.epoch = next_epoch(p.rank);
    wire::encode_to(p.bytes, wire::FrameType::kRankFin, job_, p.rank, p.epoch,
                    wire::rank_fin_payload(samples, drops));
    if (state_ == State::kStreaming) outbuf_ += p.bytes;
    unacked_.push_back(std::move(p));
  }

  void tick(const std::vector<int>&, int) override { pump(); }

  CollectorSummary finish(int) override {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(flush_timeout_));
    chaos_kill_every_ = 0;  // no injected faults during the flush handshake
    chaos_kill_pending_ = false;
    for (;;) {
      pump();
      if (state_ == State::kStreaming && outbuf_.empty() && unacked_.empty() &&
          !job_end_sent_) {
        wire::encode_to(outbuf_, wire::FrameType::kJobEnd, job_, 0, 0, {});
        job_end_sent_ = true;
        write_out();
      }
      if (job_end_acked_ || Clock::now() >= deadline) break;
      wait_io(deadline);
    }
    if (!job_end_acked_) {
      std::fprintf(stderr,
                   "ipm: aggregation flush to %s timed out (%zu frames not "
                   "acknowledged)\n",
                   addr_.str().c_str(), unacked_.size());
    }
    CollectorSummary sum;
    sum.interval = interval_;  // daemon owns the files: no local time series
    return sum;
  }

 private:
  enum class State { kDisconnected, kConnecting, kAwaitWelcome, kStreaming };

  /// One consumed-but-unacknowledged frame (resent after reconnect).
  struct Pending {
    std::uint32_t rank = 0;
    std::uint64_t epoch = 0;
    std::string bytes;
  };

  /// Epochs are strictly increasing per rank across samples *and* the
  /// finalize marker; the sample epoch seq+1 is preserved because samples
  /// arrive in seq order and nothing else claims epochs before the fin.
  std::uint64_t next_epoch(std::uint32_t rank) {
    return ++last_epoch_[rank];
  }

  void disconnect() {
    net::close_fd(fd_);
    fd_ = -1;
    dec_ = wire::Decoder();
    outbuf_.clear();  // rebuilt from unacked_ after the next WELCOME
    state_ = State::kDisconnected;
    retry_at_ = Clock::now() + backoff_;
    backoff_ = std::min<std::chrono::milliseconds>(backoff_ * 2, kBackoffMax);
    job_end_sent_ = false;  // resent once the stream is clean again
  }

  void on_frame(const wire::Frame& f) {
    switch (f.type) {
      case wire::FrameType::kWelcome: {
        // Prune everything the daemon already applied, resend the rest in
        // order, then resume streaming.
        std::map<std::uint32_t, std::uint64_t> resume;
        for (const auto& [rank, epoch] : wire::parse_welcome(f.payload)) {
          resume[rank] = epoch;
        }
        std::deque<Pending> keep;
        for (Pending& p : unacked_) {
          const auto it = resume.find(p.rank);
          if (it != resume.end() && p.epoch <= it->second) continue;
          keep.push_back(std::move(p));
        }
        unacked_.swap(keep);
        outbuf_.clear();
        for (const Pending& p : unacked_) outbuf_ += p.bytes;
        state_ = State::kStreaming;
        backoff_ = kBackoffMin;
        break;
      }
      case wire::FrameType::kAck: {
        std::erase_if(unacked_, [&](const Pending& p) {
          return p.rank == f.rank && p.epoch <= f.epoch;
        });
        break;
      }
      case wire::FrameType::kJobEndAck:
        job_end_acked_ = true;
        break;
      default:
        break;  // client never receives client->daemon frame types
    }
  }

  /// Block until the socket can make progress — a daemon frame, room for
  /// queued bytes, a finished connect — or, while disconnected, until the
  /// next reconnect attempt; never past `deadline`.
  void wait_io(Clock::time_point deadline) {
    const Clock::time_point now = Clock::now();
    if (state_ == State::kDisconnected) {
      std::this_thread::sleep_until(std::min(retry_at_, deadline));
      return;
    }
    pollfd pf{fd_, POLLIN, 0};
    if (state_ == State::kConnecting) {
      pf.events = POLLOUT;
    } else if (!outbuf_.empty()) {
      pf.events |= POLLOUT;
    }
    const auto ms = std::chrono::ceil<std::chrono::milliseconds>(deadline - now).count();
    ::poll(&pf, 1, static_cast<int>(std::clamp<decltype(ms)>(ms, 0, 60'000)));
  }

  /// Write as much of the queue as the socket takes.
  void write_out() {
    if (outbuf_.empty()) return;
    const long w = net::write_some(fd_, outbuf_.data(), outbuf_.size());
    if (w < 0) {
      disconnect();
      return;
    }
    outbuf_.erase(0, static_cast<std::size_t>(w));
  }

  void pump() {
    if (state_ == State::kDisconnected) {
      if (Clock::now() < retry_at_) return;
      fd_ = net::connect_fd(addr_);
      if (fd_ < 0) {
        disconnect();
        return;
      }
      state_ = State::kConnecting;
    }
    if (state_ == State::kConnecting) {
      pollfd pf{fd_, POLLOUT, 0};
      if (::poll(&pf, 1, 0) < 0 || (pf.revents & (POLLERR | POLLHUP)) != 0) {
        disconnect();
        return;
      }
      if ((pf.revents & POLLOUT) == 0) return;  // still connecting
      if (!net::connect_finished(fd_)) {
        disconnect();
        return;
      }
      outbuf_.clear();
      wire::encode_to(outbuf_, wire::FrameType::kHello, job_, 0, 0,
                      wire::hello_payload(command_, interval_));
      state_ = State::kAwaitWelcome;
    }
    // Read daemon frames (WELCOME / ACK / JOB_END_ACK).  Frames received in
    // the same batch as the EOF must still be applied — the daemon may ack
    // and close in one breath (e.g. --exit-after-jobs teardown).
    char buf[4096];
    bool eof = false;
    for (;;) {
      const long r = net::read_some(fd_, buf, sizeof buf);
      if (r == 0) break;
      if (r < 0) {
        eof = true;
        break;
      }
      dec_.feed(buf, static_cast<std::size_t>(r));
    }
    wire::Frame f;
    while (dec_.next(f)) on_frame(f);
    if (!dec_.error().empty() || eof) {
      disconnect();
      return;
    }
    write_out();
    if (chaos_kill_pending_ && state_ == State::kStreaming && outbuf_.empty()) {
      chaos_kill_pending_ = false;
      disconnect();
    }
  }

  net::Addr addr_;
  std::string job_;
  std::string command_;
  double interval_;
  double flush_timeout_;
  unsigned chaos_kill_every_;

  int fd_ = -1;
  State state_ = State::kDisconnected;
  wire::Decoder dec_;
  std::string outbuf_;
  std::deque<Pending> unacked_;
  std::map<std::uint32_t, std::uint64_t> last_epoch_;
  Clock::time_point retry_at_ = Clock::now();  ///< immediate first attempt
  std::chrono::milliseconds backoff_ = kBackoffMin;
  unsigned chaos_count_ = 0;
  bool chaos_kill_pending_ = false;
  bool job_end_sent_ = false;
  bool job_end_acked_ = false;
};

}  // namespace

std::unique_ptr<SampleSink> make_socket_sink(const Config& cfg,
                                             const std::string& command) {
  const net::Addr addr = net::parse_addr(cfg.agg_addr);
  if (!addr.valid()) {
    std::fprintf(stderr, "ipm: IPM_AGG_ADDR '%s' is not a valid address; "
                 "falling back to the in-process collector\n",
                 cfg.agg_addr.c_str());
    return nullptr;
  }
  return std::make_unique<SocketSink>(addr, cfg, command);
}

}  // namespace ipm::live
