// LegacyDaemon (aggd_legacy.hpp): the pre-sharding single-threaded daemon
// core, kept byte-for-byte in behavior as the fleetgen benchmark baseline.
#include "ipm_aggd/aggd_legacy.hpp"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "aggd_util.hpp"
#include "ipm_live/live.hpp"
#include "simcommon/str.hpp"

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

LegacyDaemon::LegacyDaemon(Options opt)
    : opt_(std::move(opt)),
      fleet_(opt_.fleet_interval > 0.0 ? opt_.fleet_interval : 1.0) {}

LegacyDaemon::~LegacyDaemon() {
  for (const auto& s : sessions_) live::net::close_fd(s->fd);
  live::net::close_fd(listen_fd_);
}

bool LegacyDaemon::start(std::string& err) {
  prom_path_ = opt_.prom_path.empty() ? opt_.out_dir + "/ipm_agg.prom"
                                      : opt_.prom_path;
  fleet_path_ = opt_.out_dir + "/fleet_timeseries.jsonl";
  fleet_out_.open(fleet_path_, std::ios::trunc);
  if (!fleet_out_) {
    err = "cannot open " + fleet_path_;
    return false;
  }
  fleet_out_ << live::timeseries_header_line("fleet", fleet_.interval()) << '\n';
  if (!opt_.listen.empty()) {
    const live::net::Addr addr = live::net::parse_addr(opt_.listen);
    listen_fd_ = live::net::listen_fd(addr, err);
    if (listen_fd_ < 0) return false;
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
  write_prom();
  return true;
}

LegacyDaemon::Job& LegacyDaemon::get_job(const std::string& id,
                                         const std::string& command,
                                         double interval) {
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) return it->second;
  Job& job = jobs_[id];
  job.id = id;
  job.command = command;
  job.merger = std::make_unique<live::JobMerger>(interval > 0.0 ? interval : 1.0);
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
  job.out.open(job.ts_path, std::ios::trunc);
  if (!job.out) {
    std::fprintf(stderr, "ipm_aggd: cannot open %s\n", job.ts_path.c_str());
  } else {
    job.out << live::timeseries_header_line(command, job.merger->interval())
            << '\n';
  }
  prom_dirty_ = true;
  return job;
}

void LegacyDaemon::apply_sample(Job& job, std::uint32_t rank,
                                std::uint64_t epoch, live::Sample&& s,
                                const std::string& raw_line) {
  RankState& rs = job.ranks[rank];
  if (epoch <= rs.last_epoch) {  // resend of an applied frame: dedupe
    rs.resent += 1;
    return;
  }
  rs.last_epoch = epoch;
  rs.samples += 1;
  if (job.out) job.out << raw_line << '\n';
  job.merger->add_sample(s);
  s.rank = static_cast<int>(job.fleet_base + rank);
  fleet_.add_sample(s);
}

void LegacyDaemon::finalize_rank(Job& job, std::uint32_t rank,
                                 std::uint64_t epoch,
                                 const std::string& payload) {
  RankState& rs = job.ranks[rank];
  if (epoch != 0 && epoch <= rs.last_epoch && rs.finalized) {
    rs.resent += 1;
    return;
  }
  if (epoch > rs.last_epoch) rs.last_epoch = epoch;
  rs.finalized = true;
  if (!read_rank_fin_drops(payload, rs.drops)) protocol_errors_ += 1;
  job.merger->finalize_rank(static_cast<int>(rank));
  fleet_.finalize_rank(static_cast<int>(job.fleet_base + rank));
  prom_dirty_ = true;
}

void LegacyDaemon::emit_due(Job& job) {
  std::vector<int> live_ranks;
  for (const auto& [rank, rs] : job.ranks) {
    if (!rs.finalized) live_ranks.push_back(static_cast<int>(rank));
  }
  std::vector<live::ClusterPoint> pts;
  if (live_ranks.empty() && job.ranks.empty()) return;  // nothing seen yet
  job.merger->emit_due(live_ranks, static_cast<int>(job.ranks.size()), pts);
  if (pts.empty() || !job.out) return;
  for (const live::ClusterPoint& p : pts) job.out << live::point_line(p) << '\n';
  job.out.flush();
  prom_dirty_ = true;
}

void LegacyDaemon::emit_fleet_due(bool all) {
  std::vector<live::ClusterPoint> pts;
  if (all) {
    fleet_.emit_all(static_cast<int>(jobs_.size()), pts);
  } else {
    std::vector<int> live_ranks;
    bool any_seen = false;
    for (const auto& [id, job] : jobs_) {
      any_seen = any_seen || !job.ranks.empty();
      if (job.ended) continue;
      for (const auto& [rank, rs] : job.ranks) {
        if (!rs.finalized) {
          live_ranks.push_back(static_cast<int>(job.fleet_base + rank));
        }
      }
    }
    if (!any_seen) return;
    fleet_.emit_due(live_ranks, static_cast<int>(jobs_.size()), pts);
  }
  for (const live::ClusterPoint& p : pts) {
    fleet_out_ << live::point_line(p) << '\n';
  }
  if (!pts.empty()) {
    fleet_out_.flush();
    prom_dirty_ = true;
  }
}

void LegacyDaemon::end_job(Job& job) {
  if (job.ended) return;
  for (auto& [rank, rs] : job.ranks) {
    if (!rs.finalized) {
      rs.finalized = true;
      job.merger->finalize_rank(static_cast<int>(rank));
      fleet_.finalize_rank(static_cast<int>(job.fleet_base + rank));
    }
  }
  std::vector<live::ClusterPoint> pts;
  job.merger->emit_all(static_cast<int>(job.ranks.size()), pts);
  if (job.out) {
    for (const live::ClusterPoint& p : pts) {
      job.out << live::point_line(p) << '\n';
    }
    job.out << live::end_line(job.merger->intervals_emitted()) << '\n';
    job.out.flush();
  }
  job.ended = true;
  jobs_ended_ += 1;
  prom_dirty_ = true;
}

void LegacyDaemon::on_frame(Session& ses, const Frame& f) {
  switch (f.type) {
    case FrameType::kHello: {
      std::string command;
      double interval = 0.0;
      if (!read_hello(f.payload, command, interval)) protocol_errors_ += 1;
      Job& job = get_job(f.job, command, interval);
      // WELCOME: per-rank resume epochs, so the client prunes everything
      // already applied and resends only the rest.
      std::vector<std::pair<std::uint32_t, std::uint64_t>> epochs;
      epochs.reserve(job.ranks.size());
      for (const auto& [rank, rs] : job.ranks) {
        epochs.emplace_back(rank, rs.last_epoch);
      }
      Frame w;
      w.type = FrameType::kWelcome;
      w.job = f.job;
      w.payload = live::wire::welcome_payload(epochs);
      ses.outbuf += live::wire::encode(w);
      break;
    }
    case FrameType::kSample: {
      Job& job = get_job(f.job, "?", 0.0);
      live::Sample s;
      if (live::parse_sample_line(f.payload, s)) {
        apply_sample(job, f.rank, f.epoch, std::move(s), f.payload);
      } else {
        protocol_errors_ += 1;  // SAMPLE payload that is not a sample line
      }
      Frame a;
      a.type = FrameType::kAck;
      a.rank = f.rank;
      a.epoch = job.ranks[f.rank].last_epoch;
      a.job = f.job;
      ses.outbuf += live::wire::encode(a);
      break;
    }
    case FrameType::kRankFin: {
      Job& job = get_job(f.job, "?", 0.0);
      finalize_rank(job, f.rank, f.epoch, f.payload);
      Frame a;
      a.type = FrameType::kAck;
      a.rank = f.rank;
      a.epoch = job.ranks[f.rank].last_epoch;
      a.job = f.job;
      ses.outbuf += live::wire::encode(a);
      break;
    }
    case FrameType::kJobEnd: {
      const auto it = jobs_.find(f.job);
      if (it != jobs_.end()) end_job(it->second);
      Frame a;
      a.type = FrameType::kJobEndAck;
      a.job = f.job;
      ses.outbuf += live::wire::encode(a);
      break;
    }
    default:
      // Daemon-to-client types arriving here are a protocol violation.
      protocol_errors_ += 1;
      ses.closed = true;
      break;
  }
}

void LegacyDaemon::pump_session(Session& ses) {
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
  while (ses.dec.next(f)) on_frame(ses, f);
  if (!ses.dec.error().empty()) {
    std::fprintf(stderr, "ipm_aggd: protocol error: %s\n",
                 ses.dec.error().c_str());
    protocol_errors_ += 1;
    ses.closed = true;
  } else if (eof) {
    // Bytes still pending after the drain are a truncated frame — rejected,
    // never partially applied (the decoder only yields complete frames).
    if (ses.dec.pending() > 0) {
      protocol_errors_ += 1;
      std::fprintf(stderr,
                   "ipm_aggd: connection dropped mid-frame (%zu bytes "
                   "discarded)\n",
                   ses.dec.pending());
    }
    ses.closed = true;
  }
  if (!ses.outbuf.empty() && !ses.closed) {
    const long w =
        live::net::write_some(ses.fd, ses.outbuf.data(), ses.outbuf.size());
    if (w < 0) {
      ses.closed = true;
    } else {
      ses.outbuf.erase(0, static_cast<std::size_t>(w));
    }
  }
}

void LegacyDaemon::pump_tails() {
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
        if (it != jobs_.end()) end_job(it->second);
        t.done = true;
        break;
      }
      if (kind == live::LineKind::kRejected) {
        protocol_errors_ += 1;
      } else if (kind == live::LineKind::kHeader) {
        get_job(t.job, tmp.command, tmp.interval);
      } else if (kind == live::LineKind::kSample) {
        live::Sample& s = tmp.samples.front();
        Job& job = get_job(t.job, "?", 0.0);
        const auto rank = static_cast<std::uint32_t>(s.rank);
        const bool fin = s.final_flush;
        // The file carries no epochs; seq+1 is the same monotone epoch the
        // socket client derives, so resumed tails dedupe identically.
        apply_sample(job, rank, s.seq + 1, std::move(s), line);
        if (fin) finalize_rank(job, rank, 0, "");
      }
      // Emitted points in the file are ignored: the daemon re-derives them.
    }
  }
}

void LegacyDaemon::poll_once() {
  std::vector<pollfd> fds;
  fds.reserve(sessions_.size() + 1);
  if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& s : sessions_) {
    fds.push_back({s->fd,
                   static_cast<short>(POLLIN | (s->outbuf.empty() ? 0 : POLLOUT)),
                   0});
  }
  if (!fds.empty()) {
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollMs);
  }
  if (listen_fd_ >= 0) {
    for (;;) {
      const int fd = live::net::accept_fd(listen_fd_);
      if (fd < 0) break;
      auto ses = std::make_unique<Session>();
      ses->fd = fd;
      sessions_.push_back(std::move(ses));
    }
  }
  for (const auto& s : sessions_) pump_session(*s);
  std::erase_if(sessions_, [](const std::unique_ptr<Session>& s) {
    if (!s->closed) return false;
    live::net::close_fd(s->fd);
    return true;
  });
  pump_tails();
  for (auto& [id, job] : jobs_) {
    if (!job.ended) emit_due(job);
  }
  emit_fleet_due(/*all=*/false);
  if (prom_dirty_) {
    write_prom();
    prom_dirty_ = false;
  }
}

void LegacyDaemon::write_prom() {
  ++prom_writes_;
  const std::string tmp = prom_path_ + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return;
    char buf[64];
    const auto num = [&buf](double v) -> const char* {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return buf;
    };
    os << "# HELP ipm_agg_jobs Jobs known to the aggregation daemon.\n"
          "# TYPE ipm_agg_jobs gauge\n"
       << "ipm_agg_jobs " << jobs_.size() << '\n';
    os << "# HELP ipm_agg_jobs_ended Jobs that completed their stream.\n"
          "# TYPE ipm_agg_jobs_ended gauge\n"
       << "ipm_agg_jobs_ended " << jobs_ended_ << '\n';
    os << "# HELP ipm_agg_connections Open client connections.\n"
          "# TYPE ipm_agg_connections gauge\n"
       << "ipm_agg_connections " << sessions_.size() << '\n';
    os << "# HELP ipm_agg_protocol_errors_total Rejected frames/streams.\n"
          "# TYPE ipm_agg_protocol_errors_total counter\n"
       << "ipm_agg_protocol_errors_total " << protocol_errors_ << '\n';
    // Per-job metrics, grouped by metric name (one HELP/TYPE block, one
    // labelled sample per job — prom_items() has a fixed order).
    std::vector<std::pair<const Job*, std::vector<live::PromItem>>> per_job;
    per_job.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) {
      per_job.emplace_back(&job,
                           prom_items(*job.merger,
                                      static_cast<int>(job.ranks.size()),
                                      /*up=*/!job.ended));
    }
    if (!per_job.empty()) {
      const std::size_t n_items = per_job.front().second.size();
      for (std::size_t i = 0; i < n_items; ++i) {
        const live::PromItem& proto = per_job.front().second[i];
        os << "# HELP " << proto.name << ' ' << proto.help << "\n# TYPE "
           << proto.name << (proto.counter ? " counter\n" : " gauge\n");
        for (const auto& [job, items] : per_job) {
          os << proto.name << "{job=\"" << prom_escape(job->id) << "\"} "
             << num(items[i].value) << '\n';
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
      for (const auto& [id, job] : jobs_) {
        for (const auto& [rank, rs] : job.ranks) {
          os << m.name << "{job=\"" << prom_escape(id) << "\",rank=\"" << rank
             << "\"} " << rs.*m.field << '\n';
        }
      }
    }
  }
  std::rename(tmp.c_str(), prom_path_.c_str());
}

void LegacyDaemon::shutdown_flush() {
  for (auto& [id, job] : jobs_) end_job(job);
  emit_fleet_due(/*all=*/true);
  fleet_out_ << live::end_line(fleet_.intervals_emitted()) << '\n';
  fleet_out_.flush();
  write_prom();
}

void LegacyDaemon::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    poll_once();
    if (opt_.exit_after_jobs > 0 && jobs_ended_ >= opt_.exit_after_jobs) break;
    // Tail-only mode is done once every tailed stream ended.
    if (listen_fd_ < 0 && !tails_.empty()) {
      const bool all_done = std::all_of(tails_.begin(), tails_.end(),
                                        [](const Tail& t) { return t.done; });
      if (all_done) break;
    }
  }
  shutdown_flush();
}

std::string LegacyDaemon::fleet_timeseries_path() const { return fleet_path_; }

std::string LegacyDaemon::job_timeseries_path(const std::string& job) const {
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? std::string() : it->second.ts_path;
}

std::vector<std::string> LegacyDaemon::job_ids() const {
  std::vector<std::string> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(id);
  return out;
}

const std::map<std::uint32_t, RankState>* LegacyDaemon::job_ranks(
    const std::string& job) const {
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second.ranks;
}

}  // namespace ipm::aggd
