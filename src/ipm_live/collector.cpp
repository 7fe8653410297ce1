// Consumer thread: drains every rank's sample channel and hands the
// samples to the configured SampleSink — the in-process collector below
// (JSONL time series + Prometheus exposition, merged by JobMerger) or the
// socket client streaming to an external `ipm_aggd` daemon (client.cpp).
// The collector keeps no file open: each consumer pass puts the lines it
// gathered on disk with one checked append (simx::append_stream), the
// daemon's rule for its streams.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "internal.hpp"
#include "ipm_live/live.hpp"
#include "ipm_live/merge.hpp"
#include "simcommon/jsonl.hpp"
#include "simcommon/outfile.hpp"

namespace ipm::live {

namespace detail {

Registry& registry() {
  static Registry* r = new Registry();  // immortal: ranks detach during TLS teardown
  return *r;
}

}  // namespace detail

namespace {

/// In-process sink: the PR-4 collector behavior.  Streams every sample to
/// the JSONL time-series file, merges them into ClusterPoints and rewrites
/// the single-job (unlabelled) exposition file each emitted batch.
class CollectorSink final : public SampleSink {
 public:
  CollectorSink(const Config& cfg, const std::string& command)
      : merger_(cfg.snapshot_interval),
        ts_path_(timeseries_path(cfg)),
        prom_path_(cfg.prom_path),
        header_(timeseries_header_line(command, cfg.snapshot_interval) + '\n') {
    try {  // create check: the first append writes the header
      simx::OutFile(ts_path_, simx::OutFile::Mode::kTruncate).close();
    } catch (const std::runtime_error&) {
      std::fprintf(stderr, "ipm: cannot open time-series file %s\n",
                   ts_path_.c_str());
      failed_ = true;
    }
  }

  [[nodiscard]] bool ok() const { return !failed_; }

  bool ready() override { return true; }

  void consume(Sample&& s) override {
    lines_.append(sample_line(s)) += '\n';
    merger_.add_sample(s);
  }

  void rank_finalized(int rank, std::uint64_t, std::uint64_t) override {
    merger_.finalize_rank(rank);
  }

  void tick(const std::vector<int>& live_ranks, int ranks_live) override {
    std::vector<ClusterPoint> pts;
    merger_.emit_due(live_ranks, ranks_live, pts);
    write_points(pts, ranks_live);
    append();  // the pass's lines
  }

  CollectorSummary finish(int ranks_live) override {
    std::vector<ClusterPoint> pts;
    merger_.emit_all(ranks_live, pts);
    write_points(pts, ranks_live);
    if (!prom_path_.empty()) write_prom(ranks_live, /*up=*/false);
    lines_.append(end_line(merger_.intervals_emitted())) += '\n';
    append();
    CollectorSummary sum;
    // An unwritten file is not referenced, as flush_trace does for trace
    // files: the banner says "(unwritten)" and the XML omits it.
    if (!failed_) sum.timeseries_file = ts_path_;
    sum.interval = merger_.interval();
    sum.intervals = merger_.intervals_emitted();
    return sum;
  }

 private:
  void write_points(const std::vector<ClusterPoint>& pts, int ranks_live) {
    if (pts.empty()) return;
    for (const ClusterPoint& p : pts) lines_.append(point_line(p)) += '\n';
    if (!prom_path_.empty()) write_prom(ranks_live, /*up=*/true);
  }

  /// Puts the gathered lines on disk in one checked append, so live
  /// consumers tail every pass; the first append, made once there is a line
  /// to write, begins with the header.  The first failure is printed and
  /// ends the stream: no later append, and the job references no file.
  void append() {
    if (!failed_ && !lines_.empty()) {
      if (!begun_) lines_.insert(0, header_);
      try {
        simx::append_stream(ts_path_, lines_, begun_);
      } catch (const std::runtime_error&) {
        std::fprintf(stderr, "ipm: time-series write failed for %s\n",
                     ts_path_.c_str());
        failed_ = true;
      }
    }
    lines_.clear();
  }

  void write_prom(int ranks_live, bool up) const {
    std::string text;
    simx::JsonlWriter w(text);
    for (const PromItem& it : prom_items(merger_, ranks_live, up)) {
      w.lit("# HELP ").lit(it.name).lit(" ").lit(it.help).lit("\n# TYPE ").lit(it.name);
      w.lit(it.counter ? " counter\n" : " gauge\n").lit(it.name).lit(" ").num(it.value);
      w.lit("\n");
    }
    publish_exposition(prom_path_, text);
  }

  JobMerger merger_;
  std::string ts_path_;
  std::string prom_path_;
  std::string header_;  ///< the first append's first line
  std::string lines_;   ///< gathered since the last append
  bool begun_ = false;  ///< the first append truncated the file
  bool failed_ = false; ///< the file could not be created or an append failed
};

struct ConsumerState {
  std::unique_ptr<SampleSink> sink;
  std::thread thr;
  bool stop_requested = false;  ///< guarded by registry().mu
  CollectorSummary summary;     ///< filled by the thread before it exits
};

std::unique_ptr<ConsumerState> g_state;

std::vector<int> live_ranks_of(const detail::Registry& reg) {
  std::vector<int> out;
  out.reserve(reg.pubs.size());
  for (const LivePublisher* pub : reg.pubs) {
    if (!pub->finalized()) out.push_back(pub->rank());
  }
  return out;
}

/// One consumer pass: pop what the sink will take, retire finalized
/// publishers (their drain bypasses backpressure — conservation over
/// buffering bounds), then let the sink make progress.  Registry lock held.
void scan(detail::Registry& reg, SampleSink& sink, bool drain_everything) {
  Sample s;
  for (auto it = reg.pubs.begin(); it != reg.pubs.end();) {
    LivePublisher* pub = *it;
    while ((drain_everything || sink.ready()) && pub->channel().pop(s)) {
      sink.consume(std::move(s));
    }
    if (pub->finalized()) {
      while (pub->channel().pop(s)) sink.consume(std::move(s));
      for (Sample& f : pub->final_overflow()) sink.consume(std::move(f));
      sink.rank_finalized(pub->rank(), pub->samples(), pub->drops());
      delete pub;
      it = reg.pubs.erase(it);
    } else {
      ++it;
    }
  }
  sink.tick(live_ranks_of(reg), reg.attached_count);
}

}  // namespace

void publish_exposition(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::trunc);
  if (os) os.write(text.data(), static_cast<std::streamsize>(text.size()));
  os.close();  // flushes: a full disk fails here, not at the last <<
  if (os && std::rename(tmp.c_str(), path.c_str()) == 0) return;
  std::fprintf(stderr, "ipm: cannot publish exposition %s\n", path.c_str());
  std::remove(tmp.c_str());
}

void collector_start(const Config& cfg, const std::string& command) {
  collector_stop();
  if (cfg.snapshot_interval <= 0.0) return;
  auto st = std::make_unique<ConsumerState>();
  if (!cfg.agg_addr.empty()) st->sink = make_socket_sink(cfg, command);
  if (st->sink == nullptr) {
    auto collector = std::make_unique<CollectorSink>(cfg, command);
    if (!collector->ok()) return;
    st->sink = std::move(collector);
  }
  detail::Registry& reg = detail::registry();
  {
    std::scoped_lock lk(reg.mu);
    reg.collector_running = true;
    reg.attached_count = static_cast<int>(reg.pubs.size());
  }
  g_state = std::move(st);
  g_state->thr = std::thread([] {
    ConsumerState& c = *g_state;
    detail::Registry& r = detail::registry();
    std::unique_lock lk(r.mu);
    while (!c.stop_requested) {
      scan(r, *c.sink, /*drain_everything=*/false);
      r.cv.wait_for(lk, std::chrono::milliseconds(2));
    }
    scan(r, *c.sink, /*drain_everything=*/true);
    c.summary = c.sink->finish(r.attached_count);
  });
}

CollectorSummary collector_stop() {
  detail::Registry& reg = detail::registry();
  {
    std::scoped_lock lk(reg.mu);
    if (!reg.collector_running) return {};
    g_state->stop_requested = true;
    reg.cv.notify_all();
  }
  g_state->thr.join();
  CollectorSummary sum = std::move(g_state->summary);
  {
    std::scoped_lock lk(reg.mu);
    reg.collector_running = false;
  }
  g_state.reset();
  return sum;
}

}  // namespace ipm::live
