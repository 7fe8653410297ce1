#include "ipm/monitor.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "ipm/report.hpp"
#include "ipm_live/live.hpp"

#include "faultsim/fault.hpp"
#include "simcommon/clock.hpp"
#include "simcommon/str.hpp"

namespace ipm {

namespace {

struct JobState {
  std::mutex mu;
  Config cfg;
  std::string command = "./a.out";
  std::vector<RankProfile> collected;
  double start = 0.0;
  double stop = 0.0;
};

JobState& job() {
  static JobState* s = new JobState();
  return *s;
}

/// Thread-local monitor owner: finalizes the rank automatically when the
/// thread (or the process's main thread) exits.  This runs during TLS
/// destruction — *before* function-local statics like the cudasim engine
/// are torn down — so finalize hooks (KTT drain) can still talk to the
/// runtime.  Critical for the LD_PRELOAD scenario, where nobody calls
/// MPI_Finalize explicitly.
struct TlsOwner {
  std::unique_ptr<Monitor> monitor;
  ~TlsOwner();
};

thread_local TlsOwner t_owner;
void report_job_at_exit();  // defined below (needs job())

/// The family a time_in/calls_in label names (kNone: no family).
Family family_named(const std::string& label) {
  static constexpr std::pair<std::string_view, Family> kLabels[] = {
      {"MPI", Family::kMpi},   {"CUDA", Family::kCuda},     {"GPU", Family::kGpu},
      {"IDLE", Family::kIdle}, {"CUBLAS", Family::kCublas}, {"CUFFT", Family::kCufft},
  };
  for (const auto& [name, family] : kLabels) {
    if (label == name) return family;
  }
  return Family::kNone;
}

}  // namespace

Family family_of(std::string_view name) noexcept {
  if (name.starts_with("MPI_")) return Family::kMpi;
  if (name.starts_with("@CUDA_EXEC")) return Family::kGpu;
  if (name.starts_with("@CUDA_HOST_IDLE")) return Family::kIdle;
  if (!name.starts_with("cu")) return Family::kNone;
  if (name.starts_with("cublas")) return Family::kCublas;
  if (name.starts_with("cufft")) return Family::kCufft;
  if (name.starts_with("cuda") || (name.size() > 2 && name[2] >= 'A' && name[2] <= 'Z')) {
    return Family::kCuda;
  }
  return Family::kNone;
}

double RankProfile::time_in(const std::string& family) const {
  const Family f = family_named(family);
  double total = 0.0;
  for (const EventRecord& e : events) {
    if (f != Family::kNone && family_of(e.name) == f) total += e.tsum;
  }
  return total;
}

std::uint64_t RankProfile::calls_in(const std::string& family) const {
  const Family f = family_named(family);
  std::uint64_t total = 0;
  for (const EventRecord& e : events) {
    if (f != Family::kNone && family_of(e.name) == f) total += e.count;
  }
  return total;
}

std::uint64_t JobProfile::snapshot_samples() const noexcept {
  std::uint64_t total = 0;
  for (const RankProfile& r : ranks) total += r.snapshot_samples;
  return total;
}

std::uint64_t JobProfile::snapshot_drops() const noexcept {
  std::uint64_t total = 0;
  for (const RankProfile& r : ranks) total += r.snapshot_drops;
  return total;
}

namespace {

[[noreturn]] void bad_env(const char* key, const char* v, const char* want) {
  throw std::runtime_error(std::string(key) + " must be " + want + ", got '" + v + "'");
}

/// A finite number >= 0.
double env_seconds(const char* key, const char* v) {
  try {
    const double x = simx::parse_double(v);
    if (std::isfinite(x) && x >= 0.0) return x;
  } catch (const std::runtime_error&) {
  }
  bad_env(key, v, "a finite number >= 0");
}

/// An integer in 0..UINT_MAX.
unsigned env_unsigned(const char* key, const char* v) {
  try {
    const std::int64_t n = simx::parse_i64(v);
    if (n >= 0 && n <= std::int64_t{UINT_MAX}) return static_cast<unsigned>(n);
  } catch (const std::runtime_error&) {
  }
  bad_env(key, v, "an integer in 0..4294967295");
}

}  // namespace

Config config_from_env(Config base) {
  const auto getenv_str = [](const char* key) -> const char* { return std::getenv(key); };
  if (const char* v = getenv_str("IPM_REPORT")) {
    base.banner_to_stdout = std::string(v) != "none";
  }
  if (const char* v = getenv_str("IPM_LOG")) base.log_path = v;
  if (const char* v = getenv_str("IPM_KERNEL_TIMING")) {
    base.kernel_timing = std::string(v) != "0";
  }
  if (const char* v = getenv_str("IPM_HOST_IDLE")) base.host_idle = std::string(v) != "0";
  if (const char* v = getenv_str("IPM_KTT_CORRECTION")) {
    base.ktt_overhead_correction = std::string(v) != "0";
  }
  if (const char* v = getenv_str("IPM_KTT_POLICY")) {
    const std::string p(v);
    if (p == "d2h") base.ktt_policy = KttPolicy::kOnD2HTransfer;
    else if (p == "every") base.ktt_policy = KttPolicy::kOnEveryCall;
    else if (p == "never") base.ktt_policy = KttPolicy::kNever;
    else throw std::runtime_error("IPM_KTT_POLICY must be d2h|every|never, got '" + p + "'");
  }
  if (const char* v = getenv_str("IPM_HASH_BITS")) {
    base.table_log2_slots = env_unsigned("IPM_HASH_BITS", v);
  }
  if (const char* v = getenv_str("IPM_TRACE")) base.trace = std::string(v) != "0";
  if (const char* v = getenv_str("IPM_TRACE_RECORDS")) {
    base.trace_log2_records = env_unsigned("IPM_TRACE_RECORDS", v);
  }
  if (const char* v = getenv_str("IPM_TRACE_PATH")) base.trace_path = v;
  if (const char* v = getenv_str("IPM_FAULT")) base.fault = v;
  if (const char* v = getenv_str("IPM_SNAPSHOT")) {
    base.snapshot_interval = env_seconds("IPM_SNAPSHOT", v);
  }
  if (const char* v = getenv_str("IPM_SNAPSHOT_SAMPLES")) {
    base.snapshot_log2_samples = env_unsigned("IPM_SNAPSHOT_SAMPLES", v);
  }
  if (const char* v = getenv_str("IPM_TIMESERIES")) base.timeseries_path = v;
  if (const char* v = getenv_str("IPM_PROM_FILE")) base.prom_path = v;
  if (const char* v = getenv_str("IPM_SNAPSHOT_ADAPTIVE")) {
    base.snapshot_adaptive = std::string(v) != "0";
  }
  if (const char* v = getenv_str("IPM_AGG_ADDR")) base.agg_addr = v;
  if (const char* v = getenv_str("IPM_JOB_ID")) base.job_id = v;
  if (const char* v = getenv_str("IPM_AGG_FLUSH_TIMEOUT")) {
    base.agg_flush_timeout = env_seconds("IPM_AGG_FLUSH_TIMEOUT", v);
  }
  if (const char* v = getenv_str("IPM_AGG_CHAOS_KILL_EVERY")) {
    base.agg_chaos_kill_every = env_unsigned("IPM_AGG_CHAOS_KILL_EVERY", v);
  }
  return base;
}

Monitor::Monitor(const Config& cfg)
    : cfg_(cfg), table_(cfg.table_log2_slots), start_(simx::virtual_now()) {
  if (cfg_.trace) trace_ring_ = std::make_unique<TraceRing>(cfg_.trace_log2_records);
  region_stack_.push_back(0);
  regions_.emplace_back("ipm_global");
  // Cache the owning rank's clock: the live due-check runs per event and
  // must not pay the thread-local context lookup.
  clock_ = &simx::current_context().clock;
  if (cfg_.snapshot_interval > 0.0) live::attach_rank(*this);
}

Monitor::~Monitor() {
  // A monitor destroyed without rank_finalize (job_begin dropping a stale
  // one) abandons its publisher: its samples reference a dying table.
  if (live_pub_ != nullptr) live::abandon_rank(*this);
  if (layer_data != nullptr && layer_data_deleter) layer_data_deleter(layer_data);
}

void Monitor::region_begin(const std::string& name) {
  // Reuse an existing region id for the same name (regions are usually
  // entered many times, e.g. once per timestep).
  std::uint32_t id = 0;
  const auto it = std::find(regions_.begin(), regions_.end(), name);
  if (it == regions_.end()) {
    id = static_cast<std::uint32_t>(regions_.size());
    regions_.push_back(name);
  } else {
    id = static_cast<std::uint32_t>(it - regions_.begin());
  }
  region_stack_.push_back(id);
}

void Monitor::region_end() {
  if (region_stack_.size() <= 1) {
    throw std::logic_error("ipm: region_end without matching region_begin");
  }
  region_stack_.pop_back();
}

void Monitor::add_finalize_hook(std::function<void()> hook) {
  finalize_hooks_.push_back(std::move(hook));
}

RankProfile Monitor::snapshot() const {
  RankProfile p;
  const simx::ExecContext& ec = simx::current_context();
  p.rank = ec.world_rank;
  p.hostname = ec.hostname;
  p.start = start_;
  p.stop = simx::virtual_now();
  p.mem_bytes = mem_bytes_;
  p.table_overflow = table_.overflow();
  if (trace_ring_ != nullptr) {
    p.trace_spans = trace_ring_->size();
    p.trace_drops = trace_ring_->drops();
  }
  p.regions = regions_;
  // Merge slots that differ only in bytes into one record per
  // (name, region, select); keep byte totals.
  std::map<std::tuple<NameId, std::uint32_t, std::int32_t>, EventRecord> merged;
  table_.for_each([&](const EventKey& key, const EventStats& st) {
    EventRecord& r = merged[{key.name, key.region, key.select}];
    if (r.count == 0) {
      r.name = name_of(key.name);
      r.region = key.region;
      r.select = key.select;
      r.tmin = st.tmin;
      r.tmax = st.tmax;
    } else {
      r.tmin = std::min(r.tmin, st.tmin);
      r.tmax = std::max(r.tmax, st.tmax);
    }
    r.count += st.count;
    r.tsum += st.tsum;
    r.bytes += key.bytes * st.count;
  });
  p.events.reserve(merged.size());
  for (auto& [k, rec] : merged) p.events.push_back(std::move(rec));
  // Ties on tsum break by name, region, select: NameId order would depend
  // on which rank thread interned a name first.
  std::sort(p.events.begin(), p.events.end(),
            [](const EventRecord& a, const EventRecord& b) {
              if (a.tsum != b.tsum) return a.tsum > b.tsum;
              return std::tie(a.name, a.region, a.select) <
                     std::tie(b.name, b.region, b.select);
            });
  return p;
}

void job_begin(const Config& cfg, const std::string& command) {
  // Drop a stale monitor from a previous experiment on this thread without
  // collecting it: its layer state may reference simulator handles that the
  // harness is about to tear down (cusim::configure invalidates streams and
  // events), so running finalize hooks here would be unsafe.
  t_owner.monitor.reset();
  // The CUDA layer installs its device-counter probe on the job's first
  // CUDA call; one left by an earlier job would run on every capture of a
  // job that makes none, against a simulator that may have been reset.
  live::set_gpu_probe(nullptr);
  // Install the job's fault spec (throws on a malformed programmatic spec;
  // IPM_FAULT from the environment is validated in configure_from_env).
  // An empty spec leaves the injector's current state alone.
  if (!cfg.fault.empty()) faultsim::configure(cfg.fault);
  // (Re)start the live collector; a collector left over from a previous
  // experiment is stopped either way.
  if (cfg.snapshot_interval > 0.0) {
    live::collector_start(cfg, command);
  } else {
    live::collector_stop();
  }
  JobState& s = job();
  std::scoped_lock lk(s.mu);
  s.cfg = cfg;
  s.command = command;
  s.collected.clear();
  s.start = 0.0;
  s.stop = 0.0;
}

const Config& job_config() { return job().cfg; }

Monitor* monitor() {
  if (!t_owner.monitor) {
    if (!job().cfg.enabled) return nullptr;
    t_owner.monitor = std::make_unique<Monitor>(job().cfg);
  }
  return t_owner.monitor.get();
}

bool has_monitor() { return static_cast<bool>(t_owner.monitor); }

TlsOwner::~TlsOwner() {
  if (!monitor) return;
  rank_finalize();
  if (job().cfg.report_at_exit) report_job_at_exit();
}

namespace {

/// Trace file prefix for a config: explicit trace_path, else derived from
/// the XML log path (profile.xml -> profile_trace), else "ipm_trace".
std::string trace_prefix(const Config& cfg) {
  if (!cfg.trace_path.empty()) return cfg.trace_path;
  if (!cfg.log_path.empty()) {
    std::string base = cfg.log_path;
    if (base.size() > 4 && base.compare(base.size() - 4, 4, ".xml") == 0) {
      base.resize(base.size() - 4);
    }
    return base + "_trace";
  }
  return "ipm_trace";
}

/// Write the rank's ring at finalize; records the file in the profile so
/// the XML log references it.  A failed flush loses the timeline (and the
/// reference), never the profile.
void flush_trace(Monitor& m, RankProfile& p) {
  const std::string path = trace_file_path(trace_prefix(m.config()), p.rank);
  try {
    write_trace_file(path, *m.trace_ring(), p);
    p.trace_file = path;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ipm: trace flush failed: %s\n", e.what());
  }
}

}  // namespace

void trace_lifecycle_marker(const PreparedKey& key) noexcept {
  // Markers are trace-only instants, never table events: a direct push.
  Monitor* m = has_monitor() ? monitor() : nullptr;
  if (m == nullptr || !m->tracing()) return;
  m->trace_ring()->push(TraceRecord{gettime(), 0.0, key.name, m->current_region(), 0, 0, 0,
                                    TraceKind::kMarker});
}

RankProfile rank_finalize() {
  Monitor* m = has_monitor() ? t_owner.monitor.get() : nullptr;
  if (m == nullptr) return RankProfile{};
  for (const auto& hook : m->finalize_hooks_) hook();
  // The finalize flush must see exactly the table the snapshot sees: hooks
  // ran above, and nothing updates the table between these two lines.
  if (m->live()) live::final_flush(*m);
  RankProfile p = m->snapshot();
  if (m->live()) live::detach_rank(*m, p);
  if (m->tracing()) flush_trace(*m, p);
  {
    JobState& s = job();
    std::scoped_lock lk(s.mu);
    s.collected.push_back(p);
    s.stop = std::max(s.stop, p.stop);
  }
  t_owner.monitor.reset();
  return p;
}

namespace {
void report_job_at_exit() {
  const Config cfg = job().cfg;
  const JobProfile jp = job_end();
  if (cfg.banner_to_stdout) {
    write_banner(std::cout, jp, {.max_rows = 24, .full = jp.nranks > 1});
    std::cout.flush();
  }
  if (cfg.log_path.empty()) return;
  // This runs in a thread-local destructor, where a throw terminates.
  try {
    write_xml_file(cfg.log_path, jp);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ipm: cannot write XML log: %s\n", e.what());
  }
}
}  // namespace

JobProfile job_end() {
  JobState& s = job();
  // A rank that never finalized (e.g. single-threaded example) is finalized
  // implicitly for the calling thread.
  if (has_monitor()) rank_finalize();
  JobProfile jp;
  const live::CollectorSummary cs = live::collector_stop();
  jp.timeseries_file = cs.timeseries_file;
  jp.snapshot_interval = cs.interval;
  jp.snapshot_intervals = cs.intervals;
  {
    std::scoped_lock lk(s.mu);
    jp.command = s.command;
    jp.ranks = s.collected;
    jp.stop = s.stop;
    s.collected.clear();
  }
  std::sort(jp.ranks.begin(), jp.ranks.end(),
            [](const RankProfile& a, const RankProfile& b) { return a.rank < b.rank; });
  jp.nranks = static_cast<int>(jp.ranks.size());
  double start = jp.ranks.empty() ? 0.0 : jp.ranks.front().start;
  for (const RankProfile& r : jp.ranks) start = std::min(start, r.start);
  jp.start = start;
  return jp;
}

double gettime() noexcept { return simx::virtual_now(); }

}  // namespace ipm
