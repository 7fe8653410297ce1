#include "ipm/trace.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "ipm/monitor.hpp"
#include "simcommon/jsonl.hpp"
#include "simcommon/str.hpp"

namespace ipm {

namespace {

constexpr unsigned kMinLog2 = 4;
constexpr unsigned kMaxLog2 = 24;  // 16M records ≈ 768 MB: the sane ceiling

/// The flush buffer is written out once it holds this much, so a flush
/// needs at most this plus one line of memory however long the trace.
constexpr std::size_t kFlushBytes = 64u << 10;

/// Output file whose every write and the close are checked: a full disk
/// fails the flush instead of leaving a silently truncated file (an
/// ofstream reports the last buffer's write error only to its destructor).
class OutFile {
 public:
  explicit OutFile(const std::string& path)
      : path_(path),
        fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666)) {
    if (fd_ < 0) fail("cannot open");
  }
  ~OutFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  OutFile(const OutFile&) = delete;
  OutFile& operator=(const OutFile&) = delete;

  void write(std::string_view buf) {
    while (!buf.empty()) {
      const ssize_t n = ::write(fd_, buf.data(), buf.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) fail("write failed for");
      buf.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  void close() {
    if (::close(std::exchange(fd_, -1)) != 0) fail("close failed for");
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    const std::string reason = std::strerror(errno);  // before anything resets errno
    throw std::runtime_error(std::string("ipm: ") + what + " trace file '" + path_ +
                             "': " + reason);
  }

  std::string path_;
  int fd_;
};

const char* kind_str(TraceKind k) {
  switch (k) {
    case TraceKind::kKernel: return "kernel";
    case TraceKind::kIdle: return "idle";
    case TraceKind::kMarker: return "marker";
    default: return "host";
  }
}

TraceKind kind_from(const std::string& s) {
  if (s == "kernel") return TraceKind::kKernel;
  if (s == "idle") return TraceKind::kIdle;
  if (s == "marker") return TraceKind::kMarker;
  return TraceKind::kHost;
}

/// Minimal field extraction from one flat JSON object line *we* wrote
/// (fixed key set, no nesting).  Returns false when the key is absent.
bool find_field(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    // String value: scan to the closing quote, stepping over escapes.
    std::size_t end = pos + 1;
    while (end < line.size() && line[end] != '"') end += line[end] == '\\' ? 2 : 1;
    if (end >= line.size()) return false;
    out = simx::json_unescape(std::string_view(line).substr(pos + 1, end - pos - 1));
  } else {
    std::size_t end = pos;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    out = simx::trim(std::string_view(line).substr(pos, end - pos));
  }
  return true;
}

double num_field(const std::string& line, const char* key, double fallback) {
  std::string v;
  return find_field(line, key, v) ? simx::parse_double(v) : fallback;
}

std::int64_t int_field(const std::string& line, const char* key, std::int64_t fallback) {
  std::string v;
  return find_field(line, key, v) ? simx::parse_i64(v) : fallback;
}

}  // namespace

TraceRing::TraceRing(unsigned log2_records) {
  const unsigned bits = std::clamp(log2_records, kMinLog2, kMaxLog2);
  cap_ = std::size_t{1} << bits;
  slots_ = std::make_unique<TraceRecord[]>(cap_);
}

std::string trace_file_path(const std::string& prefix, int rank) {
  return simx::strprintf("%s.rank%d.jsonl", prefix.c_str(), rank);
}

void write_trace_file(const std::string& path, const TraceRing& ring,
                      const RankProfile& p) {
  OutFile file(path);
  const std::size_t n = ring.size();
  std::string buf;
  buf.reserve(kFlushBytes + 1024);
  simx::JsonlWriter w(buf);
  w.lit("{\"ipm_trace\":1,\"rank\":").num(p.rank).lit(",\"host\":").str(p.hostname);
  w.lit(",\"start\":").num(p.start).lit(",\"stop\":").num(p.stop);
  w.lit(",\"drops\":").num(ring.drops()).lit(",\"spans\":").num(n).lit("}\n");
  // Names and regions are escaped once each, as the quoted strings the span
  // lines splice in.
  const auto quoted = [](std::string_view s) {
    std::string q;
    simx::JsonlWriter(q).str(s);
    return q;
  };
  std::vector<std::string> regions;
  for (const std::string& r : p.regions) regions.push_back(quoted(r));
  const std::string global = quoted("ipm_global");
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = ring[i];
    if (r.name >= names.size()) names.resize(r.name + std::size_t{1});
    std::string& name = names[r.name];
    if (name.empty()) name = quoted(name_of(r.name));
    // %.17g round-trips doubles, keeping the flushed trace conservation-exact
    // with the in-memory ring (the oracle tests rely on this).
    w.lit("{\"t0\":").num(r.t0).lit(",\"dur\":").num(r.dur).lit(",\"name\":").lit(name);
    w.lit(",\"region\":").lit(r.region < regions.size() ? regions[r.region] : global);
    w.lit(",\"bytes\":").num(r.bytes).lit(",\"select\":").num(r.select);
    // The err field is written only for failed calls, keeping the common
    // (successful) line format byte-identical to pre-error-tagging traces.
    if (r.err != 0) w.lit(",\"err\":").num(r.err);
    w.lit(",\"kind\":\"").lit(kind_str(r.kind)).lit("\"}\n");
    if (buf.size() >= kFlushBytes) {
      file.write(buf);
      buf.clear();
    }
  }
  file.write(buf);
  file.close();
}

RankTrace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ipm: cannot open trace file '" + path + "'");
  std::string line;
  if (!std::getline(in, line) || line.find("\"ipm_trace\":1") == std::string::npos) {
    throw std::runtime_error("ipm: '" + path + "' is not an IPM trace file");
  }
  RankTrace t;
  t.rank = static_cast<int>(int_field(line, "rank", 0));
  find_field(line, "host", t.hostname);
  t.start = num_field(line, "start", 0.0);
  t.stop = num_field(line, "stop", 0.0);
  t.drops = static_cast<std::uint64_t>(int_field(line, "drops", 0));
  while (std::getline(in, line)) {
    if (simx::trim(line).empty()) continue;
    TraceSpan s;
    if (!find_field(line, "name", s.name)) {
      throw std::runtime_error("ipm: malformed trace line in '" + path + "'");
    }
    find_field(line, "region", s.region);
    s.t0 = num_field(line, "t0", 0.0);
    s.dur = num_field(line, "dur", 0.0);
    s.bytes = static_cast<std::uint64_t>(int_field(line, "bytes", 0));
    s.select = static_cast<std::int32_t>(int_field(line, "select", 0));
    s.err = static_cast<std::int32_t>(int_field(line, "err", 0));
    std::string kind;
    find_field(line, "kind", kind);
    s.kind = kind_from(kind);
    t.spans.push_back(std::move(s));
  }
  return t;
}

}  // namespace ipm
