#include "ipm/trace.hpp"

#include <algorithm>
#include <bit>
#include <concepts>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "ipm/monitor.hpp"
#include "simcommon/outfile.hpp"
#include "simcommon/str.hpp"

namespace ipm {

namespace {

constexpr unsigned kMinLog2 = 4;
constexpr unsigned kMaxLog2 = 24;  // 16M records ≈ 768 MB: the sane ceiling

/// The flush buffer is written out once it holds this much, so a flush
/// needs at most this plus one record of memory however long the trace.
constexpr std::size_t kFlushBytes = 64u << 10;

constexpr char kMagic[8] = {'I', 'P', 'M', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;
/// One span on disk: t0, dur, name index, region index, bytes, select, err,
/// kind — each field stored on its own, so no padding reaches the file.
constexpr std::size_t kRecordBytes = 8 + 8 + 4 + 4 + 8 + 4 + 4 + 1;

/// Little-endian byte order, one byte at a time: the file reads the same on
/// any host, and compilers fold each loop into one plain load or store.
template <std::unsigned_integral T>
char* put_le(char* p, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<char>(v >> (8 * i));
  return p + sizeof(T);
}

template <std::unsigned_integral T>
void append_le(std::string& out, T v) {
  char b[sizeof(T)];
  put_le(b, v);
  out.append(b, sizeof b);
}

void append_str(std::string& out, std::string_view s) {
  append_le(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked cursor over a whole trace file: every read that would run
/// past the end throws instead.
class Reader {
 public:
  Reader(std::string_view data, const std::string& path) : rest_(data), path_(path) {}

  [[nodiscard]] std::size_t left() const noexcept { return rest_.size(); }

  [[nodiscard]] std::string_view bytes(std::size_t n) {
    if (n > rest_.size()) fail("is truncated");
    const std::string_view out = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return out;
  }

  template <std::unsigned_integral T>
  [[nodiscard]] T le() {
    const std::string_view b = bytes(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return v;
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(le<std::uint64_t>()); }
  [[nodiscard]] std::string str() { return std::string(bytes(le<std::uint32_t>())); }

  /// A table of `u32 count` strings; the count is checked against the bytes
  /// left (each entry needs at least its length) before anything is reserved.
  [[nodiscard]] std::vector<std::string> table() {
    const std::uint32_t n = le<std::uint32_t>();
    if (n > left() / sizeof(std::uint32_t)) fail("is truncated");
    std::vector<std::string> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(str());
    return out;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("ipm: '" + path_ + "' " + what);
  }

 private:
  std::string_view rest_;
  const std::string& path_;
};

}  // namespace

TraceRing::TraceRing(unsigned log2_records) {
  const unsigned bits = std::clamp(log2_records, kMinLog2, kMaxLog2);
  cap_ = std::size_t{1} << bits;
  slots_ = std::make_unique<TraceRecord[]>(cap_);
}

std::string trace_file_path(const std::string& prefix, int rank) {
  return simx::strprintf("%s.rank%d.ipmt", prefix.c_str(), rank);
}

void write_trace_file(const std::string& path, const TraceRing& ring,
                      const RankProfile& p) {
  simx::OutFile file(path, simx::OutFile::Mode::kTruncate);
  const std::size_t n = ring.size();
  // The name table holds only the NameIds the ring references, in first-use
  // order.
  constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> name_index;  // NameId -> name table index
  std::vector<NameId> names;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = ring[i];
    if (r.name >= name_index.size()) name_index.resize(r.name + std::size_t{1}, kAbsent);
    if (name_index[r.name] == kAbsent) {
      name_index[r.name] = static_cast<std::uint32_t>(names.size());
      names.push_back(r.name);
    }
  }
  // The region table ends with the global region, which also stands for any
  // region id the profile does not name.
  const auto global = static_cast<std::uint32_t>(p.regions.size());

  std::string buf;
  buf.reserve(kFlushBytes + kRecordBytes);
  buf.append(kMagic, sizeof kMagic);
  append_le(buf, kVersion);
  append_le(buf, static_cast<std::uint32_t>(p.rank));
  append_str(buf, p.hostname);
  append_le(buf, std::bit_cast<std::uint64_t>(p.start));
  append_le(buf, std::bit_cast<std::uint64_t>(p.stop));
  append_le(buf, ring.drops());
  append_le(buf, static_cast<std::uint64_t>(n));
  append_le(buf, global + 1);
  for (const std::string& r : p.regions) append_str(buf, r);
  append_str(buf, "ipm_global");
  append_le(buf, static_cast<std::uint32_t>(names.size()));
  for (const NameId id : names) append_str(buf, name_of(id));
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = ring[i];
    // t0 and dur travel as their IEEE-754 bits, keeping the flushed trace
    // conservation-exact with the in-memory ring (the oracle tests rely on
    // this).
    char rec[kRecordBytes];
    char* q = put_le(rec, std::bit_cast<std::uint64_t>(r.t0));
    q = put_le(q, std::bit_cast<std::uint64_t>(r.dur));
    q = put_le(q, name_index[r.name]);
    q = put_le(q, r.region < global ? r.region : global);
    q = put_le(q, r.bytes);
    q = put_le(q, static_cast<std::uint32_t>(r.select));
    q = put_le(q, static_cast<std::uint32_t>(r.err));
    put_le(q, static_cast<std::uint8_t>(r.kind));
    buf.append(rec, kRecordBytes);
    if (buf.size() >= kFlushBytes) {
      file.write(buf);
      buf.clear();
    }
  }
  file.write(buf);
  file.close();
}

RankTrace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ipm: cannot open trace file '" + path + "'");
  std::ostringstream content;
  content << in.rdbuf();
  if (in.bad()) throw std::runtime_error("ipm: cannot read trace file '" + path + "'");
  const std::string data = std::move(content).str();

  Reader r(data, path);
  if (r.left() < sizeof kMagic ||
      r.bytes(sizeof kMagic) != std::string_view(kMagic, sizeof kMagic)) {
    r.fail("is not an IPM trace file");
  }
  if (const auto version = r.le<std::uint32_t>(); version != kVersion) {
    r.fail("has unsupported trace format version " + std::to_string(version));
  }
  RankTrace t;
  t.rank = static_cast<int>(r.le<std::uint32_t>());
  t.hostname = r.str();
  t.start = r.f64();
  t.stop = r.f64();
  t.drops = r.le<std::uint64_t>();
  const auto spans = r.le<std::uint64_t>();
  const std::vector<std::string> regions = r.table();
  const std::vector<std::string> names = r.table();
  if (r.left() % kRecordBytes != 0 || r.left() / kRecordBytes != spans) {
    r.fail("does not hold the " + std::to_string(spans) + " spans its header counts");
  }
  t.spans.reserve(spans);
  for (std::uint64_t i = 0; i < spans; ++i) {
    TraceSpan s;
    s.t0 = r.f64();
    s.dur = r.f64();
    const auto name = r.le<std::uint32_t>();
    const auto region = r.le<std::uint32_t>();
    if (name >= names.size() || region >= regions.size()) {
      r.fail("has a span whose name or region is not in its tables");
    }
    s.name = names[name];
    s.region = regions[region];
    s.bytes = r.le<std::uint64_t>();
    s.select = static_cast<std::int32_t>(r.le<std::uint32_t>());
    s.err = static_cast<std::int32_t>(r.le<std::uint32_t>());
    const auto kind = r.le<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(TraceKind::kMarker)) {
      r.fail("has a span of unknown kind " + std::to_string(kind));
    }
    s.kind = static_cast<TraceKind>(kind);
    t.spans.push_back(std::move(s));
  }
  return t;
}

}  // namespace ipm
