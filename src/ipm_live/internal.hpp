// Internals shared across ipm_live's sources: the publisher registry the
// publisher seam and the collector thread share, a delta's name, and the one
// scan of the sample-line grammar that parse_sample_line and
// fold_sample_line read with.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ipm_live/live.hpp"
#include "simcommon/jsonl.hpp"

namespace ipm::live {

class LivePublisher;

namespace detail {

/// A delta's name: its interned one, else name_str, which may be empty.
[[nodiscard]] inline const std::string& delta_name(const KeyDelta& d) {
  return d.name == kNoName ? d.name_str : name_of(d.name);
}

/// Process-wide publisher registry.  Every member is guarded by `mu`; the
/// collector holds `mu` for a whole scan, so removing/deleting a publisher
/// under `mu` can never race a drain.
struct Registry {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<LivePublisher*> pubs;  ///< attached + finalized-awaiting-drain
  bool collector_running = false;
  int attached_count = 0;  ///< publishers attached since collector_start
};

[[nodiscard]] Registry& registry();

/// The fixed fields that open a sample line.
struct SampleHead {
  int rank = 0;
  std::uint64_t seq = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  int final_flag = 0;
  double gf = 0.0;  ///< device flops, 0 when the line omits it
  double gb = 0.0;  ///< device bytes, 0 when the line omits it
};

/// One delta of a sample line, its name still escaped.
struct DeltaFields {
  simx::JsonlStr name;
  std::uint32_t region = 0;
  std::int32_t select = 0;
  std::uint64_t dcount = 0;
  std::uint64_t dbytes = 0;
  double dtsum = 0.0;
  double dflops = 0.0;  ///< 0 when the delta omits it
};

/// The sample_line() grammar, the only copy of it: reads the fields in the
/// writer's order and hands them to `sink` as it goes — sink.head(SampleHead)
/// once, then sink.region(JsonlStr) per region name, then
/// sink.delta(DeltaFields) per delta.  True when the line holds exactly the
/// bytes sample_line() writes; on false (a proper prefix included) the sink
/// may have seen part of the line.
template <typename Sink>
bool scan_sample_line(std::string_view line, Sink& sink) {
  simx::JsonlReader r(line);
  SampleHead h;
  if (!r.lit("{\"type\":\"sample\",\"rank\":") || !r.num(h.rank) ||
      !r.lit(",\"seq\":") || !r.num(h.seq) || !r.lit(",\"t0\":") ||
      !r.num(h.t0) || !r.lit(",\"t1\":") || !r.num(h.t1) ||
      !r.lit(",\"final\":") || !r.num(h.final_flag)) {
    return false;
  }
  if (r.lit(",\"gf\":") && !r.num(h.gf)) return false;
  if (r.lit(",\"gb\":") && !r.num(h.gb)) return false;
  sink.head(h);
  const auto region = [&] {
    simx::JsonlStr name;
    if (!r.str(name)) return false;
    sink.region(name);
    return true;
  };
  const auto delta = [&] {
    DeltaFields d;
    if (!r.lit("{\"n\":") || !r.str(d.name) || !r.lit(",\"r\":") ||
        !r.num(d.region) || !r.lit(",\"s\":") || !r.num(d.select) ||
        !r.lit(",\"c\":") || !r.num(d.dcount) || !r.lit(",\"b\":") ||
        !r.num(d.dbytes) || !r.lit(",\"t\":") || !r.num(d.dtsum)) {
      return false;
    }
    if (r.lit(",\"f\":") && !r.num(d.dflops)) return false;
    if (!r.lit("}")) return false;
    sink.delta(d);
    return true;
  };
  return r.lit(",\"regions\":[") && r.list(region) && r.lit(",\"deltas\":[") &&
         r.list(delta) && r.lit("}") && r.done();
}

}  // namespace detail
}  // namespace ipm::live
