#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ipm/report.hpp"
#include "simcommon/outfile.hpp"
#include "simcommon/str.hpp"
#include "simcommon/xml.hpp"

namespace ipm {

// %.17g round-trips doubles, so a profile parsed back from the log compares
// bit-exactly against folded telemetry (`ipm_parse --conserve`).
void write_xml(std::ostream& os, const JobProfile& job) {
  simx::xml::Writer w(os);
  w.open("ipm", {{"version", "2.0"},
                 {"command", job.command},
                 {"nranks", std::to_string(job.nranks)},
                 {"start", simx::strprintf("%.17g", job.start)},
                 {"stop", simx::strprintf("%.17g", job.stop)}});
  for (const RankProfile& r : job.ranks) {
    std::vector<std::pair<std::string, std::string>> attrs{
        {"rank", std::to_string(r.rank)},
        {"host", r.hostname},
        {"start", simx::strprintf("%.17g", r.start)},
        {"stop", simx::strprintf("%.17g", r.stop)},
        {"mem_bytes", std::to_string(r.mem_bytes)},
        {"overflow", std::to_string(r.table_overflow)}};
    if (!r.trace_file.empty() || r.trace_drops != 0) {
      attrs.emplace_back("trace", r.trace_file);
      attrs.emplace_back("trace_spans", std::to_string(r.trace_spans));
      attrs.emplace_back("trace_drops", std::to_string(r.trace_drops));
    }
    if (r.snapshot_samples != 0 || r.snapshot_drops != 0) {
      attrs.emplace_back("snapshot_samples", std::to_string(r.snapshot_samples));
      attrs.emplace_back("snapshot_drops", std::to_string(r.snapshot_drops));
    }
    w.open("task", attrs);
    // Group events per region so the log mirrors IPM's region structure.
    for (std::uint32_t region = 0; region < r.regions.size(); ++region) {
      bool any = false;
      for (const EventRecord& e : r.events) {
        if (e.region == region) {
          any = true;
          break;
        }
      }
      if (!any && region != 0) continue;
      w.open("region", {{"id", std::to_string(region)}, {"name", r.regions[region]}});
      for (const EventRecord& e : r.events) {
        if (e.region != region) continue;
        w.leaf("func", {{"name", e.name},
                        {"count", std::to_string(e.count)},
                        {"tsum", simx::strprintf("%.17g", e.tsum)},
                        {"tmin", simx::strprintf("%.17g", e.tmin)},
                        {"tmax", simx::strprintf("%.17g", e.tmax)},
                        {"bytes", std::to_string(e.bytes)},
                        {"select", std::to_string(e.select)}});
      }
      w.close();
    }
    w.close();
  }
  // Informational job-wide error summary (count per call per error code).
  // The parser derives the same summary from the `name[ERR=slug]` func
  // entries, so this section round-trips without being parsed itself.
  // Live telemetry reference: where the cluster time series went and how
  // many intervals / per-rank samples it holds.
  if (!job.timeseries_file.empty()) {
    w.leaf("timeseries",
           {{"file", job.timeseries_file},
            {"interval", simx::strprintf("%.17g", job.snapshot_interval)},
            {"intervals", std::to_string(job.snapshot_intervals)},
            {"samples", std::to_string(job.snapshot_samples())},
            {"drops", std::to_string(job.snapshot_drops())}});
  }
  const std::vector<ErrorRow> errs = error_summary(job);
  if (!errs.empty()) {
    std::uint64_t failed = 0;
    for (const ErrorRow& e : errs) failed += e.count;
    w.open("errors", {{"failed", std::to_string(failed)}});
    for (const ErrorRow& e : errs) {
      w.leaf("error", {{"call", e.name},
                       {"code", e.err},
                       {"count", std::to_string(e.count)},
                       {"tsum", simx::strprintf("%.17g", e.tsum)}});
    }
    w.close();
  }
  w.finish();
}

void write_xml_file(const std::string& path, const JobProfile& job) {
  // Rendered first, then written and closed with every step checked, so a
  // full disk throws instead of leaving a truncated log.
  std::ostringstream doc;
  write_xml(doc, job);
  simx::OutFile file(path, simx::OutFile::Mode::kTruncate);
  file.write(doc.view());
  file.close();
}

JobProfile parse_xml(const std::string& doc) {
  const auto root = simx::xml::parse(doc);
  if (root->name != "ipm") throw std::runtime_error("ipm: not an IPM XML log");
  JobProfile job;
  job.command = root->attr_or("command", "./a.out");
  job.start = simx::parse_double(root->attr_or("start", "0"));
  job.stop = simx::parse_double(root->attr_or("stop", "0"));
  for (const auto* task : root->children_named("task")) {
    RankProfile r;
    r.rank = static_cast<int>(simx::parse_i64(task->attr("rank")));
    r.hostname = task->attr_or("host", "unknown");
    r.start = simx::parse_double(task->attr_or("start", "0"));
    r.stop = simx::parse_double(task->attr_or("stop", "0"));
    r.mem_bytes = static_cast<std::uint64_t>(simx::parse_i64(task->attr_or("mem_bytes", "0")));
    r.table_overflow =
        static_cast<std::uint64_t>(simx::parse_i64(task->attr_or("overflow", "0")));
    r.trace_file = task->attr_or("trace", "");
    r.trace_spans =
        static_cast<std::uint64_t>(simx::parse_i64(task->attr_or("trace_spans", "0")));
    r.trace_drops =
        static_cast<std::uint64_t>(simx::parse_i64(task->attr_or("trace_drops", "0")));
    r.snapshot_samples = static_cast<std::uint64_t>(
        simx::parse_i64(task->attr_or("snapshot_samples", "0")));
    r.snapshot_drops = static_cast<std::uint64_t>(
        simx::parse_i64(task->attr_or("snapshot_drops", "0")));
    for (const auto* region : task->children_named("region")) {
      const auto id = static_cast<std::uint32_t>(simx::parse_i64(region->attr("id")));
      while (r.regions.size() <= id) r.regions.emplace_back("ipm_global");
      r.regions[id] = region->attr_or("name", "ipm_global");
      for (const auto* func : region->children_named("func")) {
        EventRecord e;
        e.name = func->attr("name");
        e.region = id;
        e.count = static_cast<std::uint64_t>(simx::parse_i64(func->attr("count")));
        e.tsum = simx::parse_double(func->attr("tsum"));
        e.tmin = simx::parse_double(func->attr_or("tmin", "0"));
        e.tmax = simx::parse_double(func->attr_or("tmax", "0"));
        e.bytes = static_cast<std::uint64_t>(simx::parse_i64(func->attr_or("bytes", "0")));
        e.select = static_cast<std::int32_t>(simx::parse_i64(func->attr_or("select", "0")));
        r.events.push_back(std::move(e));
      }
    }
    job.ranks.push_back(std::move(r));
  }
  for (const auto* ts : root->children_named("timeseries")) {
    job.timeseries_file = ts->attr_or("file", "");
    job.snapshot_interval = simx::parse_double(ts->attr_or("interval", "0"));
    job.snapshot_intervals =
        static_cast<std::uint64_t>(simx::parse_i64(ts->attr_or("intervals", "0")));
  }
  job.nranks = static_cast<int>(job.ranks.size());
  return job;
}

JobProfile parse_xml_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ipm: cannot open XML log '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_xml(ss.str());
}

}  // namespace ipm
