#include "ipm_parse/export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>

#include "ipm/monitor.hpp"
#include "ipm/report.hpp"
#include "simcommon/str.hpp"
#include "simcommon/xml.hpp"

namespace ipm_parse {

namespace {

/// Branch of the call tree an event belongs to (the CUBE view of Fig. 9
/// groups the GPU kernel pseudo-events above the MPI hierarchy).
std::string branch_of(const std::string& name) {
  switch (ipm::family_of(name)) {
    case ipm::Family::kGpu: return "GPU kernels";
    case ipm::Family::kIdle: return "GPU host idle";
    case ipm::Family::kMpi: return "MPI";
    case ipm::Family::kCublas: return "CUBLAS";
    case ipm::Family::kCufft: return "CUFFT";
    default: return "CUDA";
  }
}

}  // namespace

void write_html(std::ostream& os, const ipm::JobProfile& job) {
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  os << "<title>IPM profile: " << simx::xml::escape(job.command) << "</title>\n";
  os << "<style>body{font-family:monospace}table{border-collapse:collapse}"
        "td,th{border:1px solid #999;padding:2px 8px;text-align:right}"
        "td:first-child,th:first-child{text-align:left}</style></head><body>\n";
  os << "<h1>IPM profile</h1>\n<p>command: <b>" << simx::xml::escape(job.command)
     << "</b> &mdash; " << job.nranks << " MPI tasks</p>\n";
  os << "<h2>Job function table</h2>\n<table><tr><th>name</th><th>time [s]</th>"
        "<th>count</th><th>%wall</th></tr>\n";
  for (const ipm::FuncRow& row : ipm::function_table(job)) {
    os << "<tr><td>" << simx::xml::escape(row.name) << "</td><td>"
       << simx::strprintf("%.3f", row.tsum) << "</td><td>" << row.count << "</td><td>"
       << simx::strprintf("%.2f", row.pct_wall) << "</td></tr>\n";
  }
  os << "</table>\n<h2>Per-task wallclock</h2>\n<table><tr><th>rank</th><th>host</th>"
        "<th>wallclock [s]</th></tr>\n";
  for (const ipm::RankProfile& r : job.ranks) {
    os << "<tr><td>" << r.rank << "</td><td>" << simx::xml::escape(r.hostname)
       << "</td><td>" << simx::strprintf("%.3f", r.wallclock()) << "</td></tr>\n";
  }
  os << "</table>\n";

  // Per-region breakdown (MPI_Pcontrol regions), aggregated over ranks.
  struct RegionAgg {
    double tsum = 0.0;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::string, RegionAgg> regions;
  double wall_total = 0.0;
  for (const ipm::RankProfile& r : job.ranks) {
    wall_total += r.wallclock();
    for (const ipm::EventRecord& e : r.events) {
      const std::string rname =
          e.region < r.regions.size() ? r.regions[e.region] : "ipm_global";
      RegionAgg& a = regions[rname];
      a.tsum += e.tsum;
      a.count += e.count;
      a.bytes += e.bytes * e.count;
    }
  }
  if (regions.size() > 1) {
    os << "<h2>Regions</h2>\n<table><tr><th>region</th><th>time [s]</th>"
          "<th>count</th><th>bytes</th><th>%wall</th></tr>\n";
    for (const auto& [rname, a] : regions) {
      os << "<tr><td>" << simx::xml::escape(rname) << "</td><td>"
         << simx::strprintf("%.3f", a.tsum) << "</td><td>" << a.count << "</td><td>"
         << a.bytes << "</td><td>"
         << simx::strprintf("%.2f", wall_total > 0.0 ? 100.0 * a.tsum / wall_total : 0.0)
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  // Failed calls (the banner's `errors` block), when any were recorded.
  const std::vector<ipm::ErrorRow> errs = ipm::error_summary(job);
  if (!errs.empty()) {
    os << "<h2>Errors</h2>\n<table><tr><th>call</th><th>error</th><th>count</th>"
          "<th>time [s]</th></tr>\n";
    for (const ipm::ErrorRow& e : errs) {
      os << "<tr><td>" << simx::xml::escape(e.name) << "</td><td>"
         << simx::xml::escape(e.err) << "</td><td>" << e.count << "</td><td>"
         << simx::strprintf("%.3f", e.tsum) << "</td></tr>\n";
    }
    os << "</table>\n";
  }
  os << "</body></html>\n";
}

void write_html_file(const std::string& path, const ipm::JobProfile& job) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("ipm_parse: cannot open '" + path + "'");
  write_html(out, job);
}

void write_cube(std::ostream& os, const ipm::JobProfile& job) {
  simx::xml::Writer w(os);
  w.open("cube", {{"version", "3.0"}, {"generator", "ipm_parse"}});

  // Metric tree.
  w.open("metrics");
  w.leaf("metric", {{"id", "0"}, {"name", "time"}, {"uom", "sec"}});
  w.leaf("metric", {{"id", "1"}, {"name", "count"}, {"uom", "occ"}});
  w.leaf("metric", {{"id", "2"}, {"name", "bytes"}, {"uom", "bytes"}});
  w.close();

  // Call tree: branch -> event name.  Collect the union over ranks.
  std::map<std::string, std::set<std::string>> tree;
  for (const auto& r : job.ranks) {
    for (const auto& e : r.events) tree[branch_of(e.name)].insert(e.name);
  }
  std::map<std::string, int> cnode_ids;
  int next_id = 0;
  w.open("program");
  for (const auto& [branch, names] : tree) {
    w.open("cnode", {{"id", std::to_string(next_id)}, {"name", branch}});
    cnode_ids[branch] = next_id++;
    for (const std::string& name : names) {
      w.leaf("cnode", {{"id", std::to_string(next_id)}, {"name", name}});
      cnode_ids[name] = next_id++;
    }
    w.close();
  }
  w.close();

  // System tree: node -> rank.
  w.open("system");
  std::map<std::string, std::vector<const ipm::RankProfile*>> by_host;
  for (const auto& r : job.ranks) by_host[r.hostname].push_back(&r);
  for (const auto& [host, ranks] : by_host) {
    w.open("node", {{"name", host}});
    for (const auto* r : ranks) {
      w.leaf("process", {{"rank", std::to_string(r->rank)}});
    }
    w.close();
  }
  w.close();

  // Severity matrix: one row per (metric, cnode, rank) with nonzero value.
  w.open("severity");
  for (const auto& r : job.ranks) {
    for (const auto& e : r.events) {
      const int cnode = cnode_ids.at(e.name);
      w.leaf("row", {{"metric", "0"},
                     {"cnode", std::to_string(cnode)},
                     {"rank", std::to_string(r.rank)},
                     {"value", simx::strprintf("%.9f", e.tsum)}});
      w.leaf("row", {{"metric", "1"},
                     {"cnode", std::to_string(cnode)},
                     {"rank", std::to_string(r.rank)},
                     {"value", std::to_string(e.count)}});
      if (e.bytes > 0) {
        w.leaf("row", {{"metric", "2"},
                       {"cnode", std::to_string(cnode)},
                       {"rank", std::to_string(r.rank)},
                       {"value", std::to_string(e.bytes)}});
      }
    }
  }
  w.close();
  w.finish();
}

void write_cube_file(const std::string& path, const ipm::JobProfile& job) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("ipm_parse: cannot open '" + path + "'");
  write_cube(out, job);
}

}  // namespace ipm_parse

namespace ipm_parse {

std::vector<CompareRow> compare(const ipm::JobProfile& a, const ipm::JobProfile& b) {
  std::map<std::string, CompareRow> rows;
  for (const ipm::FuncRow& r : ipm::function_table(a)) {
    CompareRow& row = rows[r.name];
    row.name = r.name;
    row.tsum_a = r.tsum;
    row.count_a = r.count;
  }
  for (const ipm::FuncRow& r : ipm::function_table(b)) {
    CompareRow& row = rows[r.name];
    row.name = r.name;
    row.tsum_b = r.tsum;
    row.count_b = r.count;
  }
  std::vector<CompareRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(), [](const CompareRow& x, const CompareRow& y) {
    return std::abs(x.delta()) > std::abs(y.delta());
  });
  return out;
}

void write_compare(std::ostream& os, const ipm::JobProfile& a, const ipm::JobProfile& b) {
  const auto wall = [](const ipm::JobProfile& job) {
    double w = 0.0;
    for (const auto& r : job.ranks) w = std::max(w, r.wallclock());
    return w;
  };
  os << "# IPM profile comparison\n";
  os << simx::strprintf("#   A: %s (%d tasks, wallclock %.2f s)\n", a.command.c_str(),
                        a.nranks, wall(a));
  os << simx::strprintf("#   B: %s (%d tasks, wallclock %.2f s)\n", b.command.c_str(),
                        b.nranks, wall(b));
  os << simx::strprintf("# %-28s %10s %10s %10s %9s %9s\n", "", "A [s]", "B [s]",
                        "B-A [s]", "#A", "#B");
  for (const CompareRow& row : compare(a, b)) {
    os << simx::strprintf("# %-28s %10.3f %10.3f %+10.3f %9llu %9llu\n", row.name.c_str(),
                          row.tsum_a, row.tsum_b, row.delta(),
                          static_cast<unsigned long long>(row.count_a),
                          static_cast<unsigned long long>(row.count_b));
  }
}

}  // namespace ipm_parse
