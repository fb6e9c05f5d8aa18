#include "gpusim/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

namespace pipad::gpusim {

std::vector<GanttRow> gantt_rows(const std::vector<OpRecord>& records,
                                 std::size_t worker_lanes) {
  std::vector<GanttRow> rows;
  rows.push_back({Resource::Cpu, 0, "cpu"});
  if (worker_lanes == 1) {
    rows.push_back({Resource::CpuWorker, 0, "cpu-worker"});
  } else {
    for (std::size_t l = 0; l < worker_lanes; ++l) {
      rows.push_back({Resource::CpuWorker, l, "cpu-w" + std::to_string(l)});
    }
  }
  rows.push_back({Resource::H2D, 0, "h2d"});
  rows.push_back({Resource::D2H, 0, "d2h"});
  rows.push_back({Resource::Compute, 0, "compute"});
  // Single-device traces never touch the interconnect; only replicated runs
  // grow the extra row, so existing gantt output stays byte-identical.
  for (const auto& rec : records) {
    if (rec.resource == Resource::Link) {
      rows.push_back({Resource::Link, 0, "link"});
      break;
    }
  }
  return rows;
}

namespace {

std::vector<char> lane_cells(const std::vector<OpRecord>& records,
                             const GanttRow& row, double from, double to,
                             int width) {
  std::vector<char> cells(width, '.');
  const double span = to - from;
  if (span <= 0.0) return cells;
  for (const auto& rec : records) {
    if (!row.matches(rec)) continue;
    const double lo = std::max(rec.start_us, from);
    const double hi = std::min(rec.end_us, to);
    if (hi <= lo) continue;
    int c0 = static_cast<int>((lo - from) / span * width);
    // End cell is exclusive: an op ending exactly on a cell boundary must
    // not bleed into the next cell.
    int c1 = static_cast<int>((hi - from) / span * width - 1e-9);
    c0 = std::clamp(c0, 0, width - 1);
    c1 = std::clamp(c1, c0, width - 1);
    for (int c = c0; c <= c1; ++c) cells[c] = '#';
  }
  return cells;
}

}  // namespace

std::string render_gantt(const std::vector<OpRecord>& records,
                         std::size_t worker_lanes,
                         const GanttOptions& opts) {
  double to = opts.to_us;
  if (to < 0.0) {
    to = 0.0;
    for (const auto& rec : records) to = std::max(to, rec.end_us);
  }
  std::ostringstream os;
  os << "time window [" << opts.from_us << ", " << to << ") us, '"
     << '#' << "' = busy\n";
  const auto rows = gantt_rows(records, worker_lanes);
  for (const auto& row : rows) {
    const auto cells = lane_cells(records, row, opts.from_us, to, opts.width);
    os.width(11);
    os << std::left;
    os << row.label;
    os << ' ';
    os.write(cells.data(), static_cast<std::streamsize>(cells.size()));
    os << '\n';
  }
  if (opts.label_ops) {
    // Top-3 time consumers per row, as a legend.
    for (const auto& row : rows) {
      std::map<std::string, double> by_name;
      for (const auto& rec : records) {
        if (row.matches(rec)) {
          by_name[rec.name] += rec.end_us - rec.start_us;
        }
      }
      std::vector<std::pair<double, std::string>> top;
      top.reserve(by_name.size());
      for (const auto& [name, us] : by_name) top.emplace_back(us, name);
      std::sort(top.rbegin(), top.rend());
      if (top.empty()) continue;
      os << row.label << ':';
      for (std::size_t i = 0; i < std::min<std::size_t>(3, top.size()); ++i) {
        os << ' ' << top[i].second << " (" << top[i].first << " us)";
      }
      os << '\n';
    }
  }
  return os.str();
}

std::string render_gantt(const Timeline& tl, const GanttOptions& opts) {
  GanttOptions resolved = opts;
  if (resolved.to_us < 0.0) resolved.to_us = tl.makespan();
  return render_gantt(tl.records(), tl.worker_lanes(), resolved);
}

double overlap_fraction(const Timeline& tl, Resource a, Resource b,
                        double from_us, double to_us) {
  const double to = to_us < 0.0 ? tl.makespan() : to_us;
  if (to <= from_us) return 0.0;
  // Merge busy intervals per resource, then intersect.
  auto intervals = [&](Resource r) {
    std::vector<std::pair<double, double>> ivs;
    for (const auto& rec : tl.records()) {
      if (rec.resource != r) continue;
      const double lo = std::max(rec.start_us, from_us);
      const double hi = std::min(rec.end_us, to);
      if (hi > lo) ivs.emplace_back(lo, hi);
    }
    std::sort(ivs.begin(), ivs.end());
    std::vector<std::pair<double, double>> merged;
    for (const auto& iv : ivs) {
      if (!merged.empty() && iv.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, iv.second);
      } else {
        merged.push_back(iv);
      }
    }
    return merged;
  };
  const auto ia = intervals(a);
  const auto ib = intervals(b);
  double both = 0.0;
  std::size_t j = 0;
  for (const auto& [alo, ahi] : ia) {
    while (j < ib.size() && ib[j].second <= alo) ++j;
    for (std::size_t k = j; k < ib.size() && ib[k].first < ahi; ++k) {
      both += std::max(0.0, std::min(ahi, ib[k].second) -
                                std::max(alo, ib[k].first));
    }
  }
  return both / (to - from_us);
}

}  // namespace pipad::gpusim
