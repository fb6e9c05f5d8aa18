#include "analyze/trace_data.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace pipad::analyze {

using gpusim::OpRecord;
using gpusim::Resource;

std::vector<double> TraceData::worker_busy_in(double t0, double t1,
                                              const std::string& prefix) const {
  std::vector<double> out(worker_lanes, 0.0);
  if (t1 <= t0) return out;
  for (const auto& rec : records) {
    if (rec.resource != Resource::CpuWorker) continue;
    if (!prefix.empty() && rec.name.rfind(prefix, 0) != 0) continue;
    const double lo = std::max(rec.start_us, t0);
    const double hi = std::min(rec.end_us, t1);
    if (hi > lo && rec.lane < out.size()) out[rec.lane] += hi - lo;
  }
  return out;
}

std::vector<std::pair<double, double>> TraceData::busy_intervals(
    Resource r, double from_us, double to_us) const {
  const double to = to_us < 0.0 ? makespan_us : to_us;
  std::vector<std::pair<double, double>> ivs;
  for (const auto& rec : records) {
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
}

double TraceData::busy_us(Resource r) const {
  double total = 0.0;
  for (const auto& rec : records) {
    if (rec.resource == r) total += rec.end_us - rec.start_us;
  }
  return total;
}

TraceData from_timeline(const gpusim::Timeline& tl) {
  TraceData td;
  td.records = tl.records();
  td.worker_lanes = tl.worker_lanes();
  td.num_streams = tl.num_streams();
  td.makespan_us = tl.makespan();
  return td;
}

namespace {

/// Split one CSV line into fields, honoring double-quoted fields with ""
/// escapes (the write_trace_csv quoting rules).
std::vector<std::string> csv_fields(const std::string& line,
                                    const std::string& path,
                                    std::size_t lineno) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"' && cur.empty()) {
      quoted = true;
    } else if (c == ',') {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (quoted) {
    throw Error(path + ":" + std::to_string(lineno) +
                ": unterminated quoted field");
  }
  out.push_back(std::move(cur));
  return out;
}

double parse_double(const std::string& s, const std::string& path,
                    std::size_t lineno, const char* what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    throw Error(path + ":" + std::to_string(lineno) + ": bad " + what +
                " '" + s + "'");
  }
  return v;
}

std::size_t parse_size(const std::string& s, const std::string& path,
                       std::size_t lineno, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    throw Error(path + ":" + std::to_string(lineno) + ": bad " + what +
                " '" + s + "'");
  }
  return static_cast<std::size_t>(v);
}

bool parse_resource(const std::string& s, Resource& out) {
  for (int i = 0; i < gpusim::kNumResources; ++i) {
    const auto r = static_cast<Resource>(i);
    if (s == gpusim::resource_name(r)) {
      out = r;
      return true;
    }
  }
  return false;
}

/// `# key=value ...` metadata comment (written by write_trace_csv when a
/// TraceMeta was given).
void scan_meta(const std::string& comment, TraceData& td) {
  std::istringstream is(comment);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (key == "dataset") td.dataset = value;
    else if (key == "model") td.model = value;
    else if (key == "method") td.method = value;
  }
}

}  // namespace

TraceData read_trace_csv(std::istream& is, const std::string& path) {
  TraceData td;
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      scan_meta(line.substr(1), td);
      continue;
    }
    if (!saw_header) {
      if (line.rfind("name,resource,stream,", 0) != 0) {
        throw Error(path + ":" + std::to_string(lineno) +
                    ": not a pipad trace CSV (unexpected header '" + line +
                    "')");
      }
      saw_header = true;
      continue;
    }
    const auto f = csv_fields(line, path, lineno);
    if (f.size() != 7) {
      throw Error(path + ":" + std::to_string(lineno) + ": expected 7 " +
                  "fields (name,resource,stream,start_us,end_us,bytes,lane)"
                  ", got " + std::to_string(f.size()));
    }
    OpRecord rec;
    rec.name = f[0];
    if (!parse_resource(f[1], rec.resource)) {
      throw Error(path + ":" + std::to_string(lineno) +
                  ": unknown resource '" + f[1] + "'");
    }
    rec.stream = parse_size(f[2], path, lineno, "stream");
    rec.start_us = parse_double(f[3], path, lineno, "start_us");
    rec.end_us = parse_double(f[4], path, lineno, "end_us");
    rec.bytes = parse_size(f[5], path, lineno, "bytes");
    rec.lane = parse_size(f[6], path, lineno, "lane");
    if (rec.end_us < rec.start_us || rec.start_us < 0.0) {
      throw Error(path + ":" + std::to_string(lineno) +
                  ": op '" + rec.name + "' has an invalid time range");
    }
    td.makespan_us = std::max(td.makespan_us, rec.end_us);
    td.num_streams = std::max(td.num_streams, rec.stream + 1);
    if (rec.resource == Resource::CpuWorker) {
      td.worker_lanes = std::max(td.worker_lanes, rec.lane + 1);
    }
    td.records.push_back(std::move(rec));
  }
  if (!saw_header) throw Error(path + ": not a pipad trace CSV (no header)");
  return td;
}

TraceData read_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open " + path);
  return read_trace_csv(is, path);
}

}  // namespace pipad::analyze
