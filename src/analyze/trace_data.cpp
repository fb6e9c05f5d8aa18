#include "analyze/trace_data.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "gpusim/trace.hpp"
#include "graph/io/text_format.hpp"

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

/// Streams and worker lanes a trace may name. build_dag keeps one slot per
/// stream and lane and gantt_rows one row per lane, up to the largest id
/// read, so an unchecked id (lane 10^12 in a one-line file) would become a
/// multi-terabyte allocation. The simulator creates a handful of streams
/// and host::kModeledHostCores (8) worker lanes, far below this bound.
constexpr double kMaxTraceLanes = 4096.0;

/// Byte counts above 2^53 do not survive the trip through a JSON double.
constexpr double kMaxExactCount = 9007199254740992.0;

/// Reads the fields of event `index` of `path`; every error names both.
struct EventReader {
  const std::string& path;
  std::size_t index;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error(path + ": event " + std::to_string(index) + ": " + what);
  }

  /// obj[key], which must be present and of type `want`. `scope` prefixes
  /// the key in messages ("args." for the op fields).
  const api::Json& field(const api::Json& obj, const char* key,
                         api::Json::Type want, const char* scope = "") const {
    static const char* const kTypeNames[] = {"null",     "a bool",
                                             "a number", "a string",
                                             "an array", "an object"};
    const std::string name = std::string("'") + scope + key + "'";
    const api::Json* v = obj.find(key);
    if (v == nullptr) fail("missing field " + name);
    if (v->type() != want) {
      fail("field " + name + " is not " +
           kTypeNames[static_cast<int>(want)]);
    }
    return *v;
  }

  /// An integer in [0, limit).
  std::size_t count(const api::Json& obj, const char* key, double limit,
                    const char* scope = "") const {
    const double v = field(obj, key, api::Json::Type::Number, scope)
                         .as_number();
    if (v < 0.0 || v >= limit || v != std::floor(v)) {
      fail(std::string("field '") + scope + key +
           "' must be an integer in [0, " + api::Json(limit).dump() +
           "), got " + api::Json(v).dump());
    }
    return static_cast<std::size_t>(v);
  }
};

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

[[noreturn]] void not_a_trace(const std::string& path,
                              const std::string& why) {
  throw Error(path + ": not a pipad trace (expected trace-event JSON): " +
              why);
}

}  // namespace

api::Json trace_document(const TraceData& td) {
  const auto rows = gpusim::gantt_rows(td.records, td.worker_lanes);
  api::Json events = api::Json::array();
  for (std::size_t tid = 0; tid < rows.size(); ++tid) {
    api::Json args = api::Json::object();
    args.set("name", rows[tid].label);
    api::Json ev = api::Json::object();
    ev.set("ph", "M");
    ev.set("name", "thread_name");
    ev.set("pid", 0);
    ev.set("tid", tid);
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  for (const auto& rec : td.records) {
    const auto row =
        std::find_if(rows.begin(), rows.end(),
                     [&](const gpusim::GanttRow& r) { return r.matches(rec); });
    PIPAD_CHECK_MSG(row != rows.end(),
                    "op '" << rec.name << "' is on no Gantt row");
    api::Json args = api::Json::object();
    args.set("resource", gpusim::resource_name(rec.resource));
    args.set("stream", rec.stream);
    args.set("end_us", rec.end_us);
    args.set("bytes", rec.bytes);
    args.set("lane", rec.lane);
    api::Json ev = api::Json::object();
    ev.set("name", rec.name);
    ev.set("ph", "X");
    ev.set("ts", rec.start_us);
    ev.set("dur", rec.end_us - rec.start_us);
    ev.set("pid", 0);
    ev.set("tid", static_cast<std::size_t>(row - rows.begin()));
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  api::Json labels = api::Json::object();
  labels.set("dataset", td.dataset);
  labels.set("model", td.model);
  labels.set("method", td.method);
  api::Json doc = api::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("otherData", std::move(labels));
  return doc;
}

void write_trace_file(const std::string& path, const TraceData& td) {
  api::write_document(path, trace_document(td));
}

TraceData parse_trace(const std::string& text, const std::string& path) {
  api::Json doc;
  try {
    doc = api::Json::parse(text);
  } catch (const Error& e) {
    not_a_trace(path, e.what());
  }
  const api::Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    not_a_trace(path, "no traceEvents array");
  }
  TraceData td;
  if (const api::Json* labels = doc.find("otherData")) {
    for (auto [key, out] : {std::pair{"dataset", &td.dataset},
                            std::pair{"model", &td.model},
                            std::pair{"method", &td.method}}) {
      const api::Json* v = labels->find(key);
      if (v == nullptr) continue;
      if (!v->is_string()) {
        throw Error(path + ": otherData." + key + " is not a string");
      }
      *out = v->as_string();
    }
  }
  using Type = api::Json::Type;
  const auto& items = events->items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const api::Json& ev = items[i];
    const EventReader at{path, i};
    if (!ev.is_object()) at.fail("not an object");
    if (at.field(ev, "ph", Type::String).as_string() != "X") continue;
    const api::Json& args = at.field(ev, "args", Type::Object);
    OpRecord rec;
    rec.name = at.field(ev, "name", Type::String).as_string();
    const std::string& resource =
        at.field(args, "resource", Type::String, "args.").as_string();
    if (!parse_resource(resource, rec.resource)) {
      at.fail("unknown resource '" + resource + "'");
    }
    rec.stream = at.count(args, "stream", kMaxTraceLanes, "args.");
    rec.start_us = at.field(ev, "ts", Type::Number).as_number();
    rec.end_us = at.field(args, "end_us", Type::Number, "args.").as_number();
    rec.bytes = at.count(args, "bytes", kMaxExactCount, "args.");
    rec.lane = at.count(args, "lane", kMaxTraceLanes, "args.");
    if (rec.start_us < 0.0) {
      at.fail("op '" + rec.name + "' starts before 0 (ts " +
              api::Json(rec.start_us).dump() + ")");
    }
    if (rec.end_us < rec.start_us) {
      at.fail("op '" + rec.name + "' ends before it starts (args.end_us " +
              api::Json(rec.end_us).dump() + " < ts " +
              api::Json(rec.start_us).dump() + ")");
    }
    td.makespan_us = std::max(td.makespan_us, rec.end_us);
    td.num_streams = std::max(td.num_streams, rec.stream + 1);
    if (rec.resource == Resource::CpuWorker) {
      td.worker_lanes = std::max(td.worker_lanes, rec.lane + 1);
    }
    td.records.push_back(std::move(rec));
  }
  return td;
}

TraceData read_trace_file(const std::string& path) {
  return parse_trace(graph::io::read_file(path), path);
}

}  // namespace pipad::analyze
