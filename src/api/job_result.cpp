#include "api/job_result.hpp"

#include "common/error.hpp"

namespace pipad::api {

namespace {

Json float_array(const std::vector<float>& xs) {
  Json a = Json::array();
  // A double holds any float exactly and the dumper's shortest rendering
  // round-trips the double, so float bit patterns survive the wire.
  for (const float x : xs) a.push_back(Json(static_cast<double>(x)));
  return a;
}

bool read_float_array(const Json& a, std::vector<float>& out,
                      std::string& error) {
  if (!a.is_array()) {
    error = "expected a number array";
    return false;
  }
  out.clear();
  out.reserve(a.items().size());
  for (const auto& v : a.items()) {
    if (!v.is_number()) {
      error = "expected a number array";
      return false;
    }
    out.push_back(static_cast<float>(v.as_number()));
  }
  return true;
}

}  // namespace

Json bench_record(const std::string& dataset, const std::string& model,
                  const std::string& method, double epoch_us,
                  const models::TrainResult& r) {
  Json j = Json::object();
  j.set("dataset", dataset);
  j.set("model", model);
  j.set("method", method);
  j.set("epoch_us", epoch_us);
  j.set("total_us", r.total_us);
  j.set("transfer_us", r.transfer_us);
  j.set("compute_us", r.compute_us);
  j.set("prep_us", r.prep_us);
  j.set("first_steady_us", r.first_steady_us);
  j.set("sm_util", r.sm_utilization);
  j.set("final_loss", r.final_loss());
  // Replica fields ride along only on replicated runs, so single-device
  // records keep the legacy field set.
  if (r.replicas > 0) {
    j.set("replicas", r.replicas);
    j.set("allreduce_us", r.allreduce_us);
  }
  j.set("schema_version", kBenchRecordSchemaVersion);
  return j;
}

Json JobResult::to_json() const {
  Json j = Json::object();
  j.set("schema_version", kResultSchemaVersion);
  j.set("id", id);
  j.set("tenant", tenant);
  j.set("priority", priority);
  j.set("tag", tag);
  j.set("state", state);
  j.set("error", error);
  j.set("seq", seq);
  j.set("record", record);
  j.set("frame_loss", float_array(frame_loss));
  if (!params.empty()) j.set("params", float_array(params));
  if (analyzed) {
    Json a = Json::object();
    a.set("critical_path_us", critical_path_us);
    a.set("findings", findings);
    a.set("worst_severity", worst_severity);
    j.set("analysis", std::move(a));
  }
  return j;
}

bool JobResult::from_json(const Json& j, JobResult& out, std::string& error) {
  if (!j.is_object()) {
    error = "job result must be a JSON object";
    return false;
  }
  JobResult r;
  try {
    const Json* v = j.find("schema_version");
    if (v == nullptr) {
      error = "job result is missing schema_version";
      return false;
    }
    if (v->as_int() > kResultSchemaVersion) {
      error = "unsupported job result schema_version " +
              std::to_string(v->as_int());
      return false;
    }
    for (const auto& [key, val] : j.members()) {
      if (key == "schema_version") continue;
      else if (key == "id") r.id = static_cast<std::uint64_t>(val.as_int());
      else if (key == "tenant") r.tenant = val.as_string();
      else if (key == "priority") {
        r.priority = static_cast<int>(val.as_int());
      } else if (key == "tag") r.tag = val.as_string();
      else if (key == "state") r.state = val.as_string();
      else if (key == "error") r.error = val.as_string();
      else if (key == "seq") r.seq = static_cast<std::uint64_t>(val.as_int());
      else if (key == "record") r.record = val;
      else if (key == "frame_loss") {
        if (!read_float_array(val, r.frame_loss, error)) return false;
      } else if (key == "params") {
        if (!read_float_array(val, r.params, error)) return false;
      } else if (key == "analysis") {
        r.analyzed = true;
        if (const Json* c = val.find("critical_path_us")) {
          r.critical_path_us = c->as_number();
        }
        if (const Json* c = val.find("findings")) {
          r.findings = static_cast<int>(c->as_int());
        }
        if (const Json* c = val.find("worst_severity")) {
          r.worst_severity = c->as_string();
        }
      } else {
        error = "unknown job result field \"" + key + "\"";
        return false;
      }
    }
  } catch (const Error& e) {
    error = e.what();
    return false;
  }
  out = std::move(r);
  return true;
}

}  // namespace pipad::api
