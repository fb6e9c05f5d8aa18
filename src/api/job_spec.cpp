#include "api/job_spec.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "graph/io/loader.hpp"
#include "models/training.hpp"

namespace pipad::api {

namespace {

bool parse_ll(const std::string& s, long long& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_f(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  // ERANGE catches overflowing literals like 1e999, which strtod "parses"
  // to HUGE_VAL; the finiteness check additionally rejects literal
  // inf/nan, which no numeric flag accepts.
  if (errno == ERANGE || end == nullptr || *end != '\0' ||
      !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

FlagStatus apply_flag(const std::string& flag, const std::string& value,
                      JobSpec& o, std::string& error) {
  long long n = 0;
  if (flag == "--model") {
    if (!models::parse_model(value)) {
      error = "unknown model '" + value +
              "' (expected gcn | tgcn | evolvegcn | mpnn-lstm)";
      return FlagStatus::Error;
    }
    o.model = value;
  } else if (flag == "--runtime") {
    if (!models::parse_runtime(value)) {
      error = "unknown runtime '" + value +
              "' (expected pipad | pygt | pygt-a | pygt-r | pygt-g)";
      return FlagStatus::Error;
    }
    o.runtime = value;
  } else if (flag == "--dataset") {
    o.dataset = value;
  } else if (flag == "--features") {
    o.features = value;
  } else if (flag == "--cache-dir") {
    o.cache_dir = value;
  } else if (flag == "--replicas") {
    if (!parse_ll(value, n) || n < 0 || n > 64) {
      error = "--replicas expects an integer in [0, 64], got '" + value + "'";
      return FlagStatus::Error;
    }
    o.replicas = static_cast<int>(n);
  } else if (flag == "--threads") {
    if (!parse_ll(value, n) || n < 0 || n > 256) {
      error = "--threads expects an integer in [0, 256], got '" + value + "'";
      return FlagStatus::Error;
    }
    o.threads = static_cast<int>(n);
  } else if (flag == "--edge-life") {
    double x = 0.0;
    if (!parse_f(value, x) || x < 1.0) {
      error = "--edge-life expects a number >= 1, got '" + value + "'";
      return FlagStatus::Error;
    }
    o.edge_life = x;
    o.edge_life_set = true;
  } else if (flag == "--tenant") {
    if (value.empty()) {
      error = "--tenant expects a non-empty name";
      return FlagStatus::Error;
    }
    o.tenant = value;
  } else if (flag == "--priority") {
    if (!parse_ll(value, n) || n < 1 || n > 10) {
      error = "--priority expects an integer in [1, 10], got '" + value + "'";
      return FlagStatus::Error;
    }
    o.priority = static_cast<int>(n);
  } else if (flag == "--tag") {
    o.tag = value;
  } else if (flag == "--snapshots" || flag == "--nodes" ||
             flag == "--events" || flag == "--feat-dim" ||
             flag == "--scale-large" || flag == "--scale-small" ||
             flag == "--epochs" || flag == "--frame-size" ||
             flag == "--frames" || flag == "--seed" ||
             flag == "--snapshot-window" || flag == "--window-bytes") {
    if (!parse_ll(value, n) || n < 0) {
      error = flag + " expects a non-negative integer, got '" + value + "'";
      return FlagStatus::Error;
    }
    // Everything except the 64-bit flags lands in an int.
    if (flag != "--events" && flag != "--seed" &&
        flag != "--snapshot-window" && flag != "--window-bytes" &&
        n > INT_MAX) {
      error = flag + " value " + value + " is out of range";
      return FlagStatus::Error;
    }
    if (flag == "--snapshots") o.snapshots = static_cast<int>(n);
    else if (flag == "--nodes") o.nodes = static_cast<int>(n);
    else if (flag == "--events") o.events = n;
    else if (flag == "--feat-dim") o.feat_dim = static_cast<int>(n);
    else if (flag == "--scale-large") o.scale_large = static_cast<int>(n);
    else if (flag == "--scale-small") o.scale_small = static_cast<int>(n);
    else if (flag == "--epochs") o.epochs = static_cast<int>(n);
    else if (flag == "--frame-size") o.frame_size = static_cast<int>(n);
    else if (flag == "--frames") o.frames = static_cast<int>(n);
    else if (flag == "--snapshot-window") o.snapshot_window = n;
    else if (flag == "--window-bytes") o.window_bytes = n;
    else o.seed = static_cast<std::uint64_t>(n);
  } else {
    return FlagStatus::Unknown;
  }
  return FlagStatus::Applied;
}

std::string JobSpec::validate() const {
  if (!models::parse_model(model)) {
    return "unknown model '" + model +
           "' (expected gcn | tgcn | evolvegcn | mpnn-lstm)";
  }
  if (!models::parse_runtime(runtime)) {
    return "unknown runtime '" + runtime +
           "' (expected pipad | pygt | pygt-a | pygt-r | pygt-g)";
  }
  if (nodes <= 0 || epochs <= 0 || frame_size <= 0 || feat_dim <= 0 ||
      events <= 0) {
    return "--nodes, --events, --feat-dim, --epochs and --frame-size must "
           "be positive";
  }
  if (scale_large <= 0 || scale_small <= 0) {
    return "--scale-large and --scale-small must be positive";
  }
  if (snapshots < 0 || frames < 0 || snapshot_window < 0 ||
      window_bytes < 0) {
    return "--snapshots, --frames, --snapshot-window and --window-bytes "
           "must be non-negative";
  }
  if (edge_life < 1.0 || !std::isfinite(edge_life)) {
    return "--edge-life expects a number >= 1, got '" +
           std::to_string(edge_life) + "'";
  }
  const bool file_ds = graph::io::is_file_dataset(dataset);
  if (!file_ds && (snapshot_window > 0 || window_bytes > 0 ||
                   !cache_dir.empty() || !features.empty())) {
    return "--snapshot-window, --window-bytes, --cache-dir and --features "
           "require --dataset file:PATH";
  }
  if (file_ds && snapshot_window > 0 && snapshots > 0) {
    return "--snapshot-window and --snapshots are mutually exclusive for "
           "file: datasets";
  }
  // std::floor comparison, not a cast round trip: casting a huge double to
  // int is UB before we could reject it.
  if (file_ds && edge_life_set &&
      (edge_life != std::floor(edge_life) || edge_life > 1000000.0)) {
    return "--edge-life must be an integer snapshot count (<= 1000000) for "
           "file: datasets";
  }
  if (replicas < 0 || replicas > 64) {
    return "--replicas expects an integer in [0, 64], got '" +
           std::to_string(replicas) + "'";
  }
  if (threads < 0 || threads > 256) {
    return "--threads expects an integer in [0, 256], got '" +
           std::to_string(threads) + "'";
  }
  if (replicas > 0 && runtime != "pipad") {
    return "--replicas requires --runtime pipad";
  }
  if (tenant.empty()) return "--tenant expects a non-empty name";
  if (priority < 1 || priority > 10) {
    return "--priority expects an integer in [1, 10], got '" +
           std::to_string(priority) + "'";
  }
  return "";
}

bool parse_job_spec(const std::vector<std::string>& args, JobSpec& spec,
                    std::string& error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::string value;
    bool has_value = false;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }
    if (!has_value) {
      if (i + 1 >= args.size()) {
        error = "flag " + flag + " expects a value";
        return false;
      }
      value = args[++i];
    }
    switch (apply_flag(flag, value, spec, error)) {
      case FlagStatus::Applied:
        break;
      case FlagStatus::Error:
        return false;
      case FlagStatus::Unknown:
        error = "unknown flag '" + flag + "'";
        return false;
    }
  }
  error = spec.validate();
  return error.empty();
}

Json JobSpec::to_json() const {
  Json j = Json::object();
  j.set("model", model);
  j.set("runtime", runtime);
  j.set("dataset", dataset);
  j.set("snapshots", snapshots);
  j.set("snapshot_window", snapshot_window);
  j.set("window_bytes", window_bytes);
  j.set("features", features);
  j.set("cache_dir", cache_dir);
  j.set("nodes", nodes);
  j.set("events", events);
  j.set("feat_dim", feat_dim);
  if (edge_life_set) j.set("edge_life", edge_life);
  j.set("scale_large", scale_large);
  j.set("scale_small", scale_small);
  j.set("epochs", epochs);
  j.set("frame_size", frame_size);
  j.set("frames", frames);
  j.set("threads", threads);
  j.set("replicas", replicas);
  j.set("seed", seed);
  j.set("tenant", tenant);
  j.set("priority", priority);
  j.set("tag", tag);
  j.set("return_params", return_params);
  j.set("run_analyzer", run_analyzer);
  return j;
}

namespace {

/// Int-typed spec fields must reject out-of-range wire values with an
/// error, exactly as apply_flag does for the flag spelling — a silent
/// static_cast truncation would let "epochs": 4294967297 validate as 1.
int int_field(const Json& v, const char* key) {
  const long long n = v.as_int();
  if (n < INT_MIN || n > INT_MAX) {
    throw Error(std::string(key) + " value " + std::to_string(n) +
                " is out of range");
  }
  return static_cast<int>(n);
}

}  // namespace

bool JobSpec::from_json(const Json& j, JobSpec& spec, std::string& error) {
  if (!j.is_object()) {
    error = "job spec must be a JSON object";
    return false;
  }
  JobSpec out;
  try {
    for (const auto& [key, v] : j.members()) {
      if (key == "model") out.model = v.as_string();
      else if (key == "runtime") out.runtime = v.as_string();
      else if (key == "dataset") out.dataset = v.as_string();
      else if (key == "snapshots") out.snapshots = int_field(v, "snapshots");
      else if (key == "snapshot_window") out.snapshot_window = v.as_int();
      else if (key == "window_bytes") out.window_bytes = v.as_int();
      else if (key == "features") out.features = v.as_string();
      else if (key == "cache_dir") out.cache_dir = v.as_string();
      else if (key == "nodes") out.nodes = int_field(v, "nodes");
      else if (key == "events") out.events = v.as_int();
      else if (key == "feat_dim") out.feat_dim = int_field(v, "feat_dim");
      else if (key == "edge_life") {
        out.edge_life = v.as_number();
        out.edge_life_set = true;
      } else if (key == "scale_large") {
        out.scale_large = int_field(v, "scale_large");
      } else if (key == "scale_small") {
        out.scale_small = int_field(v, "scale_small");
      } else if (key == "epochs") out.epochs = int_field(v, "epochs");
      else if (key == "frame_size") {
        out.frame_size = int_field(v, "frame_size");
      } else if (key == "frames") out.frames = int_field(v, "frames");
      else if (key == "threads") out.threads = int_field(v, "threads");
      else if (key == "replicas") out.replicas = int_field(v, "replicas");
      else if (key == "seed") {
        const long long s = v.as_int();
        if (s < 0) throw Error("json: expected integer");
        out.seed = static_cast<std::uint64_t>(s);
      } else if (key == "tenant") out.tenant = v.as_string();
      else if (key == "priority") out.priority = int_field(v, "priority");
      else if (key == "tag") out.tag = v.as_string();
      else if (key == "return_params") out.return_params = v.as_bool();
      else if (key == "run_analyzer") out.run_analyzer = v.as_bool();
      else {
        error = "unknown job spec field \"" + key + "\"";
        return false;
      }
    }
  } catch (const Error& e) {
    error = e.what();
    return false;
  }
  spec = out;
  return true;
}

std::string flags_help() {
  return
      "  --model NAME       gcn | tgcn | evolvegcn | mpnn-lstm  [tgcn]\n"
      "  --runtime NAME     pipad | pygt | pygt-a | pygt-r | pygt-g  [pipad]\n"
      "  --dataset SPEC     synthetic, a Table-1 name (flickr, youtube,\n"
      "                     amz-automotive, epinions, hepth, pems08,\n"
      "                     covid19-england), or file:PATH — load a\n"
      "                     timestamped edge list (`src dst t [w]`), a\n"
      "                     temporal CSV (src,dst,t header), or a binary\n"
      "                     .dtdg snapshot file from disk; text inputs may\n"
      "                     be gzip'd (.gz) and are read in bounded windows\n"
      "                     (see docs/DATASET_FORMATS.md)  [synthetic]\n"
      "  --snapshots N      override the dataset's snapshot count (file:\n"
      "                     split the time range into exactly N windows)\n"
      "  --snapshot-window N  file: bucket edges into time windows of N\n"
      "                     timestamp units (default: one snapshot per\n"
      "                     distinct timestamp, or the file's snapshots=S\n"
      "                     directive)\n"
      "  --features FILE    file: node-feature file (# pipad-features);\n"
      "                     omitted = seeded synthetic features\n"
      "  --cache-dir DIR    file: cache parsed snapshots as .dtdg; later\n"
      "                     runs with the same inputs skip the parse\n"
      "  --window-bytes N   file: streaming read window in bytes — bounds\n"
      "                     parse memory, never changes the result\n"
      "                     [8388608]\n"
      "  --nodes N          synthetic: vertex count  [2000]\n"
      "  --events N         synthetic: distinct temporal edges  [40000]\n"
      "  --feat-dim N       synthetic: feature dimension  [2]\n"
      "  --edge-life X      synthetic: mean snapshots an edge lives [8];\n"
      "                     file: integer snapshots each edge instance\n"
      "                     stays alive  [1]\n"
      "  --scale-large N    divisor for the four large named graphs  [256]\n"
      "  --scale-small N    divisor for hepth  [8]\n"
      "  --epochs N         training epochs  [2]\n"
      "  --frame-size N     sliding-window size  [8]\n"
      "  --frames N         max frames per epoch, 0 = all  [4]\n"
      "  --threads N        ComputePool worker lanes (host prep + numeric\n"
      "                     kernels), 0 = default, at most 256  [0]\n"
      "  --replicas K       replicated data-parallel training across K\n"
      "                     simulated devices (pipad runtime only; losses\n"
      "                     and params are bit-identical for every K and\n"
      "                     --threads), 0 = one device stepping after\n"
      "                     every frame  [0]\n"
      "  --seed N           dataset + model RNG seed  [2023]\n"
      "  --tenant NAME      serve/submit: fair-share tenant bucket\n"
      "                     [default]\n"
      "  --priority N       serve/submit: job priority 1 (lowest) .. 10\n"
      "                     (highest)  [5]\n"
      "  --tag LABEL        serve/submit: free-form label echoed in the\n"
      "                     JobResult\n";
}

}  // namespace pipad::api
