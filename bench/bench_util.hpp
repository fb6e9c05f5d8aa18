// Shared benchmark scaffolding: flag parsing, dataset caching, method
// runners, table printing and the bench-to-JSON harness.
//
// The job description lives in an api::JobSpec (Flags::job): every bench
// binary accepts the same --name=value vocabulary as the `pipad` CLI and
// the serve daemon (api::apply_flag — one set of flags, one validator, one
// set of error messages; see api/job_spec.hpp). On top of that, benches
// add three flags of their own:
//   --datasets=a,b    comma-separated subset of the Table-1 names and/or
//                     file:PATH specs for on-disk datasets (edge list /
//                     temporal CSV / .dtdg; docs/DATASET_FORMATS.md)
//                                                          (default all 7)
//   --json=FILE       write per-run records to FILE as JSON (wired into
//                     fig10_end2end and ablation_sper; other binaries
//                     accept but ignore it until they adopt JsonReport)
//   --trace-dir=DIR   write one trace CSV per run into DIR (created if
//                     missing), named <bench>-<dataset>-<model>-<method>.csv
//                     and labeled for `pipad analyze` (wired into
//                     fig10_end2end and fig_replicas; other binaries
//                     accept but ignore it)
// Unknown flags and invalid values are rejected with a usage message
// (exit code 2), mirroring the CLI driver. Defaults are sized for a
// single-core CI run; the *shape* of each figure is stable across scales
// because it derives from the analytic cost model.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/job_spec.hpp"
#include "api/run_job.hpp"
#include "baselines/baseline_trainer.hpp"
#include "common/compute_pool.hpp"
#include "common/util.hpp"
#include "gpusim/trace.hpp"
#include "graph/generator.hpp"
#include "graph/io/loader.hpp"
#include "host/host_lane.hpp"
#include "models/bench_record.hpp"
#include "replica/replica_trainer.hpp"

namespace pipad::bench {

struct Flags {
  /// The shared job description (--scale-large, --epochs, --threads,
  /// --replicas, ... — everything api::apply_flag understands).
  api::JobSpec job;

  std::vector<std::string> datasets;
  std::string json;  ///< Non-empty: write run records to this file.
  std::string trace_dir;  ///< Non-empty: write one trace CSV per run here.

  static std::string usage(const char* prog) {
    std::string p = prog != nullptr ? prog : "bench";
    return "usage: " + p + " [--name=value ...]\n"
           "\n"
           "job flags (shared with the pipad CLI, --name=value form):\n" +
           api::flags_help() +
           "\n"
           "bench flags:\n"
           "  --datasets=a,b     comma-separated subset of the Table-1\n"
           "                     names and/or file:PATH specs  [all 7]\n"
           "  --json=FILE        write per-run records as JSON\n"
           "                     (bench_diff-compatible)\n"
           "  --trace-dir=DIR    write one labeled trace CSV per run\n";
  }

  /// Strict non-exiting parse of `--name=value` arguments (program name
  /// excluded): bench-only flags here, everything else through
  /// api::apply_flag, then the shared validator. Returns false with the
  /// canonical error message — byte-identical to what `pipad train` prints
  /// for the same bad input (cli_test pins this).
  static bool try_parse(const std::vector<std::string>& args, Flags& f,
                        std::string& error) {
    for (const std::string& arg : args) {
      const auto eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        error = "unknown argument '" + arg + "' (flags are --name=value)";
        return false;
      }
      const std::string key = arg.substr(0, eq);
      const std::string value = arg.substr(eq + 1);
      if (key == "--json") {
        if (value.empty()) {
          error = "--json expects a file path";
          return false;
        }
        f.json = value;
      } else if (key == "--trace-dir") {
        if (value.empty()) {
          error = "--trace-dir expects a directory path";
          return false;
        }
        f.trace_dir = value;
      } else if (key == "--datasets") {
        if (value.empty()) {
          error = "--datasets expects a comma-separated list";
          return false;
        }
        std::size_t pos = 0;
        while (pos != std::string::npos) {
          const auto next = value.find(',', pos);
          const std::string name = value.substr(
              pos, next == std::string::npos ? next : next - pos);
          bool known = graph::io::is_file_dataset(name);
          for (const auto& c : graph::evaluation_datasets()) {
            if (c.name == name) known = true;
          }
          if (!known) {
            error = "unknown dataset '" + name + "'";
            return false;
          }
          f.datasets.push_back(name);
          pos = next == std::string::npos ? next : next + 1;
        }
      } else {
        switch (api::apply_flag(key, value, f.job, error)) {
          case api::FlagStatus::Applied:
            break;
          case api::FlagStatus::Error:
            return false;
          case api::FlagStatus::Unknown:
            error = "unknown flag '" + key + "'";
            return false;
        }
      }
    }
    // The file-oriented knobs (--snapshot-window, --window-bytes,
    // --cache-dir) apply to the file: entries of --datasets here, not to
    // job.dataset — validate under a file: stand-in so the shared
    // validator doesn't demand --dataset file:PATH, which benches don't
    // take. With no file: entry the knobs are accepted-and-ignored, as
    // they always were.
    api::JobSpec v = f.job;
    for (const auto& d : f.datasets) {
      if (graph::io::is_file_dataset(d)) {
        v.dataset = d;
        break;
      }
    }
    if (!graph::io::is_file_dataset(v.dataset) &&
        (v.snapshot_window > 0 || v.window_bytes > 0 ||
         !v.cache_dir.empty() || !v.features.empty())) {
      v.dataset = "file:-";
    }
    error = v.validate();
    return error.empty();
  }

  /// try_parse + usage message + exit(2) on error, like the `pipad` CLI.
  static Flags parse(int argc, char** argv) {
    Flags f;
    std::string error;
    if (!try_parse(std::vector<std::string>(argv + 1, argv + argc), f,
                   error)) {
      std::fprintf(stderr, "%s: %s\n\n%s", argv[0], error.c_str(),
                   usage(argv[0]).c_str());
      std::exit(2);
    }
    return f;
  }

  std::vector<graph::DatasetConfig> configs() const {
    auto all =
        graph::evaluation_datasets(job.scale_large, job.scale_small);
    if (datasets.empty()) return all;
    std::vector<graph::DatasetConfig> out;
    for (const auto& want : datasets) {
      if (graph::io::is_file_dataset(want)) {
        // On-disk dataset: the name carries the whole spec; DatasetCache
        // dispatches on the prefix.
        graph::DatasetConfig c;
        c.name = want;
        out.push_back(c);
        continue;
      }
      for (const auto& c : all) {
        if (c.name == want) out.push_back(c);
      }
    }
    return out;
  }

  /// Loader options for file: dataset specs.
  graph::io::LoadOptions file_load_options() const {
    graph::io::LoadOptions o;
    o.snapshot_window = job.snapshot_window;
    o.cache_dir = job.cache_dir;
    o.window_bytes = static_cast<std::size_t>(job.window_bytes);
    return o;
  }
};

/// PiPAD runtime options derived from the shared job spec.
inline runtime::PipadOptions pipad_options(const Flags& f) {
  return api::pipad_options(f.job);
}

/// Dataset construction is the slow part; cache per process and build each
/// snapshot on the process-wide ComputePool. Constructed from the shared
/// Flags so --threads=N governs generation, loading, host prep and the
/// numeric kernels alike (0 = library default), and so file: specs pick up
/// --snapshot-window/--cache-dir.
class DatasetCache {
 public:
  explicit DatasetCache(const Flags& flags)
      : file_opts_(flags.file_load_options()) {
    ComputePool::instance().configure(
        flags.job.threads > 0 ? static_cast<std::size_t>(flags.job.threads)
                              : 0);
  }

  const graph::DTDG& get(const graph::DatasetConfig& cfg) {
    auto it = cache_.find(cfg.name);
    if (it == cache_.end()) {
      if (graph::io::is_file_dataset(cfg.name)) {
        std::fprintf(stderr, "[bench] loading %s ...\n", cfg.name.c_str());
        it = cache_
                 .emplace(cfg.name,
                          graph::io::load_dataset(
                              graph::io::file_dataset_path(cfg.name),
                              file_opts_, &ComputePool::instance().pool()))
                 .first;
      } else {
        std::fprintf(stderr, "[bench] generating %s ...\n", cfg.name.c_str());
        it = cache_
                 .emplace(cfg.name, graph::generate(
                                        cfg, &ComputePool::instance().pool()))
                 .first;
      }
    }
    return it->second;
  }

 private:
  graph::io::LoadOptions file_opts_;
  std::map<std::string, graph::DTDG> cache_;
};

inline models::TrainConfig train_config(const Flags& f, models::ModelType m) {
  // Deliberately NOT api::train_config: benches keep TrainConfig's default
  // seed (7), which every checked-in BENCH_*.json baseline was recorded
  // under; the CLI/serve surfaces use the JobSpec seed (default 2023).
  models::TrainConfig cfg;
  cfg.model = m;
  cfg.frame_size = f.job.frame_size;
  cfg.epochs = f.job.epochs;
  cfg.max_frames_per_epoch = f.job.frames;
  return cfg;
}

enum class Method { PyGT, PyGTA, PyGTR, PyGTG, PiPAD };

inline const char* method_name(Method m) {
  switch (m) {
    case Method::PyGT:
      return "PyGT";
    case Method::PyGTA:
      return "PyGT-A";
    case Method::PyGTR:
      return "PyGT-R";
    case Method::PyGTG:
      return "PyGT-G";
    case Method::PiPAD:
      return "PiPAD";
  }
  return "?";
}

inline const std::vector<Method>& all_methods() {
  static const std::vector<Method> ms = {Method::PyGT, Method::PyGTA,
                                         Method::PyGTR, Method::PyGTG,
                                         Method::PiPAD};
  return ms;
}

/// Train on a caller-owned Gpu, leaving the timeline available for trace
/// export (--trace-dir) or analysis.
inline models::TrainResult run_method(gpusim::Gpu& gpu,
                                      const graph::DTDG& data, Method m,
                                      const models::TrainConfig& cfg,
                                      runtime::PipadOptions popts = {}) {
  switch (m) {
    case Method::PyGT:
      return baselines::BaselineTrainer(gpu, data, cfg,
                                        baselines::Variant::PyGT)
          .train();
    case Method::PyGTA:
      return baselines::BaselineTrainer(gpu, data, cfg,
                                        baselines::Variant::PyGTA)
          .train();
    case Method::PyGTR:
      return baselines::BaselineTrainer(gpu, data, cfg,
                                        baselines::Variant::PyGTR)
          .train();
    case Method::PyGTG:
      return baselines::BaselineTrainer(gpu, data, cfg,
                                        baselines::Variant::PyGTG)
          .train();
    case Method::PiPAD:
      return replica::ReplicaTrainer(gpu, data, cfg, popts).train();
  }
  throw Error("bad method");
}

inline models::TrainResult run_method(const graph::DTDG& data, Method m,
                                      const models::TrainConfig& cfg,
                                      runtime::PipadOptions popts = {}) {
  gpusim::Gpu gpu;
  return run_method(gpu, data, m, cfg, popts);
}

/// "PiPAD[stream]" -> "PiPAD_stream_": trace filenames stay portable.
inline std::string trace_file_component(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return out.empty() ? std::string("trace") : out;
}

/// Write one labeled trace CSV under flags.trace_dir (no-op when the flag
/// is unset). The file lands at DIR/<bench>-<dataset>-<model>-<method>.csv
/// so CI can feed it straight to `pipad analyze`.
inline void write_trace(const Flags& flags, const std::string& bench,
                        const gpusim::Gpu& gpu, const std::string& dataset,
                        const std::string& model, const std::string& method) {
  if (flags.trace_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(flags.trace_dir, ec);
  const std::string path = flags.trace_dir + "/" +
                           trace_file_component(bench) + "-" +
                           trace_file_component(dataset) + "-" +
                           trace_file_component(model) + "-" +
                           trace_file_component(method) + ".csv";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  gpusim::write_trace_csv(gpu.timeline(), os,
                          gpusim::TraceMeta{dataset, model, method});
  std::fprintf(stderr, "[bench] trace written to %s\n", path.c_str());
}

inline const std::vector<models::ModelType>& all_models() {
  static const std::vector<models::ModelType> ms = {
      models::ModelType::EvolveGcn, models::ModelType::MpnnLstm,
      models::ModelType::TGcn};
  return ms;
}

/// Short dataset labels matching Table 2 of the paper.
inline std::string short_name(const std::string& dataset) {
  if (dataset == "amz-automotive") return "AA";
  if (dataset == "epinions") return "EP";
  if (dataset == "flickr") return "FL";
  if (dataset == "youtube") return "YT";
  if (dataset == "hepth") return "HT";
  if (dataset == "covid19-england") return "CE";
  if (dataset == "pems08") return "PE";
  return dataset;
}

/// Bench-to-JSON harness: collects one record per (dataset, model, method)
/// run and writes them as a stable JSON document so the perf trajectory can
/// be diffed across commits (BENCH_*.json baselines, CI artifacts).
class JsonReport {
 public:
  JsonReport(std::string bench, const Flags& flags)
      : bench_(std::move(bench)), flags_(flags) {}

  void add(const std::string& dataset, const std::string& model,
           const std::string& method, const models::TrainResult& r) {
    rows_.push_back(Row{dataset, model, method, r});
  }

  bool empty() const { return rows_.empty(); }

  /// Write the collected records; returns false (with a message on stderr)
  /// when the file cannot be opened.
  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "[bench] cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    os << "{\n  \"bench\": \"" << bench_ << "\",\n"
       << "  \"flags\": {\"scale_large\": " << flags_.job.scale_large
       << ", \"scale_small\": " << flags_.job.scale_small
       << ", \"epochs\": " << flags_.job.epochs
       << ", \"frames\": " << flags_.job.frames
       << ", \"frame_size\": " << flags_.job.frame_size
       << ", \"threads\": " << flags_.job.threads << "},\n"
       << "  \"records\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      os << models::bench_record_json(r.dataset, r.model, r.method,
                                      r.result.total_us / flags_.job.epochs,
                                      r.result)
         << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    return static_cast<bool>(os);
  }

  /// Write when --json was given; prints a confirmation line.
  bool write_if_requested() const {
    if (flags_.json.empty()) return true;
    if (!write(flags_.json)) return false;
    std::printf("\n[bench] %zu records written to %s\n", rows_.size(),
                flags_.json.c_str());
    return true;
  }

 private:
  struct Row {
    std::string dataset, model, method;
    models::TrainResult result;
  };
  std::string bench_;
  Flags flags_;
  std::vector<Row> rows_;
};

}  // namespace pipad::bench
