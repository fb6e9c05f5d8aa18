// Shared benchmark scaffolding: flag parsing, dataset caching, method
// runners, table printing and the bench-to-JSON harness. Each bench binary
// defines `int run(int argc, char** argv)`, which the one main()
// (bench_main.cpp) calls.
//
// The job description lives in an api::JobSpec (Flags::job): benches parse
// the job flags they read — --scale-large, --scale-small, --epochs,
// --frames, --frame-size, --threads, --replicas, --snapshot-window,
// --window-bytes and --cache-dir — through the same
// api::apply_flag and validator as the `pipad` CLI and the serve daemon
// (one set of error messages; see api/job_spec.hpp). The last three need a
// file:PATH entry in --datasets, the only data they apply to. Every other
// job flag (--model, --seed, --dataset, ...) is rejected with an error
// naming it, since a bench would otherwise run exactly as without it. On
// top of that, benches add three flags of their own:
//   --datasets=a,b    comma-separated subset of the Table-1 names and/or
//                     file:PATH specs for on-disk datasets (edge list /
//                     temporal CSV / .dtdg; docs/DATASET_FORMATS.md)
//                                                          (default all 7)
//   --json=FILE       write per-run records to FILE as JSON
//   --trace-dir=DIR   write one trace file per run into DIR (created if
//                     missing), named <bench>-<dataset>-<model>-<method>.json
//                     and labeled for `pipad analyze`
// Each bench names what it writes in its Flags::parse call (Writes): only
// fig10_end2end and fig_replicas write records and traces; ablation_sper,
// contention_pool and ingest_stream write records; the rest print their
// tables only. A bench given --json or --trace-dir that it would not write
// exits 2 with an error naming the flag. Likewise each names what it reads
// (Reads): most read --datasets and every job flag above, but three build
// their own graph and read no --datasets: fig5_memory_requests reads only
// --scale-small, ablation_coalesce only --scale-large and
// fig9_offline_analysis no flag at all. Any other flag given to them exits
// 2 with an error naming it.
// Unknown flags and invalid values are rejected with a usage message
// (exit code 2), mirroring the CLI driver. Defaults are sized for a
// single-core CI run; the *shape* of each figure is stable across scales
// because it derives from the analytic cost model.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analyze/trace_data.hpp"
#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "api/run_job.hpp"
#include "common/compute_pool.hpp"
#include "common/util.hpp"
#include "graph/generator.hpp"
#include "graph/io/loader.hpp"
#include "host/host_lane.hpp"
#include "replica/replica_trainer.hpp"

namespace pipad::bench {

/// What a bench writes besides its stdout tables.
enum class Writes { Nothing, Records, RecordsAndTraces };

/// What a bench reads: --datasets and every job flag benches take (the
/// default), or, for a bench that builds its own graph, only the job flags
/// it names.
struct Reads {
  bool datasets = true;
  std::vector<std::string> job_flags = {
      "--scale-large",     "--scale-small",  "--epochs",   "--frames",
      "--frame-size",      "--threads",      "--replicas", "--snapshot-window",
      "--window-bytes",    "--cache-dir"};

  static Reads own_graph(std::vector<std::string> job_flags) {
    return Reads{false, std::move(job_flags)};
  }
  bool job_flag(const std::string& flag) const {
    return std::find(job_flags.begin(), job_flags.end(), flag) !=
           job_flags.end();
  }
};

struct Flags {
  /// The shared job description (--scale-large, --epochs, --threads,
  /// --replicas, ... — everything api::apply_flag understands).
  api::JobSpec job;

  std::vector<std::string> datasets;
  std::string json;  ///< Non-empty: write run records to this file.
  std::string trace_dir;  ///< Non-empty: write one trace file per run here.

  static std::string usage(const char* prog, Writes writes,
                           const Reads& input = {}) {
    std::string p = prog != nullptr ? prog : "bench";
    // api::flags_help() cut down to the flags benches read: an entry is a
    // "  --name ..." line plus its indented continuation lines.
    const std::string all = api::flags_help();
    std::string job;
    bool keep = false;
    for (std::size_t pos = 0; pos < all.size();) {
      std::size_t end = all.find('\n', pos);
      end = end == std::string::npos ? all.size() : end + 1;
      const std::string line = all.substr(pos, end - pos);
      if (line.rfind("  --", 0) == 0) {
        keep = input.job_flag(line.substr(2, line.find(' ', 2) - 2));
      }
      if (keep) job += line;
      pos = end;
    }
    std::string own;
    if (input.datasets) {
      own += "  --datasets=a,b     comma-separated subset of the Table-1\n"
             "                     names and/or file:PATH specs  [all 7]\n";
    }
    if (writes != Writes::Nothing) {
      own += "  --json=FILE        write per-run records as JSON\n"
             "                     (bench_diff-compatible)\n";
    }
    if (writes == Writes::RecordsAndTraces) {
      own += "  --trace-dir=DIR    write one labeled trace file per run\n";
    }
    if (job.empty() && own.empty()) {
      return "usage: " + p + "\n\nthis bench takes no flags\n";
    }
    std::string out = "usage: " + p + " [--name=value ...]\n";
    if (!job.empty()) {
      out += "\njob flags (shared with the pipad CLI, --name=value form; "
             "other\njob flags are rejected):\n" +
             job;
    }
    if (!own.empty()) out += "\nbench flags:\n" + own;
    return out;
  }

  /// Strict non-exiting parse of `--name=value` arguments (program name
  /// excluded): bench-only flags here, everything else through
  /// api::apply_flag, then the shared validator. Returns false with the
  /// canonical error message — byte-identical to what `pipad train` prints
  /// for the same bad input (cli_test pins this).
  static bool try_parse(const std::vector<std::string>& args, Writes writes,
                        Flags& f, std::string& error,
                        const Reads& input = {}) {
    for (const std::string& arg : args) {
      const auto eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        error = "unknown argument '" + arg + "' (flags are --name=value)";
        return false;
      }
      const std::string key = arg.substr(0, eq);
      const std::string value = arg.substr(eq + 1);
      if ((key == "--json" && writes == Writes::Nothing) ||
          (key == "--trace-dir" && writes != Writes::RecordsAndTraces)) {
        error = key + " is an output this bench does not write";
        return false;
      }
      if (key == "--datasets" && !input.datasets) {
        error = "--datasets is an input this bench does not read";
        return false;
      }
      if (Reads{}.job_flag(key) && !input.job_flag(key)) {
        error = key + " is a job flag this bench does not read";
        return false;
      }
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
      } else if (!input.job_flag(key)) {
        api::JobSpec unused;
        std::string ignored;
        const bool job_flag = api::apply_flag(key, value, unused, ignored) !=
                              api::FlagStatus::Unknown;
        error = job_flag ? key + " is a job flag benches do not read"
                         : "unknown flag '" + key + "'";
        return false;
      } else if (api::apply_flag(key, value, f.job, error) ==
                 api::FlagStatus::Error) {
        return false;
      }
    }
    // The file-oriented knobs (--snapshot-window, --window-bytes,
    // --cache-dir) apply to the file: entries of --datasets here, not to
    // job.dataset. Without such an entry they would change nothing, so
    // they are an error; with one, validate under a file: stand-in so the
    // shared validator doesn't demand --dataset file:PATH, which benches
    // don't take.
    api::JobSpec v = f.job;
    if (v.snapshot_window > 0 || v.window_bytes > 0 || !v.cache_dir.empty()) {
      if (std::none_of(f.datasets.begin(), f.datasets.end(),
                       graph::io::is_file_dataset)) {
        error = "--snapshot-window, --window-bytes and --cache-dir require "
                "a file:PATH entry in --datasets";
        return false;
      }
      v.dataset = "file:-";
    }
    error = v.validate();
    return error.empty();
  }

  /// try_parse + usage message + exit(2) on error, like the `pipad` CLI.
  static Flags parse(int argc, char** argv, Writes writes,
                     const Reads& input = {}) {
    Flags f;
    std::string error;
    if (!try_parse(std::vector<std::string>(argv + 1, argv + argc), writes, f,
                   error, input)) {
      std::fprintf(stderr, "%s: %s\n\n%s", argv[0], error.c_str(),
                   usage(argv[0], writes, input).c_str());
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

/// Train `m` on a caller-owned Gpu, leaving the timeline available for
/// trace export (--trace-dir) or analysis.
inline models::TrainResult run_method(gpusim::Gpu& gpu,
                                      const graph::DTDG& data,
                                      models::Method m,
                                      const models::TrainConfig& cfg,
                                      runtime::PipadOptions popts = {}) {
  return replica::ReplicaTrainer(gpu, data, cfg, m, std::move(popts)).train();
}

inline models::TrainResult run_method(const graph::DTDG& data,
                                      models::Method m,
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

/// Write one labeled trace file under flags.trace_dir (no-op when the flag
/// is unset). The file lands at DIR/<bench>-<dataset>-<model>-<method>.json
/// so CI can feed it straight to `pipad analyze`. Throws Error when the
/// file cannot be written, so a bench never exits 0 with a trace missing.
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
                           trace_file_component(method) + ".json";
  analyze::TraceData td = analyze::from_timeline(gpu.timeline());
  td.dataset = dataset;
  td.model = model;
  td.method = method;
  analyze::write_trace_file(path, td);
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

  /// Write the collected records when --json was given (via
  /// api::write_bench_document); false with a message on stderr when the
  /// file cannot be written.
  bool write_if_requested() const {
    if (flags_.json.empty()) return true;
    api::Json flags = api::Json::object();
    flags.set("scale_large", flags_.job.scale_large);
    flags.set("scale_small", flags_.job.scale_small);
    flags.set("epochs", flags_.job.epochs);
    flags.set("frames", flags_.job.frames);
    flags.set("frame_size", flags_.job.frame_size);
    flags.set("threads", flags_.job.threads);
    api::Json records = api::Json::array();
    for (const Row& r : rows_) {
      const double epoch_us = r.result.total_us / flags_.job.epochs;
      records.push_back(
          api::bench_record(r.dataset, r.model, r.method, epoch_us, r.result));
    }
    try {
      api::write_bench_document(flags_.json, bench_, std::move(flags),
                                std::move(records));
    } catch (const Error& e) {
      std::fprintf(stderr, "[bench] %s\n", e.what());
      return false;
    }
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
