// run_job: the one execution path behind every entry point. Builds the
// dataset a JobSpec describes (on the process-wide ComputePool), trains it
// under the requested runtime on a caller- or internally-owned simulated
// Gpu, optionally runs the trace analyzer, and returns the summary the
// JobResult schema carries. The CLI train/bench/trace verbs, the serve
// executors and serve_test's standalone-comparison runs all call this, so
// "what a job means" is defined exactly once.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "gpusim/gpu.hpp"
#include "graph/dtdg.hpp"
#include "graph/io/loader.hpp"
#include "models/training.hpp"
#include "pipad/pipad_trainer.hpp"

namespace pipad::api {

/// A dataset plus, for on-disk loads, the measured wall-clock of its ingest
/// phases (reported only; the modeled timeline starts at training).
struct BuiltDataset {
  graph::DTDG data;
  graph::io::LoadStats load;
  bool from_file = false;
};

/// Build the dataset the spec describes. Configures the ComputePool to
/// spec.threads first (0 = library default) so generation/parsing
/// parallelize on the same lanes the trainer will use.
BuiltDataset build_dataset(const JobSpec& spec);

/// Training-loop config derived from the spec.
models::TrainConfig train_config(const JobSpec& spec);

/// PiPAD runtime options derived from the spec (cancel flag attached by
/// the caller when it wants cooperative cancellation).
runtime::PipadOptions pipad_options(const JobSpec& spec);

/// What one run produced: the timing summary, losses, and the optional
/// bitwise-comparison / analyzer payloads.
struct RunOutput {
  models::TrainResult train;
  std::string dataset_name;
  std::vector<float> params;  ///< Flat value+grad per param, in param
                              ///< order, when spec.return_params.
  bool analyzed = false;
  double critical_path_us = 0.0;
  int findings = 0;
  std::string worst_severity;
};

/// Train `runtime` (not necessarily spec.runtime — `pipad bench` runs the
/// baseline and pipad on the same spec) on a caller-owned Gpu. Throws
/// pipad::Cancelled when `cancel` fires, pipad::Error on any job failure.
RunOutput run_method(const JobSpec& spec, const std::string& runtime,
                     gpusim::Gpu& gpu, const BuiltDataset& data,
                     const std::atomic<bool>* cancel = nullptr);

/// Build + train spec.runtime on an internal Gpu — the serve executor path.
RunOutput run_job(const JobSpec& spec,
                  const std::atomic<bool>* cancel = nullptr);

/// Assemble the JobResult for a completed (state "done") run.
JobResult make_result(const JobSpec& spec, const RunOutput& out);

}  // namespace pipad::api
