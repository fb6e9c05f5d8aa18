// JobSpec: the one description of a training/bench job, shared by every
// entry point — `pipad train|bench|trace|analyze`, all bench binaries,
// `pipad submit`, and the `pipad serve` daemon.
//
// Before this layer, job configuration was triplicated across
// runtime::PipadOptions, the CLI parser and bench::Flags; a daemon could
// not accept, validate or report a job without re-implementing all three.
// Now there is exactly one flag vocabulary (apply_flag / parse_job_spec,
// one help text in flags_help()), one strict validator (validate(), which
// also owns the pipad-only --replicas rule so benches and the daemon reject
// it on baseline runtimes identically to the CLI), and one JSON wire form
// (to_json/from_json, strict: unknown or mistyped fields are errors) that
// round-trips losslessly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/json.hpp"

namespace pipad::api {

struct JobSpec {
  // What to train.
  std::string model = "tgcn";     ///< gcn | tgcn | evolvegcn | mpnn-lstm.
  std::string runtime = "pipad";  ///< pipad | pygt | pygt-a | pygt-r | pygt-g.

  // Dataset: a Table-1 name, "synthetic" (generated from the knobs below),
  // or "file:PATH" (src/graph/io, docs/DATASET_FORMATS.md).
  std::string dataset = "synthetic";
  int snapshots = 0;        ///< >0 overrides the dataset's snapshot count
                            ///< (file: split the time range into N windows).
  long long snapshot_window = 0;  ///< file: fixed time-window width.
  long long window_bytes = 0;     ///< file: streaming read window in bytes
                                  ///< (0 = the 8 MiB loader default).
  std::string features;     ///< file: optional node-feature file.
  std::string cache_dir;    ///< file: .dtdg snapshot-cache directory.
  int nodes = 2000;         ///< Synthetic vertex count.
  long long events = 40000; ///< Synthetic distinct temporal edges.
  int feat_dim = 2;         ///< Synthetic feature dimension.
  double edge_life = 8.0;   ///< Synthetic: mean snapshots an edge stays
                            ///< alive. file: integer snapshots each edge
                            ///< instance lives (default 1 when not given).
  bool edge_life_set = false;  ///< --edge-life was passed explicitly.
  int scale_large = 256;    ///< Divisor for the four large named graphs.
  int scale_small = 8;      ///< Divisor for HepTh.

  // Training loop.
  int epochs = 2;
  int frame_size = 8;
  int frames = 4;           ///< Max frames per epoch (0 = every frame).
  int threads = 0;          ///< ComputePool worker lanes (0 = library
                            ///< default; the serve daemon pins one width
                            ///< for every job — numerics are unaffected by
                            ///< the thread-invariance contract).
  int replicas = 0;         ///< >=1: replicated data-parallel training
                            ///< across K simulated devices (pipad only).
  std::uint64_t seed = 2023;

  // Multi-tenant scheduling (serve); inert for one-shot runs.
  std::string tenant = "default";  ///< Fair-share accounting bucket.
  int priority = 5;                ///< 1 (lowest) .. 10 (highest).
  std::string tag;                 ///< Free-form client label, echoed back.

  // Result shaping.
  bool return_params = false;  ///< JobResult carries the flat params+grads.
  bool run_analyzer = false;   ///< JobResult carries an analyzer summary.

  /// Strict post-parse validation: every rule that used to live in the CLI
  /// (including the pipad-only --replicas constraint) plus range/vocabulary
  /// checks for specs built from JSON.
  /// Returns the error message, or "" when valid.
  std::string validate() const;

  /// Serialize every field (edge_life only when explicitly set, so the
  /// file-dataset default of 1 survives a round trip).
  Json to_json() const;

  /// Strict parse from a JSON object: unknown fields, wrong types and
  /// out-of-range values are errors. Does not call validate().
  static bool from_json(const Json& j, JobSpec& spec, std::string& error);
};

/// Result of offering one flag to apply_flag.
enum class FlagStatus {
  Applied,  ///< Recognized and stored.
  Unknown,  ///< Not a JobSpec flag — the caller may handle it itself.
  Error,    ///< Recognized but the value is bad; `error` explains.
};

/// The shared flag vocabulary (--model, --dataset, --threads, --replicas,
/// ...). `flag` is the bare "--name"; `value` its argument. Owns the
/// canonical error messages, so the CLI and every bench reject bad inputs
/// with identical text.
FlagStatus apply_flag(const std::string& flag, const std::string& value,
                      JobSpec& spec, std::string& error);

/// Parse a whole argument list of shared flags (--flag value or
/// --flag=value) and validate the result. Unknown flags are errors here;
/// callers with surface-specific flags (CLI subcommand flags, bench
/// --datasets/--json) drive apply_flag directly instead.
bool parse_job_spec(const std::vector<std::string>& args, JobSpec& spec,
                    std::string& error);

/// One help text for the shared flags, embedded by the CLI usage() and the
/// bench usage strings.
std::string flags_help();

}  // namespace pipad::api
