// Unified command-line driver: every scenario the examples hard-code,
// reachable from one production-style entry point.
//
//   pipad train --model tgcn --dataset epinions --runtime pipad
//   pipad bench --model mpnn-lstm --snapshots 24
//   pipad trace --dataset epinions --out trace.json
//   pipad analyze --trace trace.json --json analysis.json
//   pipad serve --socket /tmp/pipad.sock --executors 2
//   pipad submit --socket /tmp/pipad.sock --model gcn --priority 8
//
// The job description itself (model/dataset/training knobs) is an
// api::JobSpec: the CLI, every bench binary and the serve daemon parse and
// validate it through the same api::apply_flag vocabulary, so all surfaces
// accept and reject inputs identically. This header only adds the flags
// that are about *this* invocation (output paths, analyze gates, the serve
// socket) rather than about the job.
//
// Parsing and execution are separated (and main()-free) so the gtest suite
// can exercise both without spawning processes.
#pragma once

#include <string>
#include <vector>

#include "api/job_spec.hpp"

namespace pipad::cli {

enum class Command { Train, Bench, Trace, Analyze, Serve, Submit, Help };

struct Options {
  Command command = Command::Help;

  /// The shared job description (see api/job_spec.hpp for every field).
  api::JobSpec job;

  std::string out;          ///< `trace`: trace file path (empty = stdout only).
  std::string json;         ///< `bench`/`analyze`: write records as JSON
                            ///< (bench_diff-compatible).
  std::string log_level = "warn";  ///< debug | info | warn | error | off.

  // `analyze` only.
  std::vector<std::string> traces;  ///< Trace files to analyze (repeatable);
                                    ///< empty = run PiPAD live and analyze
                                    ///< the resulting timeline.
  std::string fail_above = "none";  ///< Exit 3 when a finding reaches this
                                    ///< severity: none | info | low |
                                    ///< medium | high.
  int top = 5;                      ///< Findings shown per trace.

  // `serve` and `submit`.
  std::string socket = "/tmp/pipad.sock";  ///< AF_UNIX socket path.
  int queue_capacity = 64;  ///< serve: admission-queue bound.
  int executors = 2;        ///< serve: concurrent job slots.
  bool no_wait = false;     ///< submit: print the job id and return.
  bool shutdown = false;    ///< submit: stop the daemon.
  bool list = false;        ///< submit: list the daemon's jobs.
  long long wait_id = 0;    ///< submit: wait for an existing job id.
  long long cancel_id = 0;  ///< submit: cancel a job id.
  long long status_id = 0;  ///< submit: print one job's state.
  std::string record_json;  ///< submit: write the result's bench record as
                            ///< a bench_diff-compatible JSON document.
};

struct ParseResult {
  bool ok = false;
  std::string error;  ///< Set when !ok (empty for a clean --help).
  Options options;
};

/// Parse arguments (program name excluded). Pure: no I/O, never exits.
ParseResult parse_args(const std::vector<std::string>& args);

/// The --help text.
std::string usage();

/// Execute a parsed command. Returns the process exit code.
int run(const Options& opts);

/// parse + report errors + run — the whole of main().
int main_impl(int argc, const char* const* argv);

}  // namespace pipad::cli
