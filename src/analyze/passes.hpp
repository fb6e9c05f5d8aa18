// Detection passes: fixed diagnoses over an analyzed trace.
//
// Mirrors the PerFlow shape: the trace is abstracted once (TraceData +
// TraceDag + CriticalPath), then independent passes inspect it and emit
// ranked findings. run_passes runs this catalog, in this order
// (docs/ANALYZER.md documents each in detail):
//   transfer_bound      PCIe copies carry a large share of the critical
//                       path and are not hidden under compute.
//   prep_bound          host-side preparation (worker `prep:*` ops) runs
//                       with no device compute in flight — the batch-
//                       extractor signature a streamed schedule removes.
//   compute_imbalance   per-worker-lane busy time is skewed: some lanes
//                       idle while the busiest one gates progress.
//   stream_backpressure foreground `wait:` ops during which every other
//                       engine idles too (dead HostStream window joins).
//   serialization       windows where copies and compute are both active
//                       but barely overlap — the pipeline degenerated to
//                       ping-pong execution.
//   allreduce_bound     replicated runs only: the modeled interconnect
//                       (comm:allreduce:* ops on the link lane) is exposed
//                       — gradient synchronization runs with no device
//                       compute in flight to hide it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analyze/dag.hpp"

namespace pipad::analyze {

enum class Severity { Info = 0, Low = 1, Medium = 2, High = 3 };

const char* severity_name(Severity s);

/// Parse "info"/"low"/"medium"/"high" (case-sensitive). Returns false on
/// anything else.
bool parse_severity(const std::string& s, Severity& out);

/// Bands on recoverable-time-as-a-fraction-of-makespan:
/// >= 20% High, >= 8% Medium, >= 2% Low, else Info.
Severity severity_for(double recoverable_us, double makespan_us);

/// One diagnosis: a time window, the ops to blame, and how much of the
/// makespan the pass estimates could be recovered by fixing it.
struct Finding {
  std::string pass;
  Severity severity = Severity::Info;
  double from_us = 0.0;
  double to_us = 0.0;
  double recoverable_us = 0.0;
  /// Top op-name groups (name truncated at the second ':') with the busy
  /// time each contributes to the diagnosis, largest first.
  std::vector<std::pair<std::string, double>> blamed;
  std::string detail;  ///< One human-readable sentence.
};

/// Tunable detection thresholds, all as fractions of the makespan (or of
/// per-window spans for serialization). Defaults are calibrated against
/// the ablation_tuner traces: the streamed run does not trip prep_bound,
/// while a schedule that blocks training on a whole extraction batch does.
struct PassOptions {
  double transfer_bound_frac = 0.25;   ///< Crit-path transfer share.
  double prep_bound_frac = 0.04;       ///< Exclusive-prep share of makespan
                                       ///< (batch ablation ~7%, stream ~2%).
  double imbalance_skew = 0.25;        ///< (max-min)/max lane busy.
  double imbalance_busy_frac = 0.10;   ///< Busiest lane / makespan floor.
  double backpressure_frac = 0.05;     ///< Dead-wait share of makespan.
  int serialization_windows = 16;      ///< Equal windows over the makespan.
  double serialization_busy_frac = 0.20;    ///< Per-window activity floor.
  double serialization_overlap_frac = 0.05; ///< Overlap ceiling to flag.
  double allreduce_bound_frac = 0.02;  ///< Exposed-link share of makespan.
};

/// Rank findings in place: severity desc, recoverable_us desc, pass name
/// asc, window start asc.
void rank_findings(std::vector<Finding>& findings);

/// Run every pass of the catalog above and rank the findings. Passes run
/// serially, so the result is the same for a given trace whatever the
/// thread count (only the DAG build fans out).
std::vector<Finding> run_passes(const TraceData& trace,
                                const CriticalPath& path,
                                const PassOptions& opts);

}  // namespace pipad::analyze
