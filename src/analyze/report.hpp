// Analyzer front end: run the full pipeline over a trace and render the
// results — a human report (ranked findings + annotated gantt window) and
// a bench_diff-compatible JSON document.
//
// JSON layout (docs/ANALYZER.md has the schema):
//   {
//     "bench": "pipad-analyze",
//     "schema_version": 1,
//     "flags": {"threads": N},
//     "records": [ one flat record per trace, keyed (dataset|model|method),
//                  carrying critical_path_us / makespan_us / severity
//                  counts / recoverable_us — the fields bench_diff gates ],
//     "findings": [ one flat record per finding — diagnostic detail that
//                   bench_diff ignores ]
//   }
#pragma once

#include <ostream>
#include <vector>

#include "analyze/passes.hpp"
#include "api/json.hpp"

namespace pipad::analyze {

/// Everything the analyzer derived from one trace.
struct Analysis {
  TraceData trace;
  TraceDag dag;
  CriticalPath path;
  std::vector<double> slack;      ///< Per-resource idle headroom.
  std::vector<Finding> findings;  ///< Ranked (see rank_findings).
};

/// DAG -> critical path -> slack -> passes. The pool only parallelizes the
/// DAG build; results are bit-identical for any thread count.
Analysis analyze_trace(TraceData td, const PassOptions& opts = {},
                       ThreadPool* pool = nullptr);

/// Human report: trace summary, critical-path breakdown, ranked findings
/// table (top N), and an annotated gantt of the top finding's window.
void write_human_report(std::ostream& os, const Analysis& a, int top = 5);

/// Version of the analyzer JSON document. Bumped when a field changes
/// meaning or is removed; added fields are backward compatible (bench_diff
/// tolerates unknown fields).
inline constexpr int kAnalyzeReportSchemaVersion = 2;

/// The machine-readable document described above, one record per analysis
/// (write it with api::write_document).
api::Json report_json(const std::vector<Analysis>& as, int threads);

/// Highest finding severity across all analyses (Info when none fired).
Severity max_severity(const std::vector<Analysis>& as);

}  // namespace pipad::analyze
