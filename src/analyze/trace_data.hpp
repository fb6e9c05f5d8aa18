// Analyzer input: a self-contained snapshot of one training run's op
// schedule.
//
// The trace analyzer (docs/ANALYZER.md) works on plain op records rather
// than on a live gpusim::Timeline, so the same passes run over an
// in-process trainer run (from_timeline) and over a trace CSV written by
// `pipad trace`, `pipad analyze`, or a bench's --trace-dir
// (read_trace_csv / read_trace_file). The CSV reader understands the
// optional `# pipad-trace v2` metadata header that labels a trace with the
// (dataset, model, method) key the bench_diff-compatible JSON report uses,
// and accepts only the 9-field v2 row layout (the 7 op fields followed by
// the region executor's steals,blocks counters).
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "gpusim/timeline.hpp"

namespace pipad::analyze {

struct TraceData {
  std::vector<gpusim::OpRecord> records;  ///< In submission order.
  std::size_t worker_lanes = 1;           ///< CpuWorker lane count.
  std::size_t num_streams = 1;
  double makespan_us = 0.0;

  // Trace labels: from CSV metadata, or filled by the caller for live
  // runs. Empty fields default to "trace" in the JSON report.
  std::string dataset;
  std::string model;
  std::string method;

  /// Per-lane busy time of CpuWorker ops whose name starts with `prefix`
  /// ("" = all), clipped to [t0, t1).
  std::vector<double> worker_busy_in(double t0, double t1,
                                     const std::string& prefix = {}) const;

  /// Merged busy intervals of one resource, clipped to [from, to).
  std::vector<std::pair<double, double>> busy_intervals(
      gpusim::Resource r, double from_us = 0.0, double to_us = -1.0) const;

  /// Total busy time of a resource (CpuWorker: summed over lanes).
  double busy_us(gpusim::Resource r) const;
};

/// Capture a finished timeline (records are copied; the timeline can keep
/// running or be destroyed afterwards).
TraceData from_timeline(const gpusim::Timeline& tl);

/// Parse a trace CSV (write_trace_csv format, quoted fields supported).
/// `path` is used in error messages only. Throws Error on
/// malformed input.
TraceData read_trace_csv(std::istream& is, const std::string& path);

/// Convenience: open + parse a trace CSV file.
TraceData read_trace_file(const std::string& path);

}  // namespace pipad::analyze
