// Analyzer input and the trace file: a self-contained snapshot of one
// training run's op schedule, and the only code that writes or reads it.
//
// The trace analyzer (docs/ANALYZER.md) works on plain op records rather
// than on a live gpusim::Timeline, so the same passes run over an
// in-process trainer run (from_timeline) and over a trace file written by
// `pipad trace --out` or a bench's --trace-dir (read_trace_file).
//
// A trace file is Trace Event Format JSON, so Perfetto and
// chrome://tracing open it too:
//   {"traceEvents":[...],"otherData":{"dataset":..,"model":..,"method":..}}
// Each op is one complete event ("ph":"X") with ts = start_us,
// dur = end_us - start_us, pid 0 and tid = its Gantt row; its args carry
// resource, stream, end_us, bytes and lane. Each Gantt row is named by a
// "ph":"M" thread_name event. The reader skips every event but "X", takes
// the end from args.end_us (ts + dur is not exact), and derives makespan,
// stream and lane counts from the ops.
#pragma once

#include <string>
#include <vector>

#include "api/json.hpp"
#include "gpusim/timeline.hpp"

namespace pipad::analyze {

struct TraceData {
  std::vector<gpusim::OpRecord> records;  ///< In submission order.
  std::size_t worker_lanes = 1;           ///< CpuWorker lane count.
  std::size_t num_streams = 1;
  double makespan_us = 0.0;

  // Trace labels: from the file's otherData, or filled by the caller for
  // live runs. Empty fields default to "trace" in the JSON report.
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

/// The trace-event document for `td` (what write_trace_file writes).
api::Json trace_document(const TraceData& td);

/// Write trace_document(td) to `path`, one event per line. Throws Error
/// when the file cannot be opened or written.
void write_trace_file(const std::string& path, const TraceData& td);

/// Parse a trace-event document. `path` is used in error messages only;
/// throws Error on malformed input, naming the offending event's index.
TraceData parse_trace(const std::string& text, const std::string& path);

/// Read and parse a trace file.
TraceData read_trace_file(const std::string& path);

}  // namespace pipad::analyze
