// Timeline export: CSV dump and ASCII Gantt rendering.
//
// Reproduces Fig. 8's pipelined-execution view: one lane per hardware
// resource (CPU, background CPU, H2D, D2H, compute) with ops placed at
// their simulated start/end. Used by the pipeline_trace example and by
// tests asserting overlap structure.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "gpusim/timeline.hpp"

namespace pipad::gpusim {

/// Optional trace labels, written as a `# dataset=... model=... method=...`
/// comment so analyze can key its JSON records the way bench_diff expects.
struct TraceMeta {
  std::string dataset;
  std::string model;
  std::string method;
};

/// One CSV row per op: name,resource,stream,start_us,end_us,bytes,lane.
/// Names containing commas, quotes or newlines are double-quoted with ""
/// escapes; times are written with enough digits to round-trip doubles
/// exactly, so an analysis of the re-read trace matches the live one bit
/// for bit.
void write_trace_csv(const Timeline& tl, std::ostream& os);

/// Same, prefixed with a `# pipad-trace v3` header and the meta comment
/// (whitespace in meta values is replaced with '_').
void write_trace_csv(const Timeline& tl, std::ostream& os,
                     const TraceMeta& meta);

struct GanttOptions {
  int width = 100;          ///< Character columns for the time axis.
  double from_us = 0.0;     ///< Window start.
  double to_us = -1.0;      ///< Window end (-1 = makespan).
  bool label_ops = false;   ///< Annotate each lane with its busiest ops.
};

/// Render lanes:
///   cpu        ####..####
///   h2d        ..####....
///   compute    ....######
/// where '#' marks busy time within the window.
std::string render_gantt(const Timeline& tl, const GanttOptions& opts = {});

/// Record-level overload for captured traces (the analyzer renders windows
/// from a TraceData without a live Timeline). to_us = -1 means the latest
/// record end; windows beyond it render as idle columns.
std::string render_gantt(const std::vector<OpRecord>& records,
                         std::size_t worker_lanes,
                         const GanttOptions& opts = {});

/// Fraction of the window during which both resources are simultaneously
/// busy — the overlap metric behind §4.3's pipeline claims.
double overlap_fraction(const Timeline& tl, Resource a, Resource b,
                        double from_us = 0.0, double to_us = -1.0);

}  // namespace pipad::gpusim
