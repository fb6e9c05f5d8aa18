// Timeline views: ASCII Gantt rendering and the copy/compute overlap
// metric.
//
// Reproduces Fig. 8's pipelined-execution view: one lane per hardware
// resource (CPU, background CPU, H2D, D2H, compute) with ops placed at
// their simulated start/end. Used by `pipad trace`, by the analyzer's
// report windows and by tests asserting overlap structure. Trace files
// are written and read by analyze/trace_data, which labels its lanes with
// the rows gantt_rows() returns.
#pragma once

#include <string>
#include <vector>

#include "gpusim/timeline.hpp"

namespace pipad::gpusim {

/// One rendered row of the Gantt chart. For CpuWorker there is a row per
/// worker lane; every other resource is a single row.
struct GanttRow {
  Resource resource;
  std::size_t lane = 0;
  std::string label;

  bool matches(const OpRecord& rec) const {
    return rec.resource == resource &&
           (resource != Resource::CpuWorker || rec.lane == lane);
  }
};

/// The chart's rows, top to bottom: cpu, one row per worker lane, h2d,
/// d2h, compute, and link when any record is on the interconnect.
std::vector<GanttRow> gantt_rows(const std::vector<OpRecord>& records,
                                 std::size_t worker_lanes);

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
