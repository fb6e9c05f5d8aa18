#include "analyze/passes.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace pipad::analyze {

using gpusim::OpRecord;
using gpusim::Resource;

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Low: return "low";
    case Severity::Medium: return "medium";
    case Severity::High: return "high";
  }
  return "info";
}

bool parse_severity(const std::string& s, Severity& out) {
  for (const Severity sev : {Severity::Info, Severity::Low, Severity::Medium,
                             Severity::High}) {
    if (s == severity_name(sev)) {
      out = sev;
      return true;
    }
  }
  return false;
}

Severity severity_for(double recoverable_us, double makespan_us) {
  if (makespan_us <= 0.0) return Severity::Info;
  const double frac = recoverable_us / makespan_us;
  if (frac >= 0.20) return Severity::High;
  if (frac >= 0.08) return Severity::Medium;
  if (frac >= 0.02) return Severity::Low;
  return Severity::Info;
}

namespace {

using Intervals = std::vector<std::pair<double, double>>;

/// What every pass reads: the trace, its critical path and the thresholds.
struct PassContext {
  const TraceData& trace;
  const CriticalPath& path;
  const PassOptions& opts;
};

/// Group key for blame: the op name truncated after its second ':', so
/// "prep:infeed:r0" and "prep:infeed:r1" pool into "prep:infeed" while
/// "kernel:gcn" stays intact.
std::string blame_key(const std::string& name) {
  auto p = name.find(':');
  if (p == std::string::npos) return name;
  p = name.find(':', p + 1);
  return p == std::string::npos ? name : name.substr(0, p);
}

/// Largest-first blame list (ties: name asc), capped at 4 groups.
std::vector<std::pair<std::string, double>> top_blamed(
    const std::map<std::string, double>& by_group) {
  std::vector<std::pair<std::string, double>> out(by_group.begin(),
                                                  by_group.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > 4) out.resize(4);
  return out;
}

double intervals_total(const Intervals& ivs) {
  double total = 0.0;
  for (const auto& [lo, hi] : ivs) total += hi - lo;
  return total;
}

/// Busy time covered by merged intervals inside [from, to).
double covered_in(const Intervals& ivs, double from, double to) {
  double total = 0.0;
  for (const auto& [lo, hi] : ivs) {
    total += std::max(0.0, std::min(hi, to) - std::max(lo, from));
  }
  return total;
}

Intervals merge_intervals(Intervals ivs) {
  std::sort(ivs.begin(), ivs.end());
  Intervals merged;
  for (const auto& iv : ivs) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

/// a − b for merged, sorted interval sets: the parts of a with nothing in
/// b running concurrently.
Intervals subtract_intervals(const Intervals& a, const Intervals& b) {
  Intervals out;
  std::size_t j = 0;
  for (auto [lo, hi] : a) {
    while (j < b.size() && b[j].second <= lo) ++j;
    double cur = lo;
    for (std::size_t k = j; k < b.size() && b[k].first < hi; ++k) {
      if (b[k].first > cur) out.emplace_back(cur, b[k].first);
      cur = std::max(cur, b[k].second);
      if (cur >= hi) break;
    }
    if (cur < hi) out.emplace_back(cur, hi);
  }
  return out;
}

/// |a ∩ b| for two merged, sorted interval sets.
double intersect_us(const Intervals& a, const Intervals& b) {
  double both = 0.0;
  std::size_t j = 0;
  for (const auto& [alo, ahi] : a) {
    while (j < b.size() && b[j].second <= alo) ++j;
    for (std::size_t k = j; k < b.size() && b[k].first < ahi; ++k) {
      both += std::max(0.0, std::min(ahi, b[k].second) -
                                std::max(alo, b[k].first));
    }
  }
  return both;
}

/// Merged busy intervals of both copy engines combined.
Intervals transfer_intervals(const TraceData& td) {
  Intervals ivs = td.busy_intervals(Resource::H2D);
  const Intervals d2h = td.busy_intervals(Resource::D2H);
  ivs.insert(ivs.end(), d2h.begin(), d2h.end());
  return merge_intervals(std::move(ivs));
}

std::string format_us(double us) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << us;
  return os.str();
}

std::string format_pct(double frac) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << frac * 100.0 << '%';
  return os.str();
}

// ---------------------------------------------------------------------------
// transfer_bound: PCIe copies carry >= transfer_bound_frac of the critical
// path. Recoverable time is the copy time not already hidden under compute
// (capped at the copies' critical-path share — hiding more than the path
// carries cannot help).
std::vector<Finding> transfer_bound(const PassContext& ctx) {
  const TraceData& td = ctx.trace;
  if (td.makespan_us <= 0.0) return {};
  double crit_us = 0.0;
  double lo = td.makespan_us, hi = 0.0;
  std::map<std::string, double> blame;
  for (const auto& seg : ctx.path.segments) {
    const OpRecord& r = td.records[seg.record];
    if (r.resource != Resource::H2D && r.resource != Resource::D2H) {
      continue;
    }
    crit_us += r.end_us - r.start_us;
    lo = std::min(lo, r.start_us);
    hi = std::max(hi, r.end_us);
    blame[blame_key(r.name)] += r.end_us - r.start_us;
  }
  const double share = crit_us / td.makespan_us;
  if (share < ctx.opts.transfer_bound_frac) return {};

  const Intervals transfer = transfer_intervals(td);
  const Intervals compute = td.busy_intervals(Resource::Compute);
  const double exposed =
      intervals_total(transfer) - intersect_us(transfer, compute);
  Finding f;
  f.from_us = lo;
  f.to_us = hi;
  f.recoverable_us = std::max(0.0, std::min(crit_us, exposed));
  f.severity = severity_for(f.recoverable_us, td.makespan_us);
  f.blamed = top_blamed(blame);
  f.detail = "copies carry " + format_pct(share) +
             " of the critical path; " + format_us(exposed) +
             " us of copy time is not overlapped with compute";
  return {f};
}

// ---------------------------------------------------------------------------
// prep_bound: host-side preparation runs *exclusively* — wall-clock time
// where some worker lane runs a `prep:*` op while no training compute
// (device kernels) runs anywhere. A streamed extractor hides preparation
// under the steady epochs, so this exposure is the signature of a pipeline
// that failed to overlap (a one-off ingest, or extraction that blocks
// training); it is exactly the time an overlapped schedule could win back.
std::vector<Finding> prep_bound(const PassContext& ctx) {
  const TraceData& td = ctx.trace;
  if (td.makespan_us <= 0.0) return {};
  Intervals prep, train;
  for (const auto& r : td.records) {
    if (r.resource == Resource::CpuWorker &&
        r.name.rfind("prep:", 0) == 0) {
      prep.emplace_back(r.start_us, r.end_us);
    } else if (r.resource == Resource::Compute) {
      train.emplace_back(r.start_us, r.end_us);
    }
  }
  const Intervals exposed =
      subtract_intervals(merge_intervals(std::move(prep)),
                         merge_intervals(std::move(train)));
  const double exposed_us = intervals_total(exposed);
  const double share = exposed_us / td.makespan_us;
  if (exposed.empty() || share < ctx.opts.prep_bound_frac) return {};

  std::map<std::string, double> blame;
  for (const auto& r : td.records) {
    if (r.resource != Resource::CpuWorker ||
        r.name.rfind("prep:", 0) != 0) {
      continue;
    }
    double ov = 0.0;
    for (const auto& [lo, hi] : exposed) {
      ov += std::max(0.0, std::min(r.end_us, hi) -
                              std::max(r.start_us, lo));
    }
    if (ov > 0.0) blame[blame_key(r.name)] += ov;
  }
  Finding f;
  f.from_us = exposed.front().first;
  f.to_us = exposed.back().second;
  f.recoverable_us = exposed_us;
  f.severity = severity_for(exposed_us, td.makespan_us);
  f.blamed = top_blamed(blame);
  f.detail = "preparation runs with no training compute in flight for " +
             format_us(exposed_us) + " us (" + format_pct(share) +
             " of the run)";
  return {f};
}

// ---------------------------------------------------------------------------
// compute_imbalance: worker-lane busy skew. If the busiest lane carries a
// meaningful load and the slowest lane does much less, re-balancing could
// recover (max - mean) of wall time.
std::vector<Finding> compute_imbalance(const PassContext& ctx) {
  const TraceData& td = ctx.trace;
  if (td.makespan_us <= 0.0 || td.worker_lanes < 2) return {};
  const auto lanes = td.worker_busy_in(0.0, td.makespan_us);
  const double maxb = *std::max_element(lanes.begin(), lanes.end());
  const double minb = *std::min_element(lanes.begin(), lanes.end());
  if (maxb <= 0.0) return {};
  const double skew = (maxb - minb) / maxb;
  if (skew < ctx.opts.imbalance_skew ||
      maxb / td.makespan_us < ctx.opts.imbalance_busy_frac) {
    return {};
  }
  double mean = 0.0;
  for (double b : lanes) mean += b;
  mean /= static_cast<double>(lanes.size());

  Finding f;
  f.from_us = 0.0;
  f.to_us = td.makespan_us;
  f.recoverable_us = std::max(0.0, maxb - mean);
  f.severity = severity_for(f.recoverable_us, td.makespan_us);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    f.blamed.emplace_back("cpu-w" + std::to_string(l), lanes[l]);
  }
  std::sort(f.blamed.begin(), f.blamed.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  f.detail = "lane busy skew " + format_pct(skew) + " (busiest " +
             format_us(maxb) + " us, idlest " + format_us(minb) + " us)";
  return {f};
}

// ---------------------------------------------------------------------------
// stream_backpressure: dead wait — wall-clock time where the foreground
// stream sits in a `wait:` op (a HostStream window join or steady-prep
// barrier) while every other engine is idle too. A healthy pipelined run
// always has the device or the worker lanes making progress during a
// foreground wait; dead wait means the window machinery itself stalled
// the schedule.
std::vector<Finding> stream_backpressure(const PassContext& ctx) {
  const TraceData& td = ctx.trace;
  if (td.makespan_us <= 0.0) return {};
  Intervals waits, working;
  for (const auto& r : td.records) {
    if (r.resource == Resource::Cpu) {
      if (r.name.rfind("wait:", 0) == 0 && r.end_us > r.start_us) {
        waits.emplace_back(r.start_us, r.end_us);
      }
    } else {
      working.emplace_back(r.start_us, r.end_us);
    }
  }
  const Intervals dead =
      subtract_intervals(merge_intervals(std::move(waits)),
                         merge_intervals(std::move(working)));
  const double dead_us = intervals_total(dead);
  const double share = dead_us / td.makespan_us;
  if (dead.empty() || share < ctx.opts.backpressure_frac) return {};

  std::map<std::string, double> blame;
  for (const auto& r : td.records) {
    if (r.resource != Resource::Cpu || r.name.rfind("wait:", 0) != 0) {
      continue;
    }
    double ov = 0.0;
    for (const auto& [lo, hi] : dead) {
      ov += std::max(0.0, std::min(r.end_us, hi) -
                              std::max(r.start_us, lo));
    }
    if (ov > 0.0) blame[blame_key(r.name)] += ov;
  }
  Finding f;
  f.from_us = dead.front().first;
  f.to_us = dead.back().second;
  f.recoverable_us = dead_us;
  f.severity = severity_for(dead_us, td.makespan_us);
  f.blamed = top_blamed(blame);
  f.detail = "stream waits with every other engine idle for " +
             format_us(dead_us) + " us (" + format_pct(share) +
             " of the run)";
  return {f};
}

// ---------------------------------------------------------------------------
// serialization: split the makespan into equal windows; flag maximal runs
// of windows where copies and compute are both active yet barely overlap —
// the pipeline is ping-ponging instead of streaming.
std::vector<Finding> serialization(const PassContext& ctx) {
  const TraceData& td = ctx.trace;
  const int nw = ctx.opts.serialization_windows;
  if (td.makespan_us <= 0.0 || nw < 1) return {};
  const Intervals transfer = transfer_intervals(td);
  const Intervals compute = td.busy_intervals(Resource::Compute);
  const double span = td.makespan_us / nw;

  std::vector<Finding> out;
  int run_start = -1;
  double run_recoverable = 0.0;
  const auto flush = [&](int end_window) {
    if (run_start < 0) return;
    Finding f;
    f.from_us = run_start * span;
    f.to_us = end_window * span;
    f.recoverable_us = run_recoverable;
    f.severity = severity_for(run_recoverable, td.makespan_us);
    std::map<std::string, double> blame;
    for (const auto& r : td.records) {
      if (r.resource != Resource::H2D && r.resource != Resource::D2H &&
          r.resource != Resource::Compute) {
        continue;
      }
      const double dur = std::min(r.end_us, f.to_us) -
                         std::max(r.start_us, f.from_us);
      if (dur > 0.0) blame[blame_key(r.name)] += dur;
    }
    f.blamed = top_blamed(blame);
    f.detail = "copies and compute ping-pong in [" +
               format_us(f.from_us) + ", " + format_us(f.to_us) +
               ") us; overlapping them could hide " +
               format_us(run_recoverable) + " us";
    out.push_back(std::move(f));
    run_start = -1;
    run_recoverable = 0.0;
  };

  for (int w = 0; w < nw; ++w) {
    const double lo = w * span;
    const double hi = (w + 1) * span;
    const double t_busy = covered_in(transfer, lo, hi);
    const double c_busy = covered_in(compute, lo, hi);
    const double hideable = std::min(t_busy, c_busy);
    double both = 0.0;
    for (const auto& [tlo, thi] : transfer) {
      const double a = std::max(tlo, lo), b = std::min(thi, hi);
      if (b > a) both += covered_in(compute, a, b);
    }
    const bool serialized =
        t_busy >= ctx.opts.serialization_busy_frac * span &&
        c_busy >= ctx.opts.serialization_busy_frac * span &&
        hideable > 0.0 &&
        both / hideable <= ctx.opts.serialization_overlap_frac;
    if (serialized) {
      if (run_start < 0) run_start = w;
      run_recoverable += hideable - both;
    } else {
      flush(w);
    }
  }
  flush(nw);
  return out;
}

// ---------------------------------------------------------------------------
// allreduce_bound: replicated-run interconnect exposure. The replica
// trainer charges each gradient synchronization as comm:allreduce:* steps
// on the link lane; exposed link time — link busy with no training compute
// (device kernels) in flight anywhere — is pure synchronization stall. A
// schedule that overlaps the reduce with the next round's prep/compute (or
// a faster interconnect) wins exactly this back.
// Single-device traces have no link ops and never trip the pass.
std::vector<Finding> allreduce_bound(const PassContext& ctx) {
  const TraceData& td = ctx.trace;
  if (td.makespan_us <= 0.0) return {};
  Intervals link, train;
  for (const auto& r : td.records) {
    if (r.resource == Resource::Link) {
      link.emplace_back(r.start_us, r.end_us);
    } else if (r.resource == Resource::Compute) {
      train.emplace_back(r.start_us, r.end_us);
    }
  }
  if (link.empty()) return {};
  const Intervals exposed =
      subtract_intervals(merge_intervals(std::move(link)),
                         merge_intervals(std::move(train)));
  const double exposed_us = intervals_total(exposed);
  const double share = exposed_us / td.makespan_us;
  if (exposed.empty() || share < ctx.opts.allreduce_bound_frac) return {};

  std::map<std::string, double> blame;
  for (const auto& r : td.records) {
    if (r.resource != Resource::Link) continue;
    double ov = 0.0;
    for (const auto& [lo, hi] : exposed) {
      ov += std::max(0.0, std::min(r.end_us, hi) -
                              std::max(r.start_us, lo));
    }
    if (ov > 0.0) blame[blame_key(r.name)] += ov;
  }
  Finding f;
  f.from_us = exposed.front().first;
  f.to_us = exposed.back().second;
  f.recoverable_us = exposed_us;
  f.severity = severity_for(exposed_us, td.makespan_us);
  f.blamed = top_blamed(blame);
  f.detail = "all-reduce runs with no compute in flight for " +
             format_us(exposed_us) + " us (" + format_pct(share) +
             " of the run)";
  return {f};
}

using PassFn = std::vector<Finding> (*)(const PassContext&);

/// The builtin catalog (passes.hpp), in catalog order.
constexpr std::pair<const char*, PassFn> kPasses[] = {
    {"transfer_bound", transfer_bound},
    {"prep_bound", prep_bound},
    {"compute_imbalance", compute_imbalance},
    {"stream_backpressure", stream_backpressure},
    {"serialization", serialization},
    {"allreduce_bound", allreduce_bound},
};

}  // namespace

void rank_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              if (a.recoverable_us != b.recoverable_us) {
                return a.recoverable_us > b.recoverable_us;
              }
              if (a.pass != b.pass) return a.pass < b.pass;
              return a.from_us < b.from_us;
            });
}

std::vector<Finding> run_passes(const TraceData& trace,
                                const CriticalPath& path,
                                const PassOptions& opts) {
  const PassContext ctx{trace, path, opts};
  std::vector<Finding> all;
  for (const auto& [name, run] : kPasses) {
    for (Finding& f : run(ctx)) {
      f.pass = name;
      all.push_back(std::move(f));
    }
  }
  rank_findings(all);
  return all;
}

}  // namespace pipad::analyze
