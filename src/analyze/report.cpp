#include "analyze/report.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "gpusim/trace.hpp"

namespace pipad::analyze {

Analysis analyze_trace(TraceData td, const PassOptions& opts,
                       ThreadPool* pool, const PassRegistry* registry) {
  Analysis a;
  a.trace = std::move(td);
  a.dag = build_dag(a.trace, pool);
  a.path = critical_path(a.trace, a.dag);
  a.slack = resource_slack(a.trace);
  const PassContext ctx{a.trace, a.dag, a.path, opts};
  if (registry != nullptr) {
    a.findings = registry->run_all(ctx);
  } else {
    a.findings = PassRegistry::with_builtins().run_all(ctx);
  }
  return a;
}

namespace {

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string pct(double num, double den) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", den > 0.0 ? num / den * 100.0
                                                      : 0.0);
  return buf;
}

std::string label_or(const std::string& s) {
  return s.empty() ? std::string("trace") : s;
}

std::string blame_string(const Finding& f) {
  std::string out;
  for (const auto& [name, us] : f.blamed) {
    if (!out.empty()) out += "; ";
    out += name + " (" + fmt1(us) + " us)";
  }
  return out;
}

/// The (dataset, model, method) key every record and finding starts with.
api::Json keyed(const TraceData& td) {
  api::Json j = api::Json::object();
  j.set("dataset", label_or(td.dataset));
  j.set("model", label_or(td.model));
  j.set("method", label_or(td.method));
  return j;
}

double crit_us(const CriticalPath& path, gpusim::Resource r) {
  return path.by_resource[static_cast<int>(r)];
}

}  // namespace

void write_human_report(std::ostream& os, const Analysis& a, int top) {
  const TraceData& td = a.trace;
  os << "== trace " << label_or(td.dataset) << " / " << label_or(td.model)
     << " / " << label_or(td.method) << " ==\n";
  os << "ops " << td.records.size() << ", makespan " << fmt1(td.makespan_us)
     << " us, streams " << td.num_streams << ", worker lanes "
     << td.worker_lanes << "\n\n";

  os << "critical path: " << fmt1(a.path.total_us) << " us across "
     << a.path.segments.size() << " ops\n";
  for (int r = 0; r < gpusim::kNumResources; ++r) {
    const double us = a.path.by_resource[r];
    if (us <= 0.0) continue;
    os << "  " << gpusim::resource_name(static_cast<gpusim::Resource>(r))
       << "  " << fmt1(us) << " us (" << pct(us, a.path.total_us) << ")\n";
  }
  if (a.path.gap_us > 0.0) {
    os << "  gap  " << fmt1(a.path.gap_us) << " us ("
       << pct(a.path.gap_us, a.path.total_us) << ")\n";
  }
  os << "resource slack:";
  for (int r = 0; r < gpusim::kNumResources; ++r) {
    os << ' ' << gpusim::resource_name(static_cast<gpusim::Resource>(r))
       << '=' << fmt1(a.slack[r]) << "us";
  }
  os << "\n\n";

  if (a.findings.empty()) {
    os << "findings: none\n\n";
    gpusim::GanttOptions g;
    g.width = 80;
    os << gpusim::render_gantt(td.records, td.worker_lanes, g);
    return;
  }

  const std::size_t shown =
      std::min<std::size_t>(a.findings.size(),
                            top > 0 ? static_cast<std::size_t>(top)
                                    : a.findings.size());
  os << "findings: " << a.findings.size() << " (showing " << shown
     << ")\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const Finding& f = a.findings[i];
    os << "  " << (i + 1) << ". [" << severity_name(f.severity) << "] "
       << f.pass << "  window [" << fmt1(f.from_us) << ", "
       << fmt1(f.to_us) << ") us  recoverable " << fmt1(f.recoverable_us)
       << " us\n";
    os << "     " << f.detail << "\n";
    const std::string blame = blame_string(f);
    if (!blame.empty()) os << "     blame: " << blame << "\n";
  }
  os << "\n";

  const Finding& head = a.findings.front();
  os << "top finding window:\n";
  gpusim::GanttOptions g;
  g.width = 80;
  g.from_us = head.from_us;
  g.to_us = head.to_us > head.from_us ? head.to_us : -1.0;
  g.label_ops = true;
  os << gpusim::render_gantt(td.records, td.worker_lanes, g);
}

api::Json report_json(const std::vector<Analysis>& as, int threads) {
  using gpusim::Resource;
  api::Json records = api::Json::array();
  api::Json findings = api::Json::array();
  for (const Analysis& a : as) {
    int by_sev[4] = {0, 0, 0, 0};
    double recoverable = 0.0;
    for (const auto& f : a.findings) {
      ++by_sev[static_cast<int>(f.severity)];
      recoverable += f.recoverable_us;
    }
    api::Json r = keyed(a.trace);
    r.set("ops", a.trace.records.size());
    r.set("makespan_us", a.trace.makespan_us);
    r.set("critical_path_us", a.path.total_us);
    r.set("crit_gap_us", a.path.gap_us);
    r.set("crit_cpu_us", crit_us(a.path, Resource::Cpu));
    r.set("crit_worker_us", crit_us(a.path, Resource::CpuWorker));
    r.set("crit_h2d_us", crit_us(a.path, Resource::H2D));
    r.set("crit_d2h_us", crit_us(a.path, Resource::D2H));
    r.set("crit_compute_us", crit_us(a.path, Resource::Compute));
    r.set("findings", a.findings.size());
    r.set("findings_high", by_sev[3]);
    r.set("findings_medium", by_sev[2]);
    r.set("findings_low", by_sev[1]);
    r.set("findings_info", by_sev[0]);
    r.set("recoverable_us", recoverable);
    records.push_back(std::move(r));

    for (const Finding& f : a.findings) {
      api::Json j = keyed(a.trace);
      j.set("pass", f.pass);
      j.set("severity", severity_name(f.severity));
      j.set("from_us", f.from_us);
      j.set("to_us", f.to_us);
      j.set("recoverable_us", f.recoverable_us);
      j.set("blame", blame_string(f));
      j.set("detail", f.detail);
      findings.push_back(std::move(j));
    }
  }
  api::Json doc = api::Json::object();
  doc.set("bench", "pipad-analyze");
  doc.set("schema_version", kAnalyzeReportSchemaVersion);
  api::Json flags = api::Json::object();
  flags.set("threads", threads);
  doc.set("flags", std::move(flags));
  doc.set("records", std::move(records));
  doc.set("findings", std::move(findings));
  return doc;
}

Severity max_severity(const std::vector<Analysis>& as) {
  Severity sev = Severity::Info;
  for (const Analysis& a : as) {
    for (const Finding& f : a.findings) {
      sev = std::max(sev, f.severity);
    }
  }
  return sev;
}

}  // namespace pipad::analyze
