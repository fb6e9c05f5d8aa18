#include "analyze/dag.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pipad::analyze {

using gpusim::Resource;

namespace {

/// Tolerance for "this op's end gated that op's start". In-process times
/// propagate exactly (the scheduler computes starts as max of ends), and
/// trace files carry shortest round-trip doubles — the epsilon only
/// absorbs last-ulp noise in traces from other writers.
double time_eps(const TraceData& td) {
  return 1e-6 + 1e-9 * td.makespan_us;
}

ThreadPool* usable_pool(ThreadPool* pool, std::size_t n) {
  // Small traces are cheaper to scan serially than to fan out; nested pool
  // calls run inline by contract.
  if (pool == nullptr || n < 2048) return nullptr;
  return ThreadPool::current_pool() == nullptr ? pool : nullptr;
}

}  // namespace

TraceDag build_dag(const TraceData& td, ThreadPool* pool) {
  const auto& recs = td.records;
  const std::size_t n = recs.size();
  TraceDag dag;
  dag.nodes.resize(n);

  // Program order + engine order in one serial pass (last-seen chains).
  std::vector<int> last_in_stream(td.num_streams, -1);
  std::vector<int> last_in_lane(td.worker_lanes, -1);
  int last_on_engine[gpusim::kNumResources];
  std::fill(std::begin(last_on_engine), std::end(last_on_engine), -1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = recs[i];
    DagNode& nd = dag.nodes[i];
    if (r.resource == Resource::CpuWorker) {
      // Lanes are both the program order and the engine of worker ops.
      if (r.lane < last_in_lane.size()) {
        nd.stream_pred = last_in_lane[r.lane];
        nd.engine_pred = last_in_lane[r.lane];
        last_in_lane[r.lane] = static_cast<int>(i);
      }
    } else {
      if (r.stream < last_in_stream.size()) {
        nd.stream_pred = last_in_stream[r.stream];
        last_in_stream[r.stream] = static_cast<int>(i);
      }
      const int e = static_cast<int>(r.resource);
      nd.engine_pred = last_on_engine[e];
      last_on_engine[e] = static_cast<int>(i);
    }
  }

  // End-time index for join inference: (end_us, index), sorted.
  std::vector<std::pair<double, int>> by_end(n);
  for (std::size_t i = 0; i < n; ++i) {
    by_end[i] = {recs[i].end_us, static_cast<int>(i)};
  }
  std::sort(by_end.begin(), by_end.end());

  const double eps = time_eps(td);
  const auto infer = [&](std::size_t i) {
    const auto& r = recs[i];
    DagNode& nd = dag.nodes[i];
    double bound = 0.0;
    if (nd.stream_pred >= 0) {
      bound = std::max(bound, recs[nd.stream_pred].end_us);
    }
    if (nd.engine_pred >= 0) {
      bound = std::max(bound, recs[nd.engine_pred].end_us);
    }
    if (r.start_us > bound + eps) {
      // Something beyond stream/engine availability gated this op: find
      // the producer whose completion coincides with the start. Scan the
      // tight window [start - eps, start + eps]; the lowest index wins so
      // the edge is deterministic.
      auto it = std::lower_bound(by_end.begin(), by_end.end(),
                                 std::make_pair(r.start_us - eps, -1));
      int best = -1;
      for (; it != by_end.end() && it->first <= r.start_us + eps; ++it) {
        const int j = it->second;
        if (j == static_cast<int>(i)) continue;
        if (best < 0 || j < best) best = j;
      }
      nd.join_pred = best;
    }
    // Binding predecessor: the max end among the three; cross edges win
    // ties so the blame lands on the dependency, not the idle engine.
    double crit_end = -1.0;
    for (const int p : {nd.join_pred, nd.stream_pred, nd.engine_pred}) {
      if (p >= 0 && recs[p].end_us > crit_end + eps) {
        crit_end = recs[p].end_us;
        nd.crit_pred = p;
      }
    }
    nd.slack_us = std::max(0.0, r.start_us - std::max(crit_end, 0.0));
  };

  if (ThreadPool* p = usable_pool(pool, n)) {
    p->parallel_for(n, infer);
  } else {
    for (std::size_t i = 0; i < n; ++i) infer(i);
  }
  return dag;
}

CriticalPath critical_path(const TraceData& td, const TraceDag& dag) {
  CriticalPath cp;
  const auto& recs = td.records;
  if (recs.empty()) return cp;
  PIPAD_CHECK_MSG(dag.nodes.size() == recs.size(),
                  "DAG was built from a different trace");

  // Terminal op: latest end, lowest index on ties.
  int cur = 0;
  for (std::size_t i = 1; i < recs.size(); ++i) {
    if (recs[i].end_us > recs[cur].end_us) cur = static_cast<int>(i);
  }

  std::vector<char> visited(recs.size(), 0);
  while (cur >= 0 && !visited[cur]) {
    visited[cur] = 1;
    const auto& r = recs[cur];
    const int pred = dag.nodes[cur].crit_pred;
    const double pred_end = pred >= 0 ? recs[pred].end_us : 0.0;
    const double gap = std::max(0.0, r.start_us - pred_end);
    cp.segments.push_back({cur, gap});
    cp.gap_us += gap;
    cp.by_resource[static_cast<int>(r.resource)] += r.end_us - r.start_us;
    cur = pred;
  }
  std::reverse(cp.segments.begin(), cp.segments.end());
  cp.total_us = cp.gap_us;
  for (double d : cp.by_resource) cp.total_us += d;
  return cp;
}

std::vector<double> resource_slack(const TraceData& td) {
  std::vector<double> slack(gpusim::kNumResources, 0.0);
  for (int i = 0; i < gpusim::kNumResources; ++i) {
    const auto r = static_cast<Resource>(i);
    double busy = 0.0;
    if (r == Resource::CpuWorker) {
      // Lanes run concurrently: headroom is measured against the busiest
      // lane, not the sum.
      const auto lanes = td.worker_busy_in(0.0, td.makespan_us);
      for (double b : lanes) busy = std::max(busy, b);
    } else {
      busy = td.busy_us(r);
    }
    slack[i] = std::max(0.0, td.makespan_us - busy);
  }
  return slack;
}

}  // namespace pipad::analyze
