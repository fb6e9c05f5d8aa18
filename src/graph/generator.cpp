#include "graph/generator.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_set>

#include "common/rng.hpp"
#include "graph/overlap.hpp"
#include "graph/snapshot_builder.hpp"

namespace pipad::graph {

DatasetConfig DatasetConfig::scaled(int factor) const {
  PIPAD_CHECK(factor >= 1);
  DatasetConfig c = *this;
  c.num_nodes = std::max(16, num_nodes / factor);
  c.raw_events = std::max<long long>(64, raw_events / factor);
  c.sim_scale = sim_scale * factor;
  return c;
}

std::vector<DatasetConfig> evaluation_datasets(int scale_large,
                                               int scale_small) {
  // Table 1 of the paper; edge_life derived as #E-S / #E.
  std::vector<DatasetConfig> base = {
      {"flickr", 2300000, 33100000, 132, 2, 14.5, false, 2.2, 101},
      {"youtube", 3200000, 602000, 198, 2, 18.0, false, 2.5, 102},
      {"amz-automotive", 1100000, 1300000, 524, 2, 42.0, false, 2.0, 103},
      {"epinions", 727000, 13600000, 99, 2, 5.7, false, 2.2, 104},
      {"hepth", 22000, 2600000, 214, 16, 7.0, false, 1.8, 105},
      {"pems08", 170, 7202, 90, 16, 0.0, true, 1.2, 106},
      {"covid19-england", 130, 82000, 61, 16, 1.3, false, 1.2, 107},
  };
  std::vector<DatasetConfig> out;
  out.reserve(base.size());
  for (auto& c : base) {
    if (c.name == "hepth") {
      out.push_back(c.scaled(scale_small));
    } else if (c.name == "pems08" || c.name == "covid19-england") {
      out.push_back(c);
    } else {
      out.push_back(c.scaled(scale_large));
    }
  }
  return out;
}

DatasetConfig dataset_by_name(const std::string& name, int scale_large,
                              int scale_small) {
  for (auto& c : evaluation_datasets(scale_large, scale_small)) {
    if (c.name == name) return c;
  }
  throw Error("unknown dataset: " + name);
}

namespace {

/// Power-law-ish vertex sampler: u^skew concentrates mass on low indices,
/// giving a heavy-tailed in-degree distribution (hub vertices).
int sample_vertex(Rng& rng, int n, double skew) {
  const double u = rng.next_double();
  const int v = static_cast<int>(std::pow(u, skew) * n);
  return std::min(v, n - 1);
}

struct EdgeEvent {
  int birth;         ///< First snapshot the edge is present in.
  int death;         ///< First snapshot the edge is absent from again.
  std::uint64_t key;
};

}  // namespace

DTDG generate(const DatasetConfig& cfg, ThreadPool* pool) {
  PIPAD_CHECK(cfg.num_nodes > 0 && cfg.num_snapshots > 0 && cfg.feat_dim > 0);
  Rng rng(cfg.seed);

  const int n = cfg.num_nodes;
  const int S = cfg.num_snapshots;

  // ---- Topology events ----
  std::vector<EdgeEvent> events;
  {
    // Deduplicate concurrent identical edges cheaply via a key+birth hash.
    std::unordered_set<std::uint64_t> seen;
    events.reserve(static_cast<std::size_t>(cfg.raw_events));
    for (long long i = 0; i < cfg.raw_events; ++i) {
      const int src = sample_vertex(rng, n, 1.0);  // Uniform source.
      int dst = sample_vertex(rng, n, cfg.degree_skew);
      if (dst == src) dst = (dst + 1) % n;
      const std::uint64_t key = edge_key(Edge{src, dst});

      int birth, death;
      if (cfg.static_topology) {
        birth = 0;
        death = S;
        if (!seen.insert(key).second) continue;  // Static: distinct edges.
      } else {
        birth = static_cast<int>(rng.next_below(S));
        const int whole = static_cast<int>(cfg.edge_life);
        const double frac = cfg.edge_life - whole;
        int life = std::max(1, whole + (rng.next_double() < frac ? 1 : 0));
        death = std::min(S, birth + life);
        // Distinctness for dynamic edges is (key, birth); collisions are rare
        // and harmless (deduped per snapshot during CSR build).
      }
      events.push_back({birth, death, key});
    }
  }

  // Births in order, equal births by key, so the builder's batches come
  // sorted. A stable counting pass buckets the events by birth (births lie
  // in [0, S)); then each bucket is radix-sorted by key, with its slice of
  // the draw-order array as scratch. The buckets sort on the calling
  // thread: as pool tasks they saved about 20 ms on graph-heavy but left
  // bench/e2e ingest-file's later file loads in the same process about
  // 100 ms slower, for a cause not yet found. The order among equal
  // (birth, key) events cannot matter: the topology is unweighted.
  std::vector<std::size_t> start(static_cast<std::size_t>(S) + 1, 0);
  for (const EdgeEvent& e : events) ++start[e.birth + 1];
  for (int t = 0; t < S; ++t) start[t + 1] += start[t];
  std::vector<EdgeEvent> by_birth(events.size());
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (const EdgeEvent& e : events) by_birth[next[e.birth]++] = e;
  }
  for (int t = 0; t < S; ++t) {
    const std::size_t lo = start[t], len = start[t + 1] - lo;
    radix_sort_by_key(std::span(by_birth).subspan(lo, len),
                      std::span(events).subspan(lo, len));
  }
  events = std::vector<EdgeEvent>();

  DTDG g;
  g.name = cfg.name;
  g.num_nodes = n;
  g.feat_dim = cfg.feat_dim;
  g.sim_scale = cfg.sim_scale;
  {
    SnapshotBuilder builder(n, /*weighted=*/false);
    for (const EdgeEvent& e : by_birth) builder.add(e.birth, e.death, e.key);
    by_birth = std::vector<EdgeEvent>();
    g.snapshots = builder.finish(S);
  }
  // Features draw from the same stream right after the topology events.
  ar1_features(g, rng);
  finish_snapshots(g, pool);
  return g;
}

DtdgStats compute_stats(const DTDG& g) {
  DtdgStats st;
  std::vector<std::uint64_t> all;
  std::vector<double> overlaps;
  for (int t = 0; t < g.num_snapshots(); ++t) {
    const auto& adj = g.snapshots[t].adj;
    st.smoothed_edges += adj.nnz();
    st.max_snapshot_edges = std::max(st.max_snapshot_edges, adj.nnz());
    auto k = edge_keys(adj);
    all.insert(all.end(), k.begin(), k.end());
    if (t > 0) {
      overlaps.push_back(overlap_rate(g.snapshots[t - 1].adj, adj));
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  st.distinct_edges = all.size();
  if (!overlaps.empty()) {
    double s = 0.0;
    for (double v : overlaps) s += v;
    st.mean_adjacent_overlap = s / static_cast<double>(overlaps.size());
  }
  return st;
}

}  // namespace pipad::graph
