// Synthetic DTDG generators standing in for the paper's datasets (Table 1).
//
// The originals (Network Repository / ASTGNN / MPNN-LSTM data) are not
// available offline, so we generate seeded synthetic dynamic graphs that
// reproduce the properties the experiments depend on:
//   - vertex count, per-snapshot edge count, snapshot count, feature dim;
//   - power-law in-degree distribution (graph locality / load imbalance);
//   - slow topology evolution via edge-life smoothing [ESDG]: an edge born at
//     time t stays alive for `edge_life` snapshots, so adjacent snapshots
//     overlap heavily (~(L-1)/(L+1) Jaccard), matching the ~10 % change rate
//     the paper reports (§3.1);
//   - temporally correlated node features and a learnable regression target.
//
// #E in Table 1 maps to `raw_events` (distinct temporal edges) and #E-S to
// raw_events * edge_life (edge instances summed over snapshots after
// smoothing). PEMS08 is a static sensor topology: all edges live the whole
// timeline. The `scale` divisor shrinks vertices and events together so the
// single-core simulator stays fast; scale=1 reproduces the paper's sizes.
#pragma once

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "graph/dtdg.hpp"

namespace pipad::graph {

struct DatasetConfig {
  std::string name;
  int num_nodes = 0;
  long long raw_events = 0;   ///< Distinct temporal edges (#E).
  int num_snapshots = 0;      ///< #S.
  int feat_dim = 0;           ///< D.
  double edge_life = 1.0;     ///< Mean snapshots an edge stays alive.
  bool static_topology = false;  ///< PEMS08: edges never change.
  double degree_skew = 2.0;   ///< Power-law exponent proxy (higher = more hubs).
  std::uint64_t seed = 2023;
  /// Workload multiplier recorded when the dataset was scaled down:
  /// trainers multiply transfer bytes and kernel stats back up by this so
  /// simulated time reflects the full-size system while the (cheap) real
  /// math runs on the reduced graph.
  int sim_scale = 1;

  /// Divide num_nodes and raw_events by `factor` (keeps density) and
  /// record it in sim_scale.
  DatasetConfig scaled(int factor) const;
};

/// The seven evaluation datasets, pre-scaled for single-core runs.
/// `scale_large` divides the four large graphs (default 64),
/// `scale_small` divides HepTh (default 4); PEMS08/Covid19 run full-size.
std::vector<DatasetConfig> evaluation_datasets(int scale_large = 64,
                                               int scale_small = 4);

/// Look up one evaluation dataset by name ("flickr", "youtube",
/// "amz-automotive", "epinions", "hepth", "pems08", "covid19-england").
DatasetConfig dataset_by_name(const std::string& name, int scale_large = 64,
                              int scale_small = 4);

/// Generate the full DTDG (adjacency + transpose + features + targets).
/// The RNG draws (events, then the AR(1) walk) and the SnapshotBuilder
/// sweep run on the calling thread; with a pool, transposes and targets run
/// as per-snapshot tasks, so the result is the same for any pool size.
DTDG generate(const DatasetConfig& cfg, ThreadPool* pool = nullptr);

/// Statistics used by bench/table1_datasets.
struct DtdgStats {
  std::size_t distinct_edges = 0;    ///< #E: distinct temporal edges.
  std::size_t smoothed_edges = 0;    ///< #E-S: sum of |E_t| over snapshots.
  double mean_adjacent_overlap = 0;  ///< Mean Jaccard of adjacent snapshots.
  std::size_t max_snapshot_edges = 0;
};

DtdgStats compute_stats(const DTDG& g);

}  // namespace pipad::graph
