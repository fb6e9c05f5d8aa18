// Discrete-Time Dynamic Graph: an ordered sequence of snapshots (§2.1).
//
// A snapshot bundles the adjacency (the stored edges only: GCN
// normalization adds the self term), its transpose (for backward
// aggregation), and the node-feature matrix at that timestep. The DTDG also
// carries the regression targets used by the training task (predict the
// next-snapshot node signal).
#pragma once

#include <string>
#include <vector>

#include "graph/formats.hpp"
#include "tensor/tensor.hpp"

namespace pipad::graph {

struct Snapshot {
  CSR adj;     ///< A, row = destination vertex; no self-loops added.
  CSR adj_t;   ///< Transpose, for gradient aggregation.
  /// Edge weights aligned with adj.col_idx. Empty = unweighted (implicit
  /// 1.0 everywhere — the synthetic generators produce this). On-disk
  /// datasets with a weight column keep their weights here: duplicate
  /// edge instances sum, in file order.
  std::vector<float> edge_w;
  Tensor features;  ///< [num_nodes x feat_dim].

  std::size_t nnz() const { return adj.nnz(); }
  bool weighted() const { return !edge_w.empty(); }
};

struct DTDG {
  std::string name;
  int num_nodes = 0;
  int feat_dim = 0;
  /// Workload multiplier from DatasetConfig::sim_scale (1 = unscaled).
  int sim_scale = 1;
  std::vector<Snapshot> snapshots;
  /// Per-snapshot node regression target [num_nodes x 1] (e.g. next-step
  /// infection count / traffic speed), aligned with `snapshots`.
  std::vector<Tensor> targets;
  /// String-vertex-id datasets: names[v] is the original id of dense
  /// vertex v, sorted ascending (the loader's deterministic remap order),
  /// size == num_nodes. Empty = integer ids (dense index IS the id).
  /// Persisted through `.dtdg` v3 and re-emitted by the exporters.
  std::vector<std::string> vertex_names;

  int num_snapshots() const { return static_cast<int>(snapshots.size()); }

  std::size_t total_edges() const {
    std::size_t n = 0;
    for (const auto& s : snapshots) n += s.nnz();
    return n;
  }
};

/// A frame = sliding window of `size` consecutive snapshots starting at
/// `start` (§2.1). Stride between frames is 1 in all experiments.
struct Frame {
  int start = 0;
  int size = 0;

  int end() const { return start + size; }
};

/// Enumerate the frames of the given size over a DTDG (stride 1): all of
/// them, or the first `max_frames` when that is > 0.
inline std::vector<Frame> frames_of(const DTDG& g, int frame_size,
                                    int max_frames = 0) {
  std::vector<Frame> out;
  const int n = g.num_snapshots();
  for (int s = 0; s + frame_size <= n; ++s) out.push_back({s, frame_size});
  if (out.empty() && n > 0) out.push_back({0, n});  // Short sequences: 1 frame.
  if (max_frames > 0 && static_cast<int>(out.size()) > max_frames) {
    out.resize(max_frames);
  }
  return out;
}

}  // namespace pipad::graph
