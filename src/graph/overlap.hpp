// Topology-overlap analysis among snapshots (§3.1, §4.1).
//
// Real dynamic graphs evolve slowly (~10 % per step across the paper's
// datasets), so adjacent snapshots share most of their edges. These helpers
// compute the shared ("overlap") edge set of a snapshot group and each
// snapshot's exclusive remainder — the decomposition PiPAD transfers and
// aggregates separately. Both walk the members' CSR rows directly, merging
// each row's sorted column indices; no edge-key vectors are built.
#pragma once

#include <vector>

#include "graph/formats.hpp"

namespace pipad::graph {

/// Jaccard overlap rate of two edge sets of the same shape:
/// |A ∩ B| / |A ∪ B| (1 when both are empty).
double overlap_rate(const CSR& a, const CSR& b);

/// Result of decomposing a snapshot group into shared + exclusive topology.
struct OverlapDecomposition {
  CSR overlap;                  ///< Edges present in *every* group member.
  std::vector<CSR> exclusive;   ///< Per-member leftover edges.
  // Per-edge weights, empty unless some member is weighted. overlap_w[i]
  // holds member i's weights of the shared edges (aligned with
  // overlap.col_idx); exclusive_w[i] aligns with exclusive[i].col_idx. An
  // unweighted member of a mixed group gets 1.0 fills.
  std::vector<std::vector<float>> overlap_w;
  std::vector<std::vector<float>> exclusive_w;
};

/// Decompose a group of adjacency matrices (all same shape) row by row:
/// intersect the members' column lists, then split each member's row into
/// shared and exclusive entries. `weights`, when given, holds one entry per
/// member: its per-edge weights aligned with col_idx, or empty for an
/// unweighted member. Invariant: overlap ∪ exclusive[i] == group[i] and the
/// union is disjoint; every part edge carries the weight it has in its
/// member.
OverlapDecomposition decompose_group(
    const std::vector<const CSR*>& group,
    const std::vector<const std::vector<float>*>& weights = {});

}  // namespace pipad::graph
