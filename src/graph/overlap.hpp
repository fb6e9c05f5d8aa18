// Topology-overlap analysis among snapshots (§3.1, §4.1).
//
// Real dynamic graphs evolve slowly (~10 % per step across the paper's
// datasets), so adjacent snapshots share most of their edges. These helpers
// compute the shared ("overlap") edge set of a snapshot group and each
// snapshot's exclusive remainder — the decomposition PiPAD transfers and
// aggregates separately.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/formats.hpp"

namespace pipad::graph {

/// Jaccard overlap rate of two edge sets: |A ∩ B| / |A ∪ B|.
double overlap_rate(const CSR& a, const CSR& b);

/// Result of decomposing a snapshot group into shared + exclusive topology.
struct OverlapDecomposition {
  CSR overlap;                  ///< Edges present in *every* group member.
  std::vector<CSR> exclusive;   ///< Per-member leftover edges.
};

/// Decompose a group of adjacency matrices (all same shape).
/// Invariant: overlap ∪ exclusive[i] == group[i] and the union is disjoint.
OverlapDecomposition decompose_group(const std::vector<const CSR*>& group);

/// Intersection / difference of sorted edge-key vectors (exposed for tests).
std::vector<std::uint64_t> key_intersection(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b);
std::vector<std::uint64_t> key_difference(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b);

}  // namespace pipad::graph
