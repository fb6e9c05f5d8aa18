// Sparse graph formats: edge lists, COO and CSR.
//
// Adjacency is stored *unweighted*; GCN mean-normalization is applied as a
// separate row-scaling kernel after aggregation. This matches PiPAD's
// overlap-aware organization (§4.1): the topology shared between snapshots is
// then literally identical data, so extracting and transferring it once is
// exact, not approximate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace pipad::graph {

/// Directed edge (src -> dst). Aggregation for vertex v reads its in-edges,
/// i.e. rows of the adjacency matrix index the *destination*.
struct Edge {
  int src = 0;
  int dst = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Pack an edge into a sortable 64-bit key.
inline std::uint64_t edge_key(const Edge& e) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.dst))
          << 32) |
         static_cast<std::uint32_t>(e.src);
}
inline Edge key_edge(std::uint64_t k) {
  return Edge{static_cast<int>(k & 0xFFFFFFFFu),
              static_cast<int>(k >> 32)};
}

/// Coordinate format — the layout PyG/PyGT ships graphs in (§4.1).
struct COO {
  int rows = 0;
  int cols = 0;
  std::vector<int> row;  ///< Destination index per nnz.
  std::vector<int> col;  ///< Source index per nnz.

  std::size_t nnz() const { return row.size(); }
  /// COO as shipped by PyG also carries a value array: 3 arrays per nnz.
  std::size_t transfer_bytes() const { return 3 * nnz() * sizeof(int); }
};

/// Compressed sparse row. Row = destination vertex; columns = sources.
struct CSR {
  int rows = 0;
  int cols = 0;
  std::vector<int> row_ptr;  ///< rows + 1 entries.
  std::vector<int> col_idx;  ///< nnz entries, sorted within each row.

  std::size_t nnz() const { return col_idx.size(); }
  int degree(int r) const { return row_ptr[r + 1] - row_ptr[r]; }

  /// Space model from §4.1: CSR needs 2*nnz + #vertices + 1 words
  /// (col indices + values + row offsets).
  std::size_t transfer_bytes() const {
    return (2 * nnz() + row_ptr.size()) * sizeof(int);
  }

  /// Structural validation; throws on inconsistency.
  void validate() const;
};

/// Build a CSR from (unsorted, possibly duplicated) edges; duplicates are
/// removed. No self-loops are added: GCN normalization adds the self term.
CSR csr_from_edges(int rows, int cols, const std::vector<Edge>& edges);

/// Build a CSR from sorted unique edge keys.
CSR csr_from_sorted_keys(int rows, int cols,
                         const std::vector<std::uint64_t>& keys);

COO coo_from_csr(const CSR& csr);
CSR csr_from_coo(const COO& coo);

/// Transpose (CSC of the original). Needed for backward aggregation: the
/// gradient flows along reversed edges, which is why GE-SpMM ships both CSR
/// and CSC to the device (§5.2).
CSR transpose(const CSR& csr);

/// Permute per-edge values aligned with csr.col_idx into the layout of
/// transpose(csr) — the backward pass aggregates along reversed edges with
/// the same weights. Uses the identical cursor walk as transpose(), so
/// out[j] is the weight of exactly the edge transpose(csr) stores at j.
std::vector<float> transpose_weights(const CSR& csr,
                                     const std::vector<float>& w);

/// Sorted edge-key list (row-major: the CSR's own order).
std::vector<std::uint64_t> edge_keys(const CSR& csr);

/// Equality of topology.
bool same_topology(const CSR& a, const CSR& b);

}  // namespace pipad::graph
