// Sliced CSR: PiPAD's graph representation (§4.1).
//
// Each CSR row is cut into slices of at most `slice_bound` non-zeros. The
// Row Offsets array of CSR becomes Row Indices (one row id per slice) and a
// new Slice Offsets array locates each slice's elements. Benefits:
//   - slice-grained overlap extraction is cheap (slices are small and
//     position-independent),
//   - SpMM load balance: a warp processes a bounded amount of work no matter
//     how skewed the degree distribution is,
//   - empty rows cost nothing (no slices), unlike CSR's mandatory row_ptr
//     entry — the Youtube effect in §5.3/§5.4.
//
// Space: 2*nnz + 2*#slices + 1 words (cols + values + RI + SO), between
// CSR's 2*nnz + #V + 1 and COO's 3*nnz (§4.1).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/formats.hpp"

namespace pipad::sliced {

inline constexpr int kDefaultSliceBound = 32;  ///< §4.1: up to 32 nnz/slice.
/// Thread blocks a GPU keeps in flight for the load-balance model.
inline constexpr int kBalanceUnits = 512;

struct SlicedCSR {
  int rows = 0;
  int cols = 0;
  int slice_bound = kDefaultSliceBound;
  std::vector<int> row_idx;    ///< Row of each slice (size = #slices).
  std::vector<int> slice_off;  ///< Start of each slice in col_idx (#slices+1).
  std::vector<int> col_idx;    ///< Column indices, sorted within a slice.
  /// sliced_load_balance(*this, kBalanceUnits).imbalance(), computed once
  /// by slice() so every aggregation over the topology reuses it; 1.0
  /// (balanced) for a topology without slices.
  double imbalance = 1.0;

  std::size_t num_slices() const { return row_idx.size(); }
  std::size_t nnz() const { return col_idx.size(); }
  int slice_size(std::size_t s) const {
    return slice_off[s + 1] - slice_off[s];
  }

  /// Space model from §4.1 (values counted even though ours are implicit 1).
  std::size_t transfer_bytes() const {
    return (2 * nnz() + 2 * num_slices() + 1) * sizeof(int);
  }

  void validate() const;
};

/// Slice a CSR; every slice holds at most `bound` nnz and never crosses a
/// row boundary.
SlicedCSR slice(const graph::CSR& csr, int bound = kDefaultSliceBound);

/// Reassemble the CSR (exact inverse of slice()).
graph::CSR unslice(const SlicedCSR& s);

/// Load-balance model (§5.4, methodology of [Huang et al. PPoPP'21]):
/// distribute work units (slices here, rows for CSR) over `parallel_units`
/// thread blocks; `balanced_us` is total/units, `actual_us` the maximum bin.
struct LoadBalance {
  double balanced_cost = 0.0;  ///< Ideal: total work / #units.
  double actual_cost = 0.0;    ///< Max per-unit work under block-cyclic map.
  double imbalance() const {
    return balanced_cost <= 0.0 ? 1.0 : actual_cost / balanced_cost;
  }
};

/// Work per row given a CSR (one warp per row).
LoadBalance csr_load_balance(const graph::CSR& csr, int parallel_units);
/// Work per slice given a SlicedCSR (one warp per slice group).
LoadBalance sliced_load_balance(const SlicedCSR& s, int parallel_units);

}  // namespace pipad::sliced
