// Frame partitioning for multi-snapshot parallel processing (§4.1, §4.2).
//
// PiPAD divides each frame into partitions of S_per consecutive snapshots.
// For one partition, graph::decompose_group splits the members' rows into
// the topology shared by *all* members (the overlap part, transferred and
// aggregated once) plus a small exclusive part per member, with each part's
// weights; build_partition slices every part and its transpose. Feature
// matrices of the partition are coalesced row-wise into
// one [N x (F * S_per)] matrix so a single aggregation pass serves every
// snapshot with wide, coalescent memory accesses.
#pragma once

#include <vector>

#include "common/thread_pool.hpp"
#include "graph/dtdg.hpp"
#include "graph/overlap.hpp"
#include "sliced/sliced_csr.hpp"
#include "tensor/tensor.hpp"

namespace pipad::sliced {

struct FramePartition {
  int start = 0;  ///< First snapshot index (absolute, within the DTDG).
  int count = 0;  ///< S_per: number of snapshots in the partition.

  SlicedCSR overlap;                  ///< Shared topology (forward).
  SlicedCSR overlap_t;                ///< Transposed shared topology (backward).
  std::vector<SlicedCSR> exclusive;   ///< Per-snapshot leftovers (forward).
  std::vector<SlicedCSR> exclusive_t; ///< Transposed leftovers (backward).

  // Per-edge weights for weighted groups; all empty when no member carries
  // Snapshot::edge_w. The *topology* stays shared — members differ only in
  // these small value arrays. overlap_w[i] aligns with overlap.col_idx
  // (slice() copies the part CSR's col_idx verbatim) and holds member i's
  // weights of the shared edges; unweighted members of a mixed group get
  // 1.0 fills. The _t variants align with the transposed parts
  // (graph::transpose_weights).
  std::vector<std::vector<float>> overlap_w;     ///< [count] x overlap.nnz().
  std::vector<std::vector<float>> overlap_w_t;   ///< [count] x overlap.nnz().
  std::vector<std::vector<float>> exclusive_w;   ///< [count], member i's nnz.
  std::vector<std::vector<float>> exclusive_w_t; ///< [count], member i's nnz.

  /// Device bytes for the partition's topology: the overlap is shipped once
  /// instead of `count` times — the transfer saving of §4.1. Weighted groups
  /// additionally ship every member's value arrays (no sharing there).
  std::size_t topology_transfer_bytes() const {
    std::size_t b = overlap.transfer_bytes() + overlap_t.transfer_bytes();
    for (std::size_t i = 0; i < exclusive.size(); ++i) {
      b += exclusive[i].transfer_bytes() + exclusive_t[i].transfer_bytes();
    }
    for (const auto* ws :
         {&overlap_w, &overlap_w_t, &exclusive_w, &exclusive_w_t}) {
      for (const auto& w : *ws) b += w.size() * sizeof(float);
    }
    return b;
  }
};

/// Build one partition over snapshots [start, start+count). With a pool, the
/// per-member slice/transpose builds run as parallel tasks (each task writes
/// a disjoint slot, so the result is identical to the serial build); call
/// only from outside the pool — a pool thread waiting on the same pool can
/// deadlock.
FramePartition build_partition(const graph::DTDG& g, int start, int count,
                               int slice_bound = kDefaultSliceBound,
                               ThreadPool* pool = nullptr);

/// Row-wise feature coalescing: out[v] = [f0[v] | f1[v] | ... ] giving an
/// [N x (F * S)] matrix (❺ in Fig. 6).
Tensor coalesce_features(const std::vector<const Tensor*>& feats);

/// Inverse of coalesce_features: split an [N x (F*S)] matrix back into S
/// per-snapshot [N x F] matrices.
std::vector<Tensor> split_coalesced(const Tensor& coalesced, int parts);

}  // namespace pipad::sliced
