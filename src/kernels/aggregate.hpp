// Aggregation (SpMM-like) kernels with analytic memory-system modelling.
//
// All kernels compute the same math — out[dst] (+)= Σ_{src ∈ N(dst)} x[src]
// — but differ in the access pattern they simulate, reproducing §3.2/§4.2:
//
//   agg_coo        PyG/PyGT scatter-add over COO: per-edge gathers and
//                  per-edge atomics; the baseline's worst-case pattern.
//   agg_csr        row-per-warp CSR SpMM without shared memory; adjacency
//                  re-read once per 32-wide feature tile.
//   agg_gespmm     GE-SpMM [Huang et al. SC'20]: CSR row-per-warp with the
//                  row's column indices staged in shared memory, so the
//                  adjacency is read once regardless of the feature width.
//                  Still pays one warp per row — empty rows (Youtube) hurt.
//   agg_sliced     PiPAD's dimension-aware parallel aggregation (Alg. 1) on
//                  a SlicedCSR and a coalesced [N x F*S] feature matrix:
//                  thread-aware slice coalescing when F*S < 32, vector
//                  memory instructions when F*S >= 32.
//
// GCN normalization — ĥ(v) = (agg(v) + x(v)) / (deg(v) + 1), the mean over
// N(v) ∪ {v} — is a separate streaming kernel so the adjacency can stay
// unweighted (which is what makes cross-snapshot topology sharing exact).
//
// Edge weights: every aggregation kernel takes an optional weight array
// aligned with the adjacency's nnz order (Snapshot::edge_w). The topology
// stays unweighted data — cross-snapshot sharing still transfers the
// shared structure once; only the small per-member value array differs —
// and a null/empty weight argument runs the exact legacy unweighted loop,
// so unweighted datasets keep bit-identical outputs. Degrees generalize to
// float (weighted degree = incident weight sum; int counts < 2^24 convert
// exactly, preserving unweighted normalization bit for bit).
#pragma once

#include <vector>

#include "gpusim/kernel_stats.hpp"
#include "graph/formats.hpp"
#include "sliced/sliced_csr.hpp"
#include "tensor/tensor.hpp"

namespace pipad::kernels {

using gpusim::KernelStats;

/// Reference implementation for tests: plain loop over CSR. `w` (nullable)
/// holds per-edge weights aligned with a.col_idx.
void ref_spmm(const graph::CSR& a, const Tensor& x, Tensor& out,
              bool accumulate = false,
              const std::vector<float>* w = nullptr);

/// Scatter-add over COO (PyG baseline). If accumulate, adds into out. `w`
/// aligns with the COO's nnz order (coo_from_csr preserves CSR order, so a
/// Snapshot::edge_w passes through unchanged).
KernelStats agg_coo(const graph::COO& a, const Tensor& x, Tensor& out,
                    bool accumulate = false,
                    const std::vector<float>* w = nullptr);

/// Row-per-warp CSR SpMM, no shared-memory staging.
KernelStats agg_csr(const graph::CSR& a, const Tensor& x, Tensor& out,
                    bool accumulate = false,
                    const std::vector<float>* w = nullptr);

/// GE-SpMM-style CSR SpMM with shared-memory adjacency caching.
KernelStats agg_gespmm(const graph::CSR& a, const Tensor& x, Tensor& out,
                       bool accumulate = false,
                       const std::vector<float>* w = nullptr);

/// Accumulation-order contract. agg_sliced's result is defined by an
/// in-order scalar loop, and a faster implementation must reproduce it bit
/// for bit: every output element starts from +0 (or from its current value
/// with `accumulate`), then for each slice in ascending order and each
/// non-zero i of that slice in ascending order adds x[col_idx[i]][c] — or,
/// with stripe weights, stripe_w[p][i] * x[col_idx[i]][c] for the stripe p
/// holding column c, the product rounded before the add (the build passes
/// -ffp-contract=off). Each element therefore adds its edges in ascending
/// slice order. Keeping a column strip in registers across a slice,
/// vectorizing across columns and splitting slices into destination-row
/// blocks are free under this contract; reordering or splitting one
/// element's sum is not.
///
/// PiPAD parallel aggregation (Algorithm 1) over a SlicedCSR. `x` is the
/// coalesced feature matrix [N x (F * S)]; its full row width is processed
/// per non-zero. coalesce_num bounds the number of thread groups per warp
/// (the paper fixes the max at 4). `stripe_w` carries per-member edge
/// weights for weighted graphs: stripe_w[p] aligns with a.col_idx and
/// scales stripe p's F-wide slice of the coalesced row (x.cols() must be a
/// multiple of stripe_w.size()); the shared overlap topology is aggregated
/// once even though every member weights it differently. Empty = the exact
/// unweighted loop.
KernelStats agg_sliced(
    const sliced::SlicedCSR& a, const Tensor& x, Tensor& out,
    int coalesce_num = 4, bool accumulate = false,
    const std::vector<const std::vector<float>*>& stripe_w = {});

/// Effective thread-group count per warp for a given coalesced width.
int effective_coalesce_num(int coalesced_dim, int requested);

/// Analytic stats of agg_sliced without running it — used by the dynamic
/// tuner's offline analysis (§4.4) to estimate parallel-GNN speedups for
/// hypothetical (nnz, dim, S_per) combinations.
KernelStats sliced_agg_stats(std::uint64_t nnz, std::uint64_t num_slices,
                             int coalesced_dim, int coalesce_num);

/// Coalesced backward normalize: d_agg = d_out/(deg+1) stripe-wise, and the
/// identical direct term.
KernelStats gcn_normalize_backward_coalesced(
    const std::vector<const std::vector<float>*>& degs, const Tensor& d_out,
    Tensor& d_agg, Tensor& d_x_direct);

/// GCN mean normalization: out = (agg + x) / (deg + 1), rows aligned.
/// `deg` holds the (possibly weighted) in-degree of each vertex in the
/// *full* snapshot topology (overlap + exclusive combined).
KernelStats gcn_normalize(const std::vector<float>& deg, const Tensor& x,
                          const Tensor& agg, Tensor& out);

/// Coalesced variant: x/agg/out are [N x (F*S)] and degs[i] is snapshot i's
/// degree vector; each F-wide stripe is normalized by its own degrees.
KernelStats gcn_normalize_coalesced(
    const std::vector<const std::vector<float>*>& degs, const Tensor& x,
    const Tensor& agg, Tensor& out);

/// Backward of gcn_normalize wrt both inputs:
///   d_agg = d_out / (deg+1)  and  d_x_direct = d_out / (deg+1).
/// (The indirect path d_x += A^T d_agg is a normal aggregation with the
/// transposed adjacency.)
KernelStats gcn_normalize_backward(const std::vector<float>& deg,
                                   const Tensor& d_out, Tensor& d_agg,
                                   Tensor& d_x_direct);

/// In-degree vector of a CSR (host-side helper; transferred as metadata).
/// With `w` (aligned with a.col_idx), the weighted in-degree: the incident
/// weight sum per row. Without, plain counts (exact in float: < 2^24).
std::vector<float> degrees(const graph::CSR& a,
                           const std::vector<float>* w = nullptr);

}  // namespace pipad::kernels
