#include "kernels/aggregate.hpp"

#include <algorithm>
#include <utility>

#include "common/compute_pool.hpp"
#include "common/util.hpp"
#include "kernels/stats_builders.hpp"
#include "tensor/simd_kernels.hpp"

namespace pipad::kernels {

namespace {

/// Dimension-aware chunking for the sliced kernel: partition [0, num_slices)
/// into at most ComputePool::kMaxBlocks contiguous ranges whose boundaries
/// never split one destination row's run of slices (slice() emits each
/// row's slices contiguously). Blocks therefore write disjoint output rows
/// — no atomics — and the layout depends only on the topology and the work
/// size, so results stay bit-identical to the serial loop for every thread
/// count.
ComputePool::Ranges slice_blocks(const sliced::SlicedCSR& a,
                                 std::size_t total_work) {
  const std::size_t n = a.num_slices();
  const ComputePool::Ranges even =
      ComputePool::even_ranges(n, ComputePool::block_count(n, total_work));
  ComputePool::Ranges ranges;
  ranges.reserve(even.size());
  std::size_t lo = 0;
  for (const auto& r : even) {
    std::size_t hi = r.second;
    if (hi <= lo) continue;  // Swallowed by an earlier boundary pull.
    // Pull the boundary forward past slices that continue lo..hi's last row.
    while (hi < n && a.row_idx[hi] == a.row_idx[hi - 1]) ++hi;
    ranges.emplace_back(lo, hi);
    lo = hi;
  }
  return ranges;
}

/// Per-row feature access of the warp-per-sparse-element pattern (§3.2):
/// one warp loads one F-float row per outer iteration.
///   requests = max(1, ceil(F/32))   — rises once F > 32 (request burst),
///   transactions = max(1, ceil(F/8)) — rises once F > 8,
/// and for F < 8 the transaction still moves 32 bytes (unsaturation).
struct RowAccess {
  std::uint64_t requests;
  std::uint64_t transactions;
};

RowAccess row_access(std::uint64_t f) {
  return {std::max<std::uint64_t>(1, ceil_div<std::uint64_t>(f, 32)),
          std::max<std::uint64_t>(1, ceil_div<std::uint64_t>(f, 8))};
}

/// Vector-memory-instruction access (§4.2): one request can move up to 128
/// floats; transaction count is unchanged (bytes are bytes).
RowAccess vector_row_access(std::uint64_t f) {
  return {std::max<std::uint64_t>(1, ceil_div<std::uint64_t>(f, 128)),
          std::max<std::uint64_t>(1, ceil_div<std::uint64_t>(f, 8))};
}

void check_spmm_shapes(int a_rows, int a_cols, const Tensor& x,
                       const Tensor& out) {
  PIPAD_CHECK_MSG(x.rows() == a_cols, "SpMM: x rows " << x.rows()
                                                      << " != adj cols "
                                                      << a_cols);
  PIPAD_CHECK_MSG(out.rows() == a_rows && out.cols() == x.cols(),
                  "SpMM: out shape " << out.shape_str() << " vs ["
                                     << a_rows << "x" << x.cols() << "]");
}

}  // namespace

void ref_spmm(const graph::CSR& a, const Tensor& x, Tensor& out,
              bool accumulate, const std::vector<float>* w) {
  check_spmm_shapes(a.rows, a.cols, x, out);
  if (w != nullptr && w->empty()) w = nullptr;
  if (w != nullptr) {
    PIPAD_CHECK_MSG(w->size() == a.nnz(), "ref_spmm: " << w->size()
                                                       << " weights vs "
                                                       << a.nnz() << " nnz");
  }
  if (!accumulate) out.fill(0.0f);
  const int f = x.cols();
  // Row-blocked: each destination row is owned by exactly one block and
  // accumulates its neighbors in CSR order, as the serial loop would. The
  // unweighted path is kept as a separate loop (not weight=1.0) so existing
  // datasets stay bit-identical.
  ComputePool::instance().for_blocks(
      static_cast<std::size_t>(a.rows), a.nnz() * f,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          float* orow = out.row(static_cast<int>(r));
          if (w == nullptr) {
            for (int i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
              const float* xrow = x.row(a.col_idx[i]);
              for (int d = 0; d < f; ++d) orow[d] += xrow[d];
            }
          } else {
            for (int i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
              const float* xrow = x.row(a.col_idx[i]);
              const float wi = (*w)[i];
              for (int d = 0; d < f; ++d) orow[d] += wi * xrow[d];
            }
          }
        }
      });
}

KernelStats agg_coo(const graph::COO& a, const Tensor& x, Tensor& out,
                    bool accumulate, const std::vector<float>* w) {
  check_spmm_shapes(a.rows, a.cols, x, out);
  if (w != nullptr && w->empty()) w = nullptr;
  if (w != nullptr) {
    PIPAD_CHECK_MSG(w->size() == a.nnz(), "agg_coo: " << w->size()
                                                      << " weights vs "
                                                      << a.nnz() << " nnz");
  }
  if (!accumulate) out.fill(0.0f);
  const int f = x.cols();
  const std::uint64_t nnz = a.nnz();

  // Per-edge scatter to arbitrary destination rows: the pattern that needs
  // atomics on a GPU and does not decompose into disjoint row blocks here.
  // Runs serially — mirroring how PyG's scatter-add gains nothing from
  // dimension-aware parallelism.
  if (w == nullptr) {
    for (std::size_t i = 0; i < a.nnz(); ++i) {
      const float* xrow = x.row(a.col[i]);
      float* orow = out.row(a.row[i]);
      for (int d = 0; d < f; ++d) orow[d] += xrow[d];
    }
  } else {
    for (std::size_t i = 0; i < a.nnz(); ++i) {
      const float* xrow = x.row(a.col[i]);
      float* orow = out.row(a.row[i]);
      const float wi = (*w)[i];
      for (int d = 0; d < f; ++d) orow[d] += wi * xrow[d];
    }
  }

  KernelStats s;
  const std::uint64_t fu = static_cast<std::uint64_t>(f);
  const RowAccess feat = row_access(fu);
  // Index arrays (row + col), coalesced streaming.
  s.global_requests = 2 * requests_for(nnz * 4);
  s.global_transactions = 2 * transactions_for(nnz * 4);
  // Per-edge feature gather; sources are scattered, so nothing amortizes
  // across edges.
  s.global_requests += nnz * feat.requests;
  s.global_transactions += nnz * feat.transactions;
  // Per-edge atomic scatter to the destination row: every element is an
  // atomic, and the write pattern is as scattered as the gather.
  s.atomic_ops = nnz * fu;
  s.global_transactions += nnz * feat.transactions;
  s.global_requests += nnz * feat.requests;
  s.flops = nnz * fu;  // Adds only.
  s.total_warps = std::max<std::uint64_t>(1, ceil_div<std::uint64_t>(nnz, 32));
  s.active_thread_ratio_sum = static_cast<double>(s.total_warps);
  return s;
}

KernelStats agg_csr(const graph::CSR& a, const Tensor& x, Tensor& out,
                    bool accumulate, const std::vector<float>* w) {
  check_spmm_shapes(a.rows, a.cols, x, out);
  ref_spmm(a, x, out, accumulate, w);

  KernelStats s;
  const std::uint64_t f = static_cast<std::uint64_t>(x.cols());
  const std::uint64_t nnz = a.nnz();
  const std::uint64_t rows = static_cast<std::uint64_t>(a.rows);
  const std::uint64_t feature_tiles = std::max<std::uint64_t>(1, ceil_div(f, std::uint64_t{32}));
  const RowAccess feat = row_access(std::min<std::uint64_t>(f, 32));

  // Without shared-memory staging the column indices are re-read from global
  // memory once per 32-wide feature tile.
  s.global_requests = feature_tiles * requests_for(nnz * 4);
  s.global_transactions = feature_tiles * transactions_for(nnz * 4);
  // row_ptr: two entries per row, once per warp.
  s.global_requests += rows;
  s.global_transactions += rows;
  // Feature gathers: per non-zero, per tile.
  s.global_requests += nnz * feature_tiles * feat.requests;
  s.global_transactions += nnz * feature_tiles * feat.transactions;
  // Output row write.
  const RowAccess orow = row_access(f);
  s.global_requests += rows * orow.requests;
  s.global_transactions += rows * orow.transactions;

  s.flops = 2 * nnz * f;
  // One warp per row — launched even for empty rows.
  s.total_warps = std::max<std::uint64_t>(1, rows) * feature_tiles;
  const double eff = static_cast<double>(std::min<std::uint64_t>(f, 32)) / 32.0;
  s.active_thread_ratio_sum = static_cast<double>(s.total_warps) * eff;
  s.imbalance = sliced::csr_load_balance(a, sliced::kBalanceUnits).imbalance();
  return s;
}

KernelStats agg_gespmm(const graph::CSR& a, const Tensor& x, Tensor& out,
                       bool accumulate, const std::vector<float>* w) {
  check_spmm_shapes(a.rows, a.cols, x, out);
  ref_spmm(a, x, out, accumulate, w);

  KernelStats s;
  const std::uint64_t f = static_cast<std::uint64_t>(x.cols());
  const std::uint64_t nnz = a.nnz();
  const std::uint64_t rows = static_cast<std::uint64_t>(a.rows);
  const std::uint64_t feature_tiles = std::max<std::uint64_t>(1, ceil_div(f, std::uint64_t{32}));
  const RowAccess feat = row_access(std::min<std::uint64_t>(f, 32));

  // Column indices staged in shared memory: one global read total, then one
  // shared read per (non-zero, tile).
  s.global_requests = requests_for(nnz * 4);
  s.global_transactions = transactions_for(nnz * 4);
  s.shared_accesses = nnz * feature_tiles;
  // One warp per row regardless of occupancy: empty rows still read their
  // row_ptr pair — the Youtube redundancy of §5.3.
  s.global_requests += rows;
  s.global_transactions += rows;
  // Feature gathers, per non-zero per tile (scattered rows, no reuse).
  s.global_requests += nnz * feature_tiles * feat.requests;
  s.global_transactions += nnz * feature_tiles * feat.transactions;
  const RowAccess orow = row_access(f);
  s.global_requests += rows * orow.requests;
  s.global_transactions += rows * orow.transactions;

  s.flops = 2 * nnz * f;
  s.total_warps = std::max<std::uint64_t>(1, rows) * feature_tiles;
  const double eff = static_cast<double>(std::min<std::uint64_t>(f, 32)) / 32.0;
  s.active_thread_ratio_sum = static_cast<double>(s.total_warps) * eff;
  s.imbalance = sliced::csr_load_balance(a, sliced::kBalanceUnits).imbalance();
  return s;
}

int effective_coalesce_num(int coalesced_dim, int requested) {
  PIPAD_CHECK(coalesced_dim > 0);
  if (coalesced_dim >= 32) return 1;  // Wide rows: no grouping needed.
  const int fit = std::max(1, 32 / coalesced_dim);
  return std::clamp(requested, 1, std::min(4, fit));
}

KernelStats sliced_agg_stats(std::uint64_t nnz, std::uint64_t num_slices,
                             int coalesced_dim, int coalesce_num) {
  KernelStats s;
  const std::uint64_t fcu = static_cast<std::uint64_t>(coalesced_dim);
  const std::uint64_t n_slices = num_slices;
  if (nnz == 0) {
    s.total_warps = 1;
    s.active_thread_ratio_sum = 1.0;
    return s;
  }

  // Adjacency metadata (col_idx + row_idx + slice_off) is loaded coalesced
  // into shared memory via the interleaved layout (❸ in Fig. 6).
  const std::uint64_t meta_bytes = (nnz + 2 * n_slices) * 4;
  s.global_requests = requests_for(meta_bytes);
  s.global_transactions = transactions_for(meta_bytes);
  s.shared_accesses = 2 * nnz;  // Staged once, read once per element.

  if (coalesced_dim < 32) {
    // Small-dimension regime: thread-aware slice coalescing. cn thread
    // groups of fc threads share one warp; one warp instruction gathers
    // feature rows for cn non-zeros at once.
    const int cn = effective_coalesce_num(coalesced_dim, coalesce_num);
    const RowAccess feat = row_access(fcu);
    s.global_requests += ceil_div<std::uint64_t>(nnz, cn) * feat.requests;
    s.global_transactions += nnz * feat.transactions;
    // Per-slice partial results flushed with atomics.
    s.atomic_ops = n_slices * fcu;
    s.global_transactions += n_slices * feat.transactions;
    s.global_requests +=
        ceil_div<std::uint64_t>(n_slices, cn) * feat.requests;
    s.total_warps = std::max<std::uint64_t>(
        1, ceil_div<std::uint64_t>(n_slices, cn));
    const double eff =
        std::min(1.0, static_cast<double>(cn) * coalesced_dim / 32.0);
    s.active_thread_ratio_sum = static_cast<double>(s.total_warps) * eff;
  } else {
    // Large-dimension regime: vector memory instructions fetch up to 128
    // floats per request, avoiding the request burst (§4.2).
    const RowAccess feat = vector_row_access(fcu);
    s.global_requests += nnz * feat.requests;
    s.global_transactions += nnz * feat.transactions;
    s.atomic_ops = n_slices * fcu;
    s.global_transactions += n_slices * feat.transactions;
    s.global_requests += n_slices * feat.requests;
    s.total_warps = std::max<std::uint64_t>(1, n_slices) *
                    std::max<std::uint64_t>(1, ceil_div(fcu, std::uint64_t{32}));
    s.active_thread_ratio_sum = static_cast<double>(s.total_warps);
  }
  s.flops = 2 * nnz * fcu;
  return s;
}

KernelStats agg_sliced(const sliced::SlicedCSR& a, const Tensor& x,
                       Tensor& out, int coalesce_num, bool accumulate,
                       const std::vector<const std::vector<float>*>& stripe_w) {
  check_spmm_shapes(a.rows, a.cols, x, out);
  if (!accumulate) out.fill(0.0f);

  const int fc = x.cols();
  const int parts = static_cast<int>(stripe_w.size());
  if (parts > 0) {
    PIPAD_CHECK_MSG(fc % parts == 0, "agg_sliced: coalesced width "
                                         << fc << " not a multiple of "
                                         << parts << " weight stripes");
    for (const auto* sw : stripe_w) {
      PIPAD_CHECK(sw != nullptr);
      PIPAD_CHECK_MSG(sw->size() == a.nnz(),
                      "agg_sliced: stripe weights " << sw->size() << " vs "
                                                    << a.nnz() << " nnz");
    }
  }
  std::vector<const float*> weights(stripe_w.size());
  for (std::size_t p = 0; p < stripe_w.size(); ++p) {
    weights[p] = stripe_w[p]->data();
  }
  // Real math: slice-by-slice accumulation (mirrors the per-TG partial
  // result + atomicAdd structure of Algorithm 1). Chunked over
  // destination-row-aligned slice blocks: each output row belongs to one
  // block, so no atomics are needed and every row accumulates its slices in
  // serial order — bit-identical results for any thread count (see the
  // contract in aggregate.hpp). With stripe weights, each member's F-wide
  // stripe of the shared topology's aggregate just gets its own scale.
  const simd::AggArgs g{a.row_idx.data(), a.slice_off.data(),
                        a.col_idx.data(), x.data(), out.data(), fc,
                        weights.data(), parts};
  const auto slices_fn = simd::lanes() == 8 ? simd::detail::agg_slices_8
                                            : simd::detail::agg_slices_4;
  ComputePool::instance().run_ranges(
      slice_blocks(a, a.nnz() * static_cast<std::size_t>(fc)),
      [&](std::size_t lo, std::size_t hi) { slices_fn(g, lo, hi); });
  KernelStats s = sliced_agg_stats(a.nnz(), a.num_slices(), fc, coalesce_num);
  s.imbalance = a.imbalance;
  return s;
}

KernelStats gcn_normalize_backward_coalesced(
    const std::vector<const std::vector<float>*>& degs, const Tensor& d_out,
    Tensor& d_agg, Tensor& d_x_direct) {
  PIPAD_CHECK(!degs.empty());
  PIPAD_CHECK(d_out.same_shape(d_agg) && d_out.same_shape(d_x_direct));
  PIPAD_CHECK(d_out.cols() % static_cast<int>(degs.size()) == 0);
  const int parts = static_cast<int>(degs.size());
  const int f = d_out.cols() / parts;
  ComputePool::instance().for_blocks(
      static_cast<std::size_t>(d_out.rows()), 2 * d_out.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t vv = lo; vv < hi; ++vv) {
          const int v = static_cast<int>(vv);
          const float* g = d_out.row(v);
          float* ga = d_agg.row(v);
          float* gx = d_x_direct.row(v);
          for (int p = 0; p < parts; ++p) {
            const float inv = 1.0f / ((*degs[p])[v] + 1.0f);
            for (int d = 0; d < f; ++d) {
              const int c = p * f + d;
              ga[c] = g[c] * inv;
              gx[c] = g[c] * inv;
            }
          }
        }
      });
  KernelStats s = elementwise_stats(d_out.size(), 1, 2);
  s.global_requests += parts * requests_for(d_out.rows() * 4);
  s.global_transactions += parts * transactions_for(d_out.rows() * 4);
  return s;
}

KernelStats gcn_normalize(const std::vector<float>& deg, const Tensor& x,
                          const Tensor& agg, Tensor& out) {
  PIPAD_CHECK(static_cast<int>(deg.size()) == x.rows());
  PIPAD_CHECK(x.same_shape(agg));
  PIPAD_CHECK(x.same_shape(out));
  const int f = x.cols();
  ComputePool::instance().for_blocks(
      static_cast<std::size_t>(x.rows()), 2 * x.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t vv = lo; vv < hi; ++vv) {
          const int v = static_cast<int>(vv);
          const float inv = 1.0f / (deg[v] + 1.0f);
          const float* xr = x.row(v);
          const float* ar = agg.row(v);
          float* orow = out.row(v);
          for (int d = 0; d < f; ++d) orow[d] = (ar[d] + xr[d]) * inv;
        }
      });
  KernelStats s = elementwise_stats(x.size(), 2, 2);
  // Degree vector read, coalesced.
  s.global_requests += requests_for(deg.size() * 4);
  s.global_transactions += transactions_for(deg.size() * 4);
  return s;
}

KernelStats gcn_normalize_coalesced(
    const std::vector<const std::vector<float>*>& degs, const Tensor& x,
    const Tensor& agg, Tensor& out) {
  PIPAD_CHECK(!degs.empty());
  PIPAD_CHECK(x.same_shape(agg) && x.same_shape(out));
  PIPAD_CHECK(x.cols() % static_cast<int>(degs.size()) == 0);
  const int parts = static_cast<int>(degs.size());
  const int f = x.cols() / parts;
  ComputePool::instance().for_blocks(
      static_cast<std::size_t>(x.rows()), 2 * x.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t vv = lo; vv < hi; ++vv) {
          const int v = static_cast<int>(vv);
          const float* xr = x.row(v);
          const float* ar = agg.row(v);
          float* orow = out.row(v);
          for (int p = 0; p < parts; ++p) {
            const float inv = 1.0f / ((*degs[p])[v] + 1.0f);
            for (int d = 0; d < f; ++d) {
              const int c = p * f + d;
              orow[c] = (ar[c] + xr[c]) * inv;
            }
          }
        }
      });
  KernelStats s = elementwise_stats(x.size(), 2, 2);
  s.global_requests += parts * requests_for(x.rows() * 4);
  s.global_transactions += parts * transactions_for(x.rows() * 4);
  return s;
}

KernelStats gcn_normalize_backward(const std::vector<float>& deg,
                                   const Tensor& d_out, Tensor& d_agg,
                                   Tensor& d_x_direct) {
  PIPAD_CHECK(static_cast<int>(deg.size()) == d_out.rows());
  PIPAD_CHECK(d_out.same_shape(d_agg) && d_out.same_shape(d_x_direct));
  const int f = d_out.cols();
  ComputePool::instance().for_blocks(
      static_cast<std::size_t>(d_out.rows()), 2 * d_out.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t vv = lo; vv < hi; ++vv) {
          const int v = static_cast<int>(vv);
          const float inv = 1.0f / (deg[v] + 1.0f);
          const float* g = d_out.row(v);
          float* ga = d_agg.row(v);
          float* gx = d_x_direct.row(v);
          for (int d = 0; d < f; ++d) {
            ga[d] = g[d] * inv;
            gx[d] = g[d] * inv;
          }
        }
      });
  return elementwise_stats(d_out.size(), 1, 2);
}

std::vector<float> degrees(const graph::CSR& a, const std::vector<float>* w) {
  if (w != nullptr && w->empty()) w = nullptr;
  std::vector<float> deg(a.rows, 0.0f);
  if (w == nullptr) {
    // Counts are < 2^24 in practice, so the float conversion is exact and
    // the downstream 1/(deg+1) matches the historic int-degree kernels bit
    // for bit.
    for (int r = 0; r < a.rows; ++r) {
      deg[r] = static_cast<float>(a.degree(r));
    }
  } else {
    PIPAD_CHECK_MSG(w->size() == a.nnz(), "degrees: " << w->size()
                                                      << " weights vs "
                                                      << a.nnz() << " nnz");
    for (int r = 0; r < a.rows; ++r) {
      float sum = 0.0f;
      for (int i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) sum += (*w)[i];
      deg[r] = sum;
    }
  }
  return deg;
}

}  // namespace pipad::kernels

namespace pipad::simd::detail {
void agg_slices_4(const AggArgs& g, std::size_t lo, std::size_t hi) {
  agg_slices<4>(g, lo, hi);
}
}  // namespace pipad::simd::detail
