// Aggregation / update kernel tests: numerics against the reference SpMM,
// plus the analytic memory-model properties the paper's Fig. 5 and §3.2
// depend on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/compute_pool.hpp"
#include "graph/generator.hpp"
#include "kernels/aggregate.hpp"
#include "kernels/stats_builders.hpp"
#include "kernels/update.hpp"
#include "sliced/partition.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd_kernels.hpp"

namespace pipad {
namespace {

using graph::CSR;
using kernels::KernelStats;

CSR random_csr(int n, int edges, Rng& rng) {
  std::vector<graph::Edge> es;
  es.reserve(edges);
  for (int i = 0; i < edges; ++i) {
    es.push_back({static_cast<int>(rng.next_below(n)),
                  static_cast<int>(rng.next_below(n))});
  }
  return graph::csr_from_edges(n, n, std::move(es));
}

// ---------- Numerics: every kernel must match the reference ----------

class AggKernelDims : public ::testing::TestWithParam<int> {};

TEST_P(AggKernelDims, CooMatchesReference) {
  Rng rng(1);
  const int f = GetParam();
  const CSR a = random_csr(64, 400, rng);
  const Tensor x = Tensor::randn(64, f, rng);
  Tensor ref(64, f), got(64, f);
  kernels::ref_spmm(a, x, ref);
  kernels::agg_coo(graph::coo_from_csr(a), x, got);
  EXPECT_LT(ops::max_abs_diff(ref, got), 1e-5f);
}

TEST_P(AggKernelDims, CsrMatchesReference) {
  Rng rng(2);
  const int f = GetParam();
  const CSR a = random_csr(64, 400, rng);
  const Tensor x = Tensor::randn(64, f, rng);
  Tensor ref(64, f), got(64, f);
  kernels::ref_spmm(a, x, ref);
  kernels::agg_csr(a, x, got);
  EXPECT_LT(ops::max_abs_diff(ref, got), 1e-5f);
}

TEST_P(AggKernelDims, GespmmMatchesReference) {
  Rng rng(3);
  const int f = GetParam();
  const CSR a = random_csr(64, 400, rng);
  const Tensor x = Tensor::randn(64, f, rng);
  Tensor ref(64, f), got(64, f);
  kernels::ref_spmm(a, x, ref);
  kernels::agg_gespmm(a, x, got);
  EXPECT_LT(ops::max_abs_diff(ref, got), 1e-5f);
}

TEST_P(AggKernelDims, SlicedMatchesReference) {
  Rng rng(4);
  const int f = GetParam();
  const CSR a = random_csr(64, 400, rng);
  const Tensor x = Tensor::randn(64, f, rng);
  Tensor ref(64, f), got(64, f);
  kernels::ref_spmm(a, x, ref);
  const auto s = sliced::slice(a, 8);
  kernels::agg_sliced(s, x, got);
  EXPECT_LT(ops::max_abs_diff(ref, got), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(FeatureDims, AggKernelDims,
                         ::testing::Values(1, 2, 4, 7, 8, 16, 31, 32, 33, 64,
                                           128, 200));

TEST(AggKernels, AccumulateAddsIntoOutput) {
  Rng rng(5);
  const CSR a = random_csr(32, 128, rng);
  const Tensor x = Tensor::randn(32, 4, rng);
  Tensor once(32, 4), twice(32, 4);
  kernels::ref_spmm(a, x, once);
  kernels::agg_coo(graph::coo_from_csr(a), x, twice, /*accumulate=*/false);
  kernels::agg_coo(graph::coo_from_csr(a), x, twice, /*accumulate=*/true);
  ops::scale_inplace(once, 2.0f);
  EXPECT_LT(ops::max_abs_diff(once, twice), 1e-5f);
}

TEST(AggKernels, EmptyGraphProducesZeros) {
  const CSR a{8, 8, std::vector<int>(9, 0), {}};
  Rng rng(6);
  const Tensor x = Tensor::randn(8, 3, rng);
  Tensor out = Tensor::full(8, 3, 42.0f);
  kernels::agg_gespmm(a, x, out);
  EXPECT_EQ(ops::sum(out), 0.0f);
}

// ---------- Normalization ----------

TEST(Normalize, MeanOverClosedNeighborhood) {
  Rng rng(7);
  const CSR a = random_csr(40, 160, rng);
  const Tensor x = Tensor::randn(40, 5, rng);
  Tensor agg(40, 5), h(40, 5);
  kernels::ref_spmm(a, x, agg);
  kernels::gcn_normalize(kernels::degrees(a), x, agg, h);
  for (int v = 0; v < 40; ++v) {
    const int d = a.degree(v);
    for (int c = 0; c < 5; ++c) {
      EXPECT_NEAR(h.at(v, c), (agg.at(v, c) + x.at(v, c)) / (d + 1), 1e-5f);
    }
  }
}

TEST(Normalize, BackwardScalesByInverseDegree) {
  Rng rng(8);
  const CSR a = random_csr(16, 48, rng);
  const Tensor g = Tensor::randn(16, 3, rng);
  Tensor d_agg(16, 3), d_x(16, 3);
  kernels::gcn_normalize_backward(kernels::degrees(a), g, d_agg, d_x);
  for (int v = 0; v < 16; ++v) {
    for (int c = 0; c < 3; ++c) {
      const float expect = g.at(v, c) / (a.degree(v) + 1);
      EXPECT_NEAR(d_agg.at(v, c), expect, 1e-6f);
      EXPECT_NEAR(d_x.at(v, c), expect, 1e-6f);
    }
  }
}

TEST(Normalize, CoalescedMatchesPerSnapshot) {
  Rng rng(9);
  const CSR a0 = random_csr(24, 96, rng);
  const CSR a1 = random_csr(24, 96, rng);
  const Tensor x0 = Tensor::randn(24, 4, rng);
  const Tensor x1 = Tensor::randn(24, 4, rng);
  Tensor agg0(24, 4), agg1(24, 4);
  kernels::ref_spmm(a0, x0, agg0);
  kernels::ref_spmm(a1, x1, agg1);

  // Per-snapshot path.
  Tensor h0(24, 4), h1(24, 4);
  const auto d0 = kernels::degrees(a0);
  const auto d1 = kernels::degrees(a1);
  kernels::gcn_normalize(d0, x0, agg0, h0);
  kernels::gcn_normalize(d1, x1, agg1, h1);

  // Coalesced path.
  const Tensor xc = sliced::coalesce_features({&x0, &x1});
  const Tensor ac = sliced::coalesce_features({&agg0, &agg1});
  Tensor hc(24, 8);
  kernels::gcn_normalize_coalesced({&d0, &d1}, xc, ac, hc);
  const auto split = sliced::split_coalesced(hc, 2);
  EXPECT_LT(ops::max_abs_diff(split[0], h0), 1e-6f);
  EXPECT_LT(ops::max_abs_diff(split[1], h1), 1e-6f);
}

// ---------- Parallel aggregation over an overlap decomposition ----------

TEST(ParallelAgg, OverlapPlusExclusiveEqualsFullAggregation) {
  Rng rng(10);
  graph::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_nodes = 80;
  cfg.raw_events = 900;
  cfg.num_snapshots = 6;
  cfg.feat_dim = 3;
  cfg.edge_life = 4.0;
  const auto g = graph::generate(cfg);

  const auto part = sliced::build_partition(g, 1, 4);
  std::vector<const Tensor*> feats;
  for (int i = 0; i < 4; ++i) feats.push_back(&g.snapshots[1 + i].features);
  const Tensor coal = sliced::coalesce_features(feats);

  Tensor agg(80, 12);
  kernels::agg_sliced(part.overlap, coal, agg);
  for (int i = 0; i < 4; ++i) {
    Tensor e(80, 3);
    kernels::agg_sliced(part.exclusive[i], *feats[i], e);
    ops::add_into_cols(agg, e, i * 3);
  }
  const auto split = sliced::split_coalesced(agg, 4);
  for (int i = 0; i < 4; ++i) {
    Tensor ref(80, 3);
    kernels::ref_spmm(g.snapshots[1 + i].adj, *feats[i], ref);
    EXPECT_LT(ops::max_abs_diff(split[i], ref), 1e-4f) << "snapshot " << i;
  }
}

TEST(ParallelAgg, CombinedDegreesMatchSnapshotDegrees) {
  Rng rng(11);
  graph::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_nodes = 50;
  cfg.raw_events = 600;
  cfg.num_snapshots = 4;
  cfg.feat_dim = 2;
  cfg.edge_life = 3.0;
  const auto g = graph::generate(cfg);
  const auto part = sliced::build_partition(g, 0, 3);
  const auto overlap = kernels::degrees(sliced::unslice(part.overlap));
  for (int i = 0; i < 3; ++i) {
    auto combined = kernels::degrees(sliced::unslice(part.exclusive[i]));
    for (std::size_t v = 0; v < combined.size(); ++v) {
      combined[v] += overlap[v];
    }
    EXPECT_EQ(combined, kernels::degrees(g.snapshots[i].adj));
  }
}

// ---------- Edge-weighted aggregation ----------

/// Deterministic non-uniform weights, a pure function of (src, dst, salt).
std::vector<float> test_weights(const CSR& a, int salt) {
  std::vector<float> w(a.nnz());
  for (int r = 0; r < a.rows; ++r) {
    for (int i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      w[i] = 0.25f +
             0.125f * static_cast<float>((a.col_idx[i] * 31 + r * 7 + salt) %
                                         16);
    }
  }
  return w;
}

TEST(WeightedAgg, RefSpmmAppliesEdgeWeights) {
  // dst 1 <- src 0 (w=2), dst 2 <- src 1 (w=0.5) and src 2 (w=3).
  const CSR a = graph::csr_from_edges(3, 3, {{0, 1}, {1, 2}, {2, 2}});
  ASSERT_EQ(a.col_idx, (std::vector<int>{0, 1, 2}));
  const std::vector<float> w{2.0f, 0.5f, 3.0f};
  Tensor x(3, 1);
  x.at(0, 0) = 1.0f;
  x.at(1, 0) = 10.0f;
  x.at(2, 0) = 100.0f;
  Tensor out(3, 1);
  kernels::ref_spmm(a, x, out, false, &w);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 305.0f);
}

TEST(WeightedAgg, AllKernelsMatchWeightedReference) {
  Rng rng(50);
  const CSR a = random_csr(64, 400, rng);
  const auto w = test_weights(a, 3);
  const Tensor x = Tensor::randn(64, 6, rng);
  Tensor ref(64, 6);
  kernels::ref_spmm(a, x, ref, false, &w);

  Tensor coo(64, 6), csr(64, 6), ge(64, 6), sl(64, 6);
  // coo_from_csr preserves CSR nnz order, so the same array aligns.
  kernels::agg_coo(graph::coo_from_csr(a), x, coo, false, &w);
  kernels::agg_csr(a, x, csr, false, &w);
  kernels::agg_gespmm(a, x, ge, false, &w);
  kernels::agg_sliced(sliced::slice(a, 8), x, sl, 4, false, {&w});
  EXPECT_LT(ops::max_abs_diff(ref, coo), 1e-5f);
  EXPECT_LT(ops::max_abs_diff(ref, csr), 1e-5f);
  EXPECT_LT(ops::max_abs_diff(ref, ge), 1e-5f);
  EXPECT_LT(ops::max_abs_diff(ref, sl), 1e-4f);
}

TEST(WeightedAgg, UnitWeightsBitIdenticalToUnweighted) {
  Rng rng(51);
  const CSR a = random_csr(48, 300, rng);
  const std::vector<float> ones(a.nnz(), 1.0f);
  const Tensor x = Tensor::randn(48, 5, rng);
  Tensor plain(48, 5), unit(48, 5);
  kernels::ref_spmm(a, x, plain);
  kernels::ref_spmm(a, x, unit, false, &ones);
  for (std::size_t i = 0; i < plain.storage().size(); ++i) {
    ASSERT_EQ(plain.storage()[i], unit.storage()[i]) << "elem " << i;
  }
  // Null and empty weight arguments both take the legacy loop.
  const std::vector<float> empty;
  Tensor viaEmpty(48, 5);
  kernels::ref_spmm(a, x, viaEmpty, false, &empty);
  for (std::size_t i = 0; i < plain.storage().size(); ++i) {
    ASSERT_EQ(plain.storage()[i], viaEmpty.storage()[i]);
  }
}

TEST(WeightedAgg, TransposeWeightsFollowEdges) {
  Rng rng(52);
  const int n = 90;
  const CSR a = random_csr(n, 700, rng);
  // Encode each edge's identity into its weight; n < 1000 keeps it exact.
  std::vector<float> w(a.nnz());
  for (int r = 0; r < a.rows; ++r) {
    for (int i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      w[i] = static_cast<float>(a.col_idx[i] * 1000 + r);
    }
  }
  const CSR t = graph::transpose(a);
  const auto wt = graph::transpose_weights(a, w);
  ASSERT_EQ(wt.size(), t.nnz());
  // In the transpose, row = original source, column = original destination.
  for (int s = 0; s < t.rows; ++s) {
    for (int i = t.row_ptr[s]; i < t.row_ptr[s + 1]; ++i) {
      EXPECT_FLOAT_EQ(wt[i], static_cast<float>(s * 1000 + t.col_idx[i]));
    }
  }
}

TEST(WeightedAgg, DegreesSumIncidentWeights) {
  Rng rng(53);
  const CSR a = random_csr(32, 200, rng);
  const auto w = test_weights(a, 9);
  const auto deg = kernels::degrees(a, &w);
  ASSERT_EQ(static_cast<int>(deg.size()), a.rows);
  for (int r = 0; r < a.rows; ++r) {
    float sum = 0.0f;
    for (int i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) sum += w[i];
    EXPECT_EQ(deg[r], sum);
  }
  // Unweighted degrees stay the exact integer counts, now as floats.
  const auto plain = kernels::degrees(a);
  for (int r = 0; r < a.rows; ++r) {
    EXPECT_EQ(plain[r], static_cast<float>(a.degree(r)));
  }
}

/// Weighted DTDG for partition tests: weights differ per member so the
/// shared overlap topology genuinely carries distinct value stripes.
graph::DTDG weighted_dtdg(int nodes, int events, int snaps, int feat) {
  graph::DatasetConfig cfg;
  cfg.name = "tw";
  cfg.num_nodes = nodes;
  cfg.raw_events = events;
  cfg.num_snapshots = snaps;
  cfg.feat_dim = feat;
  cfg.edge_life = 4.0;
  auto g = graph::generate(cfg);
  for (std::size_t t = 0; t < g.snapshots.size(); ++t) {
    g.snapshots[t].edge_w =
        test_weights(g.snapshots[t].adj, static_cast<int>(t) * 13);
  }
  return g;
}

TEST(WeightedAgg, PartitionStripeWeightsMatchPerSnapshotReference) {
  const auto g = weighted_dtdg(80, 900, 6, 3);
  const auto part = sliced::build_partition(g, 1, 4);
  ASSERT_EQ(part.overlap_w.size(), 4u);
  ASSERT_EQ(part.exclusive_w.size(), 4u);
  std::vector<const Tensor*> feats;
  for (int i = 0; i < 4; ++i) feats.push_back(&g.snapshots[1 + i].features);
  const Tensor coal = sliced::coalesce_features(feats);

  std::vector<const std::vector<float>*> ow;
  for (int i = 0; i < 4; ++i) ow.push_back(&part.overlap_w[i]);
  Tensor agg(80, 12);
  kernels::agg_sliced(part.overlap, coal, agg, 4, false, ow);
  for (int i = 0; i < 4; ++i) {
    Tensor e(80, 3);
    kernels::agg_sliced(part.exclusive[i], *feats[i], e, 4, false,
                        {&part.exclusive_w[i]});
    ops::add_into_cols(agg, e, i * 3);
  }
  const auto split = sliced::split_coalesced(agg, 4);
  for (int i = 0; i < 4; ++i) {
    Tensor ref(80, 3);
    kernels::ref_spmm(g.snapshots[1 + i].adj, *feats[i], ref, false,
                      &g.snapshots[1 + i].edge_w);
    EXPECT_LT(ops::max_abs_diff(split[i], ref), 1e-4f) << "snapshot " << i;
  }
}

TEST(WeightedAgg, TransposedPartitionWeightsMatchBackwardReference) {
  const auto g = weighted_dtdg(60, 700, 5, 2);
  const auto part = sliced::build_partition(g, 0, 3);
  std::vector<const Tensor*> feats;
  for (int i = 0; i < 3; ++i) feats.push_back(&g.snapshots[i].features);
  const Tensor coal = sliced::coalesce_features(feats);

  std::vector<const std::vector<float>*> ow;
  for (int i = 0; i < 3; ++i) ow.push_back(&part.overlap_w_t[i]);
  Tensor agg(60, 6);
  kernels::agg_sliced(part.overlap_t, coal, agg, 4, false, ow);
  for (int i = 0; i < 3; ++i) {
    Tensor e(60, 2);
    kernels::agg_sliced(part.exclusive_t[i], *feats[i], e, 4, false,
                        {&part.exclusive_w_t[i]});
    ops::add_into_cols(agg, e, i * 2);
  }
  const auto split = sliced::split_coalesced(agg, 3);
  for (int i = 0; i < 3; ++i) {
    const auto& snap = g.snapshots[i];
    const auto wt = graph::transpose_weights(snap.adj, snap.edge_w);
    Tensor ref(60, 2);
    kernels::ref_spmm(snap.adj_t, *feats[i], ref, false, &wt);
    EXPECT_LT(ops::max_abs_diff(split[i], ref), 1e-4f) << "snapshot " << i;
  }
}

TEST(WeightedAgg, CombinedDegreesMatchWeightedSnapshotDegrees) {
  const auto g = weighted_dtdg(50, 600, 4, 2);
  const auto part = sliced::build_partition(g, 0, 3);
  for (int i = 0; i < 3; ++i) {
    auto combined = kernels::degrees(sliced::unslice(part.exclusive[i]),
                                     &part.exclusive_w[i]);
    const auto overlap =
        kernels::degrees(sliced::unslice(part.overlap), &part.overlap_w[i]);
    for (std::size_t v = 0; v < combined.size(); ++v) {
      combined[v] += overlap[v];
    }
    const auto full =
        kernels::degrees(g.snapshots[i].adj, &g.snapshots[i].edge_w);
    ASSERT_EQ(combined.size(), full.size());
    for (std::size_t v = 0; v < full.size(); ++v) {
      EXPECT_NEAR(combined[v], full[v], 1e-4f) << "vertex " << v;
    }
  }
}

TEST(WeightedAgg, UnweightedGroupsBuildNoWeightArrays) {
  Rng rng(54);
  graph::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_nodes = 40;
  cfg.raw_events = 400;
  cfg.num_snapshots = 4;
  cfg.feat_dim = 2;
  cfg.edge_life = 3.0;
  const auto g = graph::generate(cfg);
  const auto part = sliced::build_partition(g, 0, 3);
  EXPECT_TRUE(part.overlap_w.empty());
  EXPECT_TRUE(part.overlap_w_t.empty());
  EXPECT_TRUE(part.exclusive_w.empty());
  EXPECT_TRUE(part.exclusive_w_t.empty());
}

// ---------- Determinism of the pooled kernels across thread counts ----------

/// Run kernel() under a 1-wide and an 8-wide ComputePool: the destination-
/// row-blocked dispatch must make the outputs bit-identical.
void expect_kernel_bitwise_stable(const std::function<Tensor()>& kernel) {
  ComputePool::instance().configure(1);
  const Tensor serial = kernel();
  ComputePool::instance().configure(8);
  const Tensor parallel = kernel();
  ComputePool::instance().configure(0);
  ASSERT_EQ(serial.storage().size(), parallel.storage().size());
  for (std::size_t i = 0; i < serial.storage().size(); ++i) {
    ASSERT_EQ(serial.storage()[i], parallel.storage()[i]) << "elem " << i;
  }
}

TEST(PooledKernels, SlicedAggBitIdenticalAcrossThreadCounts) {
  Rng rng(40);
  // Enough nnz * F to clear the parallel threshold; slice bound 8 produces
  // many slices per hub row, so block boundaries land inside row runs and
  // must be pulled to the next row change.
  const CSR a = random_csr(400, 12000, rng);
  const auto s = sliced::slice(a, 8);
  const Tensor x = Tensor::randn(400, 17, rng);
  expect_kernel_bitwise_stable([&] {
    Tensor out(400, 17);
    kernels::agg_sliced(s, x, out);
    return out;
  });
}

TEST(PooledKernels, CsrAndGespmmAggBitIdenticalAcrossThreadCounts) {
  Rng rng(41);
  const CSR a = random_csr(300, 9000, rng);
  const Tensor x = Tensor::randn(300, 23, rng);
  expect_kernel_bitwise_stable([&] {
    Tensor out(300, 23);
    kernels::agg_csr(a, x, out);
    return out;
  });
  expect_kernel_bitwise_stable([&] {
    Tensor out(300, 23);
    kernels::agg_gespmm(a, x, out);
    return out;
  });
}

TEST(PooledKernels, NormalizeBitIdenticalAcrossThreadCounts) {
  Rng rng(42);
  const CSR a = random_csr(500, 6000, rng);
  const Tensor x = Tensor::randn(500, 33, rng);
  Tensor agg(500, 33);
  kernels::ref_spmm(a, x, agg);
  const auto deg = kernels::degrees(a);
  expect_kernel_bitwise_stable([&] {
    Tensor h(500, 33);
    kernels::gcn_normalize(deg, x, agg, h);
    return h;
  });
  expect_kernel_bitwise_stable([&] {
    Tensor d_agg(500, 33), d_x(500, 33);
    kernels::gcn_normalize_backward(deg, x, d_agg, d_x);
    return d_agg;
  });
}

// ---------- agg_sliced against its in-order definition ----------

/// The scalar agg_sliced loop that defines the kernel's accumulation order
/// (the contract in aggregate.hpp), kept verbatim as the reference for the
/// register-strip implementation.
void reference_agg_sliced(
    const sliced::SlicedCSR& a, const Tensor& x, Tensor& out,
    bool accumulate, const std::vector<const std::vector<float>*>& stripe_w) {
  if (!accumulate) out.fill(0.0f);
  const int fc = x.cols();
  const int parts = static_cast<int>(stripe_w.size());
  const int fpp = parts > 0 ? fc / parts : 0;
  for (std::size_t sl = 0; sl < a.num_slices(); ++sl) {
    float* orow = out.row(a.row_idx[sl]);
    if (parts == 0) {
      for (int i = a.slice_off[sl]; i < a.slice_off[sl + 1]; ++i) {
        const float* xrow = x.row(a.col_idx[i]);
        for (int d = 0; d < fc; ++d) orow[d] += xrow[d];
      }
    } else {
      for (int i = a.slice_off[sl]; i < a.slice_off[sl + 1]; ++i) {
        const float* xrow = x.row(a.col_idx[i]);
        for (int p = 0; p < parts; ++p) {
          const float wp = (*stripe_w[p])[i];
          for (int d = 0; d < fpp; ++d) {
            const int c = p * fpp + d;
            orow[c] += wp * xrow[c];
          }
        }
      }
    }
  }
}

TEST(SlicedStrips, BitIdenticalToScalarLoopForEveryWidthAndStripeCount) {
  // Coalesced widths 1..40 walk every strip tail (16 / 8 / 4 / 2 / 1), 0-4
  // weight stripes cover the unweighted loop and every stripe width that
  // divides the row, and a pinned work floor makes the 4-thread pool run
  // real multi-block regions even on this small graph.
  ComputePool::set_min_block_work(64);
  Rng rng(47);
  const CSR g = random_csr(90, 1500, rng);
  const auto s = sliced::slice(g, 5);
  std::vector<std::vector<float>> weights(4);
  for (auto& w : weights) {
    w.resize(s.nnz());
    for (auto& v : w) v = static_cast<float>(rng.next_double()) - 0.25f;
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ComputePool::instance().configure(threads);
    for (int fc = 1; fc <= 40; ++fc) {
      const Tensor x = Tensor::randn(90, fc, rng);
      const Tensor seed = Tensor::randn(90, fc, rng);
      for (int parts = 0; parts <= 4; ++parts) {
        if (parts > 0 && fc % parts != 0) continue;
        std::vector<const std::vector<float>*> stripe_w;
        for (int p = 0; p < parts; ++p) stripe_w.push_back(&weights[p]);
        for (const bool accumulate : {false, true}) {
          Tensor want = seed;
          Tensor got = seed;
          reference_agg_sliced(s, x, want, accumulate, stripe_w);
          kernels::agg_sliced(s, x, got, 4, accumulate, stripe_w);
          for (std::size_t i = 0; i < want.storage().size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(want.storage()[i]),
                      std::bit_cast<std::uint32_t>(got.storage()[i]))
                << "threads " << threads << " width " << fc << " stripes "
                << parts << " accumulate " << accumulate << " elem " << i;
          }
        }
      }
    }
  }
  // The modeled stats report the load balance cached at slicing time.
  Tensor out(90, 8);
  EXPECT_EQ(kernels::agg_sliced(s, Tensor::randn(90, 8, rng), out).imbalance,
            sliced::sliced_load_balance(s, sliced::kBalanceUnits).imbalance());
  ComputePool::set_min_block_work(0);
  ComputePool::instance().configure(0);
}

TEST(SlicedStrips, BothWidthsBitIdenticalToScalarLoop) {
  // The 4- and 8-lane slice kernels called directly over all slices, with
  // and without weight stripes; the 8-lane half is skipped on a host
  // without AVX2.
  Rng rng(48);
  const CSR g = random_csr(90, 1500, rng);
  const auto s = sliced::slice(g, 5);
  std::vector<std::vector<float>> weights(3);
  for (auto& w : weights) {
    w.resize(s.nnz());
    for (auto& v : w) v = static_cast<float>(rng.next_double()) - 0.25f;
  }
  using SlicesFn = decltype(&simd::detail::agg_slices_4);
  const auto check = [&](int lanes, SlicesFn slices) {
    // Widths 1..48 walk every strip tail at either width.
    for (int fc = 1; fc <= 48; ++fc) {
      const Tensor x = Tensor::randn(90, fc, rng);
      const Tensor seed = Tensor::randn(90, fc, rng);
      for (const int parts : {0, 1, 3}) {
        if (parts > 0 && fc % parts != 0) continue;
        std::vector<const std::vector<float>*> stripe_w;
        std::vector<const float*> w;
        for (int p = 0; p < parts; ++p) {
          stripe_w.push_back(&weights[p]);
          w.push_back(weights[p].data());
        }
        Tensor want = seed;
        Tensor got = seed;
        reference_agg_sliced(s, x, want, true, stripe_w);
        const simd::AggArgs args{s.row_idx.data(), s.slice_off.data(),
                                 s.col_idx.data(), x.data(), got.data(), fc,
                                 w.data(), parts};
        slices(args, 0, s.num_slices());
        for (std::size_t i = 0; i < want.storage().size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(want.storage()[i]),
                    std::bit_cast<std::uint32_t>(got.storage()[i]))
              << lanes << " lanes, width " << fc << " stripes " << parts
              << " elem " << i;
        }
      }
    }
  };
  check(4, simd::detail::agg_slices_4);
  if (simd::lanes() < 8) GTEST_SKIP() << "8 lanes need AVX2";
  check(8, simd::detail::agg_slices_8);
}

// ---------- Edge shapes through the new blocking logic ----------

class PooledEdgeShapes : public ::testing::Test {
 protected:
  void SetUp() override { ComputePool::instance().configure(8); }
  void TearDown() override { ComputePool::instance().configure(0); }
};

TEST_F(PooledEdgeShapes, EmptySnapshotProducesZeros) {
  // A snapshot with no edges slices to zero slices; the blocked kernel must
  // still zero the output and not dispatch anything.
  const CSR a{16, 16, std::vector<int>(17, 0), {}};
  const auto s = sliced::slice(a);
  EXPECT_EQ(s.num_slices(), 0u);
  Rng rng(43);
  const Tensor x = Tensor::randn(16, 5, rng);
  Tensor out = Tensor::full(16, 5, 7.0f);
  kernels::agg_sliced(s, x, out);
  EXPECT_EQ(ops::sum(out), 0.0f);
  Tensor out2 = Tensor::full(16, 5, 7.0f);
  kernels::agg_csr(a, x, out2);
  EXPECT_EQ(ops::sum(out2), 0.0f);
}

TEST_F(PooledEdgeShapes, SingleRowSliceMatchesReference) {
  // All edges land in one destination row: every slice shares that row, so
  // the whole kernel must collapse to a single block (no row is split).
  const int n = 64;
  std::vector<graph::Edge> es;
  for (int i = 0; i < 2048; ++i) es.push_back({5, i % n});
  const CSR a = graph::csr_from_edges(n, n, std::move(es));
  const auto s = sliced::slice(a, 4);
  EXPECT_GT(s.num_slices(), 8u);
  Rng rng(44);
  const Tensor x = Tensor::randn(n, 9, rng);
  Tensor ref(n, 9), got(n, 9);
  kernels::ref_spmm(a, x, ref);
  kernels::agg_sliced(s, x, got);
  for (std::size_t i = 0; i < ref.storage().size(); ++i) {
    ASSERT_EQ(ref.storage()[i], got.storage()[i]) << "elem " << i;
  }
}

TEST_F(PooledEdgeShapes, FeatureDimNotDivisibleByBlockCount) {
  // 37 rows / odd F: block sizes are uneven and must still cover exactly.
  Rng rng(45);
  const CSR a = random_csr(37, 3000, rng);
  const Tensor x = Tensor::randn(37, 29, rng);
  Tensor ref(37, 29), got(37, 29);
  kernels::ref_spmm(a, x, ref);
  const auto s = sliced::slice(a, 3);
  kernels::agg_sliced(s, x, got);
  EXPECT_LT(ops::max_abs_diff(ref, got), 1e-4f);
}

TEST_F(PooledEdgeShapes, RowsFewerThanThreads) {
  // 4 destination rows under an 8-wide pool: at most 4 blocks may run and
  // the result must match the reference exactly.
  Rng rng(46);
  const CSR a = random_csr(4, 4096, rng);
  const Tensor x = Tensor::randn(4, 64, rng);
  Tensor ref(4, 64), got(4, 64);
  kernels::ref_spmm(a, x, ref);
  const auto s = sliced::slice(a, 8);
  kernels::agg_sliced(s, x, got);
  for (std::size_t i = 0; i < ref.storage().size(); ++i) {
    ASSERT_EQ(ref.storage()[i], got.storage()[i]) << "elem " << i;
  }
}

// ---------- Memory-model properties (§3.2 / Fig. 5) ----------

TEST(MemoryModel, TransactionsFlatBelowDim8ThenRise) {
  // #T per row is constant while 4F <= 32 bytes, then grows (§3.2).
  Rng rng(12);
  const CSR a = random_csr(64, 512, rng);
  auto txns_at = [&](int f) {
    Tensor x = Tensor::randn(64, f, rng);
    Tensor out(64, f);
    return kernels::agg_gespmm(a, x, out).global_transactions;
  };
  EXPECT_EQ(txns_at(2), txns_at(4));
  EXPECT_EQ(txns_at(4), txns_at(8));
  EXPECT_GT(txns_at(16), txns_at(8));
  EXPECT_GT(txns_at(64), txns_at(16));
}

TEST(MemoryModel, RequestsFlatBelowDim32ThenRise) {
  Rng rng(13);
  const CSR a = random_csr(64, 512, rng);
  auto reqs_at = [&](int f) {
    Tensor x = Tensor::randn(64, f, rng);
    Tensor out(64, f);
    return kernels::agg_gespmm(a, x, out).global_requests;
  };
  EXPECT_EQ(reqs_at(8), reqs_at(16));
  EXPECT_EQ(reqs_at(16), reqs_at(32));
  EXPECT_GT(reqs_at(64), reqs_at(32));
  EXPECT_GT(reqs_at(128), reqs_at(64));
}

TEST(MemoryModel, CoalescedSmallDimSavesTransactions) {
  // Four F=2 snapshots aggregated via one coalesced pass move fewer
  // transactions over the shared topology than four separate passes.
  Rng rng(14);
  const CSR a = random_csr(128, 1024, rng);
  const auto s = sliced::slice(a);
  Tensor x1 = Tensor::randn(128, 2, rng);
  Tensor o1(128, 2);
  const auto per = kernels::agg_sliced(s, x1, o1);

  Tensor x4 = Tensor::randn(128, 8, rng);
  Tensor o4(128, 8);
  const auto coal = kernels::agg_sliced(s, x4, o4);
  EXPECT_LT(coal.global_transactions, 4 * per.global_transactions);
  EXPECT_LT(coal.global_requests, 4 * per.global_requests);
}

TEST(MemoryModel, VectorLoadsReduceRequestsForLargeDims) {
  // 4 snapshots x F=16 -> 64-wide rows: one vector request instead of four
  // separate ones (the paper's §5.3 example).
  Rng rng(15);
  const CSR a = random_csr(128, 1024, rng);
  const auto s = sliced::slice(a);
  Tensor x1 = Tensor::randn(128, 16, rng);
  Tensor o1(128, 16);
  const auto per = kernels::agg_sliced(s, x1, o1);
  Tensor x4 = Tensor::randn(128, 64, rng);
  Tensor o4(128, 64);
  const auto coal = kernels::agg_sliced(s, x4, o4);
  EXPECT_LT(coal.global_requests, 4 * per.global_requests);
  // Transactions stay equal: bytes are bytes.
  EXPECT_LE(coal.global_transactions, 4 * per.global_transactions);
}

TEST(MemoryModel, SliceCoalescingRaisesWarpEfficiency) {
  Rng rng(16);
  const CSR a = random_csr(128, 1024, rng);
  const auto s = sliced::slice(a);
  Tensor x = Tensor::randn(128, 4, rng);
  Tensor out(128, 4);
  const auto with = kernels::agg_sliced(s, x, out, /*coalesce_num=*/4);
  const auto without = kernels::agg_sliced(s, x, out, /*coalesce_num=*/1);
  EXPECT_GT(with.warp_efficiency(), without.warp_efficiency());
}

TEST(MemoryModel, GespmmReadsAdjacencyOncePerRowUnlikeCsr) {
  // For F > 32 the plain CSR kernel re-reads column indices per feature
  // tile; GE-SpMM stages them in shared memory.
  Rng rng(17);
  const CSR a = random_csr(64, 2048, rng);
  Tensor x = Tensor::randn(64, 128, rng);
  Tensor out(64, 128);
  const auto csr = kernels::agg_csr(a, x, out);
  const auto ge = kernels::agg_gespmm(a, x, out);
  EXPECT_LT(ge.global_transactions, csr.global_transactions);
  EXPECT_GT(ge.shared_accesses, csr.shared_accesses);
}

TEST(MemoryModel, CooPaysAtomicsPerEdge) {
  Rng rng(18);
  const CSR a = random_csr(64, 512, rng);
  Tensor x = Tensor::randn(64, 4, rng);
  Tensor out(64, 4);
  const auto coo = kernels::agg_coo(graph::coo_from_csr(a), x, out);
  EXPECT_EQ(coo.atomic_ops, a.nnz() * 4);
  const auto ge = kernels::agg_gespmm(a, x, out);
  EXPECT_GT(coo.global_transactions, ge.global_transactions);
}

// ---------- Update kernels ----------

TEST(Update, GemmMatchesOps) {
  Rng rng(19);
  const Tensor h = Tensor::randn(37, 13, rng);
  const Tensor w = Tensor::randn(13, 9, rng);
  Tensor out;
  kernels::update_gemm(h, w, out);
  EXPECT_LT(ops::max_abs_diff(out, ops::matmul(h, w)), 1e-4f);
}

TEST(Update, WeightReuseMatchesPerSnapshotMath) {
  Rng rng(20);
  const Tensor w = Tensor::randn(8, 5, rng);
  std::vector<Tensor> hs;
  std::vector<const Tensor*> hp;
  for (int i = 0; i < 4; ++i) hs.push_back(Tensor::randn(21, 8, rng));
  for (const auto& h : hs) hp.push_back(&h);
  std::vector<Tensor> outs;
  kernels::update_weight_reuse(hp, w, outs);
  for (int i = 0; i < 4; ++i) {
    EXPECT_LT(ops::max_abs_diff(outs[i], ops::matmul(hs[i], w)), 1e-4f);
  }
}

TEST(Update, WeightReuseMovesFewerBytesThanRepeatedGemm) {
  const auto single = kernels::gemm_stats(1000, 64, 64);
  const auto reused = kernels::gemm_weight_reuse_stats(1000, 64, 64, 8);
  EXPECT_LT(reused.global_transactions, 8 * single.global_transactions);
  EXPECT_EQ(reused.flops, 8 * single.flops);
}

// ---------- Stats builders sanity ----------

TEST(StatsBuilders, ElementwiseScalesLinearly) {
  const auto a = kernels::elementwise_stats(1000, 2, 3);
  const auto b = kernels::elementwise_stats(2000, 2, 3);
  EXPECT_EQ(b.flops, 2 * a.flops);
  EXPECT_NEAR(static_cast<double>(b.global_transactions),
              2.0 * a.global_transactions, 2.0);
}

TEST(StatsBuilders, ZeroWorkYieldsZeroStats) {
  const auto s = kernels::gemm_stats(0, 10, 10);
  EXPECT_EQ(s.flops, 0u);
  EXPECT_EQ(s.global_transactions, 0u);
}

}  // namespace
}  // namespace pipad
