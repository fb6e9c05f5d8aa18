// Sliced CSR tests: slicing invariants, space model, load balance, and the
// frame-partition decomposition.
#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "sliced/partition.hpp"
#include "sliced/sliced_csr.hpp"
#include "tensor/ops.hpp"

namespace pipad::sliced {
namespace {

graph::CSR random_csr(int n, int edges, Rng& rng) {
  std::vector<graph::Edge> es;
  for (int i = 0; i < edges; ++i) {
    es.push_back({static_cast<int>(rng.next_below(n)),
                  static_cast<int>(rng.next_below(n))});
  }
  return graph::csr_from_edges(n, n, std::move(es));
}

class SliceBounds : public ::testing::TestWithParam<int> {};

TEST_P(SliceBounds, SliceUnsliceRoundTrip) {
  Rng rng(GetParam());
  const auto csr = random_csr(60, 700, rng);
  const auto s = slice(csr, GetParam());
  s.validate();
  EXPECT_TRUE(graph::same_topology(csr, unslice(s)));
}

TEST_P(SliceBounds, EverySliceRespectsBound) {
  Rng rng(100 + GetParam());
  const auto s = slice(random_csr(50, 900, rng), GetParam());
  for (std::size_t i = 0; i < s.num_slices(); ++i) {
    EXPECT_LE(s.slice_size(i), GetParam());
    EXPECT_GT(s.slice_size(i), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, SliceBounds,
                         ::testing::Values(1, 2, 3, 8, 16, 32, 64));

TEST(SlicedCsr, FromSortedKeysMatchesSliceOfCsr) {
  Rng rng(7);
  const auto csr = random_csr(40, 500, rng);
  const auto keys = graph::edge_keys(csr);
  const auto a = slice(csr, 8);
  const auto b = slice_from_sorted_keys(40, 40, keys, 8);
  b.validate();
  EXPECT_EQ(a.row_idx, b.row_idx);
  EXPECT_EQ(a.slice_off, b.slice_off);
  EXPECT_EQ(a.col_idx, b.col_idx);
}

TEST(SlicedCsr, EmptyGraph) {
  const graph::CSR empty{5, 5, std::vector<int>(6, 0), {}};
  const auto s = slice(empty);
  s.validate();
  EXPECT_EQ(s.num_slices(), 0u);
  EXPECT_TRUE(graph::same_topology(empty, unslice(s)));
}

TEST(SlicedCsr, EmptyRowsCostNothingUnlikeCsr) {
  // One hub row, everything else empty — the Youtube pattern (§5.3).
  std::vector<graph::Edge> es;
  for (int i = 0; i < 64; ++i) es.push_back({i, 0});
  const auto csr = graph::csr_from_edges(1000, 1000, std::move(es));
  const auto s = slice(csr, 32);
  EXPECT_EQ(s.num_slices(), 2u);  // 64 nnz / 32 per slice.
  // CSR pays row_ptr for all 1000 rows; sliced CSR pays 2 slices.
  EXPECT_LT(s.transfer_bytes(), csr.transfer_bytes());
}

TEST(SlicedCsr, SpaceModelBetweenCsrAndCoo) {
  Rng rng(8);
  const auto csr = random_csr(100, 5000, rng);
  const auto s = slice(csr, 32);
  const std::size_t coo_bytes = 3 * csr.nnz() * sizeof(int);
  EXPECT_LE(s.transfer_bytes(), coo_bytes);
  // Exact formula: 2*nnz + 2*#slices + 1 words.
  EXPECT_EQ(s.transfer_bytes(),
            (2 * s.nnz() + 2 * s.num_slices() + 1) * sizeof(int));
}

TEST(LoadBalance, SlicingImprovesSkewedGraphs) {
  // A graph with power-law rows is badly balanced per-row; slices cap the
  // work per unit (§5.4).
  std::vector<graph::Edge> es;
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const int dst = static_cast<int>(500 * std::pow(rng.next_double(), 3.0));
    es.push_back({static_cast<int>(rng.next_below(500)), dst});
  }
  const auto csr = graph::csr_from_edges(500, 500, std::move(es));
  const auto s = slice(csr, 8);
  const auto lb_csr = csr_load_balance(csr, 64);
  const auto lb_sliced = sliced_load_balance(s, 64);
  EXPECT_LT(lb_sliced.imbalance(), lb_csr.imbalance());
  EXPECT_GE(lb_sliced.imbalance(), 1.0);
}

TEST(LoadBalance, CachedImbalanceMatchesAFreshModel) {
  // agg_sliced reports SlicedCSR::imbalance instead of re-running the model
  // on every call, so both constructors must store exactly what a fresh
  // sliced_load_balance computes — for skewed, tiny and empty topologies.
  Rng rng(17);
  std::vector<graph::Edge> es;
  for (int i = 0; i < 3000; ++i) {
    const int dst = static_cast<int>(700 * std::pow(rng.next_double(), 3.0));
    es.push_back({static_cast<int>(rng.next_below(700)), dst});
  }
  const auto skewed = graph::csr_from_edges(700, 700, std::move(es));
  const auto tiny = random_csr(6, 9, rng);
  const graph::CSR empty{5, 5, std::vector<int>(6, 0), {}};
  for (const graph::CSR* csr : {&skewed, &tiny, &empty}) {
    for (const int bound : {1, 4, kDefaultSliceBound}) {
      const auto a = slice(*csr, bound);
      const auto b = slice_from_sorted_keys(csr->rows, csr->cols,
                                            graph::edge_keys(*csr), bound);
      const double fresh =
          sliced_load_balance(a, kBalanceUnits).imbalance();
      EXPECT_EQ(a.imbalance, fresh) << "bound " << bound;
      EXPECT_EQ(b.imbalance, fresh) << "bound " << bound;
    }
  }
  EXPECT_GT(slice(skewed, 4).imbalance, 1.0);
  EXPECT_EQ(slice(empty).imbalance, 1.0);
}

// ---------- Partitions ----------

TEST(Partition, InvariantOverlapPlusExclusiveEqualsSnapshot) {
  graph::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_nodes = 80;
  cfg.raw_events = 1200;
  cfg.num_snapshots = 8;
  cfg.feat_dim = 2;
  cfg.edge_life = 4.0;
  const auto g = graph::generate(cfg);
  const auto p = build_partition(g, 2, 4);
  p.overlap.validate();
  for (int i = 0; i < 4; ++i) {
    p.exclusive[i].validate();
    auto merged = graph::edge_keys(unslice(p.overlap));
    const auto ke = graph::edge_keys(unslice(p.exclusive[i]));
    std::vector<std::uint64_t> uni;
    std::set_union(merged.begin(), merged.end(), ke.begin(), ke.end(),
                   std::back_inserter(uni));
    EXPECT_EQ(uni, graph::edge_keys(g.snapshots[2 + i].adj)) << i;
  }
  EXPECT_GT(p.overlap.nnz(), 0u);  // edge_life 4: the group shares edges.
}

TEST(Partition, TransposesAreConsistent) {
  graph::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_nodes = 40;
  cfg.raw_events = 600;
  cfg.num_snapshots = 6;
  cfg.feat_dim = 2;
  cfg.edge_life = 3.0;
  const auto g = graph::generate(cfg);
  const auto p = build_partition(g, 0, 3);
  EXPECT_TRUE(graph::same_topology(graph::transpose(unslice(p.overlap)),
                                   unslice(p.overlap_t)));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(graph::same_topology(graph::transpose(unslice(p.exclusive[i])),
                                     unslice(p.exclusive_t[i])));
  }
}

TEST(Partition, TransferSavingGrowsWithOverlap) {
  graph::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_nodes = 100;
  cfg.raw_events = 1500;
  cfg.num_snapshots = 10;
  cfg.feat_dim = 2;
  cfg.edge_life = 8.0;  // Slow evolution: high overlap.
  const auto g = graph::generate(cfg);
  const auto p = build_partition(g, 2, 4);
  EXPECT_LT(p.topology_transfer_bytes(), p.unshared_topology_bytes());
}

TEST(Partition, FramePartitioningCoversFrameExactly) {
  graph::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_nodes = 30;
  cfg.raw_events = 300;
  cfg.num_snapshots = 12;
  cfg.feat_dim = 2;
  cfg.edge_life = 3.0;
  const auto g = graph::generate(cfg);
  const auto parts = partition_frame(g, {1, 10}, 4);
  ASSERT_EQ(parts.size(), 3u);  // 4 + 4 + 2.
  EXPECT_EQ(parts[0].start, 1);
  EXPECT_EQ(parts[0].count, 4);
  EXPECT_EQ(parts[2].start, 9);
  EXPECT_EQ(parts[2].count, 2);
}

TEST(Partition, CoalesceSplitRoundTrip) {
  Rng rng(10);
  const Tensor a = Tensor::randn(6, 3, rng);
  const Tensor b = Tensor::randn(6, 3, rng);
  const Tensor c = Tensor::randn(6, 3, rng);
  const Tensor coal = coalesce_features({&a, &b, &c});
  EXPECT_EQ(coal.cols(), 9);
  EXPECT_EQ(coal.at(2, 3), b.at(2, 0));  // Stripe layout.
  const auto parts = split_coalesced(coal, 3);
  EXPECT_EQ(ops::max_abs_diff(parts[0], a), 0.0f);
  EXPECT_EQ(ops::max_abs_diff(parts[1], b), 0.0f);
  EXPECT_EQ(ops::max_abs_diff(parts[2], c), 0.0f);
}

}  // namespace
}  // namespace pipad::sliced
