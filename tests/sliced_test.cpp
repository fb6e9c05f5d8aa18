// Sliced CSR tests: slicing invariants, space model, load balance, and the
// frame-partition decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <utility>

#include "graph/generator.hpp"
#include "pipad/pipad_trainer.hpp"
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
  // on every call, so slice() must store exactly what a fresh
  // sliced_load_balance computes, for skewed, tiny and empty topologies.
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
      const double fresh =
          sliced_load_balance(a, kBalanceUnits).imbalance();
      EXPECT_EQ(a.imbalance, fresh) << "bound " << bound;
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
  // Each member shipped on its own as a full sliced CSR plus transpose.
  std::size_t unshared = 0;
  for (int i = 0; i < 4; ++i) {
    const auto& snap = g.snapshots[2 + i];
    unshared += slice(snap.adj).transfer_bytes() +
                slice(snap.adj_t).transfer_bytes();
  }
  EXPECT_LT(p.topology_transfer_bytes(), unshared);
}

TEST(Partition, FramePartitioningCoversFrameExactly) {
  using Keys = std::vector<std::pair<int, int>>;
  // 4 + 4 + 2 over snapshots [1, 11) of 12.
  EXPECT_EQ(runtime::frame_partitions({1, 10}, 4, 12),
            (Keys{{1, 4}, {5, 4}, {9, 2}}));
  // A frame running past the dataset is clipped to its last snapshot.
  EXPECT_EQ(runtime::frame_partitions({8, 6}, 4, 12), (Keys{{8, 4}}));
  EXPECT_EQ(runtime::frame_partitions({3, 3}, 1, 12),
            (Keys{{3, 1}, {4, 1}, {5, 1}}));
}

// ---------- Row merge vs the key-vector reference ----------

/// Reference decomposition through sorted edge-key vectors: intersect every
/// member's keys, subtract the intersection from each, rebuild the CSRs.
graph::OverlapDecomposition key_decompose(const graph::DTDG& g, int start,
                                          int count) {
  const auto& first = g.snapshots[start].adj;
  std::vector<std::vector<std::uint64_t>> keys;
  for (int i = 0; i < count; ++i) {
    keys.push_back(graph::edge_keys(g.snapshots[start + i].adj));
  }
  std::vector<std::uint64_t> inter = keys[0];
  for (int i = 1; i < count; ++i) {
    std::vector<std::uint64_t> next;
    std::set_intersection(inter.begin(), inter.end(), keys[i].begin(),
                          keys[i].end(), std::back_inserter(next));
    inter = std::move(next);
  }
  graph::OverlapDecomposition d;
  d.overlap = graph::csr_from_sorted_keys(first.rows, first.cols, inter);
  for (const auto& k : keys) {
    std::vector<std::uint64_t> rest;
    std::set_difference(k.begin(), k.end(), inter.begin(), inter.end(),
                        std::back_inserter(rest));
    d.exclusive.push_back(
        graph::csr_from_sorted_keys(first.rows, first.cols, rest));
  }
  return d;
}

/// Reference weight lookup: each part edge's weight found by binary search
/// in the member's row; 1.0 fills for an unweighted member.
std::vector<float> searched_weights(const graph::CSR& part,
                                    const graph::Snapshot& member) {
  if (!member.weighted()) return std::vector<float>(part.nnz(), 1.0f);
  const auto& adj = member.adj;
  std::vector<float> out(part.nnz());
  for (int r = 0; r < part.rows; ++r) {
    const auto lo = adj.col_idx.begin() + adj.row_ptr[r];
    const auto hi = adj.col_idx.begin() + adj.row_ptr[r + 1];
    for (int i = part.row_ptr[r]; i < part.row_ptr[r + 1]; ++i) {
      const auto it = std::lower_bound(lo, hi, part.col_idx[i]);
      if (it == hi || *it != part.col_idx[i]) {
        ADD_FAILURE() << "part edge " << part.col_idx[i] << "->" << r
                      << " missing from its member";
        continue;
      }
      out[i] = member.edge_w[it - adj.col_idx.begin()];
    }
  }
  return out;
}

/// The partition the key-vector reference builds: every part sliced, its
/// transpose sliced, and all four weight arrays for weighted groups.
FramePartition reference_partition(const graph::DTDG& g, int start,
                                   int count) {
  const auto d = key_decompose(g, start, count);
  FramePartition p;
  p.start = start;
  p.count = count;
  p.overlap = slice(d.overlap);
  p.overlap_t = slice(graph::transpose(d.overlap));
  bool weighted = false;
  for (int i = 0; i < count; ++i) {
    const auto& member = g.snapshots[start + i];
    weighted = weighted || member.weighted();
    p.exclusive.push_back(slice(d.exclusive[i]));
    p.exclusive_t.push_back(slice(graph::transpose(d.exclusive[i])));
  }
  if (!weighted) return p;
  for (int i = 0; i < count; ++i) {
    const auto& member = g.snapshots[start + i];
    p.overlap_w.push_back(searched_weights(d.overlap, member));
    p.overlap_w_t.push_back(
        graph::transpose_weights(d.overlap, p.overlap_w.back()));
    p.exclusive_w.push_back(searched_weights(d.exclusive[i], member));
    p.exclusive_w_t.push_back(
        graph::transpose_weights(d.exclusive[i], p.exclusive_w.back()));
  }
  return p;
}

void expect_same_sliced(const SlicedCSR& a, const SlicedCSR& b,
                        const std::string& what) {
  EXPECT_EQ(a.rows, b.rows) << what;
  EXPECT_EQ(a.cols, b.cols) << what;
  EXPECT_EQ(a.slice_bound, b.slice_bound) << what;
  EXPECT_EQ(a.row_idx, b.row_idx) << what;
  EXPECT_EQ(a.slice_off, b.slice_off) << what;
  EXPECT_EQ(a.col_idx, b.col_idx) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.imbalance),
            std::bit_cast<std::uint64_t>(b.imbalance))
      << what;
}

std::vector<std::vector<std::uint32_t>> weight_bits(
    const std::vector<std::vector<float>>& ws) {
  std::vector<std::vector<std::uint32_t>> out;
  for (const auto& w : ws) {
    out.emplace_back();
    for (float x : w) out.back().push_back(std::bit_cast<std::uint32_t>(x));
  }
  return out;
}

void expect_same_partition(const FramePartition& a, const FramePartition& b,
                           const std::string& what) {
  EXPECT_EQ(a.start, b.start) << what;
  EXPECT_EQ(a.count, b.count) << what;
  expect_same_sliced(a.overlap, b.overlap, what + " overlap");
  expect_same_sliced(a.overlap_t, b.overlap_t, what + " overlap_t");
  ASSERT_EQ(a.exclusive.size(), b.exclusive.size()) << what;
  ASSERT_EQ(a.exclusive_t.size(), b.exclusive_t.size()) << what;
  for (std::size_t i = 0; i < a.exclusive.size(); ++i) {
    const std::string m = what + " member " + std::to_string(i);
    expect_same_sliced(a.exclusive[i], b.exclusive[i], m + " exclusive");
    expect_same_sliced(a.exclusive_t[i], b.exclusive_t[i], m + " exclusive_t");
  }
  EXPECT_EQ(weight_bits(a.overlap_w), weight_bits(b.overlap_w)) << what;
  EXPECT_EQ(weight_bits(a.overlap_w_t), weight_bits(b.overlap_w_t)) << what;
  EXPECT_EQ(weight_bits(a.exclusive_w), weight_bits(b.exclusive_w)) << what;
  EXPECT_EQ(weight_bits(a.exclusive_w_t), weight_bits(b.exclusive_w_t))
      << what;
}

/// A DTDG over the given adjacencies, weighted per `weighted(t)` with
/// non-uniform values that depend on the edge and the snapshot.
template <typename WeightedFn>
graph::DTDG dtdg_of(const std::vector<graph::CSR>& adjs, WeightedFn weighted) {
  graph::DTDG g;
  g.num_nodes = adjs[0].rows;
  for (std::size_t t = 0; t < adjs.size(); ++t) {
    graph::Snapshot s;
    s.adj = adjs[t];
    s.adj_t = graph::transpose(adjs[t]);
    if (weighted(static_cast<int>(t))) {
      for (int r = 0; r < s.adj.rows; ++r) {
        for (int i = s.adj.row_ptr[r]; i < s.adj.row_ptr[r + 1]; ++i) {
          s.edge_w.push_back(
              0.25f + 0.125f * static_cast<float>(
                                   (s.adj.col_idx[i] * 31 + r * 7 +
                                    static_cast<int>(t) * 13) %
                                   16));
        }
      }
    }
    g.snapshots.push_back(std::move(s));
  }
  return g;
}

/// Topology families the row merge must handle: evolving snapshots with
/// many empty rows, identical members, pairwise disjoint members and
/// members with no edges at all. Each has 10 snapshots.
std::vector<std::pair<std::string, std::vector<graph::CSR>>> topologies() {
  std::vector<std::pair<std::string, std::vector<graph::CSR>>> out;
  graph::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_nodes = 120;
  cfg.raw_events = 1500;
  cfg.num_snapshots = 10;
  cfg.feat_dim = 2;
  cfg.edge_life = 4.0;
  const auto gen = graph::generate(cfg);
  std::vector<graph::CSR> evolving;
  for (const auto& s : gen.snapshots) evolving.push_back(s.adj);
  out.emplace_back("evolving", evolving);
  out.emplace_back("identical",
                   std::vector<graph::CSR>(10, gen.snapshots[3].adj));
  // Snapshot t holds only edges whose source is t mod 10: no edge is in
  // two members, so every overlap is empty.
  Rng rng(21);
  std::vector<graph::CSR> disjoint;
  for (int t = 0; t < 10; ++t) {
    std::vector<graph::Edge> es;
    for (int i = 0; i < 80; ++i) {
      es.push_back({t + 10 * static_cast<int>(rng.next_below(12)),
                    static_cast<int>(rng.next_below(120))});
    }
    disjoint.push_back(graph::csr_from_edges(120, 120, es));
  }
  out.emplace_back("disjoint", disjoint);
  // Evolving snapshots with every third one emptied.
  std::vector<graph::CSR> holes = evolving;
  for (int t = 1; t < 10; t += 3) {
    holes[t] = graph::CSR{120, 120, std::vector<int>(121, 0), {}};
  }
  out.emplace_back("empty members", holes);
  return out;
}

TEST(Partition, RowMergeMatchesKeyReferenceBitForBit) {
  ThreadPool one(1);
  ThreadPool four(4);
  const std::vector<std::pair<std::string, std::function<bool(int)>>> modes =
      {{"unweighted", [](int) { return false; }},
       {"weighted", [](int) { return true; }},
       {"mixed", [](int t) { return t % 2 == 1; }}};
  for (const auto& [family, adjs] : topologies()) {
    for (const auto& [mode, weighted] : modes) {
      const auto g = dtdg_of(adjs, weighted);
      for (const int count : {1, 2, 3, 4, 8}) {
        for (const int start : {0, 10 - count}) {
          const auto want = reference_partition(g, start, count);
          for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one,
                                   &four}) {
            const std::string what =
                family + "/" + mode + " start " + std::to_string(start) +
                " S_per " + std::to_string(count) + " pool " +
                std::to_string(pool == nullptr ? 0 : pool->size());
            expect_same_partition(
                build_partition(g, start, count, kDefaultSliceBound, pool),
                want, what);
          }
        }
      }
    }
  }
}

TEST(Partition, OverlapRateMatchesKeyJaccard) {
  for (const auto& [family, adjs] : topologies()) {
    for (std::size_t a = 0; a < adjs.size(); ++a) {
      for (const std::size_t b : {(a + 1) % adjs.size(), std::size_t{0}}) {
        const auto ka = graph::edge_keys(adjs[a]);
        const auto kb = graph::edge_keys(adjs[b]);
        std::vector<std::uint64_t> inter;
        std::set_intersection(ka.begin(), ka.end(), kb.begin(), kb.end(),
                              std::back_inserter(inter));
        const std::size_t uni = ka.size() + kb.size() - inter.size();
        const double want =
            uni == 0 ? 1.0
                     : static_cast<double>(inter.size()) /
                           static_cast<double>(uni);
        EXPECT_EQ(graph::overlap_rate(adjs[a], adjs[b]), want)
            << family << " " << a << " vs " << b;
      }
    }
  }
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
