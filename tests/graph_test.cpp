// Graph substrate tests: formats, transposition, overlap algebra, the
// synthetic DTDG generators' statistical properties, and the snapshot
// builder against a stage-everything reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>

#include "graph/generator.hpp"
#include "graph/io/loader.hpp"
#include "graph/io/text_format.hpp"
#include "graph/overlap.hpp"
#include "graph/snapshot_builder.hpp"

namespace pipad::graph {
namespace {

DatasetConfig testutil_cfg() {
  DatasetConfig cfg;
  // std::string{} sidesteps a GCC 12 -Wrestrict false positive (PR105329)
  // on char* assignment into the SSO buffer under heavy inlining.
  cfg.name = std::string("t");
  cfg.num_nodes = 120;
  cfg.raw_events = 1500;
  cfg.num_snapshots = 12;
  cfg.feat_dim = 2;
  cfg.edge_life = 4.0;
  cfg.seed = 5;
  return cfg;
}

TEST(Formats, CsrFromEdgesDedupsAndSorts) {
  const CSR c = csr_from_edges(4, 4, {{0, 1}, {2, 1}, {0, 1}, {1, 3}});
  c.validate();
  EXPECT_EQ(c.nnz(), 3u);
  EXPECT_EQ(c.degree(1), 2);  // Sources 0 and 2.
  EXPECT_EQ(c.col_idx[c.row_ptr[1]], 0);
  EXPECT_EQ(c.col_idx[c.row_ptr[1] + 1], 2);
}

TEST(Formats, CsrFromEdgesAddsNoSelfLoops) {
  // GCN normalization adds the self term; a stored (v, v) entry would
  // count v twice, so only the edges given are stored.
  const CSR c = csr_from_edges(3, 3, {{0, 1}, {2, 2}});
  EXPECT_EQ(c.nnz(), 2u);
  for (int v = 0; v < 3; ++v) {
    bool found = false;
    for (int i = c.row_ptr[v]; i < c.row_ptr[v + 1]; ++i) {
      if (c.col_idx[i] == v) found = true;
    }
    EXPECT_EQ(found, v == 2) << "vertex " << v;
  }
}

TEST(Formats, CooCsrRoundTrip) {
  Rng rng(1);
  std::vector<Edge> es;
  for (int i = 0; i < 300; ++i) {
    es.push_back({static_cast<int>(rng.next_below(40)),
                  static_cast<int>(rng.next_below(40))});
  }
  const CSR c = csr_from_edges(40, 40, es);
  const CSR c2 = csr_from_coo(coo_from_csr(c));
  EXPECT_TRUE(same_topology(c, c2));
}

TEST(Formats, TransposeIsInvolution) {
  Rng rng(2);
  std::vector<Edge> es;
  for (int i = 0; i < 500; ++i) {
    es.push_back({static_cast<int>(rng.next_below(50)),
                  static_cast<int>(rng.next_below(50))});
  }
  const CSR c = csr_from_edges(50, 50, es);
  const CSR tt = transpose(transpose(c));
  tt.validate();
  EXPECT_TRUE(same_topology(c, tt));
}

TEST(Formats, TransposeReversesEdges) {
  const CSR c = csr_from_edges(3, 3, {{0, 1}, {2, 0}});
  const CSR t = transpose(c);
  // Edge 0->1 means row 1 contains col 0; transpose: row 0 contains col 1.
  EXPECT_EQ(t.degree(0), 1);
  EXPECT_EQ(t.col_idx[t.row_ptr[0]], 1);
  EXPECT_EQ(t.degree(2), 1);
  EXPECT_EQ(t.col_idx[t.row_ptr[2]], 0);
}

TEST(Formats, EdgeKeysAreSortedRowMajor) {
  Rng rng(3);
  std::vector<Edge> es;
  for (int i = 0; i < 200; ++i) {
    es.push_back({static_cast<int>(rng.next_below(30)),
                  static_cast<int>(rng.next_below(30))});
  }
  const auto keys = edge_keys(csr_from_edges(30, 30, es));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(Formats, TransferBytesModel) {
  const CSR c = csr_from_edges(10, 10, {{0, 1}, {1, 2}, {2, 3}});
  // 2*nnz + #V + 1 words (§4.1).
  EXPECT_EQ(c.transfer_bytes(), (2 * 3 + 11) * sizeof(int));
  const COO coo = coo_from_csr(c);
  EXPECT_EQ(coo.transfer_bytes(), 3 * 3 * sizeof(int));
}

// ---------- Overlap decomposition ----------

TEST(Overlap, IdenticalGraphsFullyOverlap) {
  const CSR c = csr_from_edges(8, 8, {{0, 1}, {2, 3}, {4, 5}});
  EXPECT_EQ(overlap_rate(c, c), 1.0);
}

TEST(Overlap, DisjointGraphsDontOverlap) {
  const CSR a = csr_from_edges(8, 8, {{0, 1}, {2, 3}});
  const CSR b = csr_from_edges(8, 8, {{4, 5}, {6, 7}});
  EXPECT_EQ(overlap_rate(a, b), 0.0);
}

TEST(Overlap, DecompositionReconstructsEachMember) {
  Rng rng(4);
  std::vector<CSR> graphs;
  std::vector<Edge> shared;
  for (int i = 0; i < 60; ++i) {
    shared.push_back({static_cast<int>(rng.next_below(20)),
                      static_cast<int>(rng.next_below(20))});
  }
  for (int g = 0; g < 3; ++g) {
    auto es = shared;
    for (int i = 0; i < 20; ++i) {
      es.push_back({static_cast<int>(rng.next_below(20)),
                    static_cast<int>(rng.next_below(20))});
    }
    graphs.push_back(csr_from_edges(20, 20, es));
  }
  std::vector<const CSR*> group{&graphs[0], &graphs[1], &graphs[2]};
  const auto d = decompose_group(group);
  d.overlap.validate();
  for (int g = 0; g < 3; ++g) {
    d.exclusive[g].validate();
    // overlap ∪ exclusive == original, disjointly.
    auto ko = edge_keys(d.overlap);
    auto ke = edge_keys(d.exclusive[g]);
    std::vector<std::uint64_t> shared;
    std::set_intersection(ko.begin(), ko.end(), ke.begin(), ke.end(),
                          std::back_inserter(shared));
    EXPECT_TRUE(shared.empty());
    std::vector<std::uint64_t> merged;
    std::set_union(ko.begin(), ko.end(), ke.begin(), ke.end(),
                   std::back_inserter(merged));
    EXPECT_EQ(merged, edge_keys(graphs[g]));
  }
}

TEST(Overlap, LargerGroupsShareFewerEdges) {
  graph::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_nodes = 100;
  cfg.raw_events = 2000;
  cfg.num_snapshots = 10;
  cfg.feat_dim = 2;
  cfg.edge_life = 5.0;
  const auto g = generate(cfg);
  std::vector<const CSR*> g2{&g.snapshots[0].adj, &g.snapshots[1].adj};
  std::vector<const CSR*> g4;
  for (int i = 0; i < 4; ++i) g4.push_back(&g.snapshots[i].adj);
  // The 4-group contains the 2-group, so the edges all four share are a
  // subset of those the first two share.
  const auto shared2 = decompose_group(g2).overlap.nnz();
  const auto shared4 = decompose_group(g4).overlap.nnz();
  EXPECT_GT(shared2, 0u);
  EXPECT_GE(shared2, shared4);
}

// ---------- Generators ----------

TEST(Generator, ShapesMatchConfig) {
  const auto cfg = dataset_by_name("covid19-england");
  const auto g = generate(cfg);
  EXPECT_EQ(g.num_nodes, cfg.num_nodes);
  EXPECT_EQ(g.num_snapshots(), cfg.num_snapshots);
  EXPECT_EQ(g.feat_dim, cfg.feat_dim);
  ASSERT_EQ(g.targets.size(), g.snapshots.size());
  for (const auto& s : g.snapshots) {
    s.adj.validate();
    s.adj_t.validate();
    EXPECT_EQ(s.features.rows(), cfg.num_nodes);
    EXPECT_EQ(s.features.cols(), cfg.feat_dim);
  }
}

TEST(Generator, DeterministicForSameSeed) {
  const auto cfg = dataset_by_name("pems08");
  const auto a = generate(cfg);
  const auto b = generate(cfg);
  ASSERT_EQ(a.num_snapshots(), b.num_snapshots());
  for (int t = 0; t < a.num_snapshots(); ++t) {
    EXPECT_TRUE(same_topology(a.snapshots[t].adj, b.snapshots[t].adj));
  }
}

TEST(Generator, StaticTopologyNeverChanges) {
  const auto g = generate(dataset_by_name("pems08"));
  for (int t = 1; t < g.num_snapshots(); ++t) {
    EXPECT_TRUE(same_topology(g.snapshots[0].adj, g.snapshots[t].adj));
  }
}

TEST(Generator, EdgeLifeCreatesHighAdjacentOverlap) {
  // Long edge life (slow evolution) must produce the high overlap the
  // paper's mechanisms rely on (§3.1: ~10 % change per step).
  auto cfg = testutil_cfg();
  cfg.edge_life = 15.0;
  const auto g = generate(cfg);
  const auto st = compute_stats(g);
  EXPECT_GT(st.mean_adjacent_overlap, 0.75);
  cfg.edge_life = 1.0;
  const auto fast = compute_stats(generate(cfg));
  EXPECT_LT(fast.mean_adjacent_overlap, st.mean_adjacent_overlap);
}

TEST(Generator, SmoothedEdgesScaleWithEdgeLife) {
  auto cfg = testutil_cfg();
  cfg.edge_life = 2.0;
  const auto s2 = compute_stats(generate(cfg));
  cfg.edge_life = 8.0;
  const auto s8 = compute_stats(generate(cfg));
  EXPECT_GT(s8.smoothed_edges, 2 * s2.smoothed_edges);
  // Distinct edges are edge-life independent (same raw events).
  EXPECT_NEAR(static_cast<double>(s8.distinct_edges),
              static_cast<double>(s2.distinct_edges),
              0.1 * s2.distinct_edges);
}

TEST(Generator, AllSevenEvaluationDatasetsAreWellFormed) {
  for (const auto& cfg : evaluation_datasets(512, 32)) {
    const auto g = generate(cfg);
    EXPECT_GT(g.total_edges(), 0u) << cfg.name;
    EXPECT_EQ(g.num_snapshots(), cfg.num_snapshots) << cfg.name;
  }
}

TEST(Generator, FramesSlideByOne) {
  const auto g = generate(testutil_cfg());
  const auto frames = frames_of(g, 4);
  ASSERT_EQ(static_cast<int>(frames.size()), g.num_snapshots() - 3);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].start, frames[i - 1].start + 1);
  }
}

TEST(Generator, ShortSequenceYieldsSingleTruncatedFrame) {
  const auto g = generate(testutil_cfg());
  const auto frames = frames_of(g, g.num_snapshots() + 5);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].size, g.num_snapshots());
}

TEST(Generator, PoolParallelBuildIsBitIdenticalToSerial) {
  // Every RNG draw, the per-birth key sorts and the snapshot sweep happen
  // on the calling thread in a fixed order; only the per-snapshot
  // transposes and targets run as pool tasks, each writing its own
  // snapshot, so the dataset must not depend on the pool size.
  const auto serial = generate(testutil_cfg());
  ThreadPool pool(4);
  const auto parallel = generate(testutil_cfg(), &pool);
  ASSERT_EQ(serial.num_snapshots(), parallel.num_snapshots());
  for (int t = 0; t < serial.num_snapshots(); ++t) {
    const auto& a = serial.snapshots[t];
    const auto& b = parallel.snapshots[t];
    EXPECT_EQ(a.adj.row_ptr, b.adj.row_ptr) << "t=" << t;
    EXPECT_EQ(a.adj.col_idx, b.adj.col_idx) << "t=" << t;
    EXPECT_EQ(a.adj_t.row_ptr, b.adj_t.row_ptr) << "t=" << t;
    EXPECT_EQ(a.adj_t.col_idx, b.adj_t.col_idx) << "t=" << t;
    ASSERT_EQ(a.features.size(), b.features.size());
    for (std::size_t i = 0; i < a.features.size(); ++i) {
      EXPECT_EQ(a.features.data()[i], b.features.data()[i]);
    }
    ASSERT_EQ(serial.targets[t].size(), parallel.targets[t].size());
    for (std::size_t i = 0; i < serial.targets[t].size(); ++i) {
      EXPECT_EQ(serial.targets[t].data()[i], parallel.targets[t].data()[i]);
    }
  }
}

/// One digest over a dataset's bits: every snapshot's adjacency and
/// transpose, features and target.
std::uint64_t dataset_hash(const DTDG& g) {
  io::ContentHash h;
  const auto put = [&h](const auto& v) {
    const std::uint64_t n = v.size();
    h.update(&n, sizeof(n));
    h.update(v.data(), n * sizeof(v[0]));
  };
  for (int t = 0; t < g.num_snapshots(); ++t) {
    const Snapshot& s = g.snapshots[t];
    put(s.adj.row_ptr);
    put(s.adj.col_idx);
    put(s.adj_t.row_ptr);
    put(s.adj_t.col_idx);
    put(s.edge_w);
    put(std::span(s.features.data(), s.features.size()));
    put(std::span(g.targets[t].data(), g.targets[t].size()));
  }
  return h.digest();
}

TEST(Generator, DatasetBitsArePinnedAtEveryPoolWidth) {
  // The digest was taken from the global-sort build that the per-birth
  // bucket sort replaced. A fractional edge_life mixes lifetimes, and
  // ~4,000 events per birth bucket over 2,000 nodes make every bucket's
  // radix sort take two passes per packed vertex id, with duplicate keys.
  DatasetConfig cfg;
  cfg.name = std::string("pinned");
  cfg.num_nodes = 2000;
  cfg.raw_events = 100000;
  cfg.num_snapshots = 24;
  cfg.feat_dim = 3;
  cfg.edge_life = 3.5;
  cfg.seed = 36;
  constexpr std::uint64_t kPinned = 0x5823e0035193bdabull;
  EXPECT_EQ(dataset_hash(generate(cfg)), kPinned) << "no pool";
  for (std::size_t width : {1u, 2u, 4u}) {
    ThreadPool pool(width);
    EXPECT_EQ(dataset_hash(generate(cfg, &pool)), kPinned) << width;
  }
}

// ---------- Snapshot builder ----------

/// An edge instance alive in snapshots [birth, death).
struct Instance {
  int birth;
  int death;
  std::uint64_t key;
  float w;
};

/// Stage-everything reference: each snapshot gathers its live instances in
/// arrival order, stable-sorts them by key and sums duplicate weights.
std::vector<Snapshot> naive_snapshots(int n, int num_snapshots,
                                      const std::vector<Instance>& all,
                                      bool weighted) {
  std::vector<Snapshot> out(static_cast<std::size_t>(num_snapshots));
  for (int t = 0; t < num_snapshots; ++t) {
    std::vector<std::pair<std::uint64_t, float>> kw;
    for (const Instance& e : all) {
      if (e.birth <= t && t < e.death) kw.emplace_back(e.key, e.w);
    }
    std::stable_sort(kw.begin(), kw.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    std::vector<std::uint64_t> keys;
    std::vector<float> w;
    for (const auto& [k, x] : kw) {
      if (!keys.empty() && keys.back() == k) {
        w.back() += x;
      } else {
        keys.push_back(k);
        w.push_back(x);
      }
    }
    Snapshot& s = out[static_cast<std::size_t>(t)];
    s.adj = csr_from_sorted_keys(n, n, keys);
    s.adj_t = transpose(s.adj);
    if (weighted) s.edge_w = std::move(w);
  }
  return out;
}

void expect_same_snapshots(const std::vector<Snapshot>& want,
                           const std::vector<Snapshot>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    EXPECT_TRUE(same_topology(want[t].adj, got[t].adj)) << "adj, t=" << t;
    EXPECT_TRUE(same_topology(want[t].adj_t, got[t].adj_t))
        << "adj_t, t=" << t;
    EXPECT_EQ(want[t].edge_w, got[t].edge_w) << "edge_w, t=" << t;
  }
}

TEST(SnapshotBuilder, DuplicateKeysSumInArrivalOrderAndExpire) {
  // The sum is 1 only in arrival order: any other association loses the
  // 1 against 1e8 (float spacing there is 8).
  const float a = 1e8f, b = -1e8f, c = 1.0f;
  const std::uint64_t k = edge_key(Edge{2, 1});
  const std::uint64_t other = edge_key(Edge{0, 3});
  SnapshotBuilder builder(4, /*weighted=*/true);
  builder.add(0, 3, k, a);
  builder.add(0, 1, other, 0.5f);
  builder.add(1, 3, k, b);
  builder.add(1, 3, k, c);
  const std::vector<Snapshot> s = builder.finish(4);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].edge_w, (std::vector<float>{a, 0.5f}));
  for (int t : {1, 2}) {
    ASSERT_EQ(s[t].nnz(), 1u) << t;
    EXPECT_EQ(s[t].adj.degree(1), 1);
    EXPECT_EQ(s[t].adj.col_idx[0], 2);
    EXPECT_EQ(s[t].edge_w, (std::vector<float>{(a + b) + c})) << t;
    EXPECT_EQ(s[t].edge_w[0], 1.0f);
  }
  EXPECT_EQ(s[3].nnz(), 0u);  // Both instances of k died at 3.
  EXPECT_TRUE(s[3].edge_w.empty());
  for (const Snapshot& snap : s) snap.adj.validate();
}

TEST(SnapshotBuilder, OneSweepExpiresMergesAndSumsInArrivalOrder) {
  // Snapshot 2 holds all three cases of the merged sweep:
  //   - k3's live instance dies at 2 as a newborn k3 arrives at 2;
  //   - k1 dies at 2 between the surviving k0 and k2;
  //   - k4 sums 1e8 (live) + -1e8 + 1 + 1 (newborns) to 2 only in arrival
  //     order: a newborn ahead of the live entry, or -1e8 after a 1, loses
  //     the 1s against 1e8 (float spacing there is 8).
  // Snapshot 2's batch comes out of key order, and k3 and k4 differ in one
  // byte, so a single radix pass must keep k4's newborns in order.
  const std::uint64_t k0 = edge_key(Edge{0, 1});
  const std::uint64_t k1 = edge_key(Edge{1, 1});
  const std::uint64_t k2 = edge_key(Edge{2, 1});
  const std::uint64_t k3 = edge_key(Edge{3, 1});
  const std::uint64_t k4 = edge_key(Edge{5, 1});
  const std::vector<Instance> all = {
      {0, 3, k0, 1.0f},  {0, 2, k1, 2.0f}, {0, 2, k3, 1e8f},
      {1, 4, k2, 4.0f},  {1, 4, k4, 1e8f}, {2, 4, k4, -1e8f},
      {2, 4, k3, 0.25f}, {2, 4, k4, 1.0f}, {2, 4, k4, 1.0f},
  };
  const int n = 8, S = 5;
  SnapshotBuilder builder(n, /*weighted=*/true);
  for (const Instance& e : all) builder.add(e.birth, e.death, e.key, e.w);
  std::vector<Snapshot> got = builder.finish(S);
  for (Snapshot& snap : got) {
    snap.adj.validate();
    snap.adj_t = transpose(snap.adj);
  }
  expect_same_snapshots(naive_snapshots(n, S, all, true), got);
  EXPECT_EQ(got[2].adj.row_ptr, (std::vector<int>{0, 0, 4, 4, 4, 4, 4, 4, 4}));
  EXPECT_EQ(got[2].adj.col_idx, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(got[2].edge_w, (std::vector<float>{1.0f, 4.0f, 0.25f, 2.0f}));
  EXPECT_EQ(got[4].nnz(), 0u);
}

/// generate()'s topology events, drawn as the generator draws them
/// (dynamic topology only).
std::vector<Instance> generator_events(const DatasetConfig& cfg) {
  Rng rng(cfg.seed);
  const int n = cfg.num_nodes;
  const int S = cfg.num_snapshots;
  const auto vertex = [&](double skew) {
    const double u = rng.next_double();
    return std::min(static_cast<int>(std::pow(u, skew) * n), n - 1);
  };
  std::vector<Instance> out;
  for (long long i = 0; i < cfg.raw_events; ++i) {
    const int src = vertex(1.0);
    int dst = vertex(cfg.degree_skew);
    if (dst == src) dst = (dst + 1) % n;
    const int birth = static_cast<int>(rng.next_below(S));
    const int whole = static_cast<int>(cfg.edge_life);
    const double frac = cfg.edge_life - whole;
    const int life = std::max(1, whole + (rng.next_double() < frac ? 1 : 0));
    out.push_back({birth, std::min(S, birth + life), edge_key(Edge{src, dst}),
                   1.0f});
  }
  return out;
}

TEST(SnapshotBuilder, GeneratorMatchesStageEverythingReference) {
  const DatasetConfig cfg = testutil_cfg();
  const auto want = naive_snapshots(cfg.num_nodes, cfg.num_snapshots,
                                    generator_events(cfg), false);
  for (std::size_t width : {1u, 2u, 4u}) {
    ThreadPool pool(width);
    expect_same_snapshots(want, generate(cfg, &pool).snapshots);
  }
}

TEST(SnapshotBuilder, WeightedFileMatchesStageEverythingReference) {
  // Keys recur within a snapshot (i and i + 16) and across snapshots (t and
  // t + 1 share their keys), with weights of mixed magnitude, so both the
  // batch sort and the merge's tie order decide float sums.
  const int n = 16, S = 8, life = 3;
  std::string content = "# nodes=16 snapshots=8\n";
  std::vector<Instance> all;
  char buf[96];
  for (int t = 0; t < S; ++t) {
    for (int i = 0; i < 40; ++i) {
      const int src = (i * 7 + t / 2) % n;
      const int dst = (i * 3) % n;
      const float w = (i % 9 == 0 ? 3e7f : 0.37f) *
                      static_cast<float>((i * 37 + t * 11) % 17 - 8);
      std::snprintf(buf, sizeof(buf), "%d %d %d %.9g\n", src, dst, t, w);
      content += buf;
      all.push_back({t, std::min(S, t + life), edge_key(Edge{src, dst}), w});
    }
  }
  const auto path =
      std::filesystem::path(::testing::TempDir()) / "builder_weighted.el";
  std::ofstream(path) << content;
  io::LoadOptions o;
  o.edge_life = life;
  const auto want = naive_snapshots(n, S, all, true);
  for (std::size_t width : {1u, 4u}) {
    ThreadPool pool(width);
    expect_same_snapshots(want,
                          io::load_dataset(path.string(), o, &pool).snapshots);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pipad::graph
