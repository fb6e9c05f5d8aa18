// google-benchmark microbenchmarks of the real (host-executed) kernel
// implementations — these measure actual CPU wall time of the library's
// numeric code paths, complementing the simulated-time figures.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>

#include "common/thread_pool.hpp"
#include "graph/generator.hpp"
#include "kernels/aggregate.hpp"
#include "kernels/update.hpp"
#include "sliced/partition.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd_kernels.hpp"

namespace {

using namespace pipad;

const graph::DTDG& test_graph() {
  static const graph::DTDG g = [] {
    graph::DatasetConfig cfg;
    cfg.name = "bench";
    cfg.num_nodes = 4000;
    cfg.raw_events = 40000;
    cfg.num_snapshots = 8;
    cfg.feat_dim = 16;
    cfg.edge_life = 5.0;
    return graph::generate(cfg);
  }();
  return g;
}

/// bench/e2e's graph-heavy dataset: 4000 nodes, 1.5M events over 32
/// snapshots, edges living 8 snapshots.
graph::DatasetConfig graph_heavy_config() {
  graph::DatasetConfig cfg;
  cfg.name = "graph-heavy";
  cfg.num_nodes = 4000;
  cfg.raw_events = 1500000;
  cfg.num_snapshots = 32;
  cfg.feat_dim = 2;
  cfg.edge_life = 8.0;
  cfg.seed = 1;
  return cfg;
}

const graph::DTDG& heavy_graph() {
  static const graph::DTDG g = graph::generate(graph_heavy_config());
  return g;
}

void BM_AggCoo(benchmark::State& state) {
  const auto& g = test_graph();
  const int f = static_cast<int>(state.range(0));
  Rng rng(1);
  const Tensor x = Tensor::randn(g.num_nodes, f, rng);
  Tensor out(g.num_nodes, f);
  const auto coo = graph::coo_from_csr(g.snapshots[0].adj);
  for (auto _ : state) {
    kernels::agg_coo(coo, x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * coo.nnz());
}
BENCHMARK(BM_AggCoo)->Arg(2)->Arg(16)->Arg(64);

void BM_AggSliced(benchmark::State& state) {
  const auto& g = test_graph();
  const int f = static_cast<int>(state.range(0));
  Rng rng(2);
  const Tensor x = Tensor::randn(g.num_nodes, f, rng);
  Tensor out(g.num_nodes, f);
  const auto s = sliced::slice(g.snapshots[0].adj);
  for (auto _ : state) {
    kernels::agg_sliced(s, x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * s.nnz());
}
// 6 and 12: GCN's hidden width, and that width coalesced at S_per = 2 —
// the widths graph-heavy training aggregates at.
BENCHMARK(BM_AggSliced)->Arg(2)->Arg(6)->Arg(12)->Arg(16)->Arg(64);

// The dense kernels at an explicit width (Arg 0: 4 or 8 lanes), called
// directly on one thread over all rows; the 8-lane runs are skipped on a
// host without AVX2. Shapes are rnn-dense's T-GCN ones: 2750 rows, hidden 32.

using RowsFn = void (*)(const simd::GemmArgs&, std::size_t, std::size_t);

/// The row kernel at `lanes` lanes, or nullptr (the run flagged skipped)
/// when the host cannot run that width.
RowsFn gemm_rows(benchmark::State& state, int lanes) {
  if (lanes > simd::lanes()) {
    state.SkipWithError("8 lanes need AVX2");
    return nullptr;
  }
  return lanes == 8 ? simd::detail::gemm_rows_8 : simd::detail::gemm_rows_4;
}

// Forward C = X W at 2750 x k x 32 (Arg 1: k = 16 or 32).
void BM_Gemm(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const RowsFn rows = gemm_rows(state, lanes);
  if (rows == nullptr) return;
  const int k = static_cast<int>(state.range(1));
  constexpr int kM = 2750;
  Rng rng(3);
  const Tensor a = Tensor::randn(kM, k, rng);
  const Tensor b = Tensor::randn(k, 32, rng);
  Tensor c(kM, 32);
  const simd::GemmArgs g{a.data(), static_cast<std::size_t>(k), 1, k, 1.0f,
                         b.data(), 32, c.data(), 0.0f};
  for (auto _ : state) {
    rows(g, 0, kM);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2ll * kM * k * 32);
}
BENCHMARK(BM_Gemm)->ArgsProduct({{4, 8}, {16, 32}});

// The weight gradient dW += X^T dY: 32 x 2750 x 32, A read with a stride.
void BM_GemmTN(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const RowsFn rows = gemm_rows(state, lanes);
  if (rows == nullptr) return;
  constexpr int kRows = 2750;
  Rng rng(4);
  const Tensor x = Tensor::randn(kRows, 32, rng);
  const Tensor dy = Tensor::randn(kRows, 32, rng);
  Tensor dw(32, 32);
  const simd::GemmArgs g{x.data(),  1,  32,        kRows, 1.0f,
                         dy.data(), 32, dw.data(), 1.0f};
  for (auto _ : state) {
    rows(g, 0, 32);
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2ll * kRows * 32 * 32);
}
BENCHMARK(BM_GemmTN)->Arg(4)->Arg(8);

// The input gradient dX = dY W^T: 2750 x 32 x 32, with W^T packed row-major
// on every call, as ops::gemm packs a transposed B.
void BM_GemmNT(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const RowsFn rows = gemm_rows(state, lanes);
  if (rows == nullptr) return;
  constexpr int kRows = 2750;
  Rng rng(5);
  const Tensor dy = Tensor::randn(kRows, 32, rng);
  const Tensor w = Tensor::randn(32, 32, rng);
  Tensor wt(32, 32), dx(kRows, 32);
  const simd::GemmArgs g{dy.data(), 32, 1, 32, 1.0f, wt.data(), 32, dx.data(),
                         0.0f};
  for (auto _ : state) {
    for (int r = 0; r < 32; ++r) {
      for (int c = 0; c < 32; ++c) wt.at(c, r) = w.at(r, c);
    }
    rows(g, 0, kRows);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2ll * kRows * 32 * 32);
}
BENCHMARK(BM_GemmNT)->Arg(4)->Arg(8);

// The one-column GEMMs of rnn-dense's head.fc (hidden 32 -> 1): forward
// y = H w (Arg 1 = 0), one C row per lane, and the weight gradient
// dw += H^T dy (Arg 1 = 1).
void BM_GemmOneColumn(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const RowsFn rows = gemm_rows(state, lanes);
  if (rows == nullptr) return;
  const bool grad = state.range(1) != 0;
  constexpr int kRows = 2750;
  Rng rng(6);
  const Tensor h = Tensor::randn(kRows, 32, rng);
  const Tensor w = Tensor::randn(32, 1, rng);
  const Tensor dy = Tensor::randn(kRows, 1, rng);
  Tensor y(kRows, 1), dw(32, 1);
  const simd::GemmArgs fwd{h.data(), 32, 1, 32, 1.0f, w.data(), 1, y.data(),
                           0.0f};
  const simd::GemmArgs bwd{h.data(), 1, 32, kRows, 1.0f, dy.data(), 1,
                           dw.data(), 1.0f};
  for (auto _ : state) {
    rows(grad ? bwd : fwd, 0, grad ? 32 : kRows);
    benchmark::DoNotOptimize(grad ? dw.data() : y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows * 32);
}
BENCHMARK(BM_GemmOneColumn)->ArgsProduct({{4, 8}, {0, 1}});

// tanh over one rnn-dense gate tensor (2750 x 32): libm's tanhf (Arg 0)
// against the exact port at 4 and 8 lanes (Arg 4, Arg 8).
void BM_Tanh(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  if (lanes > simd::lanes()) {
    state.SkipWithError("8 lanes need AVX2");
    return;
  }
  Rng rng(7);
  const Tensor x = Tensor::randn(2750, 32, rng, 2.0f);
  Tensor y(2750, 32);
  for (auto _ : state) {
    if (lanes == 0) {
      for (std::size_t i = 0; i < x.size(); ++i) {
        y.data()[i] = std::tanh(x.data()[i]);
      }
    } else {
      (lanes == 8 ? simd::detail::tanh_n_8 : simd::detail::tanh_n_4)(
          x.data(), y.data(), x.size());
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_Tanh)->Arg(0)->Arg(4)->Arg(8);

void BM_SliceCsr(benchmark::State& state) {
  const auto& g = test_graph();
  for (auto _ : state) {
    auto s = sliced::slice(g.snapshots[0].adj);
    benchmark::DoNotOptimize(s.col_idx.data());
  }
}
BENCHMARK(BM_SliceCsr);

// Groups from snapshot 8 on, where every edge-life window is full: about
// 90 edges per row, graph-heavy's steady state (its mean over all 32
// snapshots is about 80).
void BM_OverlapExtraction(benchmark::State& state) {
  const auto& g = heavy_graph();
  constexpr int kStart = 8;
  const int count = static_cast<int>(state.range(0));
  std::size_t edges = 0;
  for (int t = kStart; t < kStart + count; ++t) edges += g.snapshots[t].nnz();
  for (auto _ : state) {
    auto p = sliced::build_partition(g, kStart, count);
    benchmark::DoNotOptimize(p.overlap.col_idx.data());
  }
  state.counters["nnz_per_row"] = static_cast<double>(edges) /
                                  (static_cast<double>(count) * g.num_nodes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_OverlapExtraction)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// The whole dataset build at graph-heavy's shape (Arg: pool width).
void BM_Generate(benchmark::State& state) {
  const graph::DatasetConfig cfg = graph_heavy_config();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const graph::DTDG g = graph::generate(cfg, &pool);
    benchmark::DoNotOptimize(g.snapshots.data());
  }
  state.SetItemsProcessed(state.iterations() * cfg.raw_events);
}
BENCHMARK(BM_Generate)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_CoalesceFeatures(benchmark::State& state) {
  const auto& g = test_graph();
  std::vector<const Tensor*> feats;
  for (int i = 0; i < 4; ++i) feats.push_back(&g.snapshots[i].features);
  for (auto _ : state) {
    auto coal = sliced::coalesce_features(feats);
    benchmark::DoNotOptimize(coal.data());
  }
}
BENCHMARK(BM_CoalesceFeatures);

}  // namespace

BENCHMARK_MAIN();
