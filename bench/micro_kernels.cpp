// google-benchmark microbenchmarks of the real (host-executed) kernel
// implementations — these measure actual CPU wall time of the library's
// numeric code paths, complementing the simulated-time figures.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>

#include "graph/generator.hpp"
#include "kernels/aggregate.hpp"
#include "kernels/update.hpp"
#include "sliced/partition.hpp"
#include "tensor/ops.hpp"

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

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const Tensor a = Tensor::randn(n, 32, rng);
  const Tensor b = Tensor::randn(32, 32, rng);
  Tensor c(n, 32);
  for (auto _ : state) {
    ops::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ull * n * 32 * 32);
}
BENCHMARK(BM_Gemm)->Arg(1000)->Arg(8000);

// The transposed modes at rnn-dense's T-GCN shapes (2750 rows, hidden 32):
// the weight gradient dW += X^T dY and the input gradient dX = dY W^T.
void BM_GemmTN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  const Tensor x = Tensor::randn(n, 32, rng);
  const Tensor dy = Tensor::randn(n, 32, rng);
  Tensor dw(32, 32);
  for (auto _ : state) {
    ops::gemm(x, dy, dw, /*trans_a=*/true, false, 1.0f, 1.0f);
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2ull * n * 32 * 32);
}
BENCHMARK(BM_GemmTN)->Arg(2750);

void BM_GemmNT(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const Tensor dy = Tensor::randn(n, 32, rng);
  const Tensor w = Tensor::randn(32, 32, rng);
  Tensor dx(n, 32);
  for (auto _ : state) {
    ops::gemm(dy, w, dx, false, /*trans_b=*/true);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2ull * n * 32 * 32);
}
BENCHMARK(BM_GemmNT)->Arg(2750);

// The one-column GEMMs of rnn-dense's head.fc (hidden 32 -> 1): forward
// y = H w (Arg 0) and the weight gradient dw += H^T dy (Arg 1).
void BM_GemmOneColumn(benchmark::State& state) {
  const bool grad = state.range(0) != 0;
  Rng rng(6);
  const Tensor h = Tensor::randn(2750, 32, rng);
  const Tensor w = Tensor::randn(32, 1, rng);
  const Tensor dy = Tensor::randn(2750, 1, rng);
  Tensor y(2750, 1), dw(32, 1);
  for (auto _ : state) {
    if (grad) {
      ops::gemm(h, dy, dw, /*trans_a=*/true, false, 1.0f, 1.0f);
    } else {
      ops::gemm(h, w, y);
    }
    benchmark::DoNotOptimize(grad ? dw.data() : y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2750 * 32);
}
BENCHMARK(BM_GemmOneColumn)->Arg(0)->Arg(1);

// tanh over one rnn-dense gate tensor (2750 x 32): libm's tanhf (Arg 0)
// against the exact 4-lane port that replaced it (Arg 1).
void BM_Tanh(benchmark::State& state) {
  const bool lanes = state.range(0) != 0;
  Rng rng(7);
  const Tensor x = Tensor::randn(2750, 32, rng, 2.0f);
  Tensor y(2750, 32);
  for (auto _ : state) {
    if (lanes) {
      ops::tanh_n(x.data(), y.data(), x.size());
    } else {
      for (std::size_t i = 0; i < x.size(); ++i) {
        y.data()[i] = std::tanh(x.data()[i]);
      }
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_Tanh)->Arg(0)->Arg(1);

void BM_SliceCsr(benchmark::State& state) {
  const auto& g = test_graph();
  for (auto _ : state) {
    auto s = sliced::slice(g.snapshots[0].adj);
    benchmark::DoNotOptimize(s.col_idx.data());
  }
}
BENCHMARK(BM_SliceCsr);

void BM_OverlapExtraction(benchmark::State& state) {
  const auto& g = test_graph();
  const int count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto p = sliced::build_partition(g, 0, count);
    benchmark::DoNotOptimize(p.overlap.col_idx.data());
  }
}
BENCHMARK(BM_OverlapExtraction)->Arg(2)->Arg(4)->Arg(8);

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
