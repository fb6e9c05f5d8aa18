// Figure 5: global-memory requests (#R) and 32-byte transactions (#T) of
// the GCN aggregation as the feature dimension sweeps — the §3.2
// motivation experiment (run with a GNNAdvisor/GE-SpMM-style kernel).
//
// Expected shape: both curves flat for small F; #T starts rising past F=8
// (transaction granularity 32 B), #R past F=32 (warp request width 128 B).
#include <cstdio>

#include "bench_util.hpp"
#include "kernels/aggregate.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags =
      bench::Flags::parse(argc, argv, bench::Writes::Nothing,
                          bench::Reads::own_graph({"--scale-small"}));

  // Synthetic graph in the GNNAdvisor experiment's regime.
  auto cfg = graph::dataset_by_name("hepth", flags.job.scale_large,
                                    flags.job.scale_small);
  cfg.num_snapshots = 1;
  const auto g = graph::generate(cfg);
  const auto& adj = g.snapshots[0].adj;

  std::printf(
      "Figure 5: #global memory requests / transactions vs feature dim\n"
      "(GE-SpMM-style aggregation, %s-shaped graph: %d vertices, %zu nnz)\n\n",
      cfg.name.c_str(), g.num_nodes, adj.nnz());
  std::printf("%6s %16s %16s\n", "F", "#R", "#T");

  Rng rng(3);
  for (int f : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    const Tensor x = Tensor::randn(g.num_nodes, f, rng);
    Tensor out(g.num_nodes, f);
    const auto st = kernels::agg_gespmm(adj, x, out);
    std::printf("%6d %16s %16s\n", f,
                with_commas(st.global_requests).c_str(),
                with_commas(st.global_transactions).c_str());
  }
  std::printf(
      "\nShape check: #T flat until F=8 then rises; #R flat until F=32 then\n"
      "rises (bandwidth unsaturation below, request burst above — §3.2).\n");
  return 0;
}
