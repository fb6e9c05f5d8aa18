// Table 1: graph datasets for evaluation — vertices, distinct temporal
// edges (#E), feature dimension, snapshots, and edge instances after
// edge-life smoothing (#E-S), plus the measured adjacent-snapshot overlap
// that motivates the whole design (§3.1).
#include <cstdio>

#include "bench_util.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv, bench::Writes::Nothing);
  bench::DatasetCache cache(flags);

  std::printf(
      "Table 1: synthetic stand-ins for the evaluation datasets "
      "(scale-large=1/%d, scale-small=1/%d)\n\n",
      flags.job.scale_large, flags.job.scale_small);
  std::printf("%-18s %10s %14s %4s %5s %14s %10s\n", "Dataset", "#N", "#E",
              "D", "#S", "#E-S", "adj-OR");
  for (const auto& cfg : flags.configs()) {
    const auto& g = cache.get(cfg);
    const auto st = graph::compute_stats(g);
    std::printf("%-18s %10s %14s %4d %5d %14s %9.1f%%\n", cfg.name.c_str(),
                with_commas(g.num_nodes).c_str(),
                with_commas(st.distinct_edges).c_str(), g.feat_dim,
                g.num_snapshots(), with_commas(st.smoothed_edges).c_str(),
                100.0 * st.mean_adjacent_overlap);
  }
  std::printf(
      "\n#E = distinct temporal edges; #E-S = edge instances summed over\n"
      "snapshots after edge-life smoothing [ESDG]. adj-OR = mean Jaccard\n"
      "overlap of adjacent snapshots (paper reports ~90%% topology kept,\n"
      "i.e. ~10%% change rate, for the slowly-evolving graphs).\n");
  return 0;
}
