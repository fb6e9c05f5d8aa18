// Figure 9: offline analysis of the parallel GNN guiding the dynamic tuner.
//  (a) speedup of S_per in {2,4,8} over one-snapshot execution as the group
//      topology-overlap rate (OR) varies;
//  (b) normalized speedup as the feature dimension varies (OR fixed high).
// Expected shape: larger S_per preferred at equal OR/dimension; speedup
// grows with OR; high speedups persist across dimensions (>= 5.2x in the
// paper's testbed regime for the small datasets).
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "pipad/offline_analysis.hpp"
#include "sliced/partition.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  // Every input is fixed below, so any flag is an error.
  bench::Flags::parse(argc, argv, bench::Writes::Nothing,
                      bench::Reads::own_graph({}));
  gpusim::CostModel cm((gpusim::SimConfig()));

  // Workload shaped like the paper's scaled evaluation graphs.
  runtime::WorkloadShape w;
  w.num_nodes = 200000;
  w.nnz_per_snapshot = 3000000;
  w.feat_dim = 2;
  w.hidden_dim = 6;

  std::printf("Figure 9(a): parallel-GNN speedup vs overlap rate (F=%d)\n\n",
              w.feat_dim);
  std::printf("%8s %10s %10s %10s\n", "OR", "S_per=2", "S_per=4", "S_per=8");
  for (double orr : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}) {
    std::printf("%7.0f%% %9.2fx %9.2fx %9.2fx\n", orr * 100,
                runtime::estimate_parallel_speedup(cm, w, 2, orr),
                runtime::estimate_parallel_speedup(cm, w, 4, orr),
                runtime::estimate_parallel_speedup(cm, w, 8, orr));
  }

  std::printf(
      "\nFigure 9(b): parallel-GNN speedup vs feature dimension (OR=85%%)\n\n");
  std::printf("%8s %10s %10s %10s\n", "F", "S_per=2", "S_per=4", "S_per=8");
  for (int f : {2, 4, 8, 16, 32, 64, 128}) {
    runtime::WorkloadShape wf = w;
    wf.feat_dim = f;
    wf.hidden_dim = f <= 2 ? 6 : 32;
    std::printf("%8d %9.2fx %9.2fx %9.2fx\n", f,
                runtime::estimate_parallel_speedup(cm, wf, 2, 0.85),
                runtime::estimate_parallel_speedup(cm, wf, 4, 0.85),
                runtime::estimate_parallel_speedup(cm, wf, 8, 0.85));
  }
  // Real-thread complement to the analytic tables: measure the wall-clock
  // of one pool-parallel partition build (the HostLane's §4.3 prep job) as
  // the thread count grows. This replaces the former assumed
  // `host_prep_parallelism` divisor with an actual measurement.
  std::printf(
      "\nMeasured: pool-parallel build_partition wall-clock vs threads\n\n");
  graph::DatasetConfig dcfg;
  dcfg.name = "synthetic";
  dcfg.num_nodes = 4000;
  dcfg.raw_events = 120000;
  dcfg.num_snapshots = 8;
  dcfg.feat_dim = 2;
  dcfg.edge_life = 6.0;
  const auto g = graph::generate(dcfg);
  double base_us = 0.0;
  std::printf("%8s %12s %10s\n", "threads", "build (us)", "speedup");
  for (std::size_t t : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(t);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Timer timer;
      (void)sliced::build_partition(g, 0, g.num_snapshots(),
                                    sliced::kDefaultSliceBound, &pool);
      best = std::min(best, timer.elapsed_us());
    }
    if (t == 1) base_us = best;
    std::printf("%8zu %12.0f %9.2fx\n", t, best, base_us / best);
  }
  std::printf(
      "\nShape check: larger S_per wins at equal OR/F; speedup rises with "
      "OR (Fig. 9a/9b);\nthe measured build scales with real threads until "
      "the per-member tasks run out.\n");
  return 0;
}
