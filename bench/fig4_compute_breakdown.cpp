// Figure 4: breakdown of GPU computation time into GNN, RNN, and other
// kernels under the PyGT baseline. The GNN (aggregation-heavy) share
// dominates on most datasets; MPNN-LSTM's RNN share grows with vertex
// count (it runs LSTMs over every node).
#include <cstdio>

#include "bench_util.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv);
  bench::DatasetCache cache(flags);

  std::printf("Figure 4: GPU computation-time breakdown (PyGT)\n\n");
  std::printf("%-11s %-18s %8s %8s %8s\n", "Model", "Dataset", "GNN%",
              "RNN%", "other%");
  for (auto model : bench::all_models()) {
    for (const auto& cfg : flags.configs()) {
      const auto& g = cache.get(cfg);
      const auto r = bench::run_method(g, models::Method::PyGT,
                                       bench::train_config(flags, model));
      std::printf("%-11s %-18s %7.1f%% %7.1f%% %7.1f%%\n",
                  models::model_type_name(model), cfg.name.c_str(),
                  100.0 * r.gnn_us / r.compute_us,
                  100.0 * r.rnn_us / r.compute_us,
                  100.0 * r.other_us / r.compute_us);
    }
  }
  return 0;
}
