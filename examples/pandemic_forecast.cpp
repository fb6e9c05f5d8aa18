// Pandemic forecasting — the MPNN-LSTM use case from the paper's intro
// (Panagopoulos et al., AAAI'21): regions are vertices, mobility flows are
// edges that change daily, and the model regresses the next-step case
// signal per region from graph structure plus temporal dynamics.
//
//   $ ./build/examples/pandemic_forecast
#include <cstdio>

#include "graph/generator.hpp"
#include "replica/replica_trainer.hpp"

int main() {
  using namespace pipad;

  // Covid19-England-shaped data: 130 regions, dense mobility graph whose
  // topology changes quickly (edge life ~1.3 snapshots), 61 daily steps.
  const auto cfg = graph::dataset_by_name("covid19-england");
  const graph::DTDG data = graph::generate(cfg);
  const auto stats = graph::compute_stats(data);
  std::printf(
      "mobility graph: %d regions, %zu distinct flows, %d days, "
      "adjacent-day overlap %.0f%%\n",
      data.num_nodes, stats.distinct_edges, data.num_snapshots(),
      100.0 * stats.mean_adjacent_overlap);

  models::TrainConfig tcfg;
  tcfg.model = models::ModelType::MpnnLstm;
  tcfg.frame_size = 8;   // One-week-and-a-day history window.
  tcfg.epochs = 8;
  tcfg.lr = 2e-3f;

  gpusim::Gpu gpu;
  replica::ReplicaTrainer trainer(gpu, data, tcfg);
  const auto r = trainer.train();

  std::printf("\ntraining loss trajectory (per frame):\n");
  const std::size_t per_epoch = r.frame_loss.size() / tcfg.epochs;
  for (int e = 0; e < tcfg.epochs; ++e) {
    double s = 0.0;
    for (std::size_t i = e * per_epoch; i < (e + 1) * per_epoch; ++i) {
      s += r.frame_loss[i];
    }
    std::printf("  epoch %d: mean MSE %.4f%s\n", e, s / per_epoch,
                e == 0 ? "   (preparing epoch: one-snapshot + profiling)"
                       : "");
  }
  std::printf(
      "\nsimulated training time %.1f ms; transfer share %.1f%%; "
      "GNN/RNN compute split %.0f%%/%.0f%%\n",
      r.total_us / 1000.0, 100.0 * r.transfer_us / r.total_us,
      100.0 * r.gnn_us / r.compute_us, 100.0 * r.rnn_us / r.compute_us);
  return 0;
}
