// Trust-network evolution with EvolveGCN on an Epinions-shaped graph — the
// weight-evolving DGNN use case (Pareja et al., AAAI'20). EvolveGCN's GCN
// weights change every snapshot, so PiPAD's weight reuse is inapplicable;
// the win comes from the parallel aggregation and the pipeline. This
// example also demonstrates the dynamic tuner reacting to frame overlap.
//
//   $ ./build/examples/link_evolution
#include <cstdio>
#include <map>

#include "graph/generator.hpp"
#include "replica/replica_trainer.hpp"

int main() {
  using namespace pipad;

  const auto cfg = graph::dataset_by_name("epinions", /*scale_large=*/256);
  const graph::DTDG data = graph::generate(cfg);
  const auto stats = graph::compute_stats(data);
  std::printf(
      "trust network (1/256 scale): %d users, ~%zu edges per snapshot, "
      "%d snapshots, adjacent overlap %.0f%%\n",
      data.num_nodes, stats.smoothed_edges / data.num_snapshots(),
      data.num_snapshots(), 100.0 * stats.mean_adjacent_overlap);

  models::TrainConfig tcfg;
  tcfg.model = models::ModelType::EvolveGcn;
  tcfg.frame_size = 8;
  tcfg.epochs = 4;
  tcfg.max_frames_per_epoch = 10;

  gpusim::Gpu gpu;
  replica::ReplicaTrainer trainer(gpu, data, tcfg);
  const auto r = trainer.train();

  std::printf("\ntuner S_per decisions per frame:\n  ");
  std::map<int, int> histogram;
  for (const auto& [start, s] : trainer.sper_decisions()) {
    ++histogram[s];
  }
  for (const auto& [s, count] : histogram) {
    std::printf("S_per=%d on %d frames   ", s, count);
  }
  std::printf("\n\nfirst/last frame loss: %.4f -> %.4f over %zu frames\n",
              r.frame_loss.front(), r.frame_loss.back(),
              r.frame_loss.size());
  std::printf(
      "simulated time %.1f ms (transfer %.1f%%, GNN %.0f%% of compute, "
      "weight-evolution RNN %.0f%%)\n",
      r.total_us / 1000.0, 100.0 * r.transfer_us / r.total_us,
      100.0 * r.gnn_us / r.compute_us, 100.0 * r.rnn_us / r.compute_us);
  std::printf("device peak memory (simulated): %s\n",
              human_bytes(gpu.device().peak()).c_str());
  return 0;
}
