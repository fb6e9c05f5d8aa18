// Quickstart: generate a small dynamic graph, train a DGNN with PiPAD, and
// compare against the PyGT baseline — the library's 30-second tour.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "graph/generator.hpp"
#include "replica/replica_trainer.hpp"

int main() {
  using namespace pipad;

  // 1. A dynamic graph: 5k vertices, ~40k edges per snapshot, 24 snapshots,
  //    slowly evolving topology (edge life 8 steps => ~78 % overlap).
  graph::DatasetConfig cfg;
  cfg.name = "quickstart";
  cfg.num_nodes = 5000;
  cfg.raw_events = 120000;
  cfg.num_snapshots = 24;
  cfg.feat_dim = 2;
  cfg.edge_life = 8.0;
  const graph::DTDG data = graph::generate(cfg);
  std::printf("dataset: %d vertices, %zu total edge instances, %d snapshots\n",
              data.num_nodes, data.total_edges(), data.num_snapshots());

  // 2. Training configuration: MPNN-LSTM over sliding frames of 8.
  models::TrainConfig tcfg;
  tcfg.model = models::ModelType::MpnnLstm;
  tcfg.frame_size = 8;
  tcfg.epochs = 3;
  tcfg.max_frames_per_epoch = 6;

  // 3. Baseline: PyGT-style one-snapshot-at-a-time training.
  gpusim::Gpu gpu_base;
  replica::ReplicaTrainer base(gpu_base, data, tcfg, models::Method::PyGT);
  const auto rb = base.train();

  // 4. PiPAD: sliced CSR, overlap-aware transfer, parallel multi-snapshot
  //    GNN, inter-frame reuse, pipelined execution.
  gpusim::Gpu gpu_pipad;
  replica::ReplicaTrainer pipad(gpu_pipad, data, tcfg);
  const auto rp = pipad.train();

  std::printf("\n%-8s %14s %14s %12s %10s\n", "method", "sim total (us)",
              "transfer (us)", "SM util", "last loss");
  std::printf("%-8s %14.0f %14.0f %11.1f%% %10.4f\n", "PyGT", rb.total_us,
              rb.transfer_us, 100.0 * rb.sm_utilization, rb.final_loss());
  std::printf("%-8s %14.0f %14.0f %11.1f%% %10.4f\n", "PiPAD", rp.total_us,
              rp.transfer_us, 100.0 * rp.sm_utilization, rp.final_loss());
  std::printf("\nPiPAD end-to-end speedup: %.2fx\n", rb.total_us / rp.total_us);
  std::printf("tuner decisions (frame start -> S_per):");
  for (const auto& [start, s] : pipad.sper_decisions()) {
    std::printf(" %d->%d", start, s);
  }
  std::printf("\n");
  return 0;
}
