// Traffic forecasting with T-GCN on a PEMS08-shaped sensor network — the
// integrated-DGNN use case (Zhao et al., T-ITS'19): static road topology,
// evolving node signals. Because all of T-GCN's aggregation operates on raw
// inputs, inter-frame reuse eliminates the aggregation entirely after the
// preparing epoch (§5.2) — this example prints the evidence.
//
//   $ ./build/examples/traffic_forecast
#include <cstdio>

#include "graph/generator.hpp"
#include "replica/replica_trainer.hpp"

int main() {
  using namespace pipad;

  const auto cfg = graph::dataset_by_name("pems08");
  const graph::DTDG data = graph::generate(cfg);
  std::printf("sensor network: %d detectors, %zu directed links (static), "
              "%d 5-minute intervals\n",
              data.num_nodes, data.snapshots[0].nnz(), data.num_snapshots());

  models::TrainConfig tcfg;
  tcfg.model = models::ModelType::TGcn;
  tcfg.frame_size = 12;  // One hour of history.
  tcfg.epochs = 6;
  tcfg.lr = 2e-3f;

  auto run = [&](bool reuse) {
    gpusim::Gpu gpu;
    runtime::PipadOptions opts;
    opts.enable_reuse = reuse;
    replica::ReplicaTrainer trainer(gpu, data, tcfg, opts);
    return trainer.train();
  };

  const auto with = run(true);
  const auto without = run(false);

  std::printf("\n%-22s %16s %16s\n", "", "reuse ON", "reuse OFF");
  std::printf("%-22s %16.0f %16.0f\n", "sim total (us)", with.total_us,
              without.total_us);
  std::printf("%-22s %16s %16s\n", "agg transactions",
              with_commas(with.agg_stats.global_transactions).c_str(),
              with_commas(without.agg_stats.global_transactions).c_str());
  std::printf("%-22s %16.4f %16.4f\n", "final loss", with.final_loss(),
              without.final_loss());
  std::printf(
      "\nWith reuse, aggregation survives only in the preparing epoch "
      "(%.0f%% fewer\naggregation transactions) and losses match — the "
      "cached results are exact.\n",
      100.0 * (1.0 - static_cast<double>(
                         with.agg_stats.global_transactions) /
                         without.agg_stats.global_transactions));
  return 0;
}
