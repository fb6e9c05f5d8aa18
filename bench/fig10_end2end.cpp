// Figure 10: end-to-end training speedup over PyGT for every method, model
// and dataset — the headline result (paper: PiPAD reaches 1.54x-9.57x over
// PyGT, averaging 4.71x / 3.98x / 5.18x on EvolveGCN / MPNN-LSTM / T-GCN,
// and 1.22x-... over the strongest variant PyGT-G).
//
// Fig. 3, Fig. 4 and Table 2 read the same runs, so this bench prints them
// too: PyGT's latency breakdown and SM utilization (paper: transfers ~39 %
// of end-to-end time, SM utilization below ~41 % on average), PyGT's GPU
// compute split into GNN, RNN and other kernels, and the nvidia-smi-style
// GPU utilization per method, which counts the copy engines as active
// (§5.2) — why PyGT-A / PyGT-R can look better than faster methods.
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace pipad;

/// One (model, dataset) cell of the grid: a result per models::kMethods
/// entry, PyGT first.
struct Cell {
  models::ModelType model;
  std::string dataset;
  std::vector<models::TrainResult> runs;
};

void print_fig3(const std::vector<Cell>& cells) {
  std::printf("Figure 3: PyGT latency breakdown and SM utilization\n\n");
  std::printf("%-11s %-18s %9s %9s %9s %8s\n", "Model", "Dataset",
              "transfer%", "compute%", "other%", "SM-util%");
  std::vector<double> transfer_shares, utils;
  for (const auto& c : cells) {
    const auto& r = c.runs[0];
    // "Other" = wall time with neither transfer nor compute busy.
    const double other =
        std::max(0.0, r.total_us - r.transfer_us - r.compute_us);
    std::printf("%-11s %-18s %8.1f%% %8.1f%% %8.1f%% %7.1f%%\n",
                models::model_type_name(c.model), c.dataset.c_str(),
                100.0 * r.transfer_us / r.total_us,
                100.0 * r.compute_us / r.total_us, 100.0 * other / r.total_us,
                100.0 * r.sm_utilization);
    transfer_shares.push_back(r.transfer_us / r.total_us);
    utils.push_back(r.sm_utilization);
  }
  std::printf(
      "\nmean transfer share %.1f%% (paper: 38.7%%), "
      "mean SM utilization %.1f%% (paper: <41.2%%)\n",
      100.0 * mean(transfer_shares), 100.0 * mean(utils));
}

void print_fig4(const std::vector<Cell>& cells) {
  std::printf("Figure 4: GPU computation-time breakdown (PyGT)\n\n");
  std::printf("%-11s %-18s %8s %8s %8s\n", "Model", "Dataset", "GNN%",
              "RNN%", "other%");
  for (const auto& c : cells) {
    const auto& r = c.runs[0];
    std::printf("%-11s %-18s %7.1f%% %7.1f%% %7.1f%%\n",
                models::model_type_name(c.model), c.dataset.c_str(),
                100.0 * r.gnn_us / r.compute_us,
                100.0 * r.rnn_us / r.compute_us,
                100.0 * r.other_us / r.compute_us);
  }
}

void print_table2(const std::vector<Cell>& cells) {
  std::printf("Table 2: GPU utilization (%%) — device-active fraction\n\n");
  for (auto model : bench::all_models()) {
    std::printf("--- %s ---\n%-8s", models::model_type_name(model), "Method");
    for (const auto& c : cells) {
      if (c.model == model) {
        std::printf(" %6s", bench::short_name(c.dataset).c_str());
      }
    }
    std::printf("\n");
    for (std::size_t k = 0; k < std::size(models::kMethods); ++k) {
      std::printf("%-8s", models::method_label(models::kMethods[k]));
      for (const auto& c : cells) {
        if (c.model == model) {
          std::printf(" %5.1f%%", 100.0 * c.runs[k].device_active);
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf(
      "Shape check (Table 2): large datasets run high (>70%%), small ones "
      "low (CPU-side\nlatency dominates); async variants look best because "
      "copies count as activity.\n");
}

}  // namespace

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags =
      bench::Flags::parse(argc, argv, bench::Writes::RecordsAndTraces);
  bench::DatasetCache cache(flags);
  bench::JsonReport report("fig10_end2end", flags);

  std::printf("Figure 10: end-to-end training speedup over PyGT\n");
  std::printf("(epochs=%d, frames/epoch=%d, frame size=%d)\n", flags.job.epochs,
              flags.job.frames, flags.job.frame_size);

  std::vector<Cell> cells;
  for (auto model : bench::all_models()) {
    std::printf("\n--- %s ---\n", models::model_type_name(model));
    std::printf("%-18s", "Dataset");
    for (auto m : models::kMethods) {
      std::printf(" %9s", models::method_label(m));
    }
    std::printf("\n");

    std::vector<double> pipad_speedups, vs_second_best;
    for (const auto& cfg : flags.configs()) {
      const auto& g = cache.get(cfg);
      const auto tcfg = bench::train_config(flags, model);
      auto& results = cells.emplace_back(Cell{model, cfg.name, {}}).runs;
      for (auto m : models::kMethods) {
        gpusim::Gpu gpu;
        results.push_back(
            bench::run_method(gpu, g, m, tcfg, api::pipad_options(flags.job)));
        report.add(cfg.name, models::model_type_name(model),
                   models::method_label(m), results.back());
        bench::write_trace(flags, "fig10_end2end", gpu, cfg.name,
                           models::model_type_name(model),
                           models::method_label(m));
      }
      std::printf("%-18s", cfg.name.c_str());
      double best_baseline = 1e300;
      for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf(" %8.2fx", results[0].total_us / results[i].total_us);
        if (i > 0 && i + 1 < results.size()) {
          best_baseline = std::min(best_baseline, results[i].total_us);
        }
      }
      std::printf("\n");
      pipad_speedups.push_back(results[0].total_us / results.back().total_us);
      vs_second_best.push_back(best_baseline / results.back().total_us);
    }
    std::printf(
        "%s geomean PiPAD speedup: %.2fx over PyGT, %.2fx over the best "
        "PyGT variant\n",
        models::model_type_name(model), geomean(pipad_speedups),
        geomean(vs_second_best));
  }
  std::printf(
      "\nShape check (Fig. 10): PiPAD wins in geomean for every model; "
      "PyGT-G is the strongest\nvariant. epoch_us is modeled: device "
      "kernels and copies come from the gpusim cost\nmodel, and PiPAD's "
      "host prep from the prep cost model (counts, not clocks).\n");

  std::printf("\n");
  print_fig3(cells);
  std::printf("\n");
  print_fig4(cells);
  std::printf("\n");
  print_table2(cells);
  return report.write_if_requested() ? 0 : 1;
}
