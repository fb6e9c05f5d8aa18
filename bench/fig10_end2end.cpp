// Figure 10: end-to-end training speedup over PyGT for every method, model
// and dataset — the headline result (paper: PiPAD reaches 1.54x-9.57x over
// PyGT, averaging 4.71x / 3.98x / 5.18x on EvolveGCN / MPNN-LSTM / T-GCN,
// and 1.22x-... over the strongest variant PyGT-G).
#include <cstdio>

#include "bench_util.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv);
  bench::DatasetCache cache(flags);
  bench::JsonReport report("fig10_end2end", flags);

  std::printf("Figure 10: end-to-end training speedup over PyGT\n");
  std::printf("(epochs=%d, frames/epoch=%d, frame size=%d)\n", flags.job.epochs,
              flags.job.frames, flags.job.frame_size);

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
      std::vector<double> totals;
      for (auto m : models::kMethods) {
        gpusim::Gpu gpu;
        const auto r =
            bench::run_method(gpu, g, m, tcfg, api::pipad_options(flags.job));
        report.add(cfg.name, models::model_type_name(model),
                   models::method_label(m), r);
        bench::write_trace(flags, "fig10_end2end", gpu, cfg.name,
                           models::model_type_name(model),
                           models::method_label(m));
        totals.push_back(r.total_us);
      }
      std::printf("%-18s", cfg.name.c_str());
      double best_baseline = 1e300;
      for (std::size_t i = 0; i < totals.size(); ++i) {
        std::printf(" %8.2fx", totals[0] / totals[i]);
        if (i > 0 && i + 1 < totals.size()) {
          best_baseline = std::min(best_baseline, totals[i]);
        }
      }
      std::printf("\n");
      pipad_speedups.push_back(totals[0] / totals.back());
      vs_second_best.push_back(best_baseline / totals.back());
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
  return report.write_if_requested() ? 0 : 1;
}
