// Figure 3: latency breakdown (data transfer vs compute vs host) and SM
// utilization of DGNN training under the PyGT baseline.
//
// Paper headline: transfers average ~39 % of end-to-end time and SM
// utilization stays below ~41 % on average.
#include <cstdio>

#include "bench_util.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv);
  bench::DatasetCache cache(flags);

  std::printf("Figure 3: PyGT latency breakdown and SM utilization\n\n");
  std::printf("%-11s %-18s %9s %9s %9s %8s\n", "Model", "Dataset",
              "transfer%", "compute%", "other%", "SM-util%");

  std::vector<double> transfer_shares, utils;
  for (auto model : bench::all_models()) {
    for (const auto& cfg : flags.configs()) {
      const auto& g = cache.get(cfg);
      const auto r = bench::run_method(g, models::Method::PyGT,
                                       bench::train_config(flags, model));
      // "Other" = wall time with neither transfer nor compute busy.
      const double other =
          std::max(0.0, r.total_us - r.transfer_us - r.compute_us);
      std::printf("%-11s %-18s %8.1f%% %8.1f%% %8.1f%% %7.1f%%\n",
                  models::model_type_name(model), cfg.name.c_str(),
                  100.0 * r.transfer_us / r.total_us,
                  100.0 * r.compute_us / r.total_us,
                  100.0 * other / r.total_us, 100.0 * r.sm_utilization);
      transfer_shares.push_back(r.transfer_us / r.total_us);
      utils.push_back(r.sm_utilization);
    }
  }
  std::printf(
      "\nmean transfer share %.1f%% (paper: 38.7%%), "
      "mean SM utilization %.1f%% (paper: <41.2%%)\n",
      100.0 * mean(transfer_shares), 100.0 * mean(utils));
  return 0;
}
