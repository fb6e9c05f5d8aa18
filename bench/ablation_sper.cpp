// Ablation: force S_per in {1,2,4,8} and compare against the dynamic tuner
// (§4.4) — shows the tuner tracks or beats the best static choice.
#include <cstdio>

#include "bench_util.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  auto flags = bench::Flags::parse(argc, argv);
  if (flags.datasets.empty()) {
    flags.datasets = {"hepth", "epinions", "covid19-england"};
  }
  bench::DatasetCache cache(flags);
  bench::JsonReport report("ablation_sper", flags);

  std::printf("Ablation: forced S_per vs the dynamic tuner (total us)\n\n");
  for (auto model : bench::all_models()) {
    std::printf("--- %s ---\n", models::model_type_name(model));
    std::printf("%-18s %10s %10s %10s %10s %10s\n", "Dataset", "S=1", "S=2",
                "S=4", "S=8", "tuner");
    for (const auto& dcfg : flags.configs()) {
      const auto& g = cache.get(dcfg);
      const auto tcfg = bench::train_config(flags, model);
      std::printf("%-18s", dcfg.name.c_str());
      for (int s : {1, 2, 4, 8}) {
        auto o = api::pipad_options(flags.job);
        o.forced_sper = s;
        const auto r = bench::run_method(g, models::Method::PiPAD, tcfg, o);
        report.add(dcfg.name, models::model_type_name(model),
                   "PiPAD[S=" + std::to_string(s) + "]", r);
        std::printf(" %10.0f", r.total_us);
      }
      const auto r = bench::run_method(g, models::Method::PiPAD, tcfg,
                                       api::pipad_options(flags.job));
      report.add(dcfg.name, models::model_type_name(model), "PiPAD[tuner]",
                 r);
      std::printf(" %10.0f\n", r.total_us);
    }
    std::printf("\n");
  }

  std::printf(
      "Shape check: the tuner tracks or beats the best static S_per.\n");
  return report.write_if_requested() ? 0 : 1;
}
