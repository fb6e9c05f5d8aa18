// Ablation: switch off each PiPAD mechanism in isolation (pipeline overlap,
// CUDA-graph batching, inter-frame reuse, locality-optimized weight reuse,
// and the tuner) and measure the end-to-end cost — quantifying each design
// choice called out in DESIGN.md.
#include <cstdio>

#include "bench_util.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  auto flags = bench::Flags::parse(argc, argv);
  if (flags.datasets.empty()) flags.datasets = {"hepth", "epinions"};
  bench::DatasetCache cache(flags);

  struct Config {
    const char* name;
    runtime::PipadOptions opts;
  };
  std::vector<Config> configs;
  configs.push_back({"full PiPAD", {}});
  {
    runtime::PipadOptions o;
    o.enable_pipeline = false;
    configs.push_back({"- pipeline", o});
  }
  {
    runtime::PipadOptions o;
    o.enable_cuda_graph = false;
    configs.push_back({"- CUDA graph", o});
  }
  {
    runtime::PipadOptions o;
    o.enable_reuse = false;
    configs.push_back({"- inter-frame reuse", o});
  }
  {
    runtime::PipadOptions o;
    o.enable_weight_reuse = false;
    configs.push_back({"- weight reuse", o});
  }
  {
    runtime::PipadOptions o;
    o.forced_sper = 1;
    configs.push_back({"- parallelism (S_per=1)", o});
  }

  for (auto model : bench::all_models()) {
    std::printf("--- %s ---\n", models::model_type_name(model));
    std::printf("%-26s", "Configuration");
    for (const auto& cfg : flags.configs()) {
      std::printf(" %14s", cfg.name.c_str());
    }
    std::printf("\n");
    std::vector<double> full_us;
    for (const auto& c : configs) {
      std::printf("%-26s", c.name);
      int col = 0;
      for (const auto& dcfg : flags.configs()) {
        const auto& g = cache.get(dcfg);
        const auto r = bench::run_method(
            g, models::Method::PiPAD, bench::train_config(flags, model),
            c.opts);
        if (c.name == std::string("full PiPAD")) {
          full_us.push_back(r.total_us);
          std::printf(" %11.0f us", r.total_us);
        } else {
          std::printf(" %10.2fx sl", r.total_us / full_us[col]);
        }
        ++col;
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("(x sl = slowdown relative to full PiPAD)\n");
  return 0;
}
