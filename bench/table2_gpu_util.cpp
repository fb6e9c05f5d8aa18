// Table 2: nvidia-smi-style GPU utilization (%) per method/model/dataset.
// The metric counts memory-copy engines as "active" (§5.2), which is why
// PyGT-A / PyGT-R can look better than faster methods that simply finish
// their device work sooner — the paper calls this counter-intuitive effect
// out explicitly.
#include <cstdio>

#include "bench_util.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv);
  bench::DatasetCache cache(flags);

  std::printf("Table 2: GPU utilization (%%) — device-active fraction\n\n");
  for (auto model : bench::all_models()) {
    std::printf("--- %s ---\n", models::model_type_name(model));
    std::printf("%-8s", "Method");
    for (const auto& cfg : flags.configs()) {
      std::printf(" %6s", bench::short_name(cfg.name).c_str());
    }
    std::printf("\n");
    for (auto m : models::kMethods) {
      std::printf("%-8s", models::method_label(m));
      for (const auto& cfg : flags.configs()) {
        const auto& g = cache.get(cfg);
        const auto r =
            bench::run_method(g, m, bench::train_config(flags, model));
        std::printf(" %5.1f%%", 100.0 * r.device_active);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf(
      "Shape check (Table 2): large datasets run high (>70%%), small ones "
      "low (CPU-side\nlatency dominates); async variants look best because "
      "copies count as activity.\n");
  return 0;
}
