// Ablation of PiPAD's options. Each row is one PipadOptions variant, trained
// once per (model, dataset):
//   - S_per forced to 1, 2, 4 and 8 against the dynamic tuner (§4.4), with
//     each row's tuner/best-static ratio;
//   - each mechanism switched off in isolation (pipeline overlap, CUDA-graph
//     batching, inter-frame reuse, locality-optimized weight reuse) as a
//     slowdown over full PiPAD (the tuner run); S_per=1 stands for switching
//     off snapshot parallelism.
#include <cstdio>

#include "bench_util.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  auto flags = bench::Flags::parse(argc, argv, bench::Writes::Records);
  if (flags.datasets.empty()) {
    flags.datasets = {"hepth", "epinions", "covid19-england"};
  }
  bench::DatasetCache cache(flags);
  bench::JsonReport report("ablation_sper", flags);
  const auto datasets = flags.configs();

  struct Variant {
    std::string label;
    runtime::PipadOptions opts;
  };
  std::vector<Variant> variants;
  for (int s : {1, 2, 4, 8}) {
    auto o = api::pipad_options(flags.job);
    o.forced_sper = s;
    variants.push_back({"PiPAD[S=" + std::to_string(s) + "]", o});
  }
  variants.push_back({"PiPAD[tuner]", api::pipad_options(flags.job)});
  constexpr std::size_t kTuner = 4;
  using Switch = bool runtime::PipadOptions::*;
  const std::pair<const char*, Switch> mechanisms[] = {
      {"PiPAD[-pipeline]", &runtime::PipadOptions::enable_pipeline},
      {"PiPAD[-cuda-graph]", &runtime::PipadOptions::enable_cuda_graph},
      {"PiPAD[-frame-reuse]", &runtime::PipadOptions::enable_reuse},
      {"PiPAD[-weight-reuse]", &runtime::PipadOptions::enable_weight_reuse}};
  for (const auto& [label, off] : mechanisms) {
    auto o = api::pipad_options(flags.job);
    o.*off = false;
    variants.push_back({label, o});
  }

  // us[model][dataset][variant]
  std::vector<std::vector<std::vector<double>>> us;
  for (auto model : bench::all_models()) {
    auto& model_us = us.emplace_back();
    for (const auto& dcfg : datasets) {
      const auto& g = cache.get(dcfg);
      const auto tcfg = bench::train_config(flags, model);
      auto& row = model_us.emplace_back();
      for (const auto& v : variants) {
        const auto r =
            bench::run_method(g, models::Method::PiPAD, tcfg, v.opts);
        report.add(dcfg.name, models::model_type_name(model), v.label, r);
        row.push_back(r.total_us);
      }
    }
  }

  std::printf("Ablation: forced S_per vs the dynamic tuner (total us)\n\n");
  int rows = 0, tuner_lost = 0;
  for (std::size_t mi = 0; mi < us.size(); ++mi) {
    std::printf("--- %s ---\n",
                models::model_type_name(bench::all_models()[mi]));
    std::printf("%-18s %10s %10s %10s %10s %10s %11s\n", "Dataset", "S=1",
                "S=2", "S=4", "S=8", "tuner", "tuner/best");
    for (std::size_t di = 0; di < datasets.size(); ++di) {
      const auto& row = us[mi][di];
      std::printf("%-18s", datasets[di].name.c_str());
      for (std::size_t v = 0; v <= kTuner; ++v) std::printf(" %10.0f", row[v]);
      const double best = *std::min_element(row.begin(), row.begin() + kTuner);
      std::printf(" %10.3fx\n", row[kTuner] / best);
      ++rows;
      if (row[kTuner] > best) ++tuner_lost;
    }
    std::printf("\n");
  }
  std::printf(
      "The tuner is slower than the best static S_per in %d of %d rows "
      "(tuner/best > 1).\n",
      tuner_lost, rows);

  std::printf(
      "\nAblation: each mechanism off (slowdown x over full PiPAD = "
      "PiPAD[tuner])\n\n");
  for (std::size_t mi = 0; mi < us.size(); ++mi) {
    std::printf("--- %s ---\n",
                models::model_type_name(bench::all_models()[mi]));
    std::printf("%-21s", "Configuration");
    for (const auto& dcfg : datasets) {
      std::printf(" %15s", dcfg.name.c_str());
    }
    std::printf("\n");
    // Full PiPAD, each mechanism off, then S_per=1 (no snapshot parallelism).
    for (std::size_t v : {kTuner, kTuner + 1, kTuner + 2, kTuner + 3,
                          kTuner + 4, std::size_t{0}}) {
      std::printf("%-21s", variants[v].label.c_str());
      for (std::size_t di = 0; di < datasets.size(); ++di) {
        const auto& row = us[mi][di];
        if (v == kTuner) {
          std::printf(" %12.0f us", row[v]);
        } else {
          std::printf(" %14.2fx", row[v] / row[kTuner]);
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  return report.write_if_requested() ? 0 : 1;
}
