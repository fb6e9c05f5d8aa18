// Ablation: slice nnz upper bound (§4.1 fixes 32) — space overhead vs load
// balance trade-off, plus the end-to-end effect.
#include <cstdio>

#include "bench_util.hpp"
#include "sliced/sliced_csr.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  auto flags = bench::Flags::parse(argc, argv, bench::Writes::Nothing);
  if (flags.datasets.empty()) flags.datasets = {"epinions", "hepth"};
  bench::DatasetCache cache(flags);

  std::printf(
      "Ablation: slice bound — space vs balance vs end-to-end time\n\n");
  std::printf("%-18s %6s %12s %10s %12s\n", "Dataset", "bound",
              "topo bytes", "imbalance", "e2e us");
  for (const auto& dcfg : flags.configs()) {
    const auto& g = cache.get(dcfg);
    const auto& adj = g.snapshots[g.num_snapshots() / 2].adj;
    for (int bound : {4, 8, 16, 32, 64, 128}) {
      const auto s = sliced::slice(adj, bound);
      const auto lb = sliced::sliced_load_balance(s, 64);
      auto o = api::pipad_options(flags.job);
      o.slice_bound = bound;
      const auto r = bench::run_method(
          g, models::Method::PiPAD,
          bench::train_config(flags, models::ModelType::EvolveGcn), o);
      std::printf("%-18s %6d %12s %10.3f %12.0f\n", dcfg.name.c_str(), bound,
                  human_bytes(s.transfer_bytes()).c_str(), lb.imbalance(),
                  r.total_us);
    }
  }
  std::printf(
      "\nSmaller bounds balance better but cost more metadata; 32 (the "
      "paper's choice)\nsits at the knee.\n");
  return 0;
}
