// Figure 12: sliced-CSR analysis — load balance (ideal "Balanced" vs
// "Actual" execution cost, methodology of [Huang et al. PPoPP'21]) and the
// end-to-end speedup of sliced CSR over a plain-CSR PiPAD variant.
//
// The CSR variant is PiPAD with an effectively unbounded slice size: one
// slice per row, i.e. CSR's row granularity and its load imbalance.
#include <cstdio>

#include "bench_util.hpp"
#include "sliced/sliced_csr.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv, bench::Writes::Nothing);
  bench::DatasetCache cache(flags);

  std::printf("Figure 12 (left axis): load balance, 64 thread blocks\n\n");
  std::printf("%-18s %12s %12s %12s %12s %10s\n", "Dataset", "CSR-ideal",
              "CSR-actual", "Sliced-ideal", "Sliced-actual", "gain");
  for (const auto& cfg : flags.configs()) {
    const auto& g = cache.get(cfg);
    const auto& adj = g.snapshots[g.num_snapshots() / 2].adj;
    const auto lb_csr = sliced::csr_load_balance(adj, 64);
    const auto s = sliced::slice(adj, 32);
    const auto lb_sl = sliced::sliced_load_balance(s, 64);
    std::printf("%-18s %12.0f %12.0f %12.0f %12.0f %9.2fx\n",
                cfg.name.c_str(), lb_csr.balanced_cost, lb_csr.actual_cost,
                lb_sl.balanced_cost, lb_sl.actual_cost,
                lb_csr.imbalance() / lb_sl.imbalance());
  }

  std::printf(
      "\nFigure 12 (right axis): end-to-end speedup of sliced CSR over the "
      "plain-CSR PiPAD variant\n\n");
  std::printf("%-18s %10s %10s %10s\n", "Dataset", "EvolveGCN", "MPNN-LSTM",
              "T-GCN");
  for (const auto& cfg : flags.configs()) {
    const auto& g = cache.get(cfg);
    std::printf("%-18s", cfg.name.c_str());
    for (auto model : {models::ModelType::EvolveGcn,
                       models::ModelType::MpnnLstm, models::ModelType::TGcn}) {
      const auto tcfg = bench::train_config(flags, model);
      const auto sliced_opts = api::pipad_options(flags.job);
      auto csr_opts = sliced_opts;
      csr_opts.slice_bound = 1 << 28;  // One slice per row == CSR.
      const double sliced_us =
          bench::run_method(g, models::Method::PiPAD, tcfg, sliced_opts)
              .total_us;
      const double csr_us =
          bench::run_method(g, models::Method::PiPAD, tcfg, csr_opts)
              .total_us;
      std::printf(" %9.2fx", csr_us / sliced_us);
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape check (Fig. 12): slicing closes the balanced/actual gap most "
      "on the sparse,\nskewed large graphs; dense small graphs are already "
      "balanced under CSR.\n");
  return 0;
}
