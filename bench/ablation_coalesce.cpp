// Ablation: thread-aware slice-coalescing width (coalesce_num, §4.2 caps it
// at 4 so a thread group's access stays within one 32-byte transaction).
#include <cstdio>

#include "bench_util.hpp"
#include "kernels/aggregate.hpp"
#include "sliced/sliced_csr.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags =
      bench::Flags::parse(argc, argv, bench::Writes::Nothing,
                          bench::Reads::own_graph({"--scale-large"}));
  gpusim::CostModel cm((gpusim::SimConfig()));

  auto cfg = graph::dataset_by_name("epinions", flags.job.scale_large,
                                    flags.job.scale_small);
  cfg.num_snapshots = 1;
  const auto g = graph::generate(cfg);
  const auto s = sliced::slice(g.snapshots[0].adj, 32);

  std::printf(
      "Ablation: coalesce_num sweep (aggregation kernel, %zu nnz)\n\n",
      s.nnz());
  std::printf("%4s %6s %10s %14s %14s %10s\n", "F", "cn", "warp-eff",
              "#requests", "#txns", "sim us");
  Rng rng(1);
  for (int f : {2, 4, 8}) {
    const Tensor x = Tensor::randn(g.num_nodes, f, rng);
    for (int cn : {1, 2, 4, 8}) {
      Tensor out(g.num_nodes, f);
      const auto st = kernels::agg_sliced(s, x, out, cn);
      std::printf("%4d %6d %9.1f%% %14s %14s %10.1f\n", f,
                  kernels::effective_coalesce_num(f, cn),
                  100.0 * st.warp_efficiency(),
                  with_commas(st.global_requests).c_str(),
                  with_commas(st.global_transactions).c_str(),
                  cm.kernel_us(st));
    }
  }
  std::printf(
      "\ncn is clamped so cn*F <= 32; wider groups raise warp efficiency "
      "and amortize\nper-request overhead for narrow features.\n");
  return 0;
}
