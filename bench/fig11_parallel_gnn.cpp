// Figure 11 + §5.3: kernel-level analysis of the dimension-aware parallel
// GNN, inter-frame reuse disabled.
//  (a) 1-layer GNN execution-time speedup over PyGT / PyGT-G, and the
//      reduction in global memory requests/transactions vs GE-SpMM
//      (paper: 5.6x / 3.1x time; -57% requests, -45% transactions);
//  (b) dimension sensitivity on the small datasets (>= 5.2x everywhere);
//  plus the warp-execution-efficiency comparison (57.2% -> 64.9% with
//  D=2/H=6 in the paper).
#include <cstdio>

#include "bench_util.hpp"
#include "kernels/aggregate.hpp"
#include "sliced/partition.hpp"

namespace {

using namespace pipad;

struct GnnRun {
  double time_us = 0.0;
  gpusim::KernelStats stats;
};

// One-layer GNN (aggregate + normalize) over `count` snapshots, one at a
// time, with the given kernel flavour.
GnnRun run_sequential(const graph::DTDG& g, int start, int count, int f,
                      bool gespmm, const gpusim::CostModel& cm, Rng& rng) {
  GnnRun out;
  for (int i = 0; i < count; ++i) {
    const auto& snap = g.snapshots[start + i];
    const Tensor x = Tensor::randn(g.num_nodes, f, rng);
    Tensor agg(g.num_nodes, f), h(g.num_nodes, f);
    gpusim::KernelStats st;
    if (gespmm) {
      st = kernels::agg_gespmm(snap.adj, x, agg);
    } else {
      st = kernels::agg_coo(graph::coo_from_csr(snap.adj), x, agg);
    }
    st = st.scaled(g.sim_scale);  // Report full-size work (README, DESIGN).
    out.stats += st;
    out.time_us += cm.kernel_us(st);
    const auto nst = kernels::gcn_normalize(kernels::degrees(snap.adj), x,
                                            agg, h)
                         .scaled(g.sim_scale);
    out.stats += nst;
    out.time_us += cm.kernel_us(nst);
  }
  return out;
}

GnnRun run_parallel(const graph::DTDG& g, int start, int count, int f,
                    const gpusim::CostModel& cm, Rng& rng) {
  GnnRun out;
  const auto part = sliced::build_partition(g, start, count);
  std::vector<Tensor> xs;
  std::vector<const Tensor*> xp;
  std::vector<const std::vector<float>*> degs;
  std::vector<std::vector<float>> deg_store;
  for (int i = 0; i < count; ++i) {
    xs.push_back(Tensor::randn(g.num_nodes, f, rng));
    deg_store.push_back(kernels::degrees(g.snapshots[start + i].adj));
  }
  for (int i = 0; i < count; ++i) {
    xp.push_back(&xs[i]);
    degs.push_back(&deg_store[i]);
  }
  const Tensor coal = sliced::coalesce_features(xp);
  Tensor agg(g.num_nodes, f * count);
  auto st = kernels::agg_sliced(part.overlap, coal, agg).scaled(g.sim_scale);
  out.stats += st;
  out.time_us += cm.kernel_us(st);
  for (int i = 0; i < count; ++i) {
    if (part.exclusive[i].nnz() == 0) continue;
    Tensor e(g.num_nodes, f);
    auto est =
        kernels::agg_sliced(part.exclusive[i], xs[i], e).scaled(g.sim_scale);
    out.stats += est;
    out.time_us += cm.kernel_us(est);
  }
  Tensor h(g.num_nodes, f * count);
  auto nst =
      kernels::gcn_normalize_coalesced(degs, coal, agg, h).scaled(g.sim_scale);
  out.stats += nst;
  out.time_us += cm.kernel_us(nst);
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv, bench::Writes::Nothing);
  bench::DatasetCache cache(flags);
  gpusim::CostModel cm((gpusim::SimConfig()));

  std::printf(
      "Figure 11(a): 1-layer GNN speedup & memory-access reduction "
      "(reuse disabled, S_per=4)\n\n");
  std::printf("%-18s %10s %10s %10s %10s\n", "Dataset", "vs PyGT",
              "vs PyGT-G", "dReq", "dTxn");
  std::vector<double> sp_pygt, sp_gespmm, dreq, dtxn;
  for (const auto& cfg : flags.configs()) {
    const auto& g = cache.get(cfg);
    Rng rng(42);
    const int count = std::min(4, g.num_snapshots());
    // Mid-sequence snapshots: the opening snapshots sit in the edge-life
    // ramp-up window where overlap is unrepresentatively low.
    const int start = std::max(0, g.num_snapshots() / 2 - count);
    const auto coo =
        run_sequential(g, start, count, g.feat_dim, false, cm, rng);
    const auto ge =
        run_sequential(g, start, count, g.feat_dim, true, cm, rng);
    const auto par = run_parallel(g, start, count, g.feat_dim, cm, rng);
    const double req_red =
        1.0 - static_cast<double>(par.stats.global_requests) /
                  ge.stats.global_requests;
    const double txn_red =
        1.0 - static_cast<double>(par.stats.global_transactions) /
                  ge.stats.global_transactions;
    std::printf("%-18s %9.2fx %9.2fx %8.1f%% %8.1f%%\n", cfg.name.c_str(),
                coo.time_us / par.time_us, ge.time_us / par.time_us,
                100.0 * req_red, 100.0 * txn_red);
    sp_pygt.push_back(coo.time_us / par.time_us);
    sp_gespmm.push_back(ge.time_us / par.time_us);
    dreq.push_back(req_red);
    dtxn.push_back(txn_red);
  }
  std::printf(
      "\nmean: %.1fx over PyGT (paper 5.6x), %.1fx over PyGT-G (paper "
      "3.1x),\nrequests -%.0f%% (paper -57%%), transactions -%.0f%% (paper "
      "-45%%)\n",
      mean(sp_pygt), mean(sp_gespmm), 100.0 * mean(dreq),
      100.0 * mean(dtxn));

  // ---- (b) dimension sensitivity on the small datasets ----
  std::printf("\nFigure 11(b): dimension sensitivity (speedup over PyGT)\n\n");
  std::printf("%-18s %8s %8s %8s %8s\n", "Dataset", "F=2", "F=16", "F=64",
              "F=128");
  for (const auto& cfg : flags.configs()) {
    if (cfg.name != "hepth" && cfg.name != "pems08" &&
        cfg.name != "covid19-england") {
      continue;
    }
    const auto& g = cache.get(cfg);
    std::printf("%-18s", cfg.name.c_str());
    for (int f : {2, 16, 64, 128}) {
      Rng rng(7);
      const int count = std::min(4, g.num_snapshots());
      const int start = std::max(0, g.num_snapshots() / 2 - count);
      const auto seq = run_sequential(g, start, count, f, false, cm, rng);
      const auto par = run_parallel(g, start, count, f, cm, rng);
      std::printf(" %7.2fx", seq.time_us / par.time_us);
    }
    std::printf("\n");
  }

  // ---- §5.3: warp execution efficiency with D=2 ----
  std::printf("\nThread utilization (warp_execution_efficiency, D=2):\n");
  {
    const auto& g = cache.get(flags.configs().front());
    Rng rng(9);
    const int count = std::min(4, g.num_snapshots());
    const int start = std::max(0, g.num_snapshots() / 2 - count);
    const auto ge = run_sequential(g, start, count, 2, true, cm, rng);
    const auto par = run_parallel(g, start, count, 2, cm, rng);
    std::printf("  PyGT-G: %.1f%%   PiPAD: %.1f%%   (paper: 57.2%% -> "
                "64.9%%)\n",
                100.0 * ge.stats.warp_efficiency(),
                100.0 * par.stats.warp_efficiency());
  }
  return 0;
}
