// Baseline trainer tests: numerics must agree across variants (they compute
// the same math through different access patterns), and the simulated
// schedule must show the paper's qualitative orderings.
#include <gtest/gtest.h>

#include "replica/replica_trainer.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using models::Method;
using models::ModelType;
using replica::ReplicaTrainer;
using models::TrainConfig;
using models::TrainResult;

TrainConfig small_cfg(ModelType m = ModelType::MpnnLstm) {
  TrainConfig cfg;
  cfg.model = m;
  cfg.frame_size = 4;
  cfg.epochs = 2;
  cfg.max_frames_per_epoch = 3;
  cfg.hidden_dim = 6;
  return cfg;
}

TrainResult run_variant(const graph::DTDG& g, Method v,
                        ModelType m = ModelType::MpnnLstm) {
  gpusim::Gpu gpu;
  ReplicaTrainer tr(gpu, g, small_cfg(m), v);
  return tr.train();
}

TEST(Baselines, AllVariantsProduceIdenticalLosses) {
  // COO vs GE-SpMM vs cached aggregation all compute the same mathematics;
  // losses must match tightly (float addition order differs slightly).
  const auto g = graph::generate(testutil::tiny_config(32, 10, 2));
  const auto base = run_variant(g, Method::PyGT);
  for (Method v : {Method::PyGTA, Method::PyGTR, Method::PyGTG}) {
    const auto r = run_variant(g, v);
    ASSERT_EQ(r.frame_loss.size(), base.frame_loss.size());
    for (std::size_t i = 0; i < r.frame_loss.size(); ++i) {
      EXPECT_NEAR(r.frame_loss[i], base.frame_loss[i],
                  2e-3f * (1.0f + std::abs(base.frame_loss[i])))
          << models::method_label(v) << " frame " << i;
    }
  }
}

TEST(Baselines, AsyncTransferBeatsSynchronous) {
  const auto g = graph::generate(testutil::tiny_config(64, 10, 2));
  const auto sync = run_variant(g, Method::PyGT);
  const auto async = run_variant(g, Method::PyGTA);
  EXPECT_LT(async.total_us, sync.total_us);
}

TEST(Baselines, ReuseEliminatesAggregationKernelsAfterWarmup) {
  const auto g = graph::generate(testutil::tiny_config(48, 12, 2));
  const auto a = run_variant(g, Method::PyGTA);
  const auto r = run_variant(g, Method::PyGTR);
  // With reuse, the layer-0 aggregation runs once per snapshot total, not
  // once per (frame, epoch): fewer aggregation transactions overall.
  EXPECT_LT(r.agg_stats.global_transactions,
            a.agg_stats.global_transactions);
  EXPECT_LT(r.total_us, a.total_us);
}

TEST(Baselines, ReuseHelpsTgcnMost) {
  // T-GCN only has layer-0 aggregation, so reuse removes *all* of it in
  // steady state, and the topology transfer disappears too (§5.2).
  const auto g = graph::generate(testutil::tiny_config(48, 12, 2));
  const auto a = run_variant(g, Method::PyGTA, ModelType::TGcn);
  const auto r = run_variant(g, Method::PyGTR, ModelType::TGcn);
  EXPECT_LT(r.transfer_us, a.transfer_us);
  const double tgcn_gain = a.total_us / r.total_us;
  const auto am = run_variant(g, Method::PyGTA, ModelType::MpnnLstm);
  const auto rm = run_variant(g, Method::PyGTR, ModelType::MpnnLstm);
  const double mpnn_gain = am.total_us / rm.total_us;
  EXPECT_GT(tgcn_gain, mpnn_gain * 0.9);
}

TEST(Baselines, GespmmShipsCsrAndCscCostingMoreTransferBytes) {
  const auto g = graph::generate(testutil::tiny_config(64, 10, 2));
  gpusim::Gpu gpu_r, gpu_g;
  ReplicaTrainer tr_r(gpu_r, g, small_cfg(ModelType::MpnnLstm),
                      Method::PyGTR);
  ReplicaTrainer tr_g(gpu_g, g, small_cfg(ModelType::MpnnLstm),
                      Method::PyGTG);
  tr_r.train();
  tr_g.train();
  const double r_h2d = gpu_r.timeline().busy_us(gpusim::Resource::H2D);
  const double g_h2d = gpu_g.timeline().busy_us(gpusim::Resource::H2D);
  EXPECT_GT(g_h2d, r_h2d);
}

TEST(Baselines, GespmmReducesAggregationWorkVsCoo) {
  const auto g = graph::generate(testutil::tiny_config(96, 10, 2));
  const auto r = run_variant(g, Method::PyGTR);
  const auto ge = run_variant(g, Method::PyGTG);
  // Same reuse level; only the remaining (layer-2) aggregation kernel
  // differs, and GE-SpMM moves fewer transactions and no atomics. (On
  // tiny test graphs simulated *time* hits the launch-latency floor, so
  // the comparison is on the memory-system counters.)
  EXPECT_LT(ge.agg_stats.global_transactions,
            r.agg_stats.global_transactions);
  EXPECT_LT(ge.agg_stats.atomic_ops, r.agg_stats.atomic_ops);
  // Simulated *time* is not asserted: on this synthetic power-law graph the
  // row-parallel CSR kernel pays a load-imbalance penalty the edge-parallel
  // COO kernel avoids, which can offset the transaction savings.
}

TEST(Baselines, BreakdownFieldsArePopulatedAndConsistent) {
  const auto g = graph::generate(testutil::tiny_config(40, 8, 2));
  const auto r = run_variant(g, Method::PyGT);
  EXPECT_GT(r.total_us, 0.0);
  EXPECT_GT(r.transfer_us, 0.0);
  EXPECT_GT(r.compute_us, 0.0);
  EXPECT_GT(r.gnn_us, 0.0);
  EXPECT_GT(r.rnn_us, 0.0);
  EXPECT_NEAR(r.gnn_us + r.rnn_us + r.other_us, r.compute_us, 1e-6);
  EXPECT_GT(r.sm_utilization, 0.0);
  EXPECT_LE(r.sm_utilization, 1.0);
  EXPECT_GE(r.device_active, r.sm_utilization - 1e-9);
  EXPECT_LE(r.device_active, 1.0);
}

TEST(Baselines, DeterministicAcrossRuns) {
  const auto g = graph::generate(testutil::tiny_config(32, 8, 2));
  const auto a = run_variant(g, Method::PyGTA);
  const auto b = run_variant(g, Method::PyGTA);
  EXPECT_EQ(a.total_us, b.total_us);
  ASSERT_EQ(a.frame_loss.size(), b.frame_loss.size());
  for (std::size_t i = 0; i < a.frame_loss.size(); ++i) {
    EXPECT_EQ(a.frame_loss[i], b.frame_loss[i]);
  }
}

TEST(Baselines, AllModelsRunUnderAllVariants) {
  const auto g = graph::generate(testutil::tiny_config(24, 8, 2));
  for (ModelType m :
       {ModelType::MpnnLstm, ModelType::EvolveGcn, ModelType::TGcn}) {
    for (Method v :
         {Method::PyGT, Method::PyGTA, Method::PyGTR, Method::PyGTG}) {
      const auto r = run_variant(g, v, m);
      EXPECT_FALSE(r.frame_loss.empty());
      for (float l : r.frame_loss) EXPECT_TRUE(std::isfinite(l));
    }
  }
}

}  // namespace
}  // namespace pipad
