// End-to-end integration: all five training methods on all three models,
// checking numerical agreement and the paper's qualitative performance
// ordering on a miniature dataset.
#include <gtest/gtest.h>

#include "kernels/stats_builders.hpp"
#include "replica/replica_trainer.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using models::Method;
using models::ModelType;
using models::TrainConfig;
using models::TrainResult;

struct MethodRun {
  std::string name;
  TrainResult result;
};

std::vector<MethodRun> run_all_methods(const graph::DTDG& g, ModelType m) {
  TrainConfig cfg;
  cfg.model = m;
  cfg.frame_size = 4;
  cfg.epochs = 3;
  cfg.max_frames_per_epoch = 4;
  cfg.hidden_dim = 6;

  std::vector<MethodRun> runs;
  for (const Method method : models::kMethods) {
    gpusim::Gpu gpu;
    replica::ReplicaTrainer tr(gpu, g, cfg, method);
    runs.push_back({models::method_label(method), tr.train()});
  }
  return runs;
}

class EndToEnd : public ::testing::TestWithParam<ModelType> {};

TEST_P(EndToEnd, FiveMethodsAgreeNumericallyAndPipadWins) {
  const auto g = graph::generate(testutil::tiny_config(48, 12, 2, 99));
  const auto runs = run_all_methods(g, GetParam());
  const auto& base = runs[0].result;

  for (const auto& run : runs) {
    ASSERT_EQ(run.result.frame_loss.size(), base.frame_loss.size())
        << run.name;
    for (std::size_t i = 0; i < base.frame_loss.size(); ++i) {
      EXPECT_NEAR(run.result.frame_loss[i], base.frame_loss[i],
                  5e-3f * (1.0f + std::abs(base.frame_loss[i])))
          << run.name << " frame " << i;
    }
  }

  // Qualitative ordering (Fig. 10): PiPAD beats PyGT end to end; every
  // incremental variant beats plain PyGT.
  const double pygt = base.total_us;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_LT(runs[i].result.total_us, pygt) << runs[i].name;
  }
  EXPECT_LT(runs.back().result.total_us, runs[1].result.total_us)
      << "PiPAD should beat PyGT-A";
}

INSTANTIATE_TEST_SUITE_P(Models, EndToEnd,
                         ::testing::Values(ModelType::MpnnLstm,
                                           ModelType::EvolveGcn,
                                           ModelType::TGcn),
                         [](const auto& info) {
                           std::string n = models::model_type_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---------- Leaf inputs: dX not computed, still charged ----------
//
// T-GCN's gate updates and GCN layer 0 read layer-0 aggregations, which are
// leaves: the runtimes skip their dX GEMMs on the host, but the modeled
// device still runs them, so each stays recorded with its full stats.

bool same_stats(const gpusim::KernelStats& a, const gpusim::KernelStats& b) {
  return a.flops == b.flops && a.global_requests == b.global_requests &&
         a.global_transactions == b.global_transactions &&
         a.shared_accesses == b.shared_accesses &&
         a.atomic_ops == b.atomic_ops && a.total_warps == b.total_warps &&
         a.active_thread_ratio_sum == b.active_thread_ratio_sum &&
         a.imbalance == b.imbalance;
}

std::vector<gpusim::KernelStats> kernels_named(const gpusim::Gpu& gpu,
                                               const std::string& name) {
  std::vector<gpusim::KernelStats> out;
  for (const auto& rec : gpu.timeline().records()) {
    if (rec.name == "kernel:" + name) out.push_back(rec.stats);
  }
  return out;
}

void expect_leaf_dx_recorded(ModelType m, bool pipad) {
  const auto g = graph::generate(testutil::tiny_config(48, 12, 2, 99));
  const TrainConfig cfg = testutil::small_cfg(m);
  gpusim::Gpu gpu;
  replica::ReplicaTrainer(gpu, g, cfg, pipad ? Method::PiPAD : Method::PyGT)
      .train();
  const std::vector<std::string> leaf_tags =
      m == ModelType::TGcn
          ? std::vector<std::string>{"gcn.gate_z", "gcn.gate_r", "gcn.gate_n"}
          : std::vector<std::string>{"gcn.l1"};
  // dX = dY W^T: [nodes x hidden] * [hidden x feat]; PiPAD records one
  // weight-reuse GEMM per frame, PyGT one GEMM per snapshot.
  const auto want =
      (pipad ? kernels::gemm_weight_reuse_stats(g.num_nodes, cfg.hidden_dim,
                                                g.feat_dim, cfg.frame_size)
             : kernels::gemm_stats(g.num_nodes, cfg.hidden_dim, g.feat_dim))
          .scaled(g.sim_scale);
  const std::string suffix = pipad ? ".wr" : "";
  for (const auto& tag : leaf_tags) {
    const auto dx = kernels_named(gpu, "gemm:" + tag + ".dx" + suffix);
    const auto dw = kernels_named(gpu, "gemm:" + tag + ".dw" + suffix);
    EXPECT_FALSE(dx.empty()) << tag;
    EXPECT_EQ(dx.size(), dw.size()) << tag;
    for (const auto& s : dx) EXPECT_TRUE(same_stats(s, want)) << tag;
  }
}

TEST(LeafInputs, DxKernelsStayRecordedUnderPipadAndPygt) {
  for (const ModelType m : {ModelType::TGcn, ModelType::Gcn}) {
    for (const bool pipad : {true, false}) {
      SCOPED_TRACE(std::string(models::model_type_name(m)) +
                   (pipad ? " PiPAD" : " PyGT"));
      expect_leaf_dx_recorded(m, pipad);
    }
  }
}

TEST(EndToEnd, TransferShareShrinksUnderPipad) {
  // §3.1: transfers dominate PyGT; PiPAD's overlap-aware organization and
  // reuse shrink both the absolute volume and its share.
  const auto g = graph::generate(testutil::tiny_config(96, 12, 2, 5));
  const auto runs = run_all_methods(g, ModelType::MpnnLstm);
  const auto& pygt = runs.front().result;
  const auto& pipad = runs.back().result;
  EXPECT_LT(pipad.transfer_us, pygt.transfer_us);
}

TEST(EndToEnd, AggregationTransactionsDropUnderPipad) {
  const auto g = graph::generate(testutil::tiny_config(96, 12, 2, 6));
  const auto runs = run_all_methods(g, ModelType::EvolveGcn);
  const auto& pygt_g = runs[3].result;  // PyGT-G.
  const auto& pipad = runs.back().result;
  EXPECT_LT(pipad.agg_stats.global_transactions,
            pygt_g.agg_stats.global_transactions);
}

TEST(EndToEnd, SimulatedScheduleIsCausallySane) {
  const auto g = graph::generate(testutil::tiny_config(32, 8, 2, 7));
  gpusim::Gpu gpu;
  TrainConfig cfg;
  cfg.model = ModelType::TGcn;
  cfg.frame_size = 4;
  cfg.epochs = 2;
  cfg.max_frames_per_epoch = 2;
  cfg.hidden_dim = 4;
  replica::ReplicaTrainer tr(gpu, g, cfg);
  tr.train();
  double busy_sum = 0.0;
  for (const auto& rec : gpu.timeline().records()) {
    EXPECT_GE(rec.end_us, rec.start_us);
    EXPECT_GE(rec.start_us, 0.0);
    busy_sum += rec.end_us - rec.start_us;
  }
  // Some overlap must exist: total busy time across resources exceeds the
  // makespan (otherwise nothing was pipelined).
  EXPECT_GT(busy_sum, gpu.timeline().makespan());
}

}  // namespace
}  // namespace pipad
