// End-to-end integration: all five training methods on all three models,
// checking numerical agreement and the paper's qualitative performance
// ordering on a miniature dataset.
#include <gtest/gtest.h>

#include "baselines/baseline_trainer.hpp"
#include "replica/replica_trainer.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using baselines::BaselineTrainer;
using baselines::Variant;
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
  for (Variant v :
       {Variant::PyGT, Variant::PyGTA, Variant::PyGTR, Variant::PyGTG}) {
    gpusim::Gpu gpu;
    BaselineTrainer tr(gpu, g, cfg, v);
    runs.push_back({variant_name(v), tr.train()});
  }
  {
    gpusim::Gpu gpu;
    replica::ReplicaTrainer tr(gpu, g, cfg);
    runs.push_back({"PiPAD", tr.train()});
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
