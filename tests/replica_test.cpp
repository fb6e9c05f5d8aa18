// replica/ tests: the bitwise-determinism wall around replicated
// data-parallel training (losses and params identical for ANY
// --replicas x --threads combination), --replicas 0 as the one-device,
// one-frame-round case of the same loop, the per-replica infeed charging
// (its HostStream machinery is walled in tuner_test), and the all-reduce
// unit surface (canonical reduction numerics, interconnect timing
// formulas).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "gpusim/gpu.hpp"
#include "graph/generator.hpp"
#include "models/training.hpp"
#include "pipad/pipad_trainer.hpp"
#include "replica/allreduce.hpp"
#include "replica/replica_trainer.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using gpusim::Resource;
using testutil::flat_params;
using testutil::small_cfg;
using testutil::tiny_config;

struct ReplicaRun {
  models::TrainResult result;
  std::vector<float> params;  ///< Replica 0's flat params+grads.
};

ReplicaRun train_replicated(const graph::DTDG& g,
                            const models::TrainConfig& cfg, int threads,
                            int replicas,
                            const std::string& allreduce = "ring") {
  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.host_threads = threads;
  opts.replicas = replicas;
  opts.allreduce = allreduce;
  replica::ReplicaTrainer trainer(gpu, g, cfg, opts);
  ReplicaRun run;
  run.result = trainer.train();
  run.params = flat_params(trainer.model());
  return run;
}

// ---------- The determinism wall ----------

TEST(ReplicaDeterminism, BitwiseLossAndParamEqualityAcrossReplicasAndThreads) {
  const auto g = graph::generate(tiny_config(48, 8, 3));
  const auto cfg = small_cfg(models::ModelType::TGcn);

  const ReplicaRun ref = train_replicated(g, cfg, /*threads=*/1,
                                          /*replicas=*/1);
  ASSERT_FALSE(ref.result.frame_loss.empty());
  ASSERT_FALSE(ref.params.empty());

  for (const int replicas : {1, 2, 4}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE("replicas=" + std::to_string(replicas) +
                   " threads=" + std::to_string(threads));
      const ReplicaRun run = train_replicated(g, cfg, threads, replicas);
      ASSERT_EQ(run.result.frame_loss.size(), ref.result.frame_loss.size());
      // EXPECT_EQ on floats is exact equality; the memcmp below holds the
      // params (values AND grads) to bit identity.
      for (std::size_t i = 0; i < ref.result.frame_loss.size(); ++i) {
        EXPECT_EQ(run.result.frame_loss[i], ref.result.frame_loss[i]) << i;
      }
      ASSERT_EQ(run.params.size(), ref.params.size());
      EXPECT_EQ(std::memcmp(run.params.data(), ref.params.data(),
                            ref.params.size() * sizeof(float)),
                0);
    }
  }
}

TEST(ReplicaDeterminism, EveryModelMatchesAcrossReplicaCounts) {
  const auto g = graph::generate(tiny_config(40, 8, 3));
  for (const auto model :
       {models::ModelType::TGcn, models::ModelType::EvolveGcn,
        models::ModelType::MpnnLstm}) {
    SCOPED_TRACE(static_cast<int>(model));
    const auto cfg = small_cfg(model);
    const ReplicaRun one = train_replicated(g, cfg, 1, 1);
    const ReplicaRun four = train_replicated(g, cfg, 8, 4);
    ASSERT_EQ(one.result.frame_loss.size(), four.result.frame_loss.size());
    for (std::size_t i = 0; i < one.result.frame_loss.size(); ++i) {
      EXPECT_EQ(one.result.frame_loss[i], four.result.frame_loss[i]) << i;
    }
    ASSERT_EQ(one.params.size(), four.params.size());
    EXPECT_EQ(std::memcmp(one.params.data(), four.params.data(),
                          one.params.size() * sizeof(float)),
              0);
  }
}

TEST(ReplicaDeterminism, RingAndTreeProduceIdenticalNumerics) {
  const auto g = graph::generate(tiny_config(40, 8, 3));
  const auto cfg = small_cfg(models::ModelType::TGcn);
  const ReplicaRun ring = train_replicated(g, cfg, 2, 2, "ring");
  const ReplicaRun tree = train_replicated(g, cfg, 2, 2, "tree");
  ASSERT_EQ(ring.result.frame_loss.size(), tree.result.frame_loss.size());
  for (std::size_t i = 0; i < ring.result.frame_loss.size(); ++i) {
    EXPECT_EQ(ring.result.frame_loss[i], tree.result.frame_loss[i]) << i;
  }
  EXPECT_EQ(std::memcmp(ring.params.data(), tree.params.data(),
                        ring.params.size() * sizeof(float)),
            0);
  // The algorithm is a timing model only — and for K=2 the timings are
  // provably distinct (ring moves half the payload per step, tree all of
  // it), so equal allreduce_us would mean the knob is dead.
  EXPECT_GT(ring.result.allreduce_us, 0.0);
  EXPECT_GT(tree.result.allreduce_us, 0.0);
  EXPECT_NE(ring.result.allreduce_us, tree.result.allreduce_us);
}

// ---------- --replicas 0: one device, one-frame rounds ----------

/// PiPAD's own per-frame loop, driven by hand through the step API: an
/// optimizer step after every frame, no ReplicaTrainer in between.
ReplicaRun train_by_hand(const graph::DTDG& g, const models::TrainConfig& cfg,
                         int threads) {
  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.host_threads = threads;
  runtime::PipadTrainer trainer(gpu, g, cfg, opts);
  ReplicaRun run;
  const std::vector<graph::Frame>& frames = trainer.begin_steps();
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    trainer.begin_epoch(epoch, frames);
    for (const graph::Frame& f : frames) {
      run.result.frame_loss.push_back(trainer.grad_frame(f));
      trainer.apply_step();
    }
  }
  run.params = flat_params(trainer.model());
  return run;
}

TEST(ReplicaDeterminism, ReplicasZeroStepsAfterEveryFrame) {
  const auto g = graph::generate(tiny_config(48, 8, 3));
  for (const auto model :
       {models::ModelType::Gcn, models::ModelType::TGcn,
        models::ModelType::EvolveGcn, models::ModelType::MpnnLstm}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string(models::model_type_name(model)) +
                   " threads=" + std::to_string(threads));
      const auto cfg = small_cfg(model);
      const ReplicaRun looped = train_replicated(g, cfg, threads, 0);
      const ReplicaRun hand = train_by_hand(g, cfg, threads);
      EXPECT_EQ(looped.result.replicas, 0);
      ASSERT_FALSE(hand.result.frame_loss.empty());
      ASSERT_EQ(looped.result.frame_loss.size(),
                hand.result.frame_loss.size());
      EXPECT_EQ(std::memcmp(looped.result.frame_loss.data(),
                            hand.result.frame_loss.data(),
                            hand.result.frame_loss.size() * sizeof(float)),
                0);
      ASSERT_EQ(looped.params.size(), hand.params.size());
      EXPECT_EQ(std::memcmp(looped.params.data(), hand.params.data(),
                            hand.params.size() * sizeof(float)),
                0);
    }
  }
}

// ---------- TrainResult replica fields + Link lane charging ----------

TEST(ReplicaResult, PopulatesReplicaFieldsAndLinkOps) {
  const auto g = graph::generate(tiny_config(40, 8, 3));
  const auto cfg = small_cfg(models::ModelType::TGcn);

  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.host_threads = 2;
  opts.replicas = 3;
  replica::ReplicaTrainer trainer(gpu, g, cfg, opts);
  const auto r = trainer.train();

  EXPECT_EQ(r.replicas, 3);
  EXPECT_GT(r.allreduce_us, 0.0);
  ASSERT_EQ(r.replica_total_us.size(), 3u);
  double max_total = 0.0;
  for (const double t : r.replica_total_us) {
    EXPECT_GT(t, 0.0);
    if (t > max_total) max_total = t;
  }
  // The reported makespan is the slowest replica's.
  EXPECT_DOUBLE_EQ(r.total_us, max_total);

  // Every replica's timeline carries "comm:allreduce:<algo>" ops on the
  // Link lane; replica 0 runs on the caller's Gpu.
  EXPECT_EQ(&trainer.replica_timeline(0), &gpu.timeline());
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(k);
    int link_ops = 0;
    for (const auto& rec : trainer.replica_timeline(k).records()) {
      if (rec.resource != Resource::Link) continue;
      ++link_ops;
      EXPECT_EQ(rec.name.rfind("comm:allreduce:ring", 0), 0u) << rec.name;
    }
    EXPECT_GT(link_ops, 0);
  }
}

TEST(ReplicaResult, ChargesInfeedStagingToEachReplicasWorkerLanes) {
  const auto g = graph::generate(tiny_config(40, 8, 3));
  const auto cfg = small_cfg(models::ModelType::TGcn);
  for (const int replicas : {1, 2}) {
    SCOPED_TRACE(replicas);
    gpusim::Gpu gpu;
    runtime::PipadOptions opts;
    opts.host_threads = 2;
    opts.replicas = replicas;
    replica::ReplicaTrainer trainer(gpu, g, cfg, opts);
    const auto r = trainer.train();
    // Every trained frame stages one shard on its replica, charged to that
    // replica's worker lanes under its own infeed name.
    int shards = 0;
    for (int k = 0; k < trainer.replicas(); ++k) {
      const std::string name = "prep:infeed:r" + std::to_string(k);
      for (const auto& rec : trainer.replica_timeline(k).records()) {
        if (rec.name.rfind("prep:infeed:", 0) != 0) continue;
        EXPECT_EQ(rec.resource, Resource::CpuWorker) << rec.name;
        EXPECT_EQ(rec.name, name);
        ++shards;
      }
    }
    EXPECT_EQ(shards, static_cast<int>(r.frame_loss.size()));
  }
}

TEST(ReplicaResult, ReplicasZeroLaunchesOneGraphPerFrameWithoutStaging) {
  // PiPAD's own schedule: the trainer reads the DTDG directly, and each
  // frame's optimizer kernels ride in that frame's CUDA graph.
  const auto g = graph::generate(tiny_config(40, 8, 3));
  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.host_threads = 2;
  replica::ReplicaTrainer trainer(gpu, g, small_cfg(models::ModelType::TGcn),
                                  opts);
  const auto r = trainer.train();
  // A graph's kernels directly follow its launch in the record order.
  int optim_graphs = 0;
  bool has_optim = false, has_frame_kernel = false;
  auto close_graph = [&] {
    if (!has_optim) return;
    ++optim_graphs;
    EXPECT_TRUE(has_frame_kernel) << "optimizer launched in a graph of its own";
  };
  for (const auto& rec : gpu.timeline().records()) {
    EXPECT_NE(rec.name.rfind("prep:infeed:", 0), 0u) << rec.name;
    if (rec.name == "launch:graph") {
      close_graph();
      has_optim = has_frame_kernel = false;
    } else if (rec.resource == Resource::Compute) {
      (rec.name == "kernel:ew:optim" ? has_optim : has_frame_kernel) = true;
    }
  }
  close_graph();
  ASSERT_FALSE(r.frame_loss.empty());
  EXPECT_EQ(optim_graphs, static_cast<int>(r.frame_loss.size()));
}

TEST(ReplicaResult, SingleReplicaNeverTouchesTheLink) {
  const auto g = graph::generate(tiny_config(40, 8, 3));
  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.replicas = 1;
  replica::ReplicaTrainer trainer(gpu, g, small_cfg(models::ModelType::TGcn),
                                  opts);
  const auto r = trainer.train();
  EXPECT_EQ(r.replicas, 1);
  EXPECT_EQ(r.allreduce_us, 0.0);
  ASSERT_EQ(r.replica_total_us.size(), 1u);
  for (const auto& rec : gpu.timeline().records()) {
    EXPECT_NE(rec.resource, Resource::Link) << rec.name;
  }
}

TEST(ReplicaTrainerCtor, RejectsUnknownAllreduceAlgorithms) {
  const auto g = graph::generate(tiny_config(40, 8, 3));
  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.replicas = 2;
  opts.allreduce = "butterfly";
  EXPECT_THROW(
      {
        replica::ReplicaTrainer t(gpu, g, small_cfg(models::ModelType::TGcn),
                                  opts);
      },
      Error);
}

// ---------- All-reduce unit wall ----------

TEST(AllReduce, ParseAcceptsExactlyRingAndTree) {
  replica::AllReduceAlgo a;
  ASSERT_TRUE(replica::parse_allreduce("ring", a));
  EXPECT_EQ(a, replica::AllReduceAlgo::Ring);
  ASSERT_TRUE(replica::parse_allreduce("tree", a));
  EXPECT_EQ(a, replica::AllReduceAlgo::Tree);
  EXPECT_FALSE(replica::parse_allreduce("Ring", a));
  EXPECT_FALSE(replica::parse_allreduce("butterfly", a));
  EXPECT_FALSE(replica::parse_allreduce("", a));
  EXPECT_STREQ(replica::allreduce_name(replica::AllReduceAlgo::Ring), "ring");
  EXPECT_STREQ(replica::allreduce_name(replica::AllReduceAlgo::Tree), "tree");
}

TEST(AllReduce, ReductionIsBitExactAcrossAlgorithms) {
  // Adversarial float orderings: catastrophic cancellation and values whose
  // sum depends on association order. Any algorithm-specific (chunked,
  // rotated) arithmetic would change bits here.
  const std::vector<std::vector<float>> parts = {
      {1e8f, 1.0f, -1.0f, 0.25f},
      {1.0f, -1e8f, 3.0f, 0.5f},
      {-1e8f, 1e-3f, 7.0f, 0.125f},
      {1.0f, 1e8f, -9.0f, -0.875f},
  };
  // The serial reference: index-order sum, one accumulator per element.
  std::vector<float> want(parts[0].size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    float acc = parts[0][i];
    for (std::size_t j = 1; j < parts.size(); ++j) acc += parts[j][i];
    want[i] = acc / static_cast<float>(parts.size());
  }
  const auto ring =
      replica::reduce_mean(parts, replica::AllReduceAlgo::Ring);
  const auto tree =
      replica::reduce_mean(parts, replica::AllReduceAlgo::Tree);
  ASSERT_EQ(ring.size(), want.size());
  ASSERT_EQ(tree.size(), want.size());
  EXPECT_EQ(std::memcmp(ring.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(tree.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
}

TEST(AllReduce, StepCountsMatchTheTimingModel) {
  using replica::AllReduceAlgo;
  // A single replica never touches the link.
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Ring, 1), 0);
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Tree, 1), 0);
  // Ring: 2(K-1) (reduce-scatter + all-gather).
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Ring, 2), 2);
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Ring, 4), 6);
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Ring, 8), 14);
  // Tree: 2*ceil(log2 K) (reduce-to-root + broadcast).
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Tree, 2), 2);
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Tree, 3), 4);
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Tree, 4), 4);
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Tree, 5), 6);
  EXPECT_EQ(replica::allreduce_steps(AllReduceAlgo::Tree, 8), 6);
}

TEST(AllReduce, StepBytesAndTimesFollowTheLinkModel) {
  using replica::AllReduceAlgo;
  replica::LinkModel link;
  link.latency_us = 5.0;
  link.gb_per_s = 50.0;  // 50,000 bytes per microsecond.
  // Ring moves ceil(bytes/K) per step; tree the full payload.
  EXPECT_EQ(replica::allreduce_step_bytes(AllReduceAlgo::Ring, 4, 1000001u),
            250001u);
  EXPECT_EQ(replica::allreduce_step_bytes(AllReduceAlgo::Tree, 4, 1000001u),
            1000001u);
  EXPECT_DOUBLE_EQ(
      replica::allreduce_step_us(AllReduceAlgo::Tree, 4, 1000000u, link),
      5.0 + 1000000.0 / 50000.0);
  EXPECT_DOUBLE_EQ(
      replica::allreduce_step_us(AllReduceAlgo::Ring, 4, 1000000u, link),
      5.0 + 250000.0 / 50000.0);
  EXPECT_DOUBLE_EQ(
      replica::allreduce_total_us(AllReduceAlgo::Ring, 4, 1000000u, link),
      6.0 * (5.0 + 250000.0 / 50000.0));
  EXPECT_DOUBLE_EQ(
      replica::allreduce_total_us(AllReduceAlgo::Tree, 4, 1000000u, link),
      4.0 * (5.0 + 1000000.0 / 50000.0));
  // K=1: zero steps, zero total.
  EXPECT_DOUBLE_EQ(
      replica::allreduce_total_us(AllReduceAlgo::Ring, 1, 1000000u, link),
      0.0);
}

}  // namespace
}  // namespace pipad
