// PiPAD runtime tests: numerical agreement with the baselines, end-to-end
// speedup, tuner behaviour, reuse buffers, and the ablation toggles.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/compute_pool.hpp"
#include "pipad/offline_analysis.hpp"
#include "pipad/reuse.hpp"
#include "replica/replica_trainer.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using models::Method;
using models::ModelType;
using models::TrainConfig;
using models::TrainResult;
using replica::ReplicaTrainer;
using runtime::PipadOptions;

using testutil::small_cfg;
using testutil::train_snapshot;
using testutil::weighted_tiny;

TEST(Pipad, LossesMatchPygtBaseline) {
  const auto g = graph::generate(testutil::tiny_config(32, 10, 2));
  gpusim::Gpu gpu_b, gpu_p;
  ReplicaTrainer base(gpu_b, g, small_cfg(), Method::PyGT);
  ReplicaTrainer pip(gpu_p, g, small_cfg());
  const auto rb = base.train();
  const auto rp = pip.train();
  ASSERT_EQ(rb.frame_loss.size(), rp.frame_loss.size());
  for (std::size_t i = 0; i < rb.frame_loss.size(); ++i) {
    EXPECT_NEAR(rp.frame_loss[i], rb.frame_loss[i],
                2e-3f * (1.0f + std::abs(rb.frame_loss[i])))
        << "frame " << i;
  }
}

class PipadAllModels : public ::testing::TestWithParam<ModelType> {};

TEST_P(PipadAllModels, MatchesBaselineAndIsFaster) {
  const auto g = graph::generate(testutil::tiny_config(64, 12, 2));
  gpusim::Gpu gpu_b, gpu_p;
  ReplicaTrainer base(gpu_b, g, small_cfg(GetParam()), Method::PyGT);
  ReplicaTrainer pip(gpu_p, g, small_cfg(GetParam()));
  const auto rb = base.train();
  const auto rp = pip.train();
  for (std::size_t i = 0; i < rb.frame_loss.size(); ++i) {
    EXPECT_NEAR(rp.frame_loss[i], rb.frame_loss[i],
                5e-3f * (1.0f + std::abs(rb.frame_loss[i])));
  }
  EXPECT_LT(rp.total_us, rb.total_us)
      << models::model_type_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, PipadAllModels,
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

// ---------- Determinism across thread counts (ComputePool hot path) ----------

class PipadThreadDeterminism : public ::testing::TestWithParam<ModelType> {};

TEST_P(PipadThreadDeterminism, LossesAndGradientsBitIdentical) {
  // Sized so the aggregation + GEMM kernels genuinely fan out at 8 threads
  // (above ComputePool::kMinRegionWork), not just fall back to serial.
  const auto g = graph::generate(testutil::tiny_config(512, 10, 8));
  auto cfg = small_cfg();
  cfg.hidden_dim = 16;
  const auto [loss1, par1] = train_snapshot(g, cfg, 1, GetParam());
  const auto [loss8, par8] = train_snapshot(g, cfg, 8, GetParam());
  ASSERT_EQ(loss1.size(), loss8.size());
  ASSERT_FALSE(loss1.empty());
  for (std::size_t i = 0; i < loss1.size(); ++i) {
    // Bitwise: the blocked kernels must not change any rounding.
    EXPECT_EQ(loss1[i], loss8[i]) << "frame " << i;
  }
  ASSERT_EQ(par1.size(), par8.size());
  for (std::size_t i = 0; i < par1.size(); ++i) {
    ASSERT_EQ(par1[i], par8[i]) << "param/grad elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, PipadThreadDeterminism,
                         ::testing::Values(ModelType::TGcn,
                                           ModelType::MpnnLstm),
                         [](const auto& info) {
                           std::string n = models::model_type_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---------- Edge-weighted datasets ----------

TEST(Pipad, WeightedLossesMatchBaselinesAndDifferFromUnweighted) {
  const auto gw = weighted_tiny(32, 10, 2);
  gpusim::Gpu gpu_coo, gpu_ge, gpu_p;
  // PyGT exercises the weighted COO scatter path, PyGT-G the weighted
  // GE-SpMM forward/backward pair; PiPAD runs the stripe-weighted sliced
  // kernels. All three must agree on the math.
  ReplicaTrainer coo(gpu_coo, gw, small_cfg(), Method::PyGT);
  ReplicaTrainer ge(gpu_ge, gw, small_cfg(), Method::PyGTG);
  ReplicaTrainer pip(gpu_p, gw, small_cfg());
  const auto rc = coo.train();
  const auto rg = ge.train();
  const auto rp = pip.train();
  ASSERT_EQ(rc.frame_loss.size(), rp.frame_loss.size());
  ASSERT_EQ(rg.frame_loss.size(), rp.frame_loss.size());
  for (std::size_t i = 0; i < rc.frame_loss.size(); ++i) {
    EXPECT_NEAR(rp.frame_loss[i], rc.frame_loss[i],
                2e-3f * (1.0f + std::abs(rc.frame_loss[i])))
        << "frame " << i;
    EXPECT_NEAR(rp.frame_loss[i], rg.frame_loss[i],
                2e-3f * (1.0f + std::abs(rg.frame_loss[i])))
        << "frame " << i;
  }

  // The weights must actually reach the numerics: the same topology without
  // them trains to different losses.
  const auto gu = graph::generate(testutil::tiny_config(32, 10, 2));
  gpusim::Gpu gpu_u;
  ReplicaTrainer unweighted(gpu_u, gu, small_cfg());
  const auto ru = unweighted.train();
  ASSERT_EQ(ru.frame_loss.size(), rp.frame_loss.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < ru.frame_loss.size(); ++i) {
    any_diff = any_diff || ru.frame_loss[i] != rp.frame_loss[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(Pipad, WeightedLossesAndGradientsBitIdenticalAcrossThreadCounts) {
  const auto g = weighted_tiny(512, 10, 8);
  auto cfg = small_cfg();
  cfg.hidden_dim = 16;
  const auto [loss1, par1] = train_snapshot(g, cfg, 1, ModelType::TGcn);
  const auto [loss8, par8] = train_snapshot(g, cfg, 8, ModelType::TGcn);
  ASSERT_EQ(loss1.size(), loss8.size());
  ASSERT_FALSE(loss1.empty());
  for (std::size_t i = 0; i < loss1.size(); ++i) {
    EXPECT_EQ(loss1[i], loss8[i]) << "frame " << i;
  }
  ASSERT_EQ(par1.size(), par8.size());
  for (std::size_t i = 0; i < par1.size(); ++i) {
    ASSERT_EQ(par1[i], par8[i]) << "param/grad elem " << i;
  }
}

TEST(Pipad, BaselineLossesBitIdenticalAcrossThreadCounts) {
  // The PyGT family shares the pooled kernels; its losses must be equally
  // thread-count-invariant.
  const auto g = graph::generate(testutil::tiny_config(256, 8, 4));
  auto run = [&](int threads) {
    ComputePool::instance().configure(static_cast<std::size_t>(threads));
    gpusim::Gpu gpu;
    ReplicaTrainer base(gpu, g, small_cfg(ModelType::TGcn), Method::PyGTG);
    return base.train().frame_loss;
  };
  const auto l1 = run(1);
  const auto l8 = run(8);
  ComputePool::instance().configure(0);
  ASSERT_EQ(l1.size(), l8.size());
  for (std::size_t i = 0; i < l1.size(); ++i) {
    EXPECT_EQ(l1[i], l8[i]) << "frame " << i;
  }
}

TEST(Pipad, NumericComputeIsChargedToTheDeviceOnly) {
  // The stand-in C++ math runs for real on the ComputePool, but its wall
  // time never reaches the modeled timeline: kernels are charged to the
  // device's Compute engine from the cost model, and no worker-lane
  // compute:* op exists — for PiPAD and for the baselines alike. The
  // workload is large enough that every region fans out over the pool.
  const auto g = graph::generate(testutil::tiny_config(512, 10, 8));
  auto cfg = small_cfg(ModelType::TGcn);
  cfg.hidden_dim = 16;
  gpusim::Gpu gpu_p, gpu_b;
  PipadOptions opts;
  opts.host_threads = 4;
  ReplicaTrainer pip(gpu_p, g, cfg, Method::PiPAD, opts);
  pip.train();
  ReplicaTrainer base(gpu_b, g, cfg, Method::PyGT);
  base.train();
  for (const gpusim::Gpu* gpu : {&gpu_p, &gpu_b}) {
    const auto& tl = gpu->timeline();
    EXPECT_GT(tl.busy_us(gpusim::Resource::Compute), 0.0);
    std::size_t host_compute_ops = 0;
    for (const auto& rec : tl.records()) {
      if (rec.name.rfind("compute:", 0) == 0) ++host_compute_ops;
    }
    EXPECT_EQ(host_compute_ops, 0u);
  }
  ComputePool::instance().configure(0);
}

TEST(Pipad, TunerPicksFromConfiguredOptions) {
  const auto g = graph::generate(testutil::tiny_config(64, 16, 2));
  gpusim::Gpu gpu;
  auto cfg = small_cfg();
  cfg.frame_size = 8;
  ReplicaTrainer pip(gpu, g, cfg);
  pip.train();
  ASSERT_FALSE(pip.sper_decisions().empty());
  for (const auto& [start, s] : pip.sper_decisions()) {
    EXPECT_TRUE(s == 1 || s == 2 || s == 4 || s == 8) << "S_per=" << s;
  }
}

TEST(Pipad, TunerRespectsMemoryBound) {
  // §5.2: on memory-constrained devices the tuner must settle for lower
  // parallelism than it would pick with abundant memory — and never OOM.
  const auto g = graph::generate(testutil::tiny_config(1024, 12, 4));
  auto cfg = small_cfg(ModelType::TGcn);
  cfg.frame_size = 8;
  cfg.hidden_dim = 8;

  auto max_sper = [&](std::size_t device_bytes) {
    gpusim::SimConfig sc;
    sc.device_mem_bytes = device_bytes;
    gpusim::Gpu gpu(sc);
    ReplicaTrainer pip(gpu, g, cfg);
    const auto r = pip.train();  // Must not throw OutOfMemoryError.
    EXPECT_FALSE(r.frame_loss.empty());
    int max_s = 0;
    for (const auto& [start, s] : pip.sper_decisions()) {
      max_s = std::max(max_s, s);
    }
    return max_s;
  };

  const int roomy = max_sper(16ull << 30);
  const int tight = max_sper(1500 * 1024);
  EXPECT_LT(tight, roomy);
  EXPECT_GE(tight, 1);
}

TEST(Pipad, ForcedSperOverridesTuner) {
  const auto g = graph::generate(testutil::tiny_config(64, 16, 2));
  gpusim::Gpu gpu;
  auto cfg = small_cfg();
  cfg.frame_size = 8;
  PipadOptions opts;
  opts.forced_sper = 2;
  ReplicaTrainer pip(gpu, g, cfg, Method::PiPAD, opts);
  pip.train();
  EXPECT_TRUE(pip.sper_decisions().empty());  // Tuner bypassed entirely.
}

TEST(DecideSper, ForcedSperBypassesEverythingButTheFrameSize) {
  // The trainer clamps a forced S_per to the frame before the tuner is
  // consulted, so asking for 32 at frame size 8 is asking for 8: same
  // losses, params and schedule, bit for bit.
  const auto g = graph::generate(testutil::tiny_config(64, 16, 2));
  auto cfg = small_cfg();
  cfg.frame_size = 8;
  struct Run {
    TrainResult result;
    std::vector<float> params;
    std::vector<gpusim::OpRecord> records;
  };
  const auto run = [&](int forced) {
    gpusim::Gpu gpu;
    PipadOptions opts;
    opts.forced_sper = forced;
    ReplicaTrainer pip(gpu, g, cfg, Method::PiPAD, opts);
    Run r{pip.train(), testutil::flat_params(pip.model()),
          gpu.timeline().records()};
    EXPECT_TRUE(pip.sper_decisions().empty());
    return r;
  };
  const Run at8 = run(8);
  const Run at32 = run(32);
  ASSERT_FALSE(at8.result.frame_loss.empty());
  ASSERT_EQ(at32.result.frame_loss.size(), at8.result.frame_loss.size());
  EXPECT_EQ(std::memcmp(at32.result.frame_loss.data(),
                        at8.result.frame_loss.data(),
                        at8.result.frame_loss.size() * sizeof(float)),
            0);
  ASSERT_EQ(at32.params.size(), at8.params.size());
  EXPECT_EQ(std::memcmp(at32.params.data(), at8.params.data(),
                        at8.params.size() * sizeof(float)),
            0);
  EXPECT_EQ(at32.result.total_us, at8.result.total_us);
  ASSERT_EQ(at32.records.size(), at8.records.size());
  for (std::size_t i = 0; i < at8.records.size(); ++i) {
    const auto& a = at32.records[i];
    const auto& b = at8.records[i];
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.resource, b.resource) << i;
    EXPECT_EQ(a.start_us, b.start_us) << i;
    EXPECT_EQ(a.end_us, b.end_us) << i;
    EXPECT_EQ(a.bytes, b.bytes) << i;
  }
}

TEST(Pipad, ReuseReducesTransferAndAggregation) {
  const auto g = graph::generate(testutil::tiny_config(64, 12, 2));
  auto run = [&](bool reuse) {
    gpusim::Gpu gpu;
    PipadOptions opts;
    opts.enable_reuse = reuse;
    ReplicaTrainer pip(gpu, g, small_cfg(ModelType::TGcn), Method::PiPAD, opts);
    return pip.train();
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_LT(with.agg_stats.global_transactions,
            without.agg_stats.global_transactions);
  EXPECT_LT(with.total_us, without.total_us);
}

TEST(Pipad, CudaGraphBatchingReducesHostTime) {
  const auto g = graph::generate(testutil::tiny_config(48, 10, 2));
  auto run = [&](bool graph) {
    gpusim::Gpu gpu;
    PipadOptions opts;
    opts.enable_cuda_graph = graph;
    ReplicaTrainer pip(gpu, g, small_cfg(), Method::PiPAD, opts);
    return pip.train();
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_LT(with.host_us, without.host_us);
  EXPECT_LE(with.total_us, without.total_us * 1.01);
}

TEST(Pipad, PipelineOverlapsTransferWithCompute) {
  // Structure, not totals. The graph is scaled (sim_scale) and
  // feature-heavy so the modeled copies dwarf every host cost; then the
  // pipelined run's partition copies run under kernels without ever
  // blocking the issuing CPU, while the synchronous run's CPU waits out its
  // copies ("sync:partition").
  auto g = graph::generate(testutil::tiny_config(96, 12, 64));
  g.sim_scale = 1000;
  struct Shape {
    double overlap_us = 0.0;  ///< Partition H2D time shared with kernels.
    double sync_us = 0.0;     ///< CPU time blocked on partition copies.
  };
  auto run = [&](bool pipeline) {
    gpusim::Gpu gpu;
    PipadOptions opts;
    opts.enable_pipeline = pipeline;
    ReplicaTrainer pip(gpu, g, small_cfg(), Method::PiPAD, opts);
    pip.train();
    const auto& recs = gpu.timeline().records();
    Shape s;
    for (const auto& copy : recs) {
      if (copy.name == "sync:partition") s.sync_us += copy.end_us - copy.start_us;
      if (copy.name != "h2d:partition") continue;
      for (const auto& k : recs) {
        if (k.resource != gpusim::Resource::Compute) continue;
        s.overlap_us += std::max(0.0, std::min(copy.end_us, k.end_us) -
                                          std::max(copy.start_us, k.start_us));
      }
    }
    return s;
  };
  const Shape with = run(true);
  const Shape without = run(false);
  EXPECT_GT(with.overlap_us, 0.0);
  EXPECT_EQ(with.sync_us, 0.0);
  EXPECT_GT(without.sync_us, 0.0);
}

TEST(Pipad, LossKeepsDecreasingAcrossEpochs) {
  const auto g = graph::generate(testutil::tiny_config(48, 10, 2));
  gpusim::Gpu gpu;
  auto cfg = small_cfg();
  cfg.epochs = 6;
  cfg.lr = 5e-3f;
  ReplicaTrainer pip(gpu, g, cfg);
  const auto r = pip.train();
  ASSERT_GE(r.frame_loss.size(), 12u);
  EXPECT_LT(r.frame_loss.back(), r.frame_loss.front());
  for (float l : r.frame_loss) EXPECT_TRUE(std::isfinite(l));
}

// ---------- GPU reuse buffer ----------

TEST(ReuseBuffer, EvictsOldestWhenOverBudget) {
  gpusim::Device dev(1 << 20);
  runtime::GpuReuseBuffer buf(dev);
  buf.set_budget(300);
  EXPECT_TRUE(buf.insert(1, 100));
  EXPECT_TRUE(buf.insert(2, 100));
  EXPECT_TRUE(buf.insert(3, 100));
  EXPECT_TRUE(buf.insert(4, 100));  // Evicts snapshot 1.
  EXPECT_FALSE(buf.contains(1));
  EXPECT_TRUE(buf.contains(2) && buf.contains(3) && buf.contains(4));
  EXPECT_EQ(buf.used(), 300u);
  EXPECT_EQ(dev.used(), 300u);
}

TEST(ReuseBuffer, RejectsEntriesLargerThanBudget) {
  gpusim::Device dev(1 << 20);
  runtime::GpuReuseBuffer buf(dev);
  buf.set_budget(50);
  EXPECT_FALSE(buf.insert(1, 100));
  EXPECT_EQ(dev.used(), 0u);
}

TEST(ReuseBuffer, EvictBeforeDropsStaleEntriesAndReleasesMemory) {
  gpusim::Device dev(1 << 20);
  runtime::GpuReuseBuffer buf(dev);
  buf.set_budget(1000);
  for (int t = 0; t < 8; ++t) buf.insert(t, 50);
  buf.evict_before(5);
  EXPECT_EQ(buf.entries(), 3u);
  EXPECT_EQ(dev.used(), 150u);
}

// ---------- Offline analysis (Fig. 9 shapes) ----------

TEST(OfflineAnalysis, SpeedupGrowsWithOverlapRate) {
  // Workload sized so kernels clear the launch-latency floor.
  gpusim::CostModel cm((gpusim::SimConfig()));
  runtime::WorkloadShape w{200000, 2000000, 2, 6, 32, 4};
  const double lo = runtime::estimate_parallel_speedup(cm, w, 4, 0.2);
  const double hi = runtime::estimate_parallel_speedup(cm, w, 4, 0.9);
  EXPECT_GT(hi, lo);
  EXPECT_GT(hi, 1.0);
}

TEST(OfflineAnalysis, LargerSperWinsAtEqualOverlap) {
  // Fig. 9a: under the same OR, larger S_per is preferred.
  gpusim::CostModel cm((gpusim::SimConfig()));
  runtime::WorkloadShape w{200000, 2000000, 2, 6, 32, 4};
  const double s2 = runtime::estimate_parallel_speedup(cm, w, 2, 0.8);
  const double s4 = runtime::estimate_parallel_speedup(cm, w, 4, 0.8);
  const double s8 = runtime::estimate_parallel_speedup(cm, w, 8, 0.8);
  EXPECT_GT(s4, s2);
  EXPECT_GT(s8, s4);
}

TEST(OfflineAnalysis, ParallelNeverSlowerThanSequentialAtFullOverlap) {
  gpusim::CostModel cm((gpusim::SimConfig()));
  for (int f : {2, 8, 16, 64}) {
    runtime::WorkloadShape w{8000, 40000, f, 32, 32, 4};
    for (int s : {2, 4, 8}) {
      EXPECT_GE(runtime::estimate_parallel_speedup(cm, w, s, 1.0), 1.0)
          << "F=" << f << " S=" << s;
    }
  }
}

}  // namespace
}  // namespace pipad
