// Property tests: N seeded-random (graph, model, config, threads, replicas)
// points, each holding three repo-wide invariants:
//   1. Determinism across widths — training is bit-identical whatever the
//      pool width and replica count.
//   2. The critical path through the trace DAG accounts for the makespan
//      exactly (durations + gaps == makespan, dag.hpp's contract).
//   3. Unit edge weights are numerically invisible: a weighted graph with
//      every weight 1.0 trains to the same bits as the unweighted graph.
// Every assertion runs under a SCOPED_TRACE that prints the failing seed,
// so a red run replays with a one-line local repro.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "analyze/dag.hpp"
#include "analyze/trace_data.hpp"
#include "gpusim/gpu.hpp"
#include "graph/generator.hpp"
#include "models/training.hpp"
#include "replica/replica_trainer.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using testutil::flat_params;
using testutil::tiny_config;

/// One random point in the configuration space, drawn from a seed.
struct RandomPoint {
  graph::DatasetConfig dataset;
  models::TrainConfig train;
  int threads = 1;
  int replicas = 1;

  std::string describe(std::uint64_t seed) const {
    std::string s = "seed=";
    s += std::to_string(seed);
    s += " nodes=" + std::to_string(dataset.num_nodes);
    s += " snapshots=" + std::to_string(dataset.num_snapshots);
    s += " feat=" + std::to_string(dataset.feat_dim);
    s += " model=" + std::to_string(static_cast<int>(train.model));
    s += " frame_size=" + std::to_string(train.frame_size);
    s += " threads=" + std::to_string(threads);
    s += " replicas=" + std::to_string(replicas);
    return s;
  }
};

RandomPoint draw(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  RandomPoint p;
  p.dataset = tiny_config(pick(24, 56), pick(6, 10), pick(2, 4),
                          /*seed=*/rng());
  const models::ModelType kModels[] = {models::ModelType::TGcn,
                                       models::ModelType::EvolveGcn,
                                       models::ModelType::MpnnLstm};
  p.train.model = kModels[pick(0, 2)];
  p.train.frame_size = pick(2, 4);
  p.train.epochs = 2;  // 1 preparing + 1 steady.
  p.train.max_frames_per_epoch = pick(2, 4);
  p.train.hidden_dim = pick(4, 8);
  p.threads = pick(2, 8);
  p.replicas = pick(2, 4);
  return p;
}

struct RunOutput {
  std::vector<float> losses;
  std::vector<float> params;
};

RunOutput run_point(const graph::DTDG& g, const RandomPoint& p, int threads,
                    int replicas, gpusim::Gpu* out_gpu = nullptr) {
  gpusim::Gpu local;
  gpusim::Gpu& gpu = out_gpu != nullptr ? *out_gpu : local;
  runtime::PipadOptions opts;
  opts.host_threads = threads;
  opts.replicas = replicas;
  replica::ReplicaTrainer trainer(gpu, g, p.train, opts);
  RunOutput out;
  out.losses = trainer.train().frame_loss;
  out.params = flat_params(trainer.model());
  return out;
}

void expect_bitwise_equal(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  ASSERT_FALSE(a.losses.empty());
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i], b.losses[i]) << "frame " << i;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  EXPECT_EQ(std::memcmp(a.params.data(), b.params.data(),
                        a.params.size() * sizeof(float)),
            0);
}

constexpr std::uint64_t kBaseSeed = 20260808;
constexpr int kPoints = 6;

TEST(Property, TrainingIsDeterministicAcrossWidths) {
  for (int n = 0; n < kPoints; ++n) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(n);
    const RandomPoint p = draw(seed);
    SCOPED_TRACE(p.describe(seed));
    const auto g = graph::generate(p.dataset);
    // Reference: serial, single replica (through the same round-based
    // replica path, so the semantics under comparison are identical).
    const RunOutput ref = run_point(g, p, /*threads=*/1, /*replicas=*/1);
    // Wide pool, same replica count.
    expect_bitwise_equal(ref, run_point(g, p, p.threads, 1));
    // Random replica count, serial and wide pools.
    expect_bitwise_equal(ref, run_point(g, p, 1, p.replicas));
    expect_bitwise_equal(ref, run_point(g, p, p.threads, p.replicas));
  }
}

TEST(Property, CriticalPathAccountsForTheMakespan) {
  for (int n = 0; n < kPoints; ++n) {
    const std::uint64_t seed = kBaseSeed + 1000 + static_cast<std::uint64_t>(n);
    const RandomPoint p = draw(seed);
    SCOPED_TRACE(p.describe(seed));
    const auto g = graph::generate(p.dataset);
    // A one-device run with a step after every frame (replicas=0) and a
    // replicated run both obey the DAG contract: critical path (durations
    // + gaps) == makespan.
    for (const int replicas : {0, p.replicas}) {
      SCOPED_TRACE(replicas);
      gpusim::Gpu gpu;
      run_point(g, p, p.threads, replicas, &gpu);
      const auto td = analyze::from_timeline(gpu.timeline());
      ASSERT_GT(td.makespan_us, 0.0);
      const auto cp = analyze::critical_path(td, analyze::build_dag(td));
      // Exact by construction up to summation order: the path accumulates
      // durations+gaps in chain order, the makespan in submit order, so
      // random timelines differ by a few double ULPs.
      EXPECT_NEAR(cp.total_us, td.makespan_us, 1e-6);
    }
  }
}

TEST(Property, UnitEdgeWeightsAreNumericallyInvisible) {
  for (int n = 0; n < kPoints; ++n) {
    const std::uint64_t seed = kBaseSeed + 2000 + static_cast<std::uint64_t>(n);
    const RandomPoint p = draw(seed);
    SCOPED_TRACE(p.describe(seed));
    const auto plain = graph::generate(p.dataset);
    auto unit = graph::generate(p.dataset);
    for (auto& snap : unit.snapshots) {
      snap.edge_w.assign(static_cast<std::size_t>(snap.adj.nnz()), 1.0f);
    }
    const RunOutput a = run_point(plain, p, p.threads, p.replicas);
    const RunOutput b = run_point(unit, p, p.threads, p.replicas);
    expect_bitwise_equal(a, b);
  }
}

}  // namespace
}  // namespace pipad
