// Shared helpers for model/trainer tests: tiny deterministic datasets, a
// plain sequential executor that computes ground-truth math with no
// simulation (for comparing every runtime against), trainer-setup fixtures
// shared by the pipad/tuner/analyze/replica/property suites, bitwise tensor
// checks, and analyzer shorthands.
#pragma once

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/report.hpp"
#include "common/compute_pool.hpp"
#include "gpusim/gpu.hpp"
#include "graph/generator.hpp"
#include "kernels/aggregate.hpp"
#include "models/executor.hpp"
#include "nn/parameter.hpp"
#include "replica/replica_trainer.hpp"
#include "tensor/ops.hpp"

namespace pipad::testutil {

inline graph::DatasetConfig tiny_config(int nodes = 40, int snapshots = 8,
                                        int feat = 3,
                                        std::uint64_t seed = 77) {
  graph::DatasetConfig cfg;
  cfg.name = "tiny";
  cfg.num_nodes = nodes;
  cfg.raw_events = nodes * 8;
  cfg.num_snapshots = snapshots;
  cfg.feat_dim = feat;
  cfg.edge_life = 4.0;
  cfg.seed = seed;
  return cfg;
}

/// Reference executor: per-snapshot ref_spmm + exact normalization; no
/// recorder, no simulation. The ground truth all runtimes must reproduce.
/// Weighted snapshots (Snapshot::edge_w non-empty) aggregate with per-edge
/// weights and weighted degrees, exactly like the runtimes under test.
class ReferenceExecutor final : public models::FrameExecutor {
 public:
  ReferenceExecutor(const graph::DTDG& data, graph::Frame frame)
      : data_(data), frame_(frame) {}

  void set_frame(graph::Frame frame) { frame_ = frame; }

  std::vector<Tensor> aggregate(const std::vector<const Tensor*>& xs, int,
                                const std::string&) override {
    std::vector<Tensor> out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const auto& snap = data_.snapshots[frame_.start + static_cast<int>(i)];
      const auto* w = snap.weighted() ? &snap.edge_w : nullptr;
      Tensor agg(xs[i]->rows(), xs[i]->cols());
      kernels::ref_spmm(snap.adj, *xs[i], agg, false, w);
      out[i] = Tensor(agg.rows(), agg.cols());
      kernels::gcn_normalize(kernels::degrees(snap.adj, w), *xs[i], agg,
                             out[i]);
    }
    return out;
  }

  std::vector<Tensor> aggregate_backward(const std::vector<Tensor>& d_h, int,
                                         const std::string&) override {
    std::vector<Tensor> out(d_h.size());
    for (std::size_t i = 0; i < d_h.size(); ++i) {
      const auto& snap = data_.snapshots[frame_.start + static_cast<int>(i)];
      const auto* w = snap.weighted() ? &snap.edge_w : nullptr;
      Tensor d_agg(d_h[i].rows(), d_h[i].cols());
      Tensor d_direct(d_h[i].rows(), d_h[i].cols());
      kernels::gcn_normalize_backward(kernels::degrees(snap.adj, w), d_h[i],
                                      d_agg, d_direct);
      out[i] = Tensor(d_h[i].rows(), d_h[i].cols());
      if (w == nullptr) {
        kernels::ref_spmm(snap.adj_t, d_agg, out[i]);
      } else {
        const auto w_t = graph::transpose_weights(snap.adj, snap.edge_w);
        kernels::ref_spmm(snap.adj_t, d_agg, out[i], false, &w_t);
      }
      ops::add_inplace(out[i], d_direct);
    }
    return out;
  }

  std::vector<Tensor> update(const std::vector<const Tensor*>& hs,
                             nn::Linear& lin,
                             const std::string& tag) override {
    std::vector<Tensor> out(hs.size());
    for (std::size_t i = 0; i < hs.size(); ++i) {
      out[i] = lin.forward(*hs[i], nullptr, tag);
    }
    return out;
  }

  std::vector<Tensor> update_backward(const std::vector<Tensor>& d_y,
                                      const std::vector<const Tensor*>& hs,
                                      nn::Linear& lin,
                                      const std::string& tag) override {
    std::vector<Tensor> out(d_y.size());
    for (std::size_t i = 0; i < d_y.size(); ++i) {
      out[i] = lin.backward(*hs[i], d_y[i], nullptr, tag);
    }
    return out;
  }

  kernels::KernelRecorder* recorder() override { return nullptr; }

 private:
  const graph::DTDG& data_;
  graph::Frame frame_;
};

inline std::vector<const Tensor*> frame_features(const graph::DTDG& g,
                                                 graph::Frame f) {
  std::vector<const Tensor*> out;
  for (int i = 0; i < f.size; ++i) {
    out.push_back(&g.snapshots[f.start + i].features);
  }
  return out;
}

inline std::vector<const Tensor*> frame_targets(const graph::DTDG& g,
                                                graph::Frame f) {
  std::vector<const Tensor*> out;
  for (int i = 0; i < f.size; ++i) out.push_back(&g.targets[f.start + i]);
  return out;
}

// ---------- Trainer-setup fixtures ----------

/// Two-epoch (1 preparing + 1 steady) config on a tiny frame — the shape
/// most runtime tests train at.
inline models::TrainConfig small_cfg(
    models::ModelType m = models::ModelType::MpnnLstm) {
  models::TrainConfig cfg;
  cfg.model = m;
  cfg.frame_size = 4;
  cfg.epochs = 2;
  cfg.max_frames_per_epoch = 3;
  cfg.hidden_dim = 6;
  return cfg;
}

/// Long-timeline config: every sliding frame of a 2-epoch T-GCN run, for
/// tests that need real streaming/backpressure behaviour.
inline models::TrainConfig long_cfg() {
  models::TrainConfig cfg;
  cfg.model = models::ModelType::TGcn;
  cfg.frame_size = 8;
  cfg.epochs = 2;  // 1 preparing + 1 steady.
  cfg.max_frames_per_epoch = 0;  // Every frame of the long timeline.
  cfg.hidden_dim = 6;
  return cfg;
}

/// Bitwise tensor equality: unlike ==, tells -0 from +0.
inline bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) && std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

/// Gaussian tensor with every seventh entry an exact +0 or -0, so bitwise
/// checks also cover signed-zero handling.
inline Tensor randn_with_zeros(int rows, int cols, Rng& rng) {
  Tensor t = Tensor::randn(rows, cols, rng);
  for (std::size_t i = 0; i < t.size(); i += 7) {
    t.data()[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  }
  return t;
}

/// Give every bias (1-row parameter) random values; biases start at zero,
/// which would leave the bias adds untested.
inline void randomize_biases(const std::vector<nn::Parameter*>& params,
                             Rng& rng) {
  for (auto* p : params) {
    if (p->value.rows() == 1) {
      p->value = Tensor::randn(1, p->value.cols(), rng, 0.3f);
    }
  }
}

/// Run `run` under a 1-wide and an 8-wide ComputePool, with the block floor
/// pinned at a quarter of kMinBlockWork so mid-sized regions really fan out,
/// and expect every returned tensor to match bit for bit.
inline void expect_same_bits_across_threads(
    const std::function<std::vector<Tensor>()>& run) {
  ComputePool::set_min_block_work(ComputePool::kMinBlockWork / 4);
  ComputePool::instance().configure(1);
  const std::vector<Tensor> serial = run();
  ComputePool::instance().configure(8);
  const std::vector<Tensor> wide = run();
  ComputePool::instance().configure(0);
  ComputePool::set_min_block_work(0);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(same_bits(serial[i], wide[i])) << "output " << i;
  }
}

/// Flat copy of every parameter tensor (value then grad, in param order) —
/// the bitwise-comparison payload of the determinism walls.
inline std::vector<float> flat_params(models::DgnnModel& model) {
  std::vector<float> out;
  for (const auto* p : model.params()) {
    out.insert(out.end(), p->value.storage().begin(),
               p->value.storage().end());
    out.insert(out.end(), p->grad.storage().begin(),
               p->grad.storage().end());
  }
  return out;
}

/// Train PiPAD with the given pool width; return per-frame losses and the
/// flat params+grads after training.
inline std::pair<std::vector<float>, std::vector<float>> train_snapshot(
    const graph::DTDG& g, const models::TrainConfig& cfg, int threads,
    models::ModelType model) {
  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.host_threads = threads;
  models::TrainConfig c = cfg;
  c.model = model;
  replica::ReplicaTrainer pip(gpu, g, c, opts);
  const auto r = pip.train();
  return {r.frame_loss, flat_params(pip.model())};
}

/// Train the long config at the given pool width.
inline models::TrainResult train_long(const graph::DTDG& g, int threads,
                                      std::map<int, int>* decisions = nullptr) {
  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.host_threads = threads;
  replica::ReplicaTrainer pip(gpu, g, long_cfg(), opts);
  const auto r = pip.train();
  if (decisions != nullptr) *decisions = pip.sper_decisions();
  return r;
}

/// Generated DTDG with deterministic per-snapshot edge weights: a pure
/// function of (src, dst, t), so overlapping topology carries genuinely
/// different values per member.
inline graph::DTDG weighted_tiny(int nodes, int snaps, int feat) {
  auto g = graph::generate(tiny_config(nodes, snaps, feat));
  for (std::size_t t = 0; t < g.snapshots.size(); ++t) {
    auto& snap = g.snapshots[t];
    snap.edge_w.resize(snap.adj.nnz());
    for (int r = 0; r < snap.adj.rows; ++r) {
      for (int i = snap.adj.row_ptr[r]; i < snap.adj.row_ptr[r + 1]; ++i) {
        snap.edge_w[i] =
            0.25f + 0.125f * static_cast<float>((snap.adj.col_idx[i] * 31 +
                                                 r * 7 +
                                                 static_cast<int>(t) * 13) %
                                                16);
      }
    }
  }
  return g;
}

// ---------- Analyzer shorthands ----------

inline analyze::Analysis analyze_timeline(const gpusim::Timeline& tl) {
  return analyze::analyze_trace(analyze::from_timeline(tl));
}

inline const analyze::Finding* find_pass(const analyze::Analysis& a,
                                         const std::string& pass) {
  for (const auto& f : a.findings) {
    if (f.pass == pass) return &f;
  }
  return nullptr;
}

inline std::string analysis_json(const analyze::Analysis& a,
                                 int threads = 1) {
  return analyze::report_json({a}, threads).dump();
}

}  // namespace pipad::testutil
