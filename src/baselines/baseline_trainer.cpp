#include "baselines/baseline_trainer.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "kernels/aggregate.hpp"
#include "kernels/stats_builders.hpp"
#include "nn/optim.hpp"
#include "tensor/ops.hpp"

namespace pipad::baselines {

using gpusim::EventId;
using gpusim::KernelStats;
using gpusim::StreamId;
using models::TrainConfig;
using models::TrainResult;

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::PyGT:
      return "PyGT";
    case Variant::PyGTA:
      return "PyGT-A";
    case Variant::PyGTR:
      return "PyGT-R";
    case Variant::PyGTG:
      return "PyGT-G";
  }
  return "?";
}

namespace {

/// Per-snapshot executor: every kernel is launched individually on the
/// compute stream, paying driver + framework overhead (no CUDA graphs in
/// the PyGT stack).
class BaselineExecutor final : public models::FrameExecutor,
                               public kernels::KernelRecorder {
 public:
  BaselineExecutor(gpusim::Gpu& gpu, const graph::DTDG& data,
                   Variant variant, double framework_us)
      : gpu_(gpu),
        data_(data),
        variant_(variant),
        framework_us_(framework_us),
        compute_(gpu.create_stream("compute")) {
    coo_.resize(data.num_snapshots());
    coo_t_.resize(data.num_snapshots());
    deg_.resize(data.num_snapshots());
    w_t_.resize(data.num_snapshots());
  }

  StreamId compute_stream() const { return compute_; }

  void begin_frame(const graph::Frame& frame,
                   std::vector<std::optional<EventId>> snapshot_ready,
                   std::vector<bool> serve_from_cache) {
    frame_ = frame;
    ready_ = std::move(snapshot_ready);
    from_cache_ = std::move(serve_from_cache);
    waited_.assign(frame_.size, false);
  }

  // ---- KernelRecorder ----
  void record(const std::string& name, const KernelStats& stats) override {
    // Scale-reduced datasets report full-size work (DTDG::sim_scale).
    gpu_.launch_kernel(compute_, name,
                       stats.scaled(static_cast<double>(data_.sim_scale)),
                       framework_us_);
  }

  // ---- FrameExecutor ----
  std::vector<Tensor> aggregate(const std::vector<const Tensor*>& xs,
                                int layer_id,
                                const std::string& tag) override {
    PIPAD_CHECK(static_cast<int>(xs.size()) == frame_.size);
    std::vector<Tensor> out(xs.size());
    for (int i = 0; i < frame_.size; ++i) {
      const int t = frame_.start + i;
      wait_snapshot(i);
      if (layer_id == 0 && from_cache_[i]) {
        // Result arrived with the frame's H2D transfer; no kernel runs.
        out[i] = cache_.at(t);
        continue;
      }
      const auto& snap = data_.snapshots[t];
      const auto* w = snap.weighted() ? &snap.edge_w : nullptr;
      Tensor agg(xs[i]->rows(), xs[i]->cols());
      KernelStats st;
      if (variant_ == Variant::PyGTG) {
        st = kernels::agg_gespmm(snap.adj, *xs[i], agg, false, w);
        record("agg:gespmm:" + tag, st);
      } else {
        // coo_from_csr preserves CSR nnz order, so edge_w passes through.
        st = kernels::agg_coo(coo(t), *xs[i], agg, false, w);
        record("agg:coo:" + tag, st);
      }
      Tensor h(agg.rows(), agg.cols());
      record("normalize:" + tag,
             kernels::gcn_normalize(degrees(t), *xs[i], agg, h));
      if (layer_id == 0 && reuse_enabled()) cache_[t] = h;
      out[i] = std::move(h);
    }
    return out;
  }

  std::vector<Tensor> aggregate_backward(const std::vector<Tensor>& d_h,
                                         int layer_id,
                                         const std::string& tag) override {
    PIPAD_CHECK(layer_id > 0);
    std::vector<Tensor> out(d_h.size());
    for (int i = 0; i < static_cast<int>(d_h.size()); ++i) {
      const int t = frame_.start + i;
      const auto& snap = data_.snapshots[t];
      const auto* wt = snap.weighted() ? &weights_t(t) : nullptr;
      Tensor d_agg(d_h[i].rows(), d_h[i].cols());
      Tensor d_direct(d_h[i].rows(), d_h[i].cols());
      record("normalize:" + tag + ".bwd",
             kernels::gcn_normalize_backward(degrees(t), d_h[i], d_agg,
                                             d_direct));
      Tensor d_x(d_h[i].rows(), d_h[i].cols());
      KernelStats st;
      if (variant_ == Variant::PyGTG) {
        st = kernels::agg_gespmm(snap.adj_t, d_agg, d_x, false, wt);
        record("agg:gespmm:" + tag + ".bwd", st);
      } else {
        st = kernels::agg_coo(coo_t(t), d_agg, d_x, false, wt);
        record("agg:coo:" + tag + ".bwd", st);
      }
      ops::add_inplace(d_x, d_direct);
      record("ew:" + tag + ".bwd.add",
             kernels::elementwise_stats(d_x.size(), 2, 1));
      out[i] = std::move(d_x);
    }
    return out;
  }

  std::vector<Tensor> update(const std::vector<const Tensor*>& hs,
                             nn::Linear& lin,
                             const std::string& tag) override {
    std::vector<Tensor> out(hs.size());
    for (std::size_t i = 0; i < hs.size(); ++i) {
      out[i] = lin.forward(*hs[i], this, tag);
    }
    return out;
  }

  std::vector<Tensor> update_backward(const std::vector<Tensor>& d_y,
                                      const std::vector<const Tensor*>& hs,
                                      nn::Linear& lin,
                                      const std::string& tag) override {
    PIPAD_CHECK(d_y.size() == hs.size());
    std::vector<Tensor> out(d_y.size());
    for (std::size_t i = 0; i < d_y.size(); ++i) {
      out[i] = lin.backward(*hs[i], d_y[i], this, tag);
    }
    return out;
  }

  kernels::KernelRecorder* recorder() override { return this; }

  bool reuse_enabled() const {
    return variant_ == Variant::PyGTR || variant_ == Variant::PyGTG;
  }
  bool has_cached(int snapshot) const { return cache_.count(snapshot) > 0; }

 private:
  void wait_snapshot(int frame_offset) {
    if (waited_[frame_offset]) return;
    waited_[frame_offset] = true;
    if (ready_[frame_offset].has_value()) {
      gpu_.wait_event(compute_, *ready_[frame_offset]);
    }
  }

  const graph::COO& coo(int t) {
    if (!coo_[t].has_value()) coo_[t] = graph::coo_from_csr(data_.snapshots[t].adj);
    return *coo_[t];
  }
  const graph::COO& coo_t(int t) {
    if (!coo_t_[t].has_value()) {
      coo_t_[t] = graph::coo_from_csr(data_.snapshots[t].adj_t);
    }
    return *coo_t_[t];
  }
  const std::vector<float>& degrees(int t) {
    if (!deg_[t].has_value()) {
      const auto& snap = data_.snapshots[t];
      deg_[t] = kernels::degrees(snap.adj,
                                 snap.weighted() ? &snap.edge_w : nullptr);
    }
    return *deg_[t];
  }
  /// Backward weights: edge_w permuted into adj_t's nnz order. The COO
  /// transpose reuses the same arrays with row/col swapped, so this is the
  /// weight order both agg_coo(coo_t) and agg_gespmm(adj_t) need.
  const std::vector<float>& weights_t(int t) {
    if (!w_t_[t].has_value()) {
      const auto& snap = data_.snapshots[t];
      w_t_[t] = graph::transpose_weights(snap.adj, snap.edge_w);
    }
    return *w_t_[t];
  }

  gpusim::Gpu& gpu_;
  const graph::DTDG& data_;
  Variant variant_;
  double framework_us_;
  StreamId compute_;

  graph::Frame frame_{};
  std::vector<std::optional<EventId>> ready_;
  std::vector<bool> from_cache_;
  std::vector<bool> waited_;

  std::vector<std::optional<graph::COO>> coo_, coo_t_;
  std::vector<std::optional<std::vector<float>>> deg_;
  std::vector<std::optional<std::vector<float>>> w_t_;
  std::map<int, Tensor> cache_;  ///< snapshot -> normalized layer-0 agg.
};

}  // namespace

struct BaselineTrainer::Impl {
  gpusim::Gpu& gpu;
  const graph::DTDG& data;
  TrainConfig cfg;
  Variant variant;
  BaselineOptions opts;
  Rng rng;
  std::unique_ptr<models::DgnnModel> model;
  nn::Adam optim;
  BaselineExecutor exec;
  StreamId copy_stream;

  Impl(gpusim::Gpu& g, const graph::DTDG& d, TrainConfig c, Variant v,
       BaselineOptions o)
      : gpu(g),
        data(d),
        cfg(c),
        variant(v),
        opts(o),
        rng(c.seed),
        model(models::make_model(
            c.model, d.feat_dim,
            c.hidden_dim > 0 ? c.hidden_dim
                             : models::default_hidden_dim(d.feat_dim),
            rng)),
        optim(c.lr),
        exec(g, d, v, o.framework_us_per_launch),
        copy_stream(g.create_stream("copy")) {}

  bool async() const { return variant != Variant::PyGT; }

  /// H2D bytes for one snapshot of one frame given the cache state.
  std::size_t snapshot_bytes(int t, bool cached) const {
    const auto& snap = data.snapshots[t];
    const std::size_t n = static_cast<std::size_t>(data.num_nodes);
    const std::size_t feat = n * data.feat_dim * sizeof(float);
    const std::size_t targets = n * sizeof(float);
    std::size_t topo;
    if (variant == Variant::PyGTG) {
      // GE-SpMM ships CSR for forward and CSC for backward (§5.2).
      topo = snap.adj.transfer_bytes() + snap.adj_t.transfer_bytes();
    } else {
      // PyG ships COO (3 arrays per nnz); the backward transpose reuses the
      // same arrays with row/col swapped, so nothing extra moves.
      topo = 3 * snap.adj.nnz() * sizeof(int);
    }
    const std::size_t deg = n * sizeof(int);
    const std::size_t scale = static_cast<std::size_t>(data.sim_scale);
    topo *= scale;
    const std::size_t s_feat = feat * scale;
    const std::size_t s_targets = targets * scale;
    const std::size_t s_deg = deg * scale;
    if (cached) {
      const bool needs_topo = model->num_agg_layers() > 1;
      return s_feat + s_targets + (needs_topo ? topo + s_deg : 0);
    }
    return s_feat + s_targets + topo + s_deg;
  }

  TrainResult train() {
    TrainResult result;
    auto frames = graph::frames_of(data, cfg.frame_size);
    if (cfg.max_frames_per_epoch > 0 &&
        static_cast<int>(frames.size()) > cfg.max_frames_per_epoch) {
      frames.resize(cfg.max_frames_per_epoch);
    }
    auto params = model->params();

    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      for (const auto& frame : frames) {
        if (opts.cancel != nullptr &&
            opts.cancel->load(std::memory_order_relaxed)) {
          throw Cancelled();
        }
        // ---- Transfers ----
        std::vector<std::optional<EventId>> evs(frame.size);
        std::vector<bool> cached(frame.size, false);
        std::size_t frame_bytes = 0;
        for (int i = 0; i < frame.size; ++i) {
          const int t = frame.start + i;
          cached[i] = exec.reuse_enabled() && exec.has_cached(t);
          const std::size_t bytes = snapshot_bytes(t, cached[i]);
          frame_bytes += bytes;
          if (async()) {
            gpu.memcpy_h2d(copy_stream, "snapshot", bytes, /*pinned=*/true);
            evs[i] = gpu.record_event(copy_stream);
          } else {
            gpu.memcpy_h2d_sync(copy_stream, "snapshot", bytes,
                                /*pinned=*/false);
          }
        }

        // ---- Resident-data accounting (released at frame end) ----
        const int hid = cfg.hidden_dim > 0
                            ? cfg.hidden_dim
                            : models::default_hidden_dim(data.feat_dim);
        const std::size_t act_bytes =
            static_cast<std::size_t>(data.num_nodes) * hid * sizeof(float) *
            frame.size * (model->num_agg_layers() + 2) * data.sim_scale;
        gpusim::DeviceReservation res(gpu.device(), frame_bytes + act_bytes,
                                      "frame data");

        // ---- Compute ----
        exec.begin_frame(frame, evs, cached);
        std::vector<const Tensor*> xs, ys;
        for (int i = 0; i < frame.size; ++i) {
          xs.push_back(&data.snapshots[frame.start + i].features);
          ys.push_back(&data.targets[frame.start + i]);
        }
        nn::zero_grads(params);
        const float loss = model->train_frame(exec, xs, ys);
        result.frame_loss.push_back(loss);

        // ---- Optimizer (one elementwise kernel per parameter) ----
        optim.step(params);
        for (const auto* p : params) {
          exec.record("ew:optim",
                      kernels::elementwise_stats(p->value.size(), 3, 8));
        }
        gpu.memcpy_d2h(copy_stream, "loss", sizeof(float), async());
      }
    }
    models::summarize_timeline(gpu.timeline(), result);
    return result;
  }
};

BaselineTrainer::BaselineTrainer(gpusim::Gpu& gpu, const graph::DTDG& data,
                                 TrainConfig cfg, Variant variant,
                                 BaselineOptions opts)
    : impl_(std::make_unique<Impl>(gpu, data, cfg, variant, opts)) {}

BaselineTrainer::~BaselineTrainer() = default;

TrainResult BaselineTrainer::train() { return impl_->train(); }

models::DgnnModel& BaselineTrainer::model() { return *impl_->model; }

}  // namespace pipad::baselines
