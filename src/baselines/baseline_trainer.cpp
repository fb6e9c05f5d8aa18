#include "baselines/baseline_trainer.hpp"

#include <map>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "kernels/aggregate.hpp"
#include "kernels/stats_builders.hpp"
#include "nn/optim.hpp"
#include "tensor/ops.hpp"

namespace pipad::baselines {

using gpusim::EventId;
using gpusim::KernelStats;
using gpusim::StreamId;
using models::Method;
using models::TrainConfig;
using models::TrainResult;

namespace {

/// Host-side framework overhead charged per kernel launch, on top of the
/// driver launch cost. PyGT is a Python framework; ~10 us/op matches the
/// profiler-visible gaps that keep small-dataset utilization low (§5.2).
constexpr double kFrameworkUsPerLaunch = 10.0;

/// The step engine of one PyGT variant, and the per-snapshot executor its
/// model trains through: every kernel is launched individually on the
/// compute stream, paying driver + framework overhead (no CUDA graphs in
/// the PyGT stack).
class BaselineTrainer final : public models::StepEngine,
                              public models::FrameExecutor,
                              public kernels::KernelRecorder {
 public:
  // The model draws its weights from the seeded Rng first; the compute
  // stream is created before the copy stream.
  BaselineTrainer(gpusim::Gpu& gpu, const graph::DTDG& data, TrainConfig cfg,
                  Method method)
      : gpu_(gpu),
        data_(data),
        cfg_(cfg),
        method_(method),
        hid_(models::hidden_dim(cfg, data.feat_dim)),
        rng_(cfg.seed),
        model_(models::make_model(cfg.model, data.feat_dim, hid_, rng_)),
        optim_(cfg.lr),
        compute_(gpu.create_stream("compute")),
        copy_(gpu.create_stream("copy")),
        params_(model_->params()),
        coo_(data.num_snapshots()),
        coo_t_(data.num_snapshots()),
        deg_(data.num_snapshots()),
        w_t_(data.num_snapshots()) {
    PIPAD_CHECK_MSG(method != Method::PiPAD, "PiPAD is not a PyGT baseline");
  }

  // ---- StepEngine ----
  models::DgnnModel& model() override { return *model_; }

  const std::vector<graph::Frame>& begin_steps() override {
    frames_ = graph::frames_of(data_, cfg_.frame_size,
                               cfg_.max_frames_per_epoch);
    return frames_;
  }

  // Every epoch of a baseline trains alike.
  void begin_epoch(int, const std::vector<graph::Frame>&) override {}

  float grad_frame(const graph::Frame& frame, bool step_follows) override {
    frame_ = frame;
    ready_.assign(frame.size, std::nullopt);
    from_cache_.assign(frame.size, false);
    waited_.assign(frame.size, false);
    // ---- Transfers ----
    std::size_t frame_bytes = 0;
    for (int i = 0; i < frame.size; ++i) {
      const int t = frame.start + i;
      from_cache_[i] = reuse_enabled() && cache_.count(t) > 0;
      const std::size_t bytes = snapshot_bytes(t, from_cache_[i]);
      frame_bytes += bytes;
      if (async()) {
        gpu_.memcpy_h2d(copy_, "snapshot", bytes, /*pinned=*/true);
        ready_[i] = gpu_.record_event(copy_);
      } else {
        gpu_.memcpy_h2d_sync(copy_, "snapshot", bytes, /*pinned=*/false);
      }
    }
    // ---- Resident-data accounting (released at frame end) ----
    gpusim::DeviceReservation res(
        gpu_.device(),
        frame_bytes + models::activation_bytes(data_, hid_, frame.size,
                                               model_->num_agg_layers()),
        "frame data");
    // ---- Compute, then the optimizer's kernels when the step follows ----
    const float loss = models::train_frame(*model_, *this, data_, frame,
                                           params_);
    step_next_ = step_follows;
    if (step_follows) nn::Adam::record_step(params_, *this);
    gpu_.memcpy_d2h(copy_, "loss", sizeof(float), async());
    return loss;
  }

  void apply_step() override {
    optim_.step(params_);
    if (step_next_) {
      step_next_ = false;  // Issued with the frame.
      return;
    }
    nn::Adam::record_step(params_, *this);
  }

  const std::vector<nn::Parameter*>& params() const override {
    return params_;
  }

  void set_stage_ready(double ready_us) override {
    gpu_.cpu_wait_until("infeed", ready_us);
    gpu_.wait_event(copy_, gpu_.timeline().record_event_at(ready_us));
  }

  void barrier_at(double ready_us) override {
    const EventId ev = gpu_.timeline().record_event_at(ready_us);
    gpu_.wait_event(compute_, ev);
    gpu_.wait_event(copy_, ev);
  }

  TrainResult finish_steps() override {
    TrainResult result;
    models::summarize_timeline(gpu_.timeline(), result);
    return result;
  }

  // ---- KernelRecorder ----
  void record(const std::string& name, const KernelStats& stats) override {
    // Scale-reduced datasets report full-size work (DTDG::sim_scale).
    gpu_.launch_kernel(compute_, name,
                       stats.scaled(static_cast<double>(data_.sim_scale)),
                       kFrameworkUsPerLaunch);
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
      if (method_ == Method::PyGTG) {
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
      if (method_ == Method::PyGTG) {
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
                                      const std::string& tag,
                                      bool leaf_inputs) override {
    PIPAD_CHECK(d_y.size() == hs.size());
    std::vector<Tensor> out(d_y.size());
    for (std::size_t i = 0; i < d_y.size(); ++i) {
      out[i] = lin.backward(*hs[i], d_y[i], this, tag, leaf_inputs);
    }
    return out;
  }

  kernels::KernelRecorder* recorder() override { return this; }

 private:
  /// Every variant but PyGT ships pinned memory asynchronously.
  bool async() const { return method_ != Method::PyGT; }
  bool reuse_enabled() const {
    return method_ == Method::PyGTR || method_ == Method::PyGTG;
  }

  /// H2D bytes for one snapshot of one frame given the cache state.
  std::size_t snapshot_bytes(int t, bool cached) const {
    const auto& snap = data_.snapshots[t];
    const std::size_t n = static_cast<std::size_t>(data_.num_nodes);
    const std::size_t feat = n * data_.feat_dim * sizeof(float);
    const std::size_t targets = n * sizeof(float);
    std::size_t topo;
    if (method_ == Method::PyGTG) {
      // GE-SpMM ships CSR for forward and CSC for backward (§5.2).
      topo = snap.adj.transfer_bytes() + snap.adj_t.transfer_bytes();
    } else {
      // PyG ships COO (3 arrays per nnz); the backward transpose reuses the
      // same arrays with row/col swapped, so nothing extra moves.
      topo = 3 * snap.adj.nnz() * sizeof(int);
    }
    const std::size_t deg = n * sizeof(int);
    const std::size_t scale = static_cast<std::size_t>(data_.sim_scale);
    topo *= scale;
    const std::size_t s_feat = feat * scale;
    const std::size_t s_targets = targets * scale;
    const std::size_t s_deg = deg * scale;
    if (cached) {
      const bool needs_topo = model_->num_agg_layers() > 1;
      return s_feat + s_targets + (needs_topo ? topo + s_deg : 0);
    }
    return s_feat + s_targets + topo + s_deg;
  }

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
  TrainConfig cfg_;
  Method method_;
  int hid_;
  Rng rng_;
  std::unique_ptr<models::DgnnModel> model_;
  nn::Adam optim_;
  StreamId compute_;
  StreamId copy_;
  std::vector<graph::Frame> frames_;
  std::vector<nn::Parameter*> params_;
  /// The current frame already issued the next apply_step()'s kernels.
  bool step_next_ = false;

  // The frame in flight: per-snapshot transfer events, and which
  // snapshots ship their cached layer-0 result instead of raw data.
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

std::unique_ptr<models::StepEngine> make_trainer(gpusim::Gpu& gpu,
                                                 const graph::DTDG& data,
                                                 TrainConfig cfg,
                                                 Method method) {
  return std::make_unique<BaselineTrainer>(gpu, data, cfg, method);
}

}  // namespace pipad::baselines
