#include "pipad/pipad_trainer.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "host/host_lane.hpp"
#include "kernels/aggregate.hpp"
#include "kernels/stats_builders.hpp"
#include "kernels/update.hpp"
#include "nn/optim.hpp"
#include "pipad/offline_analysis.hpp"
#include "pipad/reuse.hpp"
#include "sliced/partition.hpp"
#include "tensor/ops.hpp"

namespace pipad::runtime {

using gpusim::EventId;
using gpusim::KernelStats;
using gpusim::StreamId;
using models::TrainConfig;
using models::TrainResult;

namespace {

/// Host cost per individual kernel launch of the lean C++ path, on top of
/// the device launch latency (the CUDA-graph path skips it).
constexpr double kFrameworkUsPerLaunch = 2.0;

/// Max thread groups per warp of the sliced aggregation (§4.2), the value
/// the tuner's WorkloadShape assumes too.
constexpr int kCoalesceNum = 4;

/// Per-snapshot sliced topology produced by the online graph analyzer (❶).
struct SlicedSnapshot {
  sliced::SlicedCSR adj;
  sliced::SlicedCSR adj_t;
  std::vector<float> deg;  ///< Weighted in-degree (plain counts when unweighted).
  // Per-edge weights for weighted snapshots (empty otherwise). `w` aligns
  // with adj.col_idx (slice() copies it verbatim from the CSR); `w_t` is
  // the same values permuted into adj_t's order for the backward pass.
  std::vector<float> w;
  std::vector<float> w_t;

  std::size_t transfer_bytes(bool with_transpose) const {
    std::size_t b = adj.transfer_bytes() + deg.size() * sizeof(float) +
                    w.size() * sizeof(float);
    if (with_transpose) {
      b += adj_t.transfer_bytes() + w_t.size() * sizeof(float);
    }
    return b;
  }
};

/// The executor: implements the model-facing FrameExecutor in two modes.
/// Prep = one-snapshot-at-a-time (preparing epochs); Steady = partitioned
/// multi-snapshot parallel GNN.
class PipadExecutor final : public models::FrameExecutor,
                            public kernels::KernelRecorder {
 public:
  PipadExecutor(gpusim::Gpu& gpu, const graph::DTDG& data,
                const PipadOptions& opts)
      : gpu_(gpu),
        data_(data),
        opts_(opts),
        compute_(gpu.create_stream("compute")) {}

  StreamId compute_stream() const { return compute_; }

  void set_sliced(std::vector<SlicedSnapshot>* sliced) { sliced_ = sliced; }

  void begin_prep_frame(const graph::Frame& frame,
                        std::vector<std::optional<EventId>> snapshot_ready) {
    steady_ = false;
    frame_ = frame;
    snap_ready_ = std::move(snapshot_ready);
    snap_waited_.assign(frame_.size, false);
  }

  void begin_steady_frame(const graph::Frame& frame,
                          std::vector<const sliced::FramePartition*> parts,
                          std::vector<std::optional<EventId>> part_ready) {
    steady_ = true;
    frame_ = frame;
    parts_ = std::move(parts);
    part_ready_ = std::move(part_ready);
    part_waited_.assign(parts_.size(), false);
  }

  // ---- KernelRecorder: CUDA-graph batched launches (§4.2) ----
  void record(const std::string& name, const KernelStats& stats) override {
    // Scale-reduced datasets report full-size work (DTDG::sim_scale).
    const KernelStats full =
        stats.scaled(static_cast<double>(data_.sim_scale));
    if (opts_.enable_cuda_graph) {
      graph_.add_kernel(name, full);
    } else {
      gpu_.launch_kernel(compute_, name, full, kFrameworkUsPerLaunch);
    }
  }

  void flush() {
    if (graph_.size() > 0) {
      gpu_.launch_graph(compute_, graph_);
      graph_.clear();
    }
  }

  // ---- Inter-frame reuse cache (CPU side) ----
  bool has_cached(int snapshot) const { return cache_.count(snapshot) > 0; }
  const Tensor& cached(int snapshot) const { return cache_.at(snapshot); }

  // ---- FrameExecutor ----
  std::vector<Tensor> aggregate(const std::vector<const Tensor*>& xs,
                                int layer_id,
                                const std::string& tag) override {
    if (layer_id == 0 && opts_.enable_reuse && all_cached()) {
      // Results were computed in the preparing epochs; the data is already
      // on the device (reuse buffer hit or scheduled transfer) — no kernel.
      std::vector<Tensor> out(frame_.size);
      for (int i = 0; i < frame_.size; ++i) {
        out[i] = cache_.at(frame_.start + i);
      }
      return out;
    }
    std::vector<Tensor> out =
        steady_ ? aggregate_steady(xs, tag, /*transposed=*/false)
                : aggregate_prep(xs, tag, /*transposed=*/false);
    if (layer_id == 0 && opts_.enable_reuse) {
      for (int i = 0; i < frame_.size; ++i) {
        cache_[frame_.start + i] = out[i];
      }
    }
    return out;
  }

  std::vector<Tensor> aggregate_backward(const std::vector<Tensor>& d_h,
                                         int layer_id,
                                         const std::string& tag) override {
    PIPAD_CHECK(layer_id > 0);
    std::vector<const Tensor*> dptr;
    dptr.reserve(d_h.size());
    for (const auto& t : d_h) dptr.push_back(&t);
    return steady_ ? aggregate_steady(dptr, tag + ".bwd", true)
                   : aggregate_prep(dptr, tag + ".bwd", true);
  }

  std::vector<Tensor> update(const std::vector<const Tensor*>& hs,
                             nn::Linear& lin,
                             const std::string& tag) override {
    wait_all();
    std::vector<Tensor> out;
    if (opts_.enable_weight_reuse) {
      record("gemm:" + tag + ".wr",
             kernels::update_weight_reuse(hs, lin.weight().value, out,
                                          &lin.bias().value));
    } else {
      out.resize(hs.size());
      for (std::size_t i = 0; i < hs.size(); ++i) {
        out[i] = lin.forward(*hs[i], this, tag);
      }
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
      // The numerics are Linear's; the kernels are recorded below.
      out[i] = lin.backward(*hs[i], d_y[i], nullptr, tag, leaf_inputs);
    }
    if (opts_.enable_weight_reuse) {
      // dX = dY W^T shares W^T tiles across the group; the dW accumulator
      // stays resident across snapshots, so both directions amortize.
      record("gemm:" + tag + ".dx.wr",
             kernels::gemm_weight_reuse_stats(d_y[0].rows(), d_y[0].cols(),
                                              lin.weight().value.rows(),
                                              d_y.size()));
      record("gemm:" + tag + ".dw.wr",
             kernels::gemm_weight_reuse_stats(hs[0]->cols(), hs[0]->rows(),
                                              d_y[0].cols(), d_y.size()));
    } else {
      for (std::size_t i = 0; i < d_y.size(); ++i) {
        record("gemm:" + tag + ".dx",
               kernels::gemm_stats(d_y[i].rows(), d_y[i].cols(),
                                   lin.weight().value.rows()));
        record("gemm:" + tag + ".dw",
               kernels::gemm_stats(hs[i]->cols(), hs[i]->rows(),
                                   d_y[i].cols()));
      }
    }
    return out;
  }

  kernels::KernelRecorder* recorder() override { return this; }

 private:
  bool all_cached() const {
    for (int i = 0; i < frame_.size; ++i) {
      if (cache_.count(frame_.start + i) == 0) return false;
    }
    return frame_.size > 0;
  }

  void wait_snapshot(int offset) {
    if (steady_ || snap_waited_.empty() || snap_waited_[offset]) return;
    snap_waited_[offset] = true;
    if (snap_ready_[offset].has_value()) {
      flush();
      gpu_.wait_event(compute_, *snap_ready_[offset]);
    }
  }

  void wait_partition(std::size_t p) {
    if (!steady_ || part_waited_.empty() || part_waited_[p]) return;
    part_waited_[p] = true;
    if (part_ready_[p].has_value()) {
      flush();
      gpu_.wait_event(compute_, *part_ready_[p]);
    }
  }

  void wait_all() {
    if (steady_) {
      for (std::size_t p = 0; p < parts_.size(); ++p) wait_partition(p);
    } else {
      for (int i = 0; i < frame_.size; ++i) wait_snapshot(i);
    }
  }

  /// One-snapshot aggregation + normalization (preparing epochs).
  std::vector<Tensor> aggregate_prep(const std::vector<const Tensor*>& xs,
                                     const std::string& tag,
                                     bool transposed) {
    std::vector<Tensor> out(xs.size());
    for (int i = 0; i < static_cast<int>(xs.size()); ++i) {
      const int t = frame_.start + i;
      wait_snapshot(i);
      const auto& ss = (*sliced_)[t];
      const auto& a = transposed ? ss.adj_t : ss.adj;
      // Weighted snapshots pass their single value stripe along.
      std::vector<const std::vector<float>*> sw;
      if (!ss.w.empty()) sw.push_back(transposed ? &ss.w_t : &ss.w);
      if (transposed) {
        Tensor d_agg(xs[i]->rows(), xs[i]->cols());
        Tensor d_direct(xs[i]->rows(), xs[i]->cols());
        record("normalize:" + tag,
               kernels::gcn_normalize_backward(ss.deg, *xs[i], d_agg,
                                               d_direct));
        Tensor d_x(xs[i]->rows(), xs[i]->cols());
        record("agg:sliced:" + tag,
               kernels::agg_sliced(a, d_agg, d_x, kCoalesceNum, false, sw));
        ops::add_inplace(d_x, d_direct);
        record("ew:" + tag + ".add",
               kernels::elementwise_stats(d_x.size(), 2, 1));
        out[i] = std::move(d_x);
      } else {
        Tensor agg(xs[i]->rows(), xs[i]->cols());
        record("agg:sliced:" + tag,
               kernels::agg_sliced(a, *xs[i], agg, kCoalesceNum, false, sw));
        Tensor h(agg.rows(), agg.cols());
        record("normalize:" + tag,
               kernels::gcn_normalize(ss.deg, *xs[i], agg, h));
        out[i] = std::move(h);
      }
    }
    return out;
  }

  /// Partition-parallel aggregation (§4.2): the shared topology is
  /// aggregated once against the coalesced feature matrix; per-member
  /// exclusive parts are added into their stripe.
  std::vector<Tensor> aggregate_steady(const std::vector<const Tensor*>& xs,
                                       const std::string& tag,
                                       bool transposed) {
    std::vector<Tensor> out(xs.size());
    for (std::size_t pi = 0; pi < parts_.size(); ++pi) {
      const auto& p = *parts_[pi];
      wait_partition(pi);
      const int f = xs[0]->cols();
      const int s = p.count;
      const int rel = p.start - frame_.start;

      // Coalesce the members' matrices (on-device interleave copy).
      std::vector<const Tensor*> members(xs.begin() + rel,
                                         xs.begin() + rel + s);
      Tensor coal = sliced::coalesce_features(members);
      record("ew:" + tag + ".coalesce",
             kernels::elementwise_stats(coal.size(), 1, 0));

      std::vector<const std::vector<float>*> degs;
      for (int i = 0; i < s; ++i) {
        degs.push_back(&(*sliced_)[p.start + i].deg);
      }

      Tensor in_coal;  // What the sparse kernels consume.
      Tensor direct;   // Backward-only direct term.
      if (transposed) {
        in_coal = Tensor(coal.rows(), coal.cols());
        direct = Tensor(coal.rows(), coal.cols());
        record("normalize:" + tag,
               kernels::gcn_normalize_backward_coalesced(degs, coal, in_coal,
                                                         direct));
      } else {
        in_coal = std::move(coal);
      }

      // Parallel aggregation on the shared topology. For weighted groups
      // every member gets its own value stripe over the one shared walk.
      std::vector<const std::vector<float>*> ow;
      if (!p.overlap_w.empty()) {
        for (int i = 0; i < s; ++i) {
          ow.push_back(transposed ? &p.overlap_w_t[i] : &p.overlap_w[i]);
        }
      }
      Tensor agg(in_coal.rows(), in_coal.cols());
      record("agg:sliced:" + tag + ".overlap",
             kernels::agg_sliced(transposed ? p.overlap_t : p.overlap,
                                 in_coal, agg, kCoalesceNum, false, ow));
      // Exclusive remainders at native width, scattered into their stripe.
      for (int i = 0; i < s; ++i) {
        const auto& ex = transposed ? p.exclusive_t[i] : p.exclusive[i];
        if (ex.nnz() == 0) continue;
        std::vector<const std::vector<float>*> ew;
        if (!p.exclusive_w.empty()) {
          ew.push_back(transposed ? &p.exclusive_w_t[i] : &p.exclusive_w[i]);
        }
        Tensor in_i = ops::slice_cols(in_coal, i * f, f);
        Tensor e(in_i.rows(), f);
        record("agg:sliced:" + tag + ".excl",
               kernels::agg_sliced(ex, in_i, e, kCoalesceNum, false, ew));
        ops::add_into_cols(agg, e, i * f);
        record("ew:" + tag + ".scatter",
               kernels::elementwise_stats(e.size(), 2, 1));
      }

      Tensor result;
      if (transposed) {
        ops::add_inplace(agg, direct);
        record("ew:" + tag + ".add",
               kernels::elementwise_stats(agg.size(), 2, 1));
        result = std::move(agg);
      } else {
        result = Tensor(agg.rows(), agg.cols());
        record("normalize:" + tag, kernels::gcn_normalize_coalesced(
                                       degs, in_coal, agg, result));
      }

      std::vector<Tensor> split = sliced::split_coalesced(result, s);
      record("ew:" + tag + ".split",
             kernels::elementwise_stats(result.size(), 1, 0));
      for (int i = 0; i < s; ++i) out[rel + i] = std::move(split[i]);
    }
    return out;
  }

  gpusim::Gpu& gpu_;
  const graph::DTDG& data_;
  const PipadOptions& opts_;
  StreamId compute_;
  std::vector<SlicedSnapshot>* sliced_ = nullptr;

  bool steady_ = false;
  graph::Frame frame_{};
  std::vector<std::optional<EventId>> snap_ready_;
  std::vector<bool> snap_waited_;
  std::vector<const sliced::FramePartition*> parts_;
  std::vector<std::optional<EventId>> part_ready_;
  std::vector<bool> part_waited_;

  gpusim::CudaGraph graph_;
  std::map<int, Tensor> cache_;  ///< snapshot -> layer-0 normalized agg.
};

}  // namespace

std::vector<std::pair<int, int>> frame_partitions(const graph::Frame& frame,
                                                  int s_per,
                                                  int num_snapshots) {
  PIPAD_CHECK(s_per > 0);
  std::vector<std::pair<int, int>> keys;
  const int end = std::min(frame.end(), num_snapshots);
  for (int pos = frame.start; pos < end; pos += s_per) {
    keys.emplace_back(pos, std::min(s_per, end - pos));
  }
  return keys;
}

struct PipadTrainer::Impl {
  gpusim::Gpu& gpu;
  const graph::DTDG& data;
  TrainConfig cfg;
  PipadOptions opts;
  host::HostLane lane;  ///< Executes and charges all host prep (§4.3).
  int hid;
  Rng rng;
  std::unique_ptr<models::DgnnModel> model;
  nn::Adam optim;
  PipadExecutor exec;
  StreamId copy_stream;
  GpuReuseBuffer gpu_buffer;

  std::vector<SlicedSnapshot> sliced;
  std::map<std::pair<int, int>, sliced::FramePartition> partition_cache;
  std::map<std::pair<int, int>, gpusim::EventId> partition_ready;
  std::map<int, int> decisions;  ///< frame start -> S_per.
  bool steady_prepared = false;
  bool final_epoch = false;  ///< Partitions behind the window get retired.

  // Step-wise driving state.
  std::vector<graph::Frame> step_frames;
  std::vector<nn::Parameter*> step_params;
  bool step_prep = false;
  /// The current frame's graph also carries the next apply_step()'s kernels.
  bool step_next = false;
  bool step_first_steady = false;
  double step_first_steady_us = 0.0;

  // Streaming steady-state extraction: jobs write disjoint stream_parts
  // slots; partition() retires them in first-use order. The stream is
  // declared last so it is destroyed (and drained) before the slots its
  // in-flight jobs write into.
  std::vector<std::pair<int, int>> stream_keys;
  std::map<std::pair<int, int>, std::size_t> stream_index;
  std::vector<sliced::FramePartition> stream_parts;
  std::unique_ptr<host::HostStream> prep_stream;

  // Online profiling statistics (preparing epochs, §4.3).
  double mean_pair_or = 0.0;
  std::uint64_t mean_nnz = 0;
  std::size_t per_snapshot_mem = 0;

  Impl(gpusim::Gpu& g, const graph::DTDG& d, TrainConfig c, PipadOptions o)
      : gpu(g),
        data(d),
        cfg(c),
        opts(std::move(o)),
        lane(g, opts.host_threads > 0
                    ? static_cast<std::size_t>(opts.host_threads)
                    : 0),
        hid(models::hidden_dim(c, d.feat_dim)),
        rng(c.seed),
        model(models::make_model(c.model, d.feat_dim, hid, rng)),
        optim(c.lr),
        exec(g, d, opts),
        copy_stream(g.create_stream("copy")),
        gpu_buffer(g.device()) {}

  bool needs_topology_steady() const {
    return model->num_agg_layers() > 1 || !opts.enable_reuse;
  }

  /// ❶ Online graph analyzer: slice every snapshot (and its transpose) as
  /// one HostLane job each, charged by the rows and edges it slices.
  void run_analyzer() {
    const int n = data.num_snapshots();
    sliced.resize(n);
    std::vector<host::PrepCounts> counts(n);
    for (int t = 0; t < n; ++t) {
      const auto& snap = data.snapshots[t];
      counts[t].rows = static_cast<std::uint64_t>(snap.adj.rows) +
                       static_cast<std::uint64_t>(snap.adj_t.rows);
      counts[t].edges = snap.adj.nnz() + snap.adj_t.nnz();
    }
    lane.run("graph-analyzer", counts,
             [&](std::size_t t) {
               const auto& snap = data.snapshots[t];
               sliced[t].adj = sliced::slice(snap.adj, opts.slice_bound);
               sliced[t].adj_t = sliced::slice(snap.adj_t, opts.slice_bound);
               if (snap.weighted()) {
                 // slice() copies col_idx verbatim, so edge_w stays aligned;
                 // adj_t = transpose(adj), so the permuted weights align too.
                 sliced[t].w = snap.edge_w;
                 sliced[t].w_t =
                     graph::transpose_weights(snap.adj, snap.edge_w);
               }
               sliced[t].deg = kernels::degrees(
                   snap.adj, snap.weighted() ? &snap.edge_w : nullptr);
             });
    exec.set_sliced(&sliced);
  }

  /// Online profiling of topology statistics (preparing epochs). Per-t
  /// scans run as parallel lane jobs into disjoint slots; the reduction is
  /// a serial pass on the main thread so the statistics are bit-identical
  /// for every thread count.
  void run_profiling(const std::vector<graph::Frame>& frames) {
    int lo = data.num_snapshots(), hi = 0;
    for (const auto& f : frames) {
      lo = std::min(lo, f.start);
      hi = std::max(hi, f.end());
    }
    const int last = std::min(hi, data.num_snapshots());
    const int cnt = std::max(0, last - lo);
    std::vector<std::uint64_t> nnz(cnt, 0);
    std::vector<double> pair_or(cnt, -1.0);  ///< -1 = no successor pair.
    // A job with a successor pair walks both snapshots' rows and edges.
    std::vector<host::PrepCounts> counts(cnt);
    for (int j = 0; j < cnt; ++j) {
      const int t = lo + j;
      if (t + 1 < hi && t + 1 < data.num_snapshots()) {
        const auto& a = data.snapshots[t].adj;
        const auto& b = data.snapshots[t + 1].adj;
        counts[j].rows = static_cast<std::uint64_t>(a.rows) +
                         static_cast<std::uint64_t>(b.rows);
        counts[j].edges = a.nnz() + b.nnz();
      }
    }
    lane.run("profiling", counts, [&](std::size_t j) {
      const int t = lo + static_cast<int>(j);
      nnz[j] = data.snapshots[t].adj.nnz();
      if (t + 1 < hi && t + 1 < data.num_snapshots()) {
        pair_or[j] = graph::overlap_rate(data.snapshots[t].adj,
                                         data.snapshots[t + 1].adj);
      }
    });
    double or_sum = 0.0;
    int or_cnt = 0;
    std::uint64_t nnz_sum = 0;
    for (int j = 0; j < cnt; ++j) {
      nnz_sum += nnz[j];
      if (pair_or[j] >= 0.0) {
        or_sum += pair_or[j];
        ++or_cnt;
      }
    }
    mean_pair_or = or_cnt > 0 ? or_sum / or_cnt : 1.0;
    mean_nnz = (hi > lo) ? nnz_sum / static_cast<std::uint64_t>(hi - lo) : 0;
    mean_nnz *= static_cast<std::uint64_t>(data.sim_scale);
    const std::size_t n =
        static_cast<std::size_t>(data.num_nodes) * data.sim_scale;
    per_snapshot_mem =
        (mean_nnz * 3 + n) * sizeof(int) +
        n * (data.feat_dim + static_cast<std::size_t>(hid) *
                                 (model->num_agg_layers() + 2)) *
            sizeof(float);
  }

  const sliced::FramePartition& partition(int start, int count) {
    auto key = std::make_pair(start, count);
    auto it = partition_cache.find(key);
    if (it != partition_cache.end()) return it->second;

    // prepare_steady streamed every partition a steady frame uses: the
    // frames and S_per decisions are the same ones it walked.
    const auto si = stream_index.find(key);
    PIPAD_CHECK_MSG(prep_stream && si != stream_index.end(),
                    "partition (" << start << ", " << count
                                  << ") was not streamed");
    // Streamed extraction (§4.3): block only until *this* partition's job
    // retires; the simulated CPU waits for its modeled completion.
    const double end = prep_stream->wait(si->second);
    gpu.cpu_wait_until("overlap-extract", end);
    partition_ready[key] = gpu.timeline().record_event_at(end);
    it = partition_cache.emplace(key, std::move(stream_parts[si->second]))
             .first;
    return it->second;
  }

  /// One-off steady-state preparation (§4.3): decide S_per for every
  /// frame, then extract every needed partition on the worker lanes (❷).
  /// The extraction jobs are *streamed* in first-use order: the first
  /// steady frame's transfers (and the main thread) wait only on the jobs
  /// that built its own partitions, not the whole batch.
  void prepare_steady(const std::vector<graph::Frame>& frames) {
    if (steady_prepared) return;
    steady_prepared = true;
    std::vector<std::pair<int, int>> keys;
    for (const auto& frame : frames) {
      for (const auto& key : frame_partitions(frame, decide_sper(frame),
                                              data.num_snapshots())) {
        // Sliding frames revisit partitions; extract each key once. Frame
        // order IS first-use order, which the stream preserves.
        if (partition_cache.count(key) == 0 &&
            std::find(keys.begin(), keys.end(), key) == keys.end()) {
          keys.push_back(key);
        }
      }
    }
    if (keys.empty()) return;

    stream_keys = keys;
    stream_parts.assign(keys.size(), {});
    // An extraction is charged 2 + 4 * count walks over the graph's rows
    // plus every member edge it splits (host/prep_cost.hpp); the counts,
    // not the split's code, set its modeled duration.
    std::vector<host::PrepCounts> counts(keys.size());
    for (std::size_t j = 0; j < keys.size(); ++j) {
      stream_index[keys[j]] = j;
      const auto [start, count] = keys[j];
      counts[j].rows = static_cast<std::uint64_t>(data.num_nodes) *
                       static_cast<std::uint64_t>(2 + 4 * count);
      for (int i = 0; i < count; ++i) {
        counts[j].member_edges += data.snapshots[start + i].adj.nnz();
      }
    }
    prep_stream = lane.stream("overlap-extract", std::move(counts),
                              [this](std::size_t j) {
                                stream_parts[j] = sliced::build_partition(
                                    data, stream_keys[j].first,
                                    stream_keys[j].second, opts.slice_bound);
                              });
  }

  /// Dynamic tuner (§4.4): pick S_per for a frame (pipad/tuner.hpp has the
  /// decision logic; this builds its inputs from the profiling statistics
  /// and caches per frame start).
  int decide_sper(const graph::Frame& frame) {
    if (opts.forced_sper > 0) return opts.forced_sper;
    auto it = decisions.find(frame.start);
    if (it != decisions.end()) return it->second;

    TunerInputs in;
    in.shape.num_nodes = data.num_nodes * data.sim_scale;
    in.shape.nnz_per_snapshot = mean_nnz;  // Scale-adjusted in profiling.
    in.shape.feat_dim = data.feat_dim;
    in.shape.hidden_dim = hid;
    in.shape.slice_bound = opts.slice_bound;
    in.frame_size = frame.size;
    in.enable_pipeline = opts.enable_pipeline;
    in.weight_reuse = opts.enable_weight_reuse && !model->weights_evolve();
    in.needs_topology = needs_topology_steady();
    in.mean_pair_or = mean_pair_or;
    in.per_snapshot_mem = per_snapshot_mem;
    in.device_available = gpu.device().available();
    const int best_s = runtime::decide_sper(gpu.cost(), in);
    decisions[frame.start] = best_s;
    return best_s;
  }

  /// GPU reuse-buffer budget: what is left after the working set, capped.
  void set_reuse_budget() {
    if (!opts.enable_reuse) return;
    const std::size_t working = 16 * per_snapshot_mem + (per_snapshot_mem * 8);
    gpu_buffer.set_budget(gpu.device().available() > working
                              ? (gpu.device().available() - working) / 2
                              : 0);
  }

  float train_prep_frame(const graph::Frame& frame) {
    // One-snapshot fashion with asynchronous pinned transfers (§4.3).
    std::vector<std::optional<EventId>> evs(frame.size);
    std::size_t frame_bytes = 0;
    const std::size_t n = data.num_nodes;
    const std::size_t scale = static_cast<std::size_t>(data.sim_scale);
    for (int i = 0; i < frame.size; ++i) {
      const int t = frame.start + i;
      const std::size_t bytes =
          (sliced[t].transfer_bytes(model->num_agg_layers() > 1) +
           n * data.feat_dim * sizeof(float) + n * sizeof(float)) *
          scale;
      frame_bytes += bytes;
      gpu.memcpy_h2d(copy_stream, "snapshot", bytes, /*pinned=*/true);
      evs[i] = gpu.record_event(copy_stream);
    }
    gpusim::DeviceReservation res(
        gpu.device(),
        frame_bytes + models::activation_bytes(data, hid, frame.size,
                                               model->num_agg_layers()),
        "prep frame");
    exec.begin_prep_frame(frame, std::move(evs));
    return run_model(frame);
  }

  float train_steady_frame(const graph::Frame& frame) {
    const auto part_keys =
        frame_partitions(frame, decide_sper(frame), data.num_snapshots());
    std::vector<const sliced::FramePartition*> parts;
    parts.reserve(part_keys.size());
    for (const auto& [start, count] : part_keys) {
      parts.push_back(&partition(start, count));
    }

    // ---- Partition-grained transfers (§4.1) ----
    const std::size_t n = data.num_nodes;
    const std::size_t scale = static_cast<std::size_t>(data.sim_scale);
    std::vector<std::optional<EventId>> evs(parts.size());
    std::size_t frame_bytes = 0;
    for (std::size_t pi = 0; pi < parts.size(); ++pi) {
      const auto& p = *parts[pi];
      std::size_t bytes = 0;
      if (needs_topology_steady()) {
        bytes += (p.topology_transfer_bytes() +
                  static_cast<std::size_t>(p.count) * n * sizeof(int)) *
                 scale;
      }
      for (int i = 0; i < p.count; ++i) {
        const int t = p.start + i;
        const std::size_t agg_bytes =
            n * data.feat_dim * sizeof(float) * scale;
        if (opts.enable_reuse && exec.has_cached(t)) {
          if (!gpu_buffer.contains(t)) {
            bytes += agg_bytes;  // CPU cache -> GPU buffer.
            gpu_buffer.insert(t, agg_bytes);
          }
        } else {
          bytes += agg_bytes;  // Raw features.
        }
        bytes += n * sizeof(float) * scale;  // Targets.
      }
      frame_bytes += bytes;
      if (bytes > 0) {
        // The partition's data cannot ship before its overlap extraction
        // completed on the background lane (§4.3).
        const auto ready_it = partition_ready.find(part_keys[pi]);
        if (ready_it != partition_ready.end()) {
          gpu.wait_event(copy_stream, ready_it->second);
        }
        if (opts.enable_pipeline) {
          gpu.memcpy_h2d(copy_stream, "partition", bytes, /*pinned=*/true);
          evs[pi] = gpu.record_event(copy_stream);
        } else {
          gpu.memcpy_h2d_sync(copy_stream, "partition", bytes, true);
        }
      }
    }

    gpusim::DeviceReservation res(
        gpu.device(),
        frame_bytes + models::activation_bytes(data, hid, frame.size,
                                               model->num_agg_layers()),
        "steady frame");
    exec.begin_steady_frame(frame, std::move(parts), std::move(evs));
    const float loss = run_model(frame);
    // Frames slide forward by one: results before the next frame's start
    // will never be used again.
    gpu_buffer.evict_before(frame.start + 1);
    // Same for host-side partitions, but only in the final epoch (earlier
    // epochs revisit every frame).
    if (final_epoch) retire_partitions_before(frame.start + 1);
    return loss;
  }

  /// Free every cached partition that ends at or before `bound`. Inline is
  /// safe: run_model joined every fork-join region that read a partition,
  /// and partition() waited on each streamed job before caching its
  /// result, so no other thread can still hold a reference.
  void retire_partitions_before(int bound) {
    for (auto it = partition_cache.begin(); it != partition_cache.end();) {
      if (it->first.first + it->first.second <= bound) {
        partition_ready.erase(it->first);
        it = partition_cache.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// The frame's gradients stay in step_params for ReplicaTrainer's
  /// canonical round reduction; apply_step() advances the optimizer.
  float run_model(const graph::Frame& frame) {
    const float loss =
        models::train_frame(*model, exec, data, frame, step_params);
    if (step_next) nn::Adam::record_step(step_params, exec);
    exec.flush();
    gpu.memcpy_d2h(copy_stream, "loss", sizeof(float), true);
    return loss;
  }

  // ---- Step-wise driving ----

  const std::vector<graph::Frame>& begin_steps() {
    step_frames =
        graph::frames_of(data, cfg.frame_size, cfg.max_frames_per_epoch);
    step_params = model->params();
    run_analyzer();
    // Profiling always covers the FULL epoch frame list, even though this
    // replica will train only a subset: the tuner statistics (and so every
    // S_per decision, which changes float summation order) must be a pure
    // function of the dataset, never of the replica count.
    run_profiling(step_frames);
    set_reuse_budget();
    return step_frames;
  }

  void begin_epoch(int epoch, const std::vector<graph::Frame>& prep_frames) {
    step_prep = epoch < opts.preparing_epochs;
    final_epoch = epoch == cfg.epochs - 1;
    if (!step_prep) prepare_steady(prep_frames);
  }

  float grad_frame(const graph::Frame& frame, bool step_follows) {
    step_next = step_follows;
    if (step_prep) return train_prep_frame(frame);
    const float loss = train_steady_frame(frame);
    if (!step_first_steady) {
      step_first_steady = true;
      // Sim time at which the first steady frame fully finished: its host
      // issue work, transfers and kernels. Streaming prep pulls this in on
      // long timelines: it waits only on the partitions the frame uses.
      const auto& tl = gpu.timeline();
      step_first_steady_us =
          std::max({tl.stream_ready(exec.compute_stream()),
                    tl.stream_ready(copy_stream),
                    tl.resource_ready(gpusim::Resource::Cpu)});
    }
    return loss;
  }

  void apply_step() {
    optim.step(step_params);
    if (step_next) {
      step_next = false;  // Launched with the frame's graph.
      return;
    }
    nn::Adam::record_step(step_params, exec);
    exec.flush();
  }

  void set_stage_ready(double ready_us) {
    // The training thread waits for the modeled infeed shard, and the
    // shard's transfers may not ship before it landed. cpu_wait_until alone
    // cannot gate H2D (submit only consults stream/resource fronts), hence
    // the explicit copy-stream event.
    gpu.cpu_wait_until("infeed", ready_us);
    gpu.wait_event(copy_stream, gpu.timeline().record_event_at(ready_us));
  }

  void barrier_at(double ready_us) {
    const gpusim::EventId ev = gpu.timeline().record_event_at(ready_us);
    gpu.wait_event(exec.compute_stream(), ev);
    gpu.wait_event(copy_stream, ev);
  }

  TrainResult finish_steps() {
    TrainResult result;
    result.first_steady_us = step_first_steady_us;
    models::summarize_timeline(gpu.timeline(), result);
    return result;
  }
};

PipadTrainer::PipadTrainer(gpusim::Gpu& gpu, const graph::DTDG& data,
                           TrainConfig cfg, PipadOptions opts)
    : impl_(std::make_unique<Impl>(gpu, data, cfg, std::move(opts))) {}

PipadTrainer::~PipadTrainer() = default;

models::DgnnModel& PipadTrainer::model() { return *impl_->model; }

const std::map<int, int>& PipadTrainer::sper_decisions() const {
  return impl_->decisions;
}

const std::vector<graph::Frame>& PipadTrainer::begin_steps() {
  return impl_->begin_steps();
}

void PipadTrainer::begin_epoch(int epoch,
                               const std::vector<graph::Frame>& prep_frames) {
  impl_->begin_epoch(epoch, prep_frames);
}

float PipadTrainer::grad_frame(const graph::Frame& frame, bool step_follows) {
  return impl_->grad_frame(frame, step_follows);
}

void PipadTrainer::apply_step() { impl_->apply_step(); }

const std::vector<nn::Parameter*>& PipadTrainer::params() const {
  return impl_->step_params;
}

void PipadTrainer::set_stage_ready(double ready_us) {
  impl_->set_stage_ready(ready_us);
}

void PipadTrainer::barrier_at(double ready_us) {
  impl_->barrier_at(ready_us);
}

models::TrainResult PipadTrainer::finish_steps() {
  return impl_->finish_steps();
}

}  // namespace pipad::runtime
