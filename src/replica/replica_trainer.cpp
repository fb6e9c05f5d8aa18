#include "replica/replica_trainer.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline_trainer.hpp"
#include "common/error.hpp"
#include "host/prep_cost.hpp"
#include "nn/parameter.hpp"
#include "replica/allreduce.hpp"

namespace pipad::replica {

using gpusim::Resource;
using models::TrainResult;

namespace {

/// Frames per synchronization round for --replicas K >= 1.
constexpr int kReplicaRound = 4;

std::vector<float> flatten_grads(const std::vector<nn::Parameter*>& params) {
  std::size_t total = 0;
  for (const auto* p : params) total += p->grad.size();
  std::vector<float> out;
  out.reserve(total);
  for (const auto* p : params) {
    const auto& s = p->grad.storage();
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

void store_grads(const std::vector<nn::Parameter*>& params,
                 const std::vector<float>& flat) {
  std::size_t off = 0;
  for (auto* p : params) {
    auto& s = p->grad.storage();
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + s.size()),
              s.begin());
    off += s.size();
  }
  PIPAD_CHECK_MSG(off == flat.size(), "reduced gradient size mismatch");
}

}  // namespace

struct ReplicaTrainer::Impl {
  gpusim::Gpu& gpu0;
  const graph::DTDG& data;
  models::TrainConfig cfg;
  runtime::PipadOptions opts;
  LinkModel link;
  int K;
  int round_size;
  bool staged;  ///< Frames pass through a modeled per-replica infeed.

  std::vector<std::unique_ptr<gpusim::Gpu>> extra_gpus;  ///< Replicas 1..K-1.
  std::vector<gpusim::Gpu*> gpus;                        ///< All K.
  std::vector<std::unique_ptr<models::StepEngine>> trainers;

  Impl(gpusim::Gpu& g, const graph::DTDG& d, models::TrainConfig c,
       models::Method method, runtime::PipadOptions o)
      : gpu0(g), data(d), cfg(c), opts(std::move(o)) {
    K = std::max(1, opts.replicas);
    // --replicas 0 is PiPAD's own schedule: an optimizer step after every
    // frame, and the trainer reads the DTDG directly with no infeed staging
    // in front of it. This is the only place that tells it apart.
    const bool classic = opts.replicas == 0;
    round_size = classic ? 1 : kReplicaRound;
    staged = !classic;
    const bool pipad = method == models::Method::PiPAD;
    if (!pipad && !classic) {
      throw Error(std::string("--replicas requires --runtime pipad (") +
                  models::method_label(method) + " trains on one device)");
    }

    gpus.push_back(&gpu0);
    for (int k = 1; k < K; ++k) {
      extra_gpus.push_back(std::make_unique<gpusim::Gpu>());
      gpus.push_back(extra_gpus.back().get());
    }
    for (int k = 0; k < K; ++k) {
      trainers.push_back(
          pipad ? std::make_unique<runtime::PipadTrainer>(*gpus[k], data,
                                                          cfg, opts)
                : baselines::make_trainer(*gpus[k], data, cfg, method));
    }
  }

  /// Completion front of one replica's round: everything its device and
  /// host issue queue have scheduled so far. The round's all-reduce may not
  /// start before every replica reached this point.
  double round_front(int k) const {
    const auto& tl = gpus[k]->timeline();
    return std::max({tl.resource_ready(Resource::Cpu),
                     tl.resource_ready(Resource::H2D),
                     tl.resource_ready(Resource::D2H),
                     tl.resource_ready(Resource::Compute)});
  }

  TrainResult train() {
    const std::vector<graph::Frame>* frames_ptr = nullptr;
    for (int k = 0; k < K; ++k) frames_ptr = &trainers[k]->begin_steps();
    const std::vector<graph::Frame>& frames = *frames_ptr;
    const std::size_t F = frames.size();
    const int G = round_size;

    // Fixed frame -> replica assignment: within-epoch index j goes to
    // replica (j % G) % K. Pure in j, so the grouping is K-invariant.
    std::vector<std::vector<graph::Frame>> assigned(K);
    std::vector<int> owner(F);
    for (std::size_t j = 0; j < F; ++j) {
      const int k = static_cast<int>(j % static_cast<std::size_t>(G)) % K;
      owner[j] = k;
      assigned[k].push_back(frames[j]);
    }

    // Per-replica infeed (K >= 1 only): before a replica trains a frame it
    // stages the frame's raw features and targets into pinned host memory.
    // The trainers read the canonical DTDG tensors, so no copy is made;
    // each shard is a modeled "prep:infeed:r<k>" op charged per staged
    // byte on that replica's worker lanes, in consumption order.
    std::vector<std::string> infeed_name(K);
    for (int k = 0; k < K; ++k) {
      // Built with += (not `"infeed:r" + std::to_string(k)`) to dodge a
      // gcc-12 -Werror=restrict false positive on char*+string&& (GCC
      // PR105329).
      infeed_name[k] = "infeed:r";
      infeed_name[k] += std::to_string(k);
    }
    const auto staged_bytes = [&](const graph::Frame& f) {
      std::uint64_t floats = 0;
      for (int t = f.start; t < f.start + f.size; ++t) {
        floats += data.snapshots[t].features.size() + data.targets[t].size();
      }
      return floats * sizeof(float);
    };

    const std::size_t grad_bytes =
        flatten_grads(trainers[0]->params()).size() * sizeof(float);
    const int steps = allreduce_steps(K);
    const double step_us = allreduce_step_us(K, grad_bytes, link);
    const std::size_t step_bytes = allreduce_step_bytes(K, grad_bytes);

    TrainResult result;
    double allreduce_total = 0.0;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      for (int k = 0; k < K; ++k) {
        trainers[k]->begin_epoch(epoch, assigned[k]);
      }
      for (std::size_t r0 = 0; r0 < F; r0 += static_cast<std::size_t>(G)) {
        if (opts.cancel != nullptr &&
            opts.cancel->load(std::memory_order_relaxed)) {
          throw Cancelled();  // Round boundary.
        }
        const std::size_t r1 = std::min(F, r0 + static_cast<std::size_t>(G));
        // ---- Gradient phase: each replica runs its round frames at the
        // round-start params (no optimizer step until the reduce). The
        // host drives replicas sequentially, so each frame's real pool
        // work charges to exactly its replica's timeline.
        std::vector<std::vector<float>> round_grads(r1 - r0);
        std::vector<float> round_loss(r1 - r0);
        for (int k = 0; k < K; ++k) {
          for (std::size_t j = r0; j < r1; ++j) {
            if (owner[j] != k) continue;
            if (staged) {
              host::PrepCounts shard;
              shard.bytes = staged_bytes(frames[j]);
              trainers[k]->set_stage_ready(
                  host::charge(*gpus[k], infeed_name[k], shard));
            }
            // A one-frame round steps right behind its frame.
            round_loss[j - r0] = trainers[k]->grad_frame(frames[j], G == 1);
            round_grads[j - r0] = flatten_grads(trainers[k]->params());
          }
        }
        // ---- All-reduce: canonical numerics (global frame order), then
        // the modeled interconnect steps from the cross-replica barrier.
        const std::vector<float> avg = reduce_mean(round_grads);
        if (steps > 0) {
          double barrier = 0.0;
          for (int k = 0; k < K; ++k) barrier = std::max(barrier, round_front(k));
          for (int k = 0; k < K; ++k) {
            double t = barrier;
            for (int s = 0; s < steps; ++s) {
              t = gpus[k]->timeline().submit(0, Resource::Link,
                                             "comm:allreduce:ring",
                                             step_us, t, step_bytes);
            }
            trainers[k]->barrier_at(t);
          }
          allreduce_total += steps * step_us;
        }
        for (int k = 0; k < K; ++k) {
          store_grads(trainers[k]->params(), avg);
          trainers[k]->apply_step();
        }
        for (float l : round_loss) result.frame_loss.push_back(l);
      }
    }

    // ---- Summaries: replica 0's timeline is the primary record (its Gpu
    // is the caller's, so trace/analyze see it); total spans the slowest
    // replica.
    std::vector<TrainResult> per(K);
    for (int k = 0; k < K; ++k) per[k] = trainers[k]->finish_steps();
    const auto losses = std::move(result.frame_loss);
    result = per[0];
    result.frame_loss = losses;
    // The flag as given: bench records of --replicas 0 keep the
    // single-device field set.
    result.replicas = opts.replicas;
    result.allreduce_us = allreduce_total;
    for (int k = 0; k < K; ++k) {
      result.replica_total_us.push_back(per[k].total_us);
      result.total_us = std::max(result.total_us, per[k].total_us);
    }
    return result;
  }
};

ReplicaTrainer::ReplicaTrainer(gpusim::Gpu& gpu, const graph::DTDG& data,
                               models::TrainConfig cfg, models::Method method,
                               runtime::PipadOptions opts)
    : impl_(std::make_unique<Impl>(gpu, data, cfg, method, std::move(opts))) {}

ReplicaTrainer::~ReplicaTrainer() = default;

TrainResult ReplicaTrainer::train() { return impl_->train(); }

models::DgnnModel& ReplicaTrainer::model() {
  return impl_->trainers[0]->model();
}

const std::map<int, int>& ReplicaTrainer::sper_decisions() const {
  static const std::map<int, int> kNone;
  const auto* pipad =
      dynamic_cast<const runtime::PipadTrainer*>(impl_->trainers[0].get());
  return pipad != nullptr ? pipad->sper_decisions() : kNone;
}

int ReplicaTrainer::replicas() const { return impl_->K; }

const gpusim::Timeline& ReplicaTrainer::replica_timeline(int k) const {
  PIPAD_CHECK_MSG(k >= 0 && k < impl_->K, "unknown replica " << k);
  return impl_->gpus[k]->timeline();
}

}  // namespace pipad::replica
