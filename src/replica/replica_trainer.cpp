#include "replica/replica_trainer.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "host/host_lane.hpp"
#include "nn/parameter.hpp"
#include "replica/allreduce.hpp"

namespace pipad::replica {

using gpusim::Resource;
using models::TrainResult;

namespace {

/// Frames per synchronization round for --replicas K >= 1.
constexpr int kReplicaRound = 4;
/// Staged shards in flight per replica: one being consumed, one staging.
constexpr std::size_t kInfeedWindow = 2;

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
  AllReduceAlgo algo = AllReduceAlgo::Ring;
  LinkModel link;
  int K;
  int round_size;
  bool staged;  ///< Frames come through per-replica infeed streams.

  std::vector<std::unique_ptr<gpusim::Gpu>> extra_gpus;  ///< Replicas 1..K-1.
  std::vector<gpusim::Gpu*> gpus;                        ///< All K.
  std::vector<std::unique_ptr<runtime::PipadTrainer>> trainers;

  Impl(gpusim::Gpu& g, const graph::DTDG& d, models::TrainConfig c,
       runtime::PipadOptions o)
      : gpu0(g), data(d), cfg(c), opts(std::move(o)) {
    K = std::max(1, opts.replicas);
    // --replicas 0 is PiPAD's own schedule: an optimizer step after every
    // frame, and the trainer reads the DTDG directly with no infeed staging
    // in front of it. This is the only place that tells it apart.
    const bool classic = opts.replicas == 0;
    round_size = classic ? 1 : kReplicaRound;
    staged = !classic;
    PIPAD_CHECK_MSG(parse_allreduce(opts.allreduce, algo),
                    "unknown allreduce algorithm '" << opts.allreduce
                                                    << "' (ring|tree)");

    gpus.push_back(&gpu0);
    for (int k = 1; k < K; ++k) {
      extra_gpus.push_back(std::make_unique<gpusim::Gpu>());
      gpus.push_back(extra_gpus.back().get());
    }
    for (int k = 0; k < K; ++k) {
      trainers.push_back(std::make_unique<runtime::PipadTrainer>(
          *gpus[k], data, cfg, opts));
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
    std::vector<int> owner(F), shard_pos(F);
    for (std::size_t j = 0; j < F; ++j) {
      const int k = static_cast<int>(j % static_cast<std::size_t>(G)) % K;
      owner[j] = k;
      shard_pos[j] = static_cast<int>(assigned[k].size());
      assigned[k].push_back(frames[j]);
    }

    // Per-replica infeed (K >= 1 only): one bounded HostStream per replica
    // spanning every epoch; shard (epoch * per_epoch + q) stages the
    // features + targets of the replica's q-th assigned frame into its slot.
    // Each shard's measured wall-clock lands on the worker lane that ran it
    // as a "prep:infeed:r<k>" op, and at most kInfeedWindow shards are
    // staged but unconsumed. Staging is declared before the streams so
    // in-flight jobs never outlive their slots.
    std::vector<std::vector<std::vector<float>>> staging(K);
    std::vector<std::unique_ptr<host::HostLane>> lanes(K);
    std::vector<std::unique_ptr<host::HostStream>> infeed(K);
    for (int k = 0; staged && k < K; ++k) {
      const std::size_t per_epoch = assigned[k].size();
      const std::size_t shards =
          per_epoch * static_cast<std::size_t>(cfg.epochs);
      staging[k].assign(shards, {});
      lanes[k] = std::make_unique<host::HostLane>(
          *gpus[k], opts.host_threads > 0
                        ? static_cast<std::size_t>(opts.host_threads)
                        : 0);
      auto* stage_k = &staging[k];
      const auto* frames_k = &assigned[k];
      const graph::DTDG* d = &data;
      // Built with += (not `"infeed:r" + std::to_string(k)`) to dodge a
      // gcc-12 -Werror=restrict false positive on char*+string&& (GCC
      // PR105329).
      std::string infeed_name = "infeed:r";
      infeed_name += std::to_string(k);
      infeed[k] = lanes[k]->stream(
          std::move(infeed_name), shards,
          [stage_k, frames_k, d, per_epoch](std::size_t shard) {
            // The staged shard is the pinned-host copy a real infeed would
            // build: the frame's raw features and targets. Consumers keep
            // reading the canonical DTDG tensors — this models the staging
            // cost and backpressure, not a second source of truth.
            const graph::Frame& f = (*frames_k)[shard % per_epoch];
            auto& buf = (*stage_k)[shard];
            for (int i = 0; i < f.size; ++i) {
              const int t = f.start + i;
              const auto& feat = d->snapshots[t].features.storage();
              const auto& targ = d->targets[t].storage();
              buf.insert(buf.end(), feat.begin(), feat.end());
              buf.insert(buf.end(), targ.begin(), targ.end());
            }
          },
          kInfeedWindow);
    }

    const std::size_t grad_bytes =
        flatten_grads(trainers[0]->params()).size() * sizeof(float);
    const int steps = allreduce_steps(algo, K);
    const double step_us = allreduce_step_us(algo, K, grad_bytes, link);
    const std::size_t step_bytes = allreduce_step_bytes(algo, K, grad_bytes);
    const std::string link_op =
        std::string("comm:allreduce:") + allreduce_name(algo);

    TrainResult result;
    double allreduce_total = 0.0;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      for (int k = 0; k < K; ++k) {
        trainers[k]->begin_epoch(epoch, assigned[k]);
      }
      for (std::size_t r0 = 0; r0 < F; r0 += static_cast<std::size_t>(G)) {
        if (opts.cancel != nullptr &&
            opts.cancel->load(std::memory_order_relaxed)) {
          // Round boundary: the infeed streams drain through their
          // destructors, so cancelling never leaks staged shards.
          throw Cancelled();
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
              const std::size_t shard =
                  static_cast<std::size_t>(epoch) * assigned[k].size() +
                  static_cast<std::size_t>(shard_pos[j]);
              const double ready_us = infeed[k]->wait(shard);
              std::vector<float>().swap(staging[k][shard]);  // Consumed.
              trainers[k]->set_stage_ready(ready_us);
            }
            // A one-frame round steps right behind its frame.
            round_loss[j - r0] = trainers[k]->grad_frame(frames[j], G == 1);
            round_grads[j - r0] = flatten_grads(trainers[k]->params());
          }
        }
        // ---- All-reduce: canonical numerics (global frame order), then
        // the modeled interconnect steps from the cross-replica barrier.
        const std::vector<float> avg = reduce_mean(round_grads, algo);
        if (K > 1 && steps > 0) {
          double barrier = 0.0;
          for (int k = 0; k < K; ++k) barrier = std::max(barrier, round_front(k));
          for (int k = 0; k < K; ++k) {
            double t = barrier;
            for (int s = 0; s < steps; ++s) {
              t = gpus[k]->timeline().submit(0, Resource::Link, link_op,
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
    for (int k = 0; staged && k < K; ++k) infeed[k]->finish();

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
                               models::TrainConfig cfg,
                               runtime::PipadOptions opts)
    : impl_(std::make_unique<Impl>(gpu, data, cfg, std::move(opts))) {}

ReplicaTrainer::~ReplicaTrainer() = default;

TrainResult ReplicaTrainer::train() { return impl_->train(); }

models::DgnnModel& ReplicaTrainer::model() {
  return impl_->trainers[0]->model();
}

const std::map<int, int>& ReplicaTrainer::sper_decisions() const {
  return impl_->trainers[0]->sper_decisions();
}

int ReplicaTrainer::replicas() const { return impl_->K; }

const gpusim::Timeline& ReplicaTrainer::replica_timeline(int k) const {
  PIPAD_CHECK_MSG(k >= 0 && k < impl_->K, "unknown replica " << k);
  return impl_->gpus[k]->timeline();
}

}  // namespace pipad::replica
