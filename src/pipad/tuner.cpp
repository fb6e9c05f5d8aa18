#include "pipad/tuner.hpp"

#include <algorithm>

namespace pipad::runtime {

namespace {

/// The S_per options the tuner weighs against one snapshot at a time.
constexpr int kSperOptions[] = {2, 4, 8};

}  // namespace

double partition_transfer_us(const gpusim::CostModel& cm,
                             const TunerInputs& in, int s_per,
                             double group_or) {
  const std::size_t topo_bytes =
      in.needs_topology
          ? static_cast<std::size_t>(
                (group_or + s_per * (1.0 - group_or)) *
                static_cast<double>(in.shape.nnz_per_snapshot) * 2 * 2 *
                sizeof(int))
          : 0;
  const std::size_t feat_bytes = static_cast<std::size_t>(s_per) *
                                 in.shape.num_nodes * in.shape.feat_dim *
                                 sizeof(float);
  return cm.transfer_us(topo_bytes + feat_bytes, true);
}

int decide_sper(const gpusim::CostModel& cm, const TunerInputs& in) {
  // The S=1 baseline every option must beat: one snapshot at a time with
  // its own transfer.
  int best_s = 1;
  double best_cost = std::max(one_snapshot_gnn_us(cm, in.shape),
                              partition_transfer_us(cm, in, 1, 1.0));

  for (int s : kSperOptions) {
    if (s > in.frame_size) continue;
    // Factor 1: memory upper bound — never trigger OOM (20% headroom on
    // the estimate, 80% of what the device reports free).
    const std::size_t need =
        static_cast<std::size_t>(s) * in.per_snapshot_mem * 12 / 10;
    if (need > in.device_available * 8 / 10) continue;

    const double group_or =
        std::max(0.0, 1.0 - (s - 1) * (1.0 - in.mean_pair_or));
    // Factor 2: the offline speedup estimate gives the option's compute.
    const double comp =
        parallel_gnn_us(cm, in.shape, s, group_or, in.weight_reuse);
    const double xfer =
        in.enable_pipeline ? partition_transfer_us(cm, in, s, group_or) : 0.0;

    // Factor 3, the bottleneck metric: lowest per-snapshot cost of the
    // slower pipeline stage wins (compute-bound -> best parallel speedup;
    // transfer-bound -> larger S_per still wins because the overlap
    // topology ships once).
    const double cost = std::max(comp, xfer) / s;
    if (cost < best_cost * 0.999) {
      best_cost = cost;
      best_s = s;
    }
  }
  return best_s;
}

}  // namespace pipad::runtime
