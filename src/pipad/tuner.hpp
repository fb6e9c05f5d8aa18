// Dynamic S_per tuner (§4.4), extracted from the trainer so the decision
// logic is a pure function of its inputs and can be table-tested.
//
// The paper's tuner weighs three factors per frame:
//   1. a memory upper bound (never trigger OOM),
//   2. the offline parallel-speedup estimate (offline_analysis.hpp),
//   3. a pipeline-stall rejection: an option whose partition transfer takes
//      longer than the work that could hide it stalls the pipeline.
//
// Factor 3 is folded into the bottleneck metric max(compute, transfer)/S_per
// using the analytic device model alone, so a decision depends only on the
// profiled workload shape — never on measured host time or --threads.
#pragma once

#include <cstddef>

#include "gpusim/kernel_stats.hpp"
#include "pipad/offline_analysis.hpp"

namespace pipad::runtime {

/// Everything decide_sper needs, decoupled from the trainer's state.
struct TunerInputs {
  WorkloadShape shape;  ///< num_nodes/nnz already sim_scale-adjusted.
  int frame_size = 0;
  bool enable_pipeline = true;  ///< Off: transfers are synchronous and
                                ///< cannot stall the pipeline.
  bool weight_reuse = true;
  bool needs_topology = true;   ///< Steady transfers ship topology too.
  double mean_pair_or = 1.0;    ///< Mean adjacent-snapshot overlap rate.
  std::size_t per_snapshot_mem = 0;
  std::size_t device_available = 0;  ///< Free device memory (bytes).
};

/// Estimated one-partition transfer time for an S_per option: the overlap
/// topology ships once per partition, exclusive remainders and features per
/// member (§4.1).
double partition_transfer_us(const gpusim::CostModel& cm,
                             const TunerInputs& in, int s_per,
                             double group_or);

/// Pick S_per for one frame. Deterministic given its inputs.
int decide_sper(const gpusim::CostModel& cm, const TunerInputs& in);

}  // namespace pipad::runtime
