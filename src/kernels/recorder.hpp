// KernelRecorder: decouples compute modules from the simulator.
//
// NN layers and aggregation wrappers perform their real math eagerly, then
// report a (name, KernelStats) pair to the recorder. Trainers decide what a
// "launch" means: the PyGT baselines submit each kernel individually (paying
// per-launch overhead), PiPAD batches them into a CudaGraph (§4.2).
#pragma once

#include <string>

#include "gpusim/kernel_stats.hpp"

namespace pipad::kernels {

class KernelRecorder {
 public:
  virtual ~KernelRecorder() = default;
  virtual void record(const std::string& name,
                      const gpusim::KernelStats& stats) = 0;
};

}  // namespace pipad::kernels
