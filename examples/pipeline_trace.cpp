// Pipeline trace — reproduces the *structure* of Fig. 8: how PiPAD
// overlaps CPU-side preparation, PCIe transfers, and GPU compute, versus
// the serialized PyGT schedule. Renders an ASCII Gantt chart per method
// and writes full CSV traces for external plotting.
//
//   $ ./build/examples/pipeline_trace
#include <cstdio>
#include <fstream>

#include "baselines/baseline_trainer.hpp"
#include "gpusim/trace.hpp"
#include "graph/generator.hpp"
#include "replica/replica_trainer.hpp"

int main() {
  using namespace pipad;

  const auto cfg = graph::dataset_by_name("epinions", /*scale_large=*/256);
  const graph::DTDG data = graph::generate(cfg);

  models::TrainConfig tcfg;
  tcfg.model = models::ModelType::MpnnLstm;
  tcfg.frame_size = 8;
  tcfg.epochs = 2;
  tcfg.max_frames_per_epoch = 4;

  gpusim::Gpu gpu_base;
  baselines::BaselineTrainer base(gpu_base, data, tcfg,
                                  baselines::Variant::PyGT);
  base.train();

  gpusim::Gpu gpu_pipad;
  replica::ReplicaTrainer pipad(gpu_pipad, data, tcfg);
  pipad.train();

  gpusim::GanttOptions opts;
  opts.width = 100;
  std::printf("=== PyGT (synchronous, one snapshot at a time) ===\n%s\n",
              gpusim::render_gantt(gpu_base.timeline(), opts).c_str());
  std::printf("=== PiPAD (pipelined, partition-parallel) ===\n%s\n",
              gpusim::render_gantt(gpu_pipad.timeline(), opts).c_str());

  using gpusim::Resource;
  std::printf("copy/compute overlap: PyGT %.0f%%   PiPAD %.0f%%\n",
              100.0 * gpusim::overlap_fraction(gpu_base.timeline(),
                                               Resource::H2D,
                                               Resource::Compute),
              100.0 * gpusim::overlap_fraction(gpu_pipad.timeline(),
                                               Resource::H2D,
                                               Resource::Compute));

  std::ofstream csv("pipeline_trace_pipad.csv");
  gpusim::write_trace_csv(gpu_pipad.timeline(), csv);
  std::printf("full PiPAD trace written to pipeline_trace_pipad.csv (%zu ops)\n",
              gpu_pipad.timeline().records().size());
  return 0;
}
