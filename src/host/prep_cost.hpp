// Prep cost model: what PiPAD's host-side preparation costs on the modeled
// timeline (§4.3, Fig. 8).
//
// The prep jobs (online slicing, profiling scans, overlap extraction and
// replica infeed staging) run for real on the ComputePool, but their
// modeled duration never comes from a host clock. Each prep:* op costs a
// linear function of counts of the job's own inputs, and it lands on one of
// kModeledHostCores worker lanes. The modeled timeline is therefore a pure
// function of the dataset and the schedule: identical across runs,
// `--threads` values, machines and build types.
//
// The constants were fitted once against the measured wall-clock of the
// real jobs on a shared 4-vCPU x86-64 host, one job at a time
// (fig10_end2end --threads=1 for the graph jobs, fig_replicas --threads=1
// for the infeed): least squares over every analyzer and profiling job for
// the row and edge costs, then the remaining extraction time per member
// edge and the staging time per byte. They are hardware parameters like
// the CostModel's, not tuning knobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pipad::gpusim {
class Gpu;
}

namespace pipad::host {

/// Host cores that run prep on the modeled timeline: one worker lane each.
/// The cap default_compute_threads() applies, taken from the paper's
/// 24-core testbed, where prep saturates well below the core count. It is
/// independent of `--threads`, which only sizes the real pool.
constexpr std::size_t kModeledHostCores = 8;

/// Modeled cost per CSR row a job walks (slicing or an overlap scan).
constexpr double kUsPerRow = 0.0045;
/// Modeled cost per edge a job walks while slicing or scanning.
constexpr double kUsPerEdge = 0.0042;
/// Modeled cost per partition-member edge split into overlap and
/// exclusive parts and re-sliced, on top of the walks. Fitted when the
/// split still went through sorted edge-key vectors; unchanged since, so
/// modeled records stay put.
constexpr double kUsPerMemberEdge = 0.041;
/// Modeled cost per byte staged into pinned host memory.
constexpr double kUsPerStagedByte = 0.00033;

/// What one prep job touches, counted from its inputs before it runs.
struct PrepCounts {
  std::uint64_t rows = 0;
  std::uint64_t edges = 0;
  std::uint64_t member_edges = 0;
  std::uint64_t bytes = 0;
};

/// Modeled duration of a prep job.
constexpr double prep_cost_us(const PrepCounts& c) {
  return static_cast<double>(c.rows) * kUsPerRow +
         static_cast<double>(c.edges) * kUsPerEdge +
         static_cast<double>(c.member_edges) * kUsPerMemberEdge +
         static_cast<double>(c.bytes) * kUsPerStagedByte;
}

/// Charge one prep job to the Gpu's least-loaded worker lane as a
/// "prep:<name>" op and return its modeled end time.
double charge(gpusim::Gpu& gpu, const std::string& name,
              const PrepCounts& counts);

}  // namespace pipad::host
