// Replicated data-parallel scaling: epoch time across --replicas x
// --threads grids, with the modeled all-reduce cost broken out.
//
// The headline claim this bench gates (BENCH_replicas.json in CI) is
// twofold: (1) epoch_us scales with the replica count — K devices split
// each epoch's frames, so the slowest replica's makespan shrinks as K
// grows, with the interconnect steps (allreduce_us) as the visible
// counterweight — and (2) the numerics are bitwise replica-invariant: the
// final loss for every (K, threads) cell must equal the K=1 cell exactly,
// or this binary exits nonzero before writing any JSON.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags =
      bench::Flags::parse(argc, argv, bench::Writes::RecordsAndTraces);
  bench::DatasetCache cache(flags);
  bench::JsonReport report("fig_replicas", flags);

  const std::vector<int> replica_counts = {1, 2, 4};
  // --threads on the command line names the widest pool; the sweep always
  // includes the serial pool so the determinism check crosses widths.
  std::vector<int> thread_counts = {1};
  if (flags.job.threads > 1) thread_counts.push_back(flags.job.threads);

  std::printf("Replicated data-parallel scaling\n");
  std::printf("(epochs=%d, frames/epoch=%d, frame size=%d)\n", flags.job.epochs,
              flags.job.frames, flags.job.frame_size);

  const auto model = models::ModelType::TGcn;
  bool diverged = false;
  for (const auto& cfg : flags.configs()) {
    const auto& g = cache.get(cfg);
    const auto tcfg = bench::train_config(flags, model);
    std::printf("\n--- %s ---\n", cfg.name.c_str());
    std::printf("%-10s %8s %14s %14s %12s\n", "method", "threads",
                "epoch (us)", "allreduce (us)", "last loss");

    float ref_loss = 0.0f;
    bool have_ref = false;
    for (int threads : thread_counts) {
      for (int K : replica_counts) {
        auto popts = api::pipad_options(flags.job);
        popts.host_threads = threads;
        popts.replicas = K;
        ComputePool::instance().configure(static_cast<std::size_t>(threads));
        gpusim::Gpu gpu;
        const auto r = bench::run_method(gpu, g, models::Method::PiPAD, tcfg,
                                         popts);
        // += rather than char*+string&& (gcc-12 -Werror=restrict, PR105329).
        std::string method = "r";
        method += std::to_string(K);
        method += "xt";
        method += std::to_string(threads);
        report.add(cfg.name, models::model_type_name(model), method, r);
        if (K == 1 && threads == 1) {
          bench::write_trace(flags, "fig_replicas", gpu, cfg.name,
                             models::model_type_name(model), method);
        }
        std::printf("%-10s %8d %14.0f %14.0f %12.6f\n", method.c_str(),
                    threads, r.total_us / flags.job.epochs, r.allreduce_us,
                    static_cast<double>(r.final_loss()));
        // Bitwise invariance wall: every cell of the grid must reproduce
        // the serial single-device loss exactly.
        const float loss = r.final_loss();
        if (!have_ref) {
          ref_loss = loss;
          have_ref = true;
        } else if (std::memcmp(&ref_loss, &loss, sizeof(float)) != 0) {
          std::fprintf(stderr,
                       "[fig_replicas] DIVERGENCE on %s at %s: loss %.9g != "
                       "reference %.9g\n",
                       cfg.name.c_str(), method.c_str(),
                       static_cast<double>(loss),
                       static_cast<double>(ref_loss));
          diverged = true;
        }
      }
    }
  }
  if (diverged) {
    std::fprintf(stderr,
                 "[fig_replicas] replica determinism wall failed; not "
                 "writing JSON\n");
    return 1;
  }
  std::printf(
      "\nShape check: epoch_us shrinks as K grows (frames split across "
      "replicas) while\nallreduce_us grows with the modeled interconnect "
      "steps; every cell's loss is\nbit-identical to r1xt1.\n");
  return report.write_if_requested() ? 0 : 1;
}
