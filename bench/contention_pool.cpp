// contention_pool: the shared-counter region executor against static blocks.
//
// Synthetic row workload, two cost profiles:
//   uniform — every row costs the same (balancing should be a wash);
//   zipf    — block b's rows cost ~ 1/(b+1), so the leading blocks dwarf
//             the tail the way skewed row distributions do in the real
//             aggregation kernels (the imbalance `pipad analyze` flags).
// Both methods walk the same ComputePool::even_ranges(kRows, kMaxBlocks)
// layout, so they compute identical outputs:
//   dynamic — one ThreadPool::run_blocks region over the blocks, which
//             threads claim from the shared counter as they free up;
//   static  — a run_blocks region of one job per pool thread, job s
//             walking its fixed round-robin share s, s + threads, ...
// Each is timed as min-of-N wall clock.
//
// The binary is its own gate: the two methods must produce identical
// outputs, and with >= 2 workers on a multi-core host the zipf profile
// must run faster dynamic than static, or it exits nonzero — CI runs it
// before diffing BENCH_pool.json so a regression in the executor fails
// fast even when the timings stay inside the bench_diff threshold. Flags
// are the shared bench set; only --threads, --epochs (measurement
// repetitions) and --json are meaningful here.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

namespace {

using pipad::ComputePool;
using pipad::ThreadPool;

constexpr std::size_t kRows = 1u << 15;
/// Per-row work repetitions for the uniform profile; zipf redistributes the
/// same total across blocks as reps ~ kUniformReps * kBlocks / (b + 1)
/// (normalized by the harmonic sum so both profiles cost about the same).
constexpr std::size_t kUniformReps = 160;

struct Profile {
  const char* name;
  std::vector<std::size_t> reps;  ///< Per-row iteration counts.
};

Profile make_uniform() {
  return Profile{"uniform", std::vector<std::size_t>(kRows, kUniformReps)};
}

Profile make_zipf() {
  const std::size_t blocks = ComputePool::kMaxBlocks;
  const std::size_t per_block = kRows / blocks;
  double harmonic = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) harmonic += 1.0 / (b + 1);
  const double scale =
      static_cast<double>(kUniformReps) * blocks / harmonic;
  Profile p{"zipf", std::vector<std::size_t>(kRows)};
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::size_t b = std::min(i / per_block, blocks - 1);
    p.reps[i] = std::max<std::size_t>(1, scale / (b + 1));
  }
  return p;
}

/// Time the region `iters` times (plus one untimed warmup) and return the
/// fastest run in microseconds.
double run_profile(const Profile& p, bool dynamic, int iters,
                   std::vector<float>& out) {
  const ComputePool::Ranges ranges =
      ComputePool::even_ranges(kRows, ComputePool::kMaxBlocks);
  ThreadPool& pool = ComputePool::instance().pool();
  const auto block = [&](std::size_t b) {
    for (std::size_t i = ranges[b].first; i < ranges[b].second; ++i) {
      float acc = static_cast<float>(i) * 0.5f + 1.0f;
      const std::size_t reps = p.reps[i];
      for (std::size_t k = 0; k < reps; ++k) {
        acc = acc * 0.999f + 0.001f * static_cast<float>(k);
      }
      out[i] = acc;
    }
  };
  const std::size_t threads = pool.size();
  const auto region = [&] {
    if (dynamic) {
      pool.run_blocks(ranges.size(), block);
    } else {
      pool.run_blocks(threads, [&](std::size_t s) {
        for (std::size_t b = s; b < ranges.size(); b += threads) block(b);
      });
    }
  };
  region();  // Warmup (page faults, pool wakeup).
  double min_us = 1e30;
  for (int it = 0; it < iters; ++it) {
    const auto t0 = std::chrono::steady_clock::now();
    region();
    const auto t1 = std::chrono::steady_clock::now();
    min_us = std::min(
        min_us, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return min_us;
}

}  // namespace

int run(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv, bench::Writes::Records);
  ComputePool::instance().configure(
      flags.job.threads > 0 ? static_cast<std::size_t>(flags.job.threads) : 0);
  const std::size_t threads = ComputePool::instance().threads();
  const int iters = std::max(flags.job.epochs, 5);

  std::printf("contention_pool: %zu rows, %zu blocks, %zu workers, "
              "min of %d runs\n\n",
              static_cast<std::size_t>(kRows), ComputePool::kMaxBlocks,
              threads, iters);
  std::printf("%-10s %-8s %12s\n", "profile", "method", "min_us");

  bench::JsonReport report("contention_pool", flags);
  std::vector<float> out(kRows, 0.0f);
  std::vector<float> reference;
  double zipf_dynamic_us = 0.0, zipf_static_us = 0.0;
  for (const auto& profile : {make_uniform(), make_zipf()}) {
    reference.clear();
    for (const bool dynamic : {true, false}) {
      const char* method = dynamic ? "dynamic" : "static";
      const double us = run_profile(profile, dynamic, iters, out);
      std::printf("%-10s %-8s %12.1f\n", profile.name, method, us);
      // The schedule must never change the numbers the blocks produce.
      if (reference.empty()) {
        reference = out;
      } else if (reference != out) {
        std::fprintf(stderr,
                     "FAIL: %s outputs differ between dynamic and static\n",
                     profile.name);
        return 1;
      }
      if (std::string(profile.name) == "zipf") {
        (dynamic ? zipf_dynamic_us : zipf_static_us) = us;
      }
      models::TrainResult tr;
      tr.total_us = us;
      tr.compute_us = us;
      report.add(profile.name, "pool", method, tr);
    }
  }

  if (!report.write_if_requested()) return 1;

  if (threads >= 2 && std::thread::hardware_concurrency() >= 2) {
    // The point of the executor: skewed blocks must not serialize on the
    // thread whose fixed share they fall in. Wall-clock superiority needs
    // real cores: on a single-CPU machine the OS serializes the workers
    // and dynamic == static by construction.
    if (zipf_dynamic_us >= zipf_static_us) {
      std::fprintf(stderr,
                   "FAIL: dynamic blocks (%.1f us) did not beat static "
                   "blocks (%.1f us) on the zipf profile\n",
                   zipf_dynamic_us, zipf_static_us);
      return 1;
    }
    std::printf("\nzipf speedup from dynamic blocks: %.2fx\n",
                zipf_static_us / zipf_dynamic_us);
  } else {
    std::printf("\n(%s: zipf dynamic-vs-static timing gate skipped)\n",
                threads < 2 ? "single worker" : "single hardware CPU");
  }
  return 0;
}
