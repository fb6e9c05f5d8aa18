// contention_pool: the work-stealing region executor against static blocks.
//
// Synthetic row workload, two cost profiles:
//   uniform — every row costs the same (stealing should be a wash);
//   zipf    — block b's rows cost ~ 1/(b+1), so the leading blocks dwarf
//             the tail the way skewed row distributions do in the real
//             aggregation kernels (the imbalance `pipad analyze` flags).
// Each profile runs with stealing on and off as the same
// ThreadPool::run_blocks region over ComputePool::even_ranges(kRows,
// kMaxBlocks) (identical block layout — the toggle only moves execution,
// never the partitioning), timed as min-of-N wall clock.
//
// The binary is its own gate: with >= 2 workers the zipf profile must run
// faster with stealing than without, and must actually steal, or it exits
// nonzero — CI runs it before diffing BENCH_pool.json so a regression in
// the executor fails fast even when the timings stay inside the bench_diff
// threshold. Flags are the shared bench set; only --threads, --epochs
// (measurement repetitions) and --json are meaningful here.
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

struct RunResult {
  double min_us = 0.0;
  std::size_t steals = 0;
  std::size_t blocks = 0;
};

/// Time the region `iters` times (plus one untimed warmup) and keep the
/// fastest run; steal/block counters are summed over the timed runs.
RunResult run_profile(const Profile& p, bool steal, int iters,
                      std::vector<float>& out) {
  const ComputePool::Ranges ranges =
      ComputePool::even_ranges(kRows, ComputePool::kMaxBlocks);
  ThreadPool& pool = ComputePool::instance().pool();
  const auto region = [&] {
    return pool.run_blocks(
        ranges.size(),
        [&](std::size_t b) {
          for (std::size_t i = ranges[b].first; i < ranges[b].second; ++i) {
            float acc = static_cast<float>(i) * 0.5f + 1.0f;
            const std::size_t reps = p.reps[i];
            for (std::size_t k = 0; k < reps; ++k) {
              acc = acc * 0.999f + 0.001f * static_cast<float>(k);
            }
            out[i] = acc;
          }
        },
        steal);
  };
  region();  // Warmup (page faults, pool wakeup).
  RunResult r;
  r.min_us = 1e30;
  for (int it = 0; it < iters; ++it) {
    const auto t0 = std::chrono::steady_clock::now();
    const ThreadPool::StealStats st = region();
    const auto t1 = std::chrono::steady_clock::now();
    r.min_us = std::min(
        r.min_us,
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    r.steals += st.stolen;
    r.blocks += st.executed;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv);
  ComputePool::instance().configure(
      flags.job.threads > 0 ? static_cast<std::size_t>(flags.job.threads) : 0);
  const std::size_t threads = ComputePool::instance().threads();
  const int iters = std::max(flags.job.epochs, 5);

  std::printf("contention_pool: %zu rows, %zu blocks, %zu workers, "
              "min of %d runs\n\n",
              static_cast<std::size_t>(kRows), ComputePool::kMaxBlocks,
              threads, iters);
  std::printf("%-10s %-8s %12s %8s %8s\n", "profile", "method", "min_us",
              "steals", "blocks");

  bench::JsonReport report("contention_pool", flags);
  std::vector<float> out(kRows, 0.0f);
  std::vector<float> reference;
  double zipf_steal_us = 0.0, zipf_static_us = 0.0;
  std::size_t zipf_steals = 0;
  for (const auto& profile : {make_uniform(), make_zipf()}) {
    reference.clear();
    for (const bool steal : {true, false}) {
      const auto r = run_profile(profile, steal, iters, out);
      std::printf("%-10s %-8s %12.1f %8zu %8zu\n", profile.name,
                  steal ? "steal" : "static", r.min_us, r.steals, r.blocks);
      // The toggle must never change the numbers the blocks produce.
      if (reference.empty()) {
        reference = out;
      } else if (reference != out) {
        std::fprintf(stderr,
                     "FAIL: %s outputs differ between steal and static\n",
                     profile.name);
        return 1;
      }
      if (std::string(profile.name) == "zipf") {
        (steal ? zipf_steal_us : zipf_static_us) = r.min_us;
        if (steal) zipf_steals = r.steals;
      }
      models::TrainResult tr;
      tr.total_us = r.min_us;
      tr.compute_us = r.min_us;
      report.add(profile.name, "pool", steal ? "steal" : "static", tr);
    }
  }

  if (!report.write_if_requested()) return 1;

  if (threads >= 2) {
    // The point of the executor: skewed blocks must not serialize on their
    // home slots, so the zipf region must actually rebalance.
    if (zipf_steals == 0) {
      std::fprintf(stderr,
                   "FAIL: zipf profile executed without a single steal\n");
      return 1;
    }
  }
  if (threads >= 2 && std::thread::hardware_concurrency() >= 2) {
    // Wall-clock superiority needs real cores: on a single-CPU machine the
    // OS serializes the workers and steal == static by construction, so
    // only the steals > 0 gate above applies there.
    if (zipf_steal_us >= zipf_static_us) {
      std::fprintf(stderr,
                   "FAIL: stealing (%.1f us) did not beat static blocks "
                   "(%.1f us) on the zipf profile\n",
                   zipf_steal_us, zipf_static_us);
      return 1;
    }
    std::printf("\nzipf speedup from stealing: %.2fx\n",
                zipf_static_us / zipf_steal_us);
  } else {
    std::printf("\n(%s: zipf steal-vs-static timing gate skipped)\n",
                threads < 2 ? "single worker" : "single hardware CPU");
  }
  return 0;
}
