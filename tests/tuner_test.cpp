// Dynamic tuning tests: table-driven decide_sper cases (memory bound,
// transfer-bound, pipeline off), the streaming HostStream
// extractor (backpressure, charging, exceptions), and the long-timeline
// streamed-prep determinism wall across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "host/host_lane.hpp"
#include "pipad/pipad_trainer.hpp"
#include "pipad/tuner.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using gpusim::Resource;
using runtime::TunerInputs;

// ---------- decide_sper: table-driven cases ----------

/// A workload whose kernels clear the launch-latency floor, on which the
/// analytic tuner prefers large S_per (high overlap, cheap transfers).
TunerInputs base_inputs() {
  TunerInputs in;
  in.shape = runtime::WorkloadShape{200000, 2000000, 2, 6, 32, 4};
  in.frame_size = 8;
  in.mean_pair_or = 0.9;
  in.per_snapshot_mem = 8u << 20;
  in.device_available = 16ull << 30;
  return in;
}

gpusim::CostModel cost_model() {
  return gpusim::CostModel((gpusim::SimConfig()));
}

TEST(DecideSper, PicksAParallelOptionOnHighOverlapWorkloads) {
  const auto cm = cost_model();
  EXPECT_GT(runtime::decide_sper(cm, base_inputs()), 1);
}

TEST(DecideSper, MemoryBoundRejectsOptionsThatWouldOom) {
  const auto cm = cost_model();
  auto in = base_inputs();
  // Room for ~2.5 snapshots at 8 MB each (with the 1.2x/0.8x headroom):
  // S=4 and S=8 must be rejected, S=2 survives.
  in.device_available = 30u << 20;
  EXPECT_EQ(runtime::decide_sper(cm, in), 2);
  in.device_available = 1u << 20;  // Nothing fits: fall back to 1.
  EXPECT_EQ(runtime::decide_sper(cm, in), 1);
}

TEST(DecideSper, OptionsBeyondTheFrameAreSkipped) {
  const auto cm = cost_model();
  auto in = base_inputs();
  in.frame_size = 3;
  EXPECT_EQ(runtime::decide_sper(cm, in), 2);
}

/// A transfer-bound workload: wide features, low overlap — per-partition
/// transfers dwarf the device compute.
TunerInputs transfer_bound_inputs() {
  auto in = base_inputs();
  in.shape.feat_dim = 512;
  in.shape.hidden_dim = 16;
  in.mean_pair_or = 0.3;
  return in;
}

TEST(DecideSper, TransferBoundWorkloadsStillPreferParallelOptions) {
  const auto cm = cost_model();
  // Even transfer-bound, larger S_per wins the bottleneck metric (the
  // overlap topology ships once per partition, §4.1).
  EXPECT_GT(runtime::decide_sper(cm, transfer_bound_inputs()), 1);
}

TEST(DecideSper, PipelineOffDisablesTheStallRejection) {
  const auto cm = cost_model();
  auto in = transfer_bound_inputs();
  in.enable_pipeline = false;  // No async transfers: nothing to stall.
  EXPECT_GT(runtime::decide_sper(cm, in), 1);
}

// ---------- HostStream: streaming extraction ----------

/// n jobs with distinct modeled costs (job i scans 100 * (i + 1) edges).
std::vector<host::PrepCounts> distinct_counts(std::size_t n) {
  std::vector<host::PrepCounts> counts(n);
  for (std::size_t i = 0; i < n; ++i) counts[i].edges = 100 * (i + 1);
  return counts;
}

TEST(HostStream, RunsEveryJobAndChargesTheLanes) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  std::vector<int> out(8, 0);
  auto stream = lane.stream("job", distinct_counts(8), [&](std::size_t i) {
    out[i] = static_cast<int>(i) + 1;
  });
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_GT(stream->wait(j), 0.0);
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i + 1);
  // All eight jobs landed on the modeled worker lanes.
  int prep_ops = 0;
  for (const auto& rec : gpu.timeline().records()) {
    ASSERT_EQ(rec.resource, Resource::CpuWorker);
    EXPECT_LT(rec.lane, host::kModeledHostCores);
    ++prep_ops;
  }
  EXPECT_EQ(prep_ops, 8);
  // wait() on a retired job is idempotent.
  EXPECT_EQ(stream->wait(3), stream->wait(3));
}

TEST(HostStream, WindowBoundsInFlightJobs) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  const std::size_t window = 2 * lane.threads();
  std::atomic<int> started{0};
  auto stream = lane.stream("job", distinct_counts(12), [&](std::size_t) {
    started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  for (std::size_t j = 0; j < 12; ++j) {
    stream->wait(j);
    // Backpressure: at most (retired so far) + window jobs may ever have
    // started — the stream never runs ahead of the consumer by more than
    // twice the pool width.
    EXPECT_LE(static_cast<std::size_t>(started.load()),
              stream->retired() + window);
  }
  EXPECT_EQ(started.load(), 12);
  EXPECT_EQ(stream->retired(), 12u);
}

TEST(HostStream, ChargesInIndexOrderWhenJobsCompleteOutOfOrder) {
  // The same batch twice: once with the first jobs finishing last, once
  // with every job instant. The modeled schedule is identical.
  auto schedule = [](bool skewed) {
    gpusim::Gpu gpu;
    host::HostLane lane(gpu, 4);
    auto stream = lane.stream("job", distinct_counts(10), [&](std::size_t i) {
      if (skewed && i < 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(4 - i));
      }
    });
    std::vector<double> ends;
    for (std::size_t j = 0; j < 10; ++j) ends.push_back(stream->wait(j));
    std::vector<std::pair<std::size_t, double>> ops;
    for (const auto& rec : gpu.timeline().records()) {
      ops.emplace_back(rec.lane, rec.end_us - rec.start_us);
    }
    return std::make_pair(ends, ops);
  };
  const auto skewed = schedule(true);
  EXPECT_EQ(skewed, schedule(false));
  // Job i is the i-th op charged, at its own cost.
  const auto counts = distinct_counts(10);
  ASSERT_EQ(skewed.second.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(skewed.second[i].second, host::prep_cost_us(counts[i]));
  }
}

TEST(HostStream, OutOfOrderWaitStillDrains) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  std::atomic<int> ran{0};
  auto stream = lane.stream("job", distinct_counts(6),
                            [&](std::size_t) { ran.fetch_add(1); });
  // Waiting on the last job first retires every job before it, in order.
  EXPECT_GT(stream->wait(5), 0.0);
  EXPECT_EQ(stream->retired(), 6u);
  EXPECT_EQ(ran.load(), 6);
  for (std::size_t j = 0; j < 6; ++j) EXPECT_GT(stream->wait(j), 0.0);
}

TEST(HostStream, DestructorDrainsUnconsumedJobs) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  std::atomic<int> ran{0};
  {
    auto stream = lane.stream("job", distinct_counts(10),
                              [&](std::size_t) { ran.fetch_add(1); });
    stream->wait(0);
  }  // Dtor must retire the rest; jobs reference `ran` on this frame.
  EXPECT_EQ(ran.load(), 10);
}

TEST(HostStream, RethrowsTheFirstJobFailureFromWait) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  std::atomic<int> ran{0};
  auto stream = lane.stream("job", distinct_counts(6), [&](std::size_t i) {
    ran.fetch_add(1);
    if (i == 2) throw std::runtime_error("job failed");
  });
  // Jobs before the failure are consumed normally.
  EXPECT_GT(stream->wait(1), 0.0);
  EXPECT_THROW(stream->wait(2), std::runtime_error);
  EXPECT_EQ(ran.load(), 6);  // The failure drained, not wedged, the stream.
  // Sticky: the failed batch can never hand out results as if it
  // succeeded — every later wait (including on earlier jobs) throws.
  EXPECT_THROW(stream->wait(0), std::runtime_error);
  EXPECT_THROW(stream->wait(5), std::runtime_error);
}

// ---------- Streamed prep on a long timeline ----------

TEST(StreamingPrep, DecisionsAndLossesBitIdenticalAcrossThreadCounts) {
  // Every sliding frame of the long config. The steady epoch is the final
  // one, and the tuner picks S_per = 8 here, so frames 7 and 8 free the
  // partitions behind the window inline while 8 pool workers run the
  // streamed extraction and the kernels (TSan/ASan CI run this).
  const auto g = graph::generate(testutil::tiny_config(256, 16, 2));
  std::map<int, int> d1, d8;
  const auto r1 = testutil::train_long(g, 1, &d1);
  const auto r8 = testutil::train_long(g, 8, &d8);
  EXPECT_EQ(d1, d8);
  ASSERT_EQ(r1.frame_loss.size(), r8.frame_loss.size());
  for (std::size_t i = 0; i < r1.frame_loss.size(); ++i) {
    EXPECT_EQ(r1.frame_loss[i], r8.frame_loss[i]) << "frame " << i;
  }
}

}  // namespace
}  // namespace pipad
