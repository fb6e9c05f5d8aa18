// HostLane subsystem tests: measured multi-lane charging, per-job
// completion events, worker-lane timeline semantics, and end-to-end
// determinism of the trainer across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "gpusim/trace.hpp"
#include "host/host_lane.hpp"
#include "replica/replica_trainer.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using gpusim::Resource;

// ---------- Timeline worker-lane semantics ----------

TEST(TimelineLanes, WorkerLanesAreIndependent) {
  gpusim::Timeline tl;
  tl.set_worker_lanes(3);
  EXPECT_EQ(tl.worker_lanes(), 3u);
  tl.submit_worker(0, "prep:a", 10.0);
  tl.submit_worker(1, "prep:b", 4.0);
  tl.submit_worker(0, "prep:c", 5.0);
  // Lane 0 serializes its own ops; lane 1 runs concurrently from t=0.
  EXPECT_NEAR(tl.worker_lane_ready(0), 15.0, 1e-9);
  EXPECT_NEAR(tl.worker_lane_ready(1), 4.0, 1e-9);
  EXPECT_NEAR(tl.worker_lane_ready(2), 0.0, 1e-9);
  // Aggregate views: busy sums lanes, ready is the latest lane.
  EXPECT_NEAR(tl.busy_us(Resource::CpuWorker), 19.0, 1e-9);
  EXPECT_NEAR(tl.resource_ready(Resource::CpuWorker), 15.0, 1e-9);
}

TEST(TimelineLanes, SubmitRejectsCpuWorkerResource) {
  gpusim::Timeline tl;
  EXPECT_THROW(tl.submit(0, Resource::CpuWorker, "prep:x", 1.0), Error);
}

TEST(TimelineLanes, RecordEventAtGatesAStream) {
  gpusim::Timeline tl;
  const auto s = tl.create_stream("copy");
  const auto ev = tl.record_event_at(42.0);
  tl.wait_event(s, ev);
  EXPECT_NEAR(tl.stream_ready(s), 42.0, 1e-9);
  // An op on the gated stream cannot start before the event time.
  const double end = tl.submit(s, Resource::H2D, "h2d:x", 5.0);
  EXPECT_NEAR(end, 47.0, 1e-9);
}

TEST(TimelineLanes, NotBeforeDelaysLaneStart) {
  gpusim::Timeline tl;
  tl.set_worker_lanes(2);
  const double end = tl.submit_worker(1, "prep:late", 3.0, 100.0);
  EXPECT_NEAR(end, 103.0, 1e-9);
}

TEST(TimelineLanes, SetWorkerLanesNeverShrinks) {
  gpusim::Timeline tl;
  tl.set_worker_lanes(4);
  tl.submit_worker(3, "prep:x", 5.0);
  tl.set_worker_lanes(2);  // A later, narrower HostLane on the same Gpu.
  EXPECT_EQ(tl.worker_lanes(), 4u);
  EXPECT_NEAR(tl.busy_us(Resource::CpuWorker), 5.0, 1e-9);
}

TEST(TimelineLanes, ResetClearsLaneStateButKeepsLaneCount) {
  gpusim::Timeline tl;
  tl.set_worker_lanes(4);
  tl.submit_worker(2, "prep:x", 7.0);
  tl.reset();
  EXPECT_EQ(tl.worker_lanes(), 4u);
  EXPECT_NEAR(tl.busy_us(Resource::CpuWorker), 0.0, 1e-9);
  EXPECT_NEAR(tl.worker_lane_ready(2), 0.0, 1e-9);
}

TEST(TimelineLanes, GanttRendersOneRowPerLane) {
  gpusim::Timeline tl;
  tl.set_worker_lanes(2);
  tl.submit_worker(0, "prep:a", 10.0);
  tl.submit_worker(1, "prep:b", 10.0);
  gpusim::GanttOptions opts;
  opts.width = 10;
  const std::string g = gpusim::render_gantt(tl, opts);
  EXPECT_NE(g.find("cpu-w0"), std::string::npos) << g;
  EXPECT_NE(g.find("cpu-w1"), std::string::npos) << g;
}

// ---------- HostLane ----------

TEST(HostLane, RegistersOneTimelineLanePerPoolThread) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 3);
  EXPECT_EQ(lane.threads(), 3u);
  EXPECT_EQ(gpu.timeline().worker_lanes(), 3u);
}

TEST(HostLane, ChargesMeasuredTimeToTheExecutingLane) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  std::atomic<int> ran{0};
  lane.run("job", 8, [&](std::size_t) {
    // Enough real work to measure (> 0 us on any clock).
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 8);
  // Every op landed on the CpuWorker resource with a valid lane and the
  // measured (non-zero) duration.
  int prep_ops = 0;
  for (const auto& rec : gpu.timeline().records()) {
    ASSERT_EQ(rec.resource, Resource::CpuWorker);
    EXPECT_LT(rec.lane, 2u);
    EXPECT_GT(rec.end_us - rec.start_us, 0.0);
    ++prep_ops;
  }
  EXPECT_EQ(prep_ops, 8);
  EXPECT_NEAR(gpu.timeline().busy_us(Resource::CpuWorker),
              gpu.timeline().busy_us_with_prefix("prep:job"), 1e-9);
}

TEST(HostLane, JobsOverlapAcrossLanes) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 4);
  lane.run("job", 8, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  // With 4 lanes and 8 equal jobs the batch must finish well before the
  // serial sum of the measured durations.
  const double busy = gpu.timeline().busy_us(Resource::CpuWorker);
  EXPECT_LT(gpu.timeline().makespan(), busy * 0.75);
}

TEST(HostLane, EmptyBatchIsANoOp) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  lane.run("job", 0, [&](std::size_t) { FAIL(); });
  EXPECT_TRUE(gpu.timeline().records().empty());
}

TEST(HostLane, RethrowsJobExceptionAfterDrainingTheBatch) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  std::atomic<int> ran{0};
  EXPECT_THROW(lane.run("job", 6,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 1) throw std::runtime_error("job failed");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 6);
}

TEST(HostLane, ChargeAllOccupiesEveryLane) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 3);
  const double end = lane.charge_all("build", 10.0, 2.0);
  EXPECT_NEAR(end, 12.0, 1e-9);
  EXPECT_NEAR(gpu.timeline().busy_us(Resource::CpuWorker), 30.0, 1e-9);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_NEAR(gpu.timeline().worker_lane_ready(l), 12.0, 1e-9);
  }
}

TEST(HostLane, ChargeAllBoundsLanesByTaskCount) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 4);
  // A region with only 2 parallel tasks occupied 2 lanes, not 4.
  lane.charge_all("build", 10.0, 0.0, 2);
  EXPECT_NEAR(gpu.timeline().busy_us(Resource::CpuWorker), 20.0, 1e-9);
  EXPECT_NEAR(gpu.timeline().worker_lane_ready(2), 0.0, 1e-9);
  EXPECT_NEAR(gpu.timeline().worker_lane_ready(3), 0.0, 1e-9);
}

// ---------- End-to-end determinism across thread counts ----------

TEST(HostLane, TrainerIsDeterministicAcrossThreadCounts) {
  const auto g = graph::generate(testutil::tiny_config(64, 12, 2));
  models::TrainConfig cfg;
  cfg.model = models::ModelType::TGcn;
  cfg.frame_size = 4;
  cfg.epochs = 2;
  cfg.max_frames_per_epoch = 3;
  cfg.hidden_dim = 6;

  auto run = [&](int threads) {
    gpusim::Gpu gpu;
    runtime::PipadOptions opts;
    opts.host_threads = threads;
    replica::ReplicaTrainer pip(gpu, g, cfg, opts);
    const auto r = pip.train();
    return std::make_pair(r.frame_loss, pip.sper_decisions());
  };
  const auto [loss1, dec1] = run(1);
  const auto [loss8, dec8] = run(8);

  ASSERT_EQ(loss1.size(), loss8.size());
  for (std::size_t i = 0; i < loss1.size(); ++i) {
    // Bitwise identical: the prep math never depends on the thread count.
    EXPECT_EQ(loss1[i], loss8[i]) << "frame " << i;
  }
  EXPECT_EQ(dec1, dec8);
}

TEST(HostLane, PrepChargedToTimelineComesFromRealExecution) {
  const auto g = graph::generate(testutil::tiny_config(64, 12, 2));
  models::TrainConfig cfg;
  cfg.model = models::ModelType::TGcn;
  cfg.frame_size = 4;
  cfg.epochs = 2;
  cfg.max_frames_per_epoch = 3;
  cfg.hidden_dim = 6;
  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.host_threads = 2;
  replica::ReplicaTrainer pip(gpu, g, cfg, opts);
  const auto r = pip.train();
  // Slicing + profiling + overlap extraction all ran and were measured.
  EXPECT_GT(gpu.timeline().busy_us_with_prefix("prep:graph-analyzer"), 0.0);
  EXPECT_GT(gpu.timeline().busy_us_with_prefix("prep:profiling"), 0.0);
  EXPECT_GT(gpu.timeline().busy_us_with_prefix("prep:overlap-extract"), 0.0);
  EXPECT_GT(r.prep_us, 0.0);
  EXPECT_EQ(gpu.timeline().worker_lanes(), 2u);
}

}  // namespace
}  // namespace pipad
