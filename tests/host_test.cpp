// HostLane subsystem tests: the prep cost model and its lane placement,
// worker-lane timeline semantics, and end-to-end determinism of the
// trainer's modeled timeline across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

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
  tl.set_worker_lanes(2);  // A later, narrower request on the same Gpu.
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

// ---------- HostLane: prep charged from counts ----------

/// The worker-lane ops of a timeline, in charge order.
std::vector<gpusim::OpRecord> worker_ops(const gpusim::Timeline& tl) {
  std::vector<gpusim::OpRecord> out;
  for (const auto& rec : tl.records()) {
    if (rec.resource == Resource::CpuWorker) out.push_back(rec);
  }
  return out;
}

TEST(HostLane, RegistersOneTimelineLanePerModeledCore) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 3);
  EXPECT_EQ(lane.threads(), 3u);  // --threads sizes the real pool only.
  EXPECT_EQ(gpu.timeline().worker_lanes(), host::kModeledHostCores);
}

TEST(HostLane, CostFollowsCounts) {
  host::PrepCounts c;
  EXPECT_EQ(host::prep_cost_us(c), 0.0);
  c.rows = 1000;
  c.edges = 2000;
  c.member_edges = 300;
  c.bytes = 4096;
  const double cost = host::prep_cost_us(c);
  EXPECT_DOUBLE_EQ(cost, 1000 * host::kUsPerRow + 2000 * host::kUsPerEdge +
                             300 * host::kUsPerMemberEdge +
                             4096 * host::kUsPerStagedByte);
  host::PrepCounts twice{2 * c.rows, 2 * c.edges, 2 * c.member_edges,
                         2 * c.bytes};
  EXPECT_DOUBLE_EQ(host::prep_cost_us(twice), 2 * cost);

  // What a job costs never depends on how long it ran: the early jobs
  // sleep, finish last, and are still charged exactly their counts, in
  // index order.
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  std::vector<host::PrepCounts> counts(8);
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i].edges = 100 * (i + 1);
  std::atomic<int> ran{0};
  lane.run("job", counts, [&](std::size_t i) {
    if (i < 2) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 8);
  const auto ops = worker_ops(gpu.timeline());
  ASSERT_EQ(ops.size(), 8u);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].name, "prep:job");
    EXPECT_DOUBLE_EQ(ops[i].end_us - ops[i].start_us,
                     host::prep_cost_us(counts[i]))
        << "job " << i;
  }
}

TEST(HostLane, LeastLoadedPlacementTiesGoToTheLowestLane) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 1);
  ASSERT_EQ(host::kModeledHostCores, 8u);
  // Job 0 is 5 units, jobs 1-7 one unit, jobs 8-9 two units. Every lane
  // starts empty, so jobs 0-7 fill lanes 0-7 in order; lanes 1-7 then tie
  // at one unit, so jobs 8 and 9 take lanes 1 and 2.
  const std::vector<std::uint64_t> units = {5, 1, 1, 1, 1, 1, 1, 1, 2, 2};
  std::vector<host::PrepCounts> counts(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) counts[i].bytes = units[i];
  lane.run("job", counts, [](std::size_t) {});
  const auto ops = worker_ops(gpu.timeline());
  ASSERT_EQ(ops.size(), units.size());
  const std::vector<std::size_t> want_lane = {0, 1, 2, 3, 4, 5, 6, 7, 1, 2};
  const double u = host::kUsPerStagedByte;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].lane, want_lane[i]) << "job " << i;
  }
  EXPECT_DOUBLE_EQ(ops[8].start_us, u);
  EXPECT_DOUBLE_EQ(ops[9].start_us, u);
  EXPECT_DOUBLE_EQ(gpu.timeline().worker_lane_ready(0), 5 * u);
}

TEST(HostLane, JobsOverlapAcrossLanes) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 1);
  // Eight equal jobs on eight modeled cores finish together, whatever the
  // real pool width.
  std::vector<host::PrepCounts> counts(8);
  for (auto& c : counts) c.edges = 1000;
  lane.run("job", counts, [](std::size_t) {});
  const double one = host::prep_cost_us(counts[0]);
  EXPECT_DOUBLE_EQ(gpu.timeline().makespan(), one);
  EXPECT_DOUBLE_EQ(gpu.timeline().busy_us(Resource::CpuWorker), 8 * one);
}

TEST(HostLane, EmptyBatchIsANoOp) {
  gpusim::Gpu gpu;
  host::HostLane lane(gpu, 2);
  lane.run("job", {}, [&](std::size_t) { FAIL(); });
  EXPECT_TRUE(gpu.timeline().records().empty());
}

TEST(HostLane, RethrowsJobExceptionAfterDrainingTheBatch) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(threads);
    gpusim::Gpu gpu;
    host::HostLane lane(gpu, threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(lane.run("job", std::vector<host::PrepCounts>(6),
                          [&](std::size_t i) {
                            ran.fetch_add(1);
                            if (i == 1) throw std::runtime_error("job failed");
                          }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 6);
  }
}

// ---------- End-to-end determinism across thread counts ----------

models::TrainConfig tiny_train_config() {
  models::TrainConfig cfg;
  cfg.model = models::ModelType::TGcn;
  cfg.frame_size = 4;
  cfg.epochs = 2;
  cfg.max_frames_per_epoch = 3;
  cfg.hidden_dim = 6;
  return cfg;
}

TEST(HostLane, TrainerIsDeterministicAcrossThreadCounts) {
  const auto g = graph::generate(testutil::tiny_config(64, 12, 2));
  const auto cfg = tiny_train_config();

  struct Run {
    std::vector<float> loss;
    std::map<int, int> decisions;
    std::vector<gpusim::OpRecord> records;
  };
  auto run = [&](int threads) {
    gpusim::Gpu gpu;
    runtime::PipadOptions opts;
    opts.host_threads = threads;
    replica::ReplicaTrainer pip(gpu, g, cfg, models::Method::PiPAD, opts);
    const auto r = pip.train();
    return Run{r.frame_loss, pip.sper_decisions(), gpu.timeline().records()};
  };
  const Run a = run(1);
  const Run b = run(8);
  const Run c = run(8);

  for (const Run* other : {&b, &c}) {
    ASSERT_EQ(a.loss.size(), other->loss.size());
    for (std::size_t i = 0; i < a.loss.size(); ++i) {
      // Bitwise identical: the prep math never depends on the thread count.
      EXPECT_EQ(a.loss[i], other->loss[i]) << "frame " << i;
    }
    EXPECT_EQ(a.decisions, other->decisions);
    // The whole modeled timeline, op for op: no host clock reaches it.
    ASSERT_EQ(a.records.size(), other->records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      const auto& x = a.records[i];
      const auto& y = other->records[i];
      EXPECT_EQ(x.name, y.name) << "record " << i;
      EXPECT_EQ(x.resource, y.resource) << "record " << i;
      EXPECT_EQ(x.lane, y.lane) << "record " << i;
      EXPECT_EQ(x.start_us, y.start_us) << "record " << i << " " << x.name;
      EXPECT_EQ(x.end_us, y.end_us) << "record " << i << " " << x.name;
    }
  }
}

TEST(HostLane, TrainerChargesEveryPrepKindFromCounts) {
  const auto g = graph::generate(testutil::tiny_config(64, 12, 2));
  gpusim::Gpu gpu;
  runtime::PipadOptions opts;
  opts.host_threads = 2;
  replica::ReplicaTrainer pip(gpu, g, tiny_train_config(),
                              models::Method::PiPAD, opts);
  const auto r = pip.train();
  const auto& tl = gpu.timeline();
  EXPECT_GT(tl.busy_us_with_prefix("prep:graph-analyzer"), 0.0);
  EXPECT_GT(tl.busy_us_with_prefix("prep:profiling"), 0.0);
  EXPECT_GT(tl.busy_us_with_prefix("prep:overlap-extract"), 0.0);
  EXPECT_GT(r.prep_us, 0.0);
  EXPECT_EQ(tl.worker_lanes(), host::kModeledHostCores);
  // The analyzer slices every snapshot and its transpose once.
  double want = 0.0;
  for (const auto& snap : g.snapshots) {
    host::PrepCounts c;
    c.rows = static_cast<std::uint64_t>(snap.adj.rows + snap.adj_t.rows);
    c.edges = snap.adj.nnz() + snap.adj_t.nnz();
    want += host::prep_cost_us(c);
  }
  EXPECT_NEAR(tl.busy_us_with_prefix("prep:graph-analyzer"), want,
              1e-9 * want);
}

}  // namespace
}  // namespace pipad
