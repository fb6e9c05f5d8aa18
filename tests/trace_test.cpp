// Trace/Gantt export tests, plus overlap-structure assertions on real
// trainer timelines (the testable core of Fig. 8).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "baselines/baseline_trainer.hpp"
#include "gpusim/trace.hpp"
#include "replica/replica_trainer.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using gpusim::Resource;
using gpusim::Timeline;

TEST(Trace, CsvContainsEveryOp) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "kernel:a", 10.0);
  tl.submit(0, Resource::H2D, "h2d:x", 5.0, 0.0, 1234);
  std::ostringstream os;
  gpusim::write_trace_csv(tl, os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kernel:a,compute,0,"), std::string::npos);
  EXPECT_NE(csv.find("h2d:x,h2d,0,"), std::string::npos);
  EXPECT_NE(csv.find("1234"), std::string::npos);
  // Header + 2 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(Trace, CsvRowsHaveSevenColumnsEndingInTheWorkerLane) {
  Timeline tl;
  tl.set_worker_lanes(2);
  tl.submit_worker(0, "prep:a", 10.0);
  tl.submit_worker(1, "prep:b", 9.0);
  std::ostringstream os;
  gpusim::write_trace_csv(tl, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("name,resource,stream,start_us,end_us,bytes,lane\n",
                      0),
            0u)
      << csv;
  EXPECT_NE(csv.find("prep:a,cpu-worker,0,0,10,0,0\n"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("prep:b,cpu-worker,0,0,9,0,1\n"), std::string::npos)
      << csv;
}

TEST(Trace, GanttMarksBusyCells) {
  Timeline tl;
  const auto s = tl.create_stream("c");
  tl.submit(0, Resource::Compute, "k", 50.0);
  tl.submit(s, Resource::H2D, "t", 100.0);
  gpusim::GanttOptions opts;
  opts.width = 10;
  const std::string g = gpusim::render_gantt(tl, opts);
  // Compute lane busy for the first half only; H2D for the whole window.
  EXPECT_NE(g.find("h2d         ##########"), std::string::npos) << g;
  EXPECT_NE(g.find("compute     #####....."), std::string::npos) << g;
}

TEST(Trace, OverlapFractionExactOnSyntheticSchedule) {
  Timeline tl;
  const auto s = tl.create_stream("c");
  tl.submit(0, Resource::Compute, "k", 60.0);   // [0, 60)
  tl.submit(s, Resource::H2D, "t", 100.0);      // [0, 100)
  // Both busy on [0, 60) of a 100 us window.
  EXPECT_NEAR(gpusim::overlap_fraction(tl, Resource::Compute, Resource::H2D),
              0.6, 1e-9);
}

TEST(Trace, NoOverlapWhenSerialized) {
  Timeline tl;
  tl.submit(0, Resource::H2D, "t", 40.0);
  tl.submit(0, Resource::Compute, "k", 40.0);  // Starts after t (stream 0).
  EXPECT_NEAR(gpusim::overlap_fraction(tl, Resource::Compute, Resource::H2D),
              0.0, 1e-9);
}

TEST(Trace, PipadOverlapsCopyAndComputeMoreThanPygt) {
  const auto g = graph::generate(testutil::tiny_config(64, 12, 2));
  models::TrainConfig cfg;
  cfg.model = models::ModelType::MpnnLstm;
  cfg.frame_size = 4;
  cfg.epochs = 2;
  cfg.max_frames_per_epoch = 3;
  cfg.hidden_dim = 6;

  gpusim::Gpu gpu_base;
  baselines::BaselineTrainer base(gpu_base, g, cfg,
                                  baselines::Variant::PyGT);
  base.train();
  gpusim::Gpu gpu_pipad;
  replica::ReplicaTrainer pipad(gpu_pipad, g, cfg);
  pipad.train();

  const double base_ov = gpusim::overlap_fraction(
      gpu_base.timeline(), Resource::H2D, Resource::Compute);
  const double pipad_ov = gpusim::overlap_fraction(
      gpu_pipad.timeline(), Resource::H2D, Resource::Compute);
  // PyGT's synchronous copies leave at most a sliver of overlap (in-flight
  // kernels from the previous frame); PiPAD's pipeline overlaps visibly.
  EXPECT_LT(base_ov, 0.05);
  EXPECT_GT(pipad_ov, base_ov);
}

TEST(Trace, GanttWindowClipping) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "k", 100.0);
  gpusim::GanttOptions opts;
  opts.width = 10;
  opts.from_us = 200.0;  // Entirely after the op.
  opts.to_us = 300.0;
  const std::string gantt = gpusim::render_gantt(tl, opts);
  EXPECT_NE(gantt.find("compute     .........."), std::string::npos) << gantt;
}

TEST(Trace, CsvQuotesHostileNamesAndRoundTripsExactly) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "k\"er,nel:a", 10.0 / 3.0);
  tl.submit(0, Resource::Compute, "plain", 1.0);
  std::ostringstream os;
  gpusim::write_trace_csv(tl, os);
  const std::string csv = os.str();
  // Embedded quotes double, the field is quoted; plain names are not.
  EXPECT_NE(csv.find("\"k\"\"er,nel:a\""), std::string::npos) << csv;
  EXPECT_NE(csv.find("\nplain,"), std::string::npos) << csv;
  // Times carry enough digits that strtod gives back the exact double.
  const auto pos = csv.find("3.3333333333333335");
  ASSERT_NE(pos, std::string::npos) << csv;
  EXPECT_EQ(std::strtod(csv.c_str() + pos, nullptr), 10.0 / 3.0);
}

TEST(Trace, CsvMetaHeaderLabelsTheTrace) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "k", 1.0);
  std::ostringstream os;
  gpusim::write_trace_csv(tl, os, {"reddit body", "tgcn", "pipad"});
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("# pipad-trace v3\n", 0), 0u) << csv;
  // Whitespace in labels would break the space-separated meta comment.
  EXPECT_NE(csv.find("# dataset=reddit_body model=tgcn method=pipad\n"),
            std::string::npos)
      << csv;
}

// Out of line: GCC 12's -Wrestrict analysis trips on short string-literal
// assignment when fully inlined into the test body (PR105329).
[[gnu::noinline]] std::vector<gpusim::OpRecord> single_compute_record(
    double start_us, double end_us) {
  gpusim::OpRecord rec;
  rec.name = "kernel";
  rec.resource = Resource::Compute;
  rec.stream = 0;
  rec.start_us = start_us;
  rec.end_us = end_us;
  return {rec};
}

TEST(Trace, GanttDefaultWindowEndsAtLastRecord) {
  // Record-level overload: to_us = -1 must clamp to the latest end even
  // without a Timeline to ask for the makespan.
  const auto recs = single_compute_record(0.0, 40.0);
  gpusim::GanttOptions opts;
  opts.width = 10;
  const std::string gantt = gpusim::render_gantt(recs, 1, opts);
  EXPECT_NE(gantt.find("compute     ##########"), std::string::npos) << gantt;
  EXPECT_NE(gantt.find("[0, 40) us"), std::string::npos) << gantt;
}

TEST(Trace, GanttWindowPastTheDataRendersIdle) {
  const auto recs = single_compute_record(0.0, 40.0);
  gpusim::GanttOptions opts;
  opts.width = 10;
  opts.from_us = 20.0;
  opts.to_us = 100.0;  // Half busy, then idle beyond the data.
  const std::string gantt = gpusim::render_gantt(recs, 1, opts);
  EXPECT_NE(gantt.find("compute     ###......."), std::string::npos) << gantt;
}

TEST(Trace, OverlapFractionEmptyAndDefaultWindows) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "k", 60.0);
  tl.submit(0, Resource::H2D, "t", 40.0);
  // Degenerate windows must not divide by zero.
  EXPECT_EQ(gpusim::overlap_fraction(tl, Resource::Compute, Resource::H2D,
                                     50.0, 50.0),
            0.0);
  EXPECT_EQ(gpusim::overlap_fraction(tl, Resource::Compute, Resource::H2D,
                                     80.0, 20.0),
            0.0);
  // to_us = -1 resolves to the makespan.
  EXPECT_NEAR(gpusim::overlap_fraction(tl, Resource::Compute, Resource::H2D,
                                       0.0, -1.0),
              0.0, 1e-9);
  EXPECT_NEAR(gpusim::overlap_fraction(tl, Resource::Compute,
                                       Resource::Compute, 0.0, -1.0),
              0.6, 1e-9);
}

}  // namespace
}  // namespace pipad
