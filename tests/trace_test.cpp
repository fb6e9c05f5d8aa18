// Trace-file and Gantt export tests, plus overlap-structure assertions on
// real trainer timelines (the testable core of Fig. 8).
#include <gtest/gtest.h>

#include <string>

#include "analyze/trace_data.hpp"
#include "gpusim/trace.hpp"
#include "replica/replica_trainer.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using gpusim::Resource;
using gpusim::Timeline;

/// The thread_name label of Gantt row `tid`.
std::string lane_label(const api::Json& events, long long tid) {
  for (const auto& ev : events.items()) {
    if (ev.find("ph")->as_string() == "M" &&
        ev.find("tid")->as_int() == tid) {
      return ev.find("args")->find("name")->as_string();
    }
  }
  return "";
}

/// Two device ops and one op on each of two worker lanes.
void submit_device_and_worker_ops(Timeline& tl) {
  tl.set_worker_lanes(2);
  tl.submit(0, Resource::Compute, "kernel:a", 10.0);
  tl.submit(0, Resource::H2D, "h2d:x", 5.0, 0.0, 1234);
  tl.submit_worker(0, "prep:a", 10.0);
  tl.submit_worker(1, "prep:b", 9.0);
}

TEST(Trace, EveryOpIsOneCompleteEvent) {
  Timeline tl;
  submit_device_and_worker_ops(tl);
  const api::Json doc = analyze::trace_document(analyze::from_timeline(tl));
  const api::Json& events = *doc.find("traceEvents");

  // One X event per op, in submission order, carrying every field.
  std::size_t i = 0;
  for (const auto& ev : events.items()) {
    if (ev.find("ph")->as_string() != "X") continue;
    ASSERT_LT(i, tl.records().size());
    const auto& rec = tl.records()[i++];
    for (const char* key : {"name", "ph", "ts", "dur", "pid", "tid", "args"}) {
      EXPECT_NE(ev.find(key), nullptr) << rec.name << " lacks " << key;
    }
    EXPECT_EQ(ev.find("name")->as_string(), rec.name);
    EXPECT_EQ(ev.find("ts")->as_number(), rec.start_us);
    EXPECT_EQ(ev.find("dur")->as_number(), rec.end_us - rec.start_us);
    EXPECT_EQ(ev.find("pid")->as_int(), 0);
    const api::Json& args = *ev.find("args");
    EXPECT_EQ(args.find("resource")->as_string(),
              gpusim::resource_name(rec.resource));
    EXPECT_EQ(args.find("stream")->as_int(),
              static_cast<long long>(rec.stream));
    EXPECT_EQ(args.find("end_us")->as_number(), rec.end_us);
    EXPECT_EQ(args.find("bytes")->as_int(), static_cast<long long>(rec.bytes));
    EXPECT_EQ(args.find("lane")->as_int(), static_cast<long long>(rec.lane));
  }
  EXPECT_EQ(i, tl.records().size());
}

TEST(Trace, EveryOpSitsOnItsGanttRowWithItsWorkerLane) {
  Timeline tl;
  submit_device_and_worker_ops(tl);
  const api::Json doc = analyze::trace_document(analyze::from_timeline(tl));
  const api::Json& events = *doc.find("traceEvents");

  // One thread_name event per Gantt row, in row order.
  const auto rows = gpusim::gantt_rows(tl.records(), tl.worker_lanes());
  std::size_t m = 0;
  for (const auto& ev : events.items()) {
    if (ev.find("ph")->as_string() != "M") continue;
    EXPECT_EQ(ev.find("name")->as_string(), "thread_name");
    EXPECT_EQ(ev.find("pid")->as_int(), 0);
    ASSERT_LT(m, rows.size());
    EXPECT_EQ(ev.find("tid")->as_int(), static_cast<long long>(m));
    EXPECT_EQ(ev.find("args")->find("name")->as_string(), rows[m].label);
    ++m;
  }
  EXPECT_EQ(m, rows.size());

  // Each op sits on the row that renders it.
  const auto label_of = [&](const char* name) {
    for (const auto& ev : events.items()) {
      const api::Json* n = ev.find("name");
      if (ev.find("ph")->as_string() == "X" && n->as_string() == name) {
        return lane_label(events, ev.find("tid")->as_int());
      }
    }
    return std::string();
  };
  EXPECT_EQ(label_of("kernel:a"), "compute");
  EXPECT_EQ(label_of("h2d:x"), "h2d");
  EXPECT_EQ(label_of("prep:a"), "cpu-w0");
  EXPECT_EQ(label_of("prep:b"), "cpu-w1");
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
  replica::ReplicaTrainer base(gpu_base, g, cfg, models::Method::PyGT);
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

TEST(Trace, HostileNamesAndTimesRoundTripExactly) {
  Timeline tl;
  const std::string hostile = "k\"er,nel\n:\t\x01\xc3\xa9\xff";
  tl.submit(0, Resource::Compute, hostile, 10.0 / 3.0);
  tl.submit(0, Resource::Compute, "plain", 1.0 / 7.0);
  const std::string text =
      analyze::trace_document(analyze::from_timeline(tl)).dump();
  const auto back = analyze::parse_trace(text, "<mem>");
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].name, hostile);
  EXPECT_EQ(back.records[1].name, "plain");
  // The end comes from args.end_us, not ts + dur, so it is exact.
  EXPECT_EQ(back.records[0].end_us, 10.0 / 3.0);
  EXPECT_EQ(back.records[1].start_us, 10.0 / 3.0);
  EXPECT_EQ(back.records[1].end_us, 10.0 / 3.0 + 1.0 / 7.0);
  EXPECT_EQ(back.makespan_us, tl.makespan());
}

TEST(Trace, LabelsRoundTripVerbatim) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "k", 1.0);
  analyze::TraceData td = analyze::from_timeline(tl);
  td.dataset = "reddit body";
  td.model = "t\"gcn";
  td.method = "pipad";
  const api::Json doc = analyze::trace_document(td);
  const api::Json& other = *doc.find("otherData");
  EXPECT_EQ(other.find("dataset")->as_string(), "reddit body");
  const auto back = analyze::parse_trace(doc.dump(), "<mem>");
  // Labels are no longer squeezed into a whitespace-separated comment.
  EXPECT_EQ(back.dataset, "reddit body");
  EXPECT_EQ(back.model, "t\"gcn");
  EXPECT_EQ(back.method, "pipad");
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
