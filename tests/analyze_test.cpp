// Analyzer tests: DAG reconstruction from op records (stream / engine /
// inferred join edges), the critical-path == makespan invariant, the pass
// registry, each builtin diagnosis on hand-built schedules, CSV round-trip
// equivalence, per-lane occupancy windows, and thread-count determinism of
// the report.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "analyze/report.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/trace.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using gpusim::Resource;
using gpusim::Timeline;
using testutil::analyze_timeline;
using testutil::find_pass;

std::string json_of(const analyze::Analysis& a, int threads = 1) {
  return testutil::analysis_json(a, threads);
}

// ---- DAG edges -----------------------------------------------------------

TEST(AnalyzeDag, StreamOrderAndEngineSerializationEdges) {
  Timeline tl;
  const auto s = tl.create_stream("c");
  tl.submit(0, Resource::Compute, "kernel:a", 10.0);  // 0: [0, 10)
  tl.submit(0, Resource::Compute, "kernel:b", 5.0);   // 1: [10, 15)
  tl.submit(s, Resource::Compute, "kernel:c", 5.0);   // 2: [15, 20)
  const auto td = analyze::from_timeline(tl);
  const auto dag = analyze::build_dag(td);
  ASSERT_EQ(dag.nodes.size(), 3u);
  EXPECT_EQ(dag.nodes[0].stream_pred, -1);
  EXPECT_EQ(dag.nodes[0].engine_pred, -1);
  EXPECT_EQ(dag.nodes[0].crit_pred, -1);
  // kernel:b follows kernel:a in both program and engine order.
  EXPECT_EQ(dag.nodes[1].stream_pred, 0);
  EXPECT_EQ(dag.nodes[1].engine_pred, 0);
  EXPECT_EQ(dag.nodes[1].crit_pred, 0);
  // kernel:c is first on its stream but serialized behind the engine.
  EXPECT_EQ(dag.nodes[2].stream_pred, -1);
  EXPECT_EQ(dag.nodes[2].engine_pred, 1);
  EXPECT_EQ(dag.nodes[2].crit_pred, 1);
}

TEST(AnalyzeDag, EventWaitBecomesInferredJoinEdge) {
  Timeline tl;
  const auto s = tl.create_stream("copy");
  tl.submit(s, Resource::H2D, "h2d:x", 25.0);  // 0: [0, 25)
  const auto e = tl.record_event(s);
  tl.wait_event(0, e);
  tl.submit(0, Resource::Compute, "kernel:k", 10.0);  // 1: [25, 35)
  const auto td = analyze::from_timeline(tl);
  const auto dag = analyze::build_dag(td);
  // The kernel has no stream/engine predecessor; its delayed start can
  // only come from the event, so the copy is its inferred producer.
  EXPECT_EQ(dag.nodes[1].stream_pred, -1);
  EXPECT_EQ(dag.nodes[1].engine_pred, -1);
  EXPECT_EQ(dag.nodes[1].join_pred, 0);
  EXPECT_EQ(dag.nodes[1].crit_pred, 0);
  EXPECT_NEAR(dag.nodes[1].slack_us, 0.0, 1e-9);
}

TEST(AnalyzeDag, WorkerLanesChainLikeStreams) {
  Timeline tl;
  tl.set_worker_lanes(2);
  tl.submit_worker(0, "prep:a", 10.0);  // 0: lane 0, [0, 10)
  tl.submit_worker(0, "prep:b", 5.0);   // 1: lane 0, [10, 15)
  tl.submit_worker(1, "prep:c", 7.0);   // 2: lane 1, [0, 7)
  const auto td = analyze::from_timeline(tl);
  const auto dag = analyze::build_dag(td);
  EXPECT_EQ(dag.nodes[1].stream_pred, 0);
  EXPECT_EQ(dag.nodes[1].engine_pred, 0);
  // Lane 1 is independent of lane 0.
  EXPECT_EQ(dag.nodes[2].stream_pred, -1);
  EXPECT_EQ(dag.nodes[2].engine_pred, -1);
  EXPECT_EQ(dag.nodes[2].crit_pred, -1);
}

// ---- critical path -------------------------------------------------------

TEST(AnalyzeCriticalPath, TotalEqualsMakespanEvenAcrossIdleGaps) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "kernel:a", 10.0);        // [0, 10)
  tl.submit(0, Resource::Compute, "kernel:b", 5.0, 30.0);   // [30, 35)
  const auto td = analyze::from_timeline(tl);
  const auto path = analyze::critical_path(td, analyze::build_dag(td));
  // Nothing ends at t=30, so the 20 us of idle time is an unattributed
  // gap on the path — and the total still reconciles exactly.
  EXPECT_DOUBLE_EQ(path.total_us, td.makespan_us);
  EXPECT_DOUBLE_EQ(path.total_us, 35.0);
  EXPECT_DOUBLE_EQ(path.gap_us, 20.0);
  EXPECT_DOUBLE_EQ(
      path.by_resource[static_cast<int>(Resource::Compute)], 15.0);
}

TEST(AnalyzeCriticalPath, FollowsJoinsAcrossResources) {
  Timeline tl;
  const auto s = tl.create_stream("copy");
  tl.submit(s, Resource::H2D, "h2d:x", 20.0);  // [0, 20)
  const auto e = tl.record_event(s);
  tl.wait_event(0, e);
  tl.submit(0, Resource::Compute, "kernel:k", 30.0);  // [20, 50)
  const auto td = analyze::from_timeline(tl);
  const auto path = analyze::critical_path(td, analyze::build_dag(td));
  ASSERT_EQ(path.segments.size(), 2u);
  EXPECT_EQ(path.segments[0].record, 0);
  EXPECT_EQ(path.segments[1].record, 1);
  EXPECT_DOUBLE_EQ(path.total_us, 50.0);
  EXPECT_DOUBLE_EQ(path.gap_us, 0.0);
  EXPECT_DOUBLE_EQ(path.by_resource[static_cast<int>(Resource::H2D)], 20.0);
  EXPECT_DOUBLE_EQ(
      path.by_resource[static_cast<int>(Resource::Compute)], 30.0);
}

// ---- pass registry -------------------------------------------------------

class FakePass final : public analyze::Pass {
 public:
  explicit FakePass(std::vector<analyze::Finding> out)
      : out_(std::move(out)) {}
  const char* name() const override { return "fake"; }
  const char* description() const override { return "test-only"; }
  std::vector<analyze::Finding> run(
      const analyze::PassContext&) const override {
    return out_;
  }

 private:
  std::vector<analyze::Finding> out_;
};

TEST(AnalyzePasses, RegistryExposesBuiltinCatalogInOrder) {
  const auto reg = analyze::PassRegistry::with_builtins();
  const std::vector<std::string> expected = {
      "transfer_bound", "prep_bound", "compute_imbalance",
      "stream_backpressure", "serialization", "allreduce_bound"};
  EXPECT_EQ(reg.names(), expected);
  EXPECT_NE(reg.find("prep_bound"), nullptr);
  EXPECT_EQ(reg.find("warp_divergence"), nullptr);
}

TEST(AnalyzePasses, DuplicatePassNameRejected) {
  auto reg = analyze::PassRegistry::with_builtins();
  reg.add(std::make_unique<FakePass>(std::vector<analyze::Finding>{}));
  EXPECT_THROW(
      reg.add(std::make_unique<FakePass>(std::vector<analyze::Finding>{})),
      Error);
}

TEST(AnalyzePasses, RunAllRanksBySeverityThenRecoverable) {
  analyze::Finding low, high, big_info, small_info;
  low.pass = high.pass = big_info.pass = small_info.pass = "fake";
  high.severity = analyze::Severity::High;
  low.severity = analyze::Severity::Low;
  big_info.recoverable_us = 9.0;
  small_info.recoverable_us = 1.0;
  analyze::PassRegistry reg;
  reg.add(std::make_unique<FakePass>(
      std::vector<analyze::Finding>{small_info, low, big_info, high}));

  Timeline tl;
  tl.submit(0, Resource::Compute, "kernel:k", 10.0);
  const auto a = analyze::analyze_trace(analyze::from_timeline(tl), {},
                                        nullptr, &reg);
  ASSERT_EQ(a.findings.size(), 4u);
  EXPECT_EQ(a.findings[0].severity, analyze::Severity::High);
  EXPECT_EQ(a.findings[1].severity, analyze::Severity::Low);
  EXPECT_DOUBLE_EQ(a.findings[2].recoverable_us, 9.0);
  EXPECT_DOUBLE_EQ(a.findings[3].recoverable_us, 1.0);
}

// ---- builtin diagnoses on hand-built schedules ---------------------------

TEST(AnalyzePasses, TransferBoundFiresOnCopyDominatedPath) {
  Timeline tl;
  tl.submit(0, Resource::H2D, "h2d:snapshot", 60.0);  // [0, 60)
  tl.submit(0, Resource::Compute, "kernel:k", 40.0);  // [60, 100)
  const auto a = analyze_timeline(tl);
  const auto* f = find_pass(a, "transfer_bound");
  ASSERT_NE(f, nullptr);
  // The whole copy sits on the path and nothing hides it.
  EXPECT_DOUBLE_EQ(f->recoverable_us, 60.0);
  EXPECT_EQ(f->severity, analyze::Severity::High);
  ASSERT_FALSE(f->blamed.empty());
  EXPECT_EQ(f->blamed[0].first, "h2d:snapshot");
}

TEST(AnalyzePasses, TransferBoundSilentWhenCopiesHideUnderCompute) {
  Timeline tl;
  const auto s = tl.create_stream("copy");
  tl.submit(0, Resource::Compute, "kernel:k", 100.0);  // [0, 100)
  tl.submit(s, Resource::H2D, "h2d:x", 30.0);          // [0, 30) hidden
  EXPECT_EQ(find_pass(analyze_timeline(tl), "transfer_bound"), nullptr);
}

TEST(AnalyzePasses, PrepBoundFiresWhenPrepBlocksTraining) {
  Timeline tl;
  tl.submit_worker(0, "prep:overlap-extract", 50.0);        // [0, 50)
  tl.submit(0, Resource::Compute, "kernel:k", 50.0, 50.0);  // [50, 100)
  const auto a = analyze_timeline(tl);
  const auto* f = find_pass(a, "prep_bound");
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->recoverable_us, 50.0);
  EXPECT_EQ(f->severity, analyze::Severity::High);
  ASSERT_FALSE(f->blamed.empty());
  EXPECT_EQ(f->blamed[0].first, "prep:overlap-extract");
}

TEST(AnalyzePasses, PrepBoundSilentWhenPrepOverlapsTraining) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "kernel:k", 100.0);  // [0, 100)
  tl.submit_worker(0, "prep:overlap-extract", 50.0);   // [0, 50) hidden
  EXPECT_EQ(find_pass(analyze_timeline(tl), "prep_bound"), nullptr);
}

TEST(AnalyzePasses, ComputeImbalanceFiresOnSkewedLanes) {
  Timeline tl;
  tl.set_worker_lanes(2);
  tl.submit_worker(0, "compute:gemm", 80.0);
  tl.submit_worker(1, "compute:gemm", 10.0);
  const auto a = analyze_timeline(tl);
  const auto* f = find_pass(a, "compute_imbalance");
  ASSERT_NE(f, nullptr);
  // Re-balancing recovers (max - mean) = 80 - 45.
  EXPECT_DOUBLE_EQ(f->recoverable_us, 35.0);
  ASSERT_EQ(f->blamed.size(), 2u);
  EXPECT_EQ(f->blamed[0].first, "cpu-w0");
  EXPECT_DOUBLE_EQ(f->blamed[0].second, 80.0);
}

TEST(AnalyzePasses, ComputeImbalanceSilentOnBalancedLanes) {
  Timeline tl;
  tl.set_worker_lanes(2);
  tl.submit_worker(0, "compute:gemm", 50.0);
  tl.submit_worker(1, "compute:gemm", 48.0);
  EXPECT_EQ(find_pass(analyze_timeline(tl), "compute_imbalance"), nullptr);
}

TEST(AnalyzePasses, StreamBackpressureFiresOnDeadWait) {
  Timeline tl;
  tl.submit(0, Resource::Cpu, "wait:frame", 50.0);          // [0, 50)
  tl.submit(0, Resource::Compute, "kernel:k", 50.0, 50.0);  // [50, 100)
  const auto a = analyze_timeline(tl);
  const auto* f = find_pass(a, "stream_backpressure");
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->recoverable_us, 50.0);
  ASSERT_FALSE(f->blamed.empty());
  EXPECT_EQ(f->blamed[0].first, "wait:frame");
}

TEST(AnalyzePasses, StreamBackpressureSilentWhenWaitHidesWork) {
  Timeline tl;
  tl.submit(0, Resource::Cpu, "wait:frame", 50.0);  // [0, 50)
  tl.submit_worker(0, "prep:extract", 50.0);        // [0, 50) keeps it live
  EXPECT_EQ(find_pass(analyze_timeline(tl), "stream_backpressure"), nullptr);
}

TEST(AnalyzePasses, SerializationFlagsPingPongWindows) {
  Timeline tl;
  for (int i = 0; i < 10; ++i) {
    tl.submit(0, Resource::H2D, "h2d:chunk", 10.0);
    tl.submit(0, Resource::Compute, "kernel:chunk", 10.0);
  }
  const auto a = analyze_timeline(tl);
  const auto* f = find_pass(a, "serialization");
  ASSERT_NE(f, nullptr);
  // Every window ping-pongs, so they merge into one full-span finding.
  EXPECT_DOUBLE_EQ(f->from_us, 0.0);
  EXPECT_DOUBLE_EQ(f->to_us, 200.0);
  EXPECT_GT(f->recoverable_us, 0.0);
}

TEST(AnalyzePasses, SerializationSilentWhenPipelined) {
  Timeline tl;
  const auto s = tl.create_stream("copy");
  for (int i = 0; i < 10; ++i) {
    tl.submit(s, Resource::H2D, "h2d:chunk", 10.0);
    tl.submit(0, Resource::Compute, "kernel:chunk", 10.0);
  }
  EXPECT_EQ(find_pass(analyze_timeline(tl), "serialization"), nullptr);
}

TEST(AnalyzePasses, AllreduceBoundFiresOnExposedLinkSteps) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "kernel:k", 50.0);  // [0, 50)
  // The reduce runs after compute drained: fully exposed.
  tl.submit(0, Resource::Link, "comm:allreduce:ring", 25.0, 50.0);
  tl.submit(0, Resource::Link, "comm:allreduce:ring", 25.0);  // [75, 100)
  const auto a = analyze_timeline(tl);
  const auto* f = find_pass(a, "allreduce_bound");
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->recoverable_us, 50.0);
  EXPECT_EQ(f->severity, analyze::Severity::High);
  ASSERT_FALSE(f->blamed.empty());
  EXPECT_EQ(f->blamed[0].first, "comm:allreduce");
}

TEST(AnalyzePasses, AllreduceBoundSilentWhenLinkHidesUnderCompute) {
  Timeline tl;
  const auto s = tl.create_stream("link");
  tl.submit(0, Resource::Compute, "kernel:k", 100.0);       // [0, 100)
  tl.submit(s, Resource::Link, "comm:allreduce:tree", 30.0);  // hidden
  EXPECT_EQ(find_pass(analyze_timeline(tl), "allreduce_bound"), nullptr);
}

TEST(AnalyzePasses, AllreduceBoundSilentOnSingleDeviceTraces) {
  // No link ops at all — the single-device invariant.
  Timeline tl;
  tl.submit(0, Resource::Compute, "kernel:k", 100.0);
  EXPECT_EQ(find_pass(analyze_timeline(tl), "allreduce_bound"), nullptr);
}

// ---- CSV round trip ------------------------------------------------------

TEST(AnalyzeTrace, CsvRoundTripYieldsIdenticalAnalysis) {
  Timeline tl;
  tl.set_worker_lanes(2);
  const auto s = tl.create_stream("copy");
  tl.submit(0, Resource::Cpu, "launch:graph", 0.37);
  tl.submit(s, Resource::H2D, "h2d:x", 25.125, 0.0, 4096);
  const auto e = tl.record_event(s);
  tl.wait_event(0, e);
  tl.submit(0, Resource::Compute, "kernel:agg", 10.0 / 3.0);
  tl.submit_worker(0, "prep:we\"ird,name", 7.77);  // CSV-hostile name.
  tl.submit_worker(1, "prep:profiling", 3.3);
  tl.submit(s, Resource::D2H, "d2h:loss", 1.0 / 7.0, 0.0, 8);

  auto live = analyze::from_timeline(tl);
  live.dataset = "rt";
  live.model = "tgcn";
  live.method = "pipad";
  std::ostringstream csv;
  gpusim::write_trace_csv(tl, csv, {"rt", "tgcn", "pipad"});
  std::istringstream in(csv.str());
  const auto reread = analyze::read_trace_csv(in, "<mem>");

  ASSERT_EQ(reread.records.size(), live.records.size());
  for (std::size_t i = 0; i < live.records.size(); ++i) {
    EXPECT_EQ(reread.records[i].lane, live.records[i].lane) << i;
  }

  const auto a1 = analyze::analyze_trace(live);
  const auto a2 = analyze::analyze_trace(reread);
  EXPECT_EQ(json_of(a1), json_of(a2));
  std::ostringstream h1, h2;
  analyze::write_human_report(h1, a1);
  analyze::write_human_report(h2, a2);
  EXPECT_EQ(h1.str(), h2.str());
}

TEST(AnalyzeTrace, ReaderRejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return analyze::read_trace_csv(in, "<mem>");
  };
  const std::string header =
      "name,resource,stream,start_us,end_us,bytes,lane\n";
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse(header + "k,warp,0,0,1,0,0\n"), Error);
  EXPECT_THROW(parse(header + "k,compute,0,5,1,0,0\n"), Error);
  EXPECT_THROW(parse(header + "k,compute,0,zero,1,0,0\n"), Error);
  EXPECT_THROW(parse(header + "k,compute,0,0,1,0,x\n"), Error);
  // Only 7-field v3 rows parse: the 9-field v2 layout (with the retired
  // steals,blocks counters) and 8 fields are both rejected, and the error
  // names the expected columns.
  EXPECT_NO_THROW(parse(header + "k,compute,0,0,1,0,0\n"));
  EXPECT_THROW(parse(header + "k,compute,0,0,1,0,0,2\n"), Error);
  try {
    parse(header + "k,compute,0,0,1,0,0,2,8\n");
    ADD_FAILURE() << "a 9-field v2 row parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "name,resource,stream,start_us,end_us,bytes,lane"),
              std::string::npos)
        << e.what();
  }
}

TEST(OccupancyWindow, ClipsOpsToTheWindow) {
  Timeline tl;
  tl.set_worker_lanes(2);
  tl.submit_worker(0, "prep:a", 10.0);        // [0, 10)
  tl.submit_worker(0, "compute:k", 10.0);     // [10, 20)
  tl.submit_worker(1, "prep:b", 30.0);        // [0, 30)
  const auto td = analyze::from_timeline(tl);
  const auto all = td.worker_busy_in(5.0, 15.0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_NEAR(all[0], 10.0, 1e-9);  // 5 of prep:a + 5 of compute:k.
  EXPECT_NEAR(all[1], 10.0, 1e-9);  // Clipped slice of prep:b.
  const auto prep = td.worker_busy_in(5.0, 15.0, "prep:");
  EXPECT_NEAR(prep[0], 5.0, 1e-9);
  EXPECT_NEAR(prep[1], 10.0, 1e-9);
  // Empty and inverted windows are zero.
  for (double v : td.worker_busy_in(40.0, 50.0)) EXPECT_EQ(v, 0.0);
  for (double v : td.worker_busy_in(15.0, 5.0)) EXPECT_EQ(v, 0.0);
}

// ---- determinism ---------------------------------------------------------

TEST(AnalyzeDeterminism, ReportIsBitIdenticalAcrossThreadCounts) {
  // Large enough that the DAG build actually fans out on the pool.
  Timeline tl;
  const auto s = tl.create_stream("copy");
  for (int i = 0; i < 800; ++i) {
    tl.submit(s, Resource::H2D, "h2d:t", 3.0);
    const auto e = tl.record_event(s);
    tl.wait_event(0, e);
    tl.submit(0, Resource::Compute, "kernel:k", 2.0);
    tl.submit(0, Resource::Cpu, "launch:k", 0.5);
  }
  const auto td = analyze::from_timeline(tl);
  ASSERT_GE(td.records.size(), 2048u);
  ThreadPool pool8(8);
  ThreadPool pool1(1);
  const auto serial = analyze::analyze_trace(td);
  const auto wide = analyze::analyze_trace(td, {}, &pool8);
  const auto narrow = analyze::analyze_trace(td, {}, &pool1);
  EXPECT_EQ(json_of(serial), json_of(wide));
  EXPECT_EQ(json_of(serial), json_of(narrow));
}

// ---- report rendering ----------------------------------------------------

TEST(AnalyzeReport, HumanReportShowsPathFindingsAndGantt) {
  Timeline tl;
  for (int i = 0; i < 10; ++i) {
    tl.submit(0, Resource::H2D, "h2d:chunk", 10.0);
    tl.submit(0, Resource::Compute, "kernel:chunk", 10.0);
  }
  const auto a = analyze_timeline(tl);
  std::ostringstream os;
  analyze::write_human_report(os, a);
  const std::string r = os.str();
  EXPECT_NE(r.find("critical path:"), std::string::npos) << r;
  EXPECT_NE(r.find("serialization"), std::string::npos) << r;
  EXPECT_NE(r.find("top finding window:"), std::string::npos) << r;
  EXPECT_NE(r.find("h2d"), std::string::npos) << r;
}

TEST(AnalyzeReport, JsonCarriesGateableRecordsAndDetailFindings) {
  Timeline tl;
  tl.submit_worker(0, "prep:x", 50.0);
  tl.submit(0, Resource::Compute, "kernel:k", 50.0, 50.0);
  auto a = analyze::analyze_trace(analyze::from_timeline(tl));
  const api::Json js = api::Json::parse(json_of(a, 4));
  EXPECT_EQ(js.find("bench")->as_string(), "pipad-analyze");
  EXPECT_EQ(js.find("flags")->find("threads")->as_int(), 4);
  ASSERT_EQ(js.find("records")->items().size(), 1u);
  const api::Json& rec = js.find("records")->items()[0];
  // Unlabeled traces key under "trace" so bench_diff still matches them.
  EXPECT_EQ(rec.find("dataset")->as_string(), "trace");
  EXPECT_EQ(rec.find("critical_path_us")->as_number(), 100.0);
  EXPECT_EQ(rec.find("findings_high")->as_int(), 1);
  bool prep_bound = false;
  for (const api::Json& f : js.find("findings")->items()) {
    prep_bound = prep_bound || f.find("pass")->as_string() == "prep_bound";
  }
  EXPECT_TRUE(prep_bound);
  EXPECT_EQ(analyze::max_severity({}), analyze::Severity::Info);
}

}  // namespace
}  // namespace pipad
