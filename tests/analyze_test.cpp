// Analyzer tests: DAG reconstruction from op records (stream / engine /
// inferred join edges), the critical-path == makespan invariant, the pass
// registry, each builtin diagnosis on hand-built schedules, trace-file
// round-trip equivalence and reader input checks, per-lane occupancy
// windows, and thread-count determinism of the report.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "analyze/report.hpp"
#include "analyze/trace_data.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
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

// ---- ranking ---------------------------------------------------------------

TEST(AnalyzePasses, RunAllRanksBySeverityThenRecoverable) {
  analyze::Finding low, high, big_info, small_info, b_early, a_late, a_early;
  low.pass = high.pass = big_info.pass = small_info.pass = "fake";
  high.severity = analyze::Severity::High;
  low.severity = analyze::Severity::Low;
  big_info.recoverable_us = 9.0;
  small_info.recoverable_us = 1.0;
  // Equal severity and recoverable time: pass name, then window start.
  b_early.pass = "fake_b";
  a_late.pass = a_early.pass = "fake_a";
  a_late.from_us = 50.0;
  a_early.from_us = 10.0;
  std::vector<analyze::Finding> fs = {small_info, b_early, low,   a_late,
                                      big_info,   high,    a_early};
  analyze::rank_findings(fs);
  ASSERT_EQ(fs.size(), 7u);
  EXPECT_EQ(fs[0].severity, analyze::Severity::High);
  EXPECT_EQ(fs[1].severity, analyze::Severity::Low);
  EXPECT_DOUBLE_EQ(fs[2].recoverable_us, 9.0);
  EXPECT_DOUBLE_EQ(fs[3].recoverable_us, 1.0);
  EXPECT_EQ(fs[4].pass, "fake_a");
  EXPECT_DOUBLE_EQ(fs[4].from_us, 10.0);
  EXPECT_EQ(fs[5].pass, "fake_a");
  EXPECT_DOUBLE_EQ(fs[5].from_us, 50.0);
  EXPECT_EQ(fs[6].pass, "fake_b");
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

// ---- trace file round trip ----------------------------------------------

TEST(AnalyzeTrace, FileRoundTripYieldsIdenticalAnalysis) {
  Timeline tl;
  tl.set_worker_lanes(2);
  const auto s = tl.create_stream("copy");
  const auto link = tl.create_stream("link");
  tl.submit(0, Resource::Cpu, "launch:graph", 0.37);
  tl.submit(s, Resource::H2D, "h2d:x", 25.125, 0.0, 4096);
  const auto e = tl.record_event(s);
  tl.wait_event(0, e);
  tl.submit(0, Resource::Compute, "kernel:agg", 10.0 / 3.0);
  // Quote, comma, newline, a control character and non-ASCII bytes.
  tl.submit_worker(0, "prep:we\"ird,na\nme\x01-\xc3\xa9\xff", 7.77);
  tl.submit_worker(1, "prep:profiling", 3.3);
  tl.submit(s, Resource::D2H, "d2h:loss", 1.0 / 7.0, 0.0, 8);
  tl.submit(link, Resource::Link, "comm:allreduce:ring", 2.0 / 9.0, 0.0, 64);

  auto live = analyze::from_timeline(tl);
  live.dataset = "rt";
  live.model = "tgcn";
  live.method = "pipad";
  const std::string path = ::testing::TempDir() + "analyze_round_trip.json";
  analyze::write_trace_file(path, live);
  const auto reread = analyze::read_trace_file(path);
  std::remove(path.c_str());

  ASSERT_EQ(reread.records.size(), live.records.size());
  for (std::size_t i = 0; i < live.records.size(); ++i) {
    EXPECT_EQ(reread.records[i].name, live.records[i].name) << i;
    EXPECT_EQ(reread.records[i].lane, live.records[i].lane) << i;
    EXPECT_EQ(reread.records[i].start_us, live.records[i].start_us) << i;
    EXPECT_EQ(reread.records[i].end_us, live.records[i].end_us) << i;
  }
  EXPECT_EQ(reread.dataset, "rt");

  const auto a1 = analyze::analyze_trace(live);
  const auto a2 = analyze::analyze_trace(reread);
  EXPECT_EQ(json_of(a1), json_of(a2));
  std::ostringstream h1, h2;
  analyze::write_human_report(h1, a1);
  analyze::write_human_report(h2, a2);
  EXPECT_EQ(h1.str(), h2.str());
}

TEST(AnalyzeTrace, WritingToAnUnwritablePathThrows) {
  Timeline tl;
  tl.submit(0, Resource::Compute, "kernel:k", 1.0);
  EXPECT_THROW(analyze::write_trace_file("/no/such/dir/trace.json",
                                         analyze::from_timeline(tl)),
               Error);
}

TEST(AnalyzeTrace, ReaderRejectsMalformedInput) {
  // The message of the error parse() throws ("" when it parses).
  const auto error_of = [](const std::string& text) {
    try {
      analyze::parse_trace(text, "<mem>");
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // A one-op trace: event 0 names a lane, event 1 is the op.
  const auto trace = [](const std::string& args, const std::string& ts = "0") {
    return R"({"traceEvents":[)"
           R"({"ph":"M","name":"thread_name","pid":0,"tid":0,)"
           R"("args":{"name":"compute"}},)"
           R"({"name":"k","ph":"X","ts":)" +
           ts + R"(,"dur":1,"pid":0,"tid":0,"args":)" + args + "}]}";
  };
  const auto args = [](const std::string& resource = R"("compute")",
                       const std::string& end_us = "1",
                       const std::string& lane = "0",
                       const std::string& stream = "0") {
    return R"({"resource":)" + resource + R"(,"stream":)" + stream +
           R"(,"end_us":)" + end_us + R"(,"bytes":0,"lane":)" + lane + "}";
  };
  const auto rejected = [&](const std::string& text,
                            const std::string& needle) {
    const std::string what = error_of(text);
    EXPECT_NE(what.find(needle), std::string::npos)
        << "input: " << text << "\nerror: " << what;
  };

  EXPECT_EQ(error_of(trace(args())), "");
  const auto td = analyze::parse_trace(trace(args()), "<mem>");
  ASSERT_EQ(td.records.size(), 1u);  // The M event is skipped.

  const std::string not_trace =
      "<mem>: not a pipad trace (expected trace-event JSON)";
  rejected("", not_trace);
  rejected("not json", not_trace);
  rejected("{}", not_trace);
  rejected(R"({"traceEvents":{}})", not_trace);
  // A trace in the retired CSV layout.
  rejected("name,resource,stream,start_us,end_us,bytes,lane\n"
           "k,compute,0,0,1,0,0\n",
           not_trace);

  // Every event error names the path and the event's index.
  rejected(trace(R"({"resource":"compute","stream":0,"bytes":0,"lane":0})"),
           "<mem>: event 1: missing field 'args.end_us'");
  rejected(R"({"traceEvents":[{"name":"k","ph":"X","ts":0}]})",
           "<mem>: event 0: missing field 'args'");
  rejected(R"({"traceEvents":[7]})", "<mem>: event 0: not an object");
  rejected(R"({"traceEvents":[],"otherData":{"dataset":1}})",
           "<mem>: otherData.dataset is not a string");
  rejected(trace(args(R"("warp")")), "event 1: unknown resource 'warp'");
  rejected(trace(args(), "-1"), "event 1: op 'k' starts before 0");
  rejected(trace(args(R"("compute")", "0.5"), "2"),
           "event 1: op 'k' ends before it starts");
  rejected(trace(args(R"("compute")", R"("1")")),
           "event 1: field 'args.end_us' is not a number");
  rejected(trace(args(R"("compute")", "1", "0.5")),
           "event 1: field 'args.lane' must be an integer");
  rejected(trace(args(R"("compute")", "1", "-1")),
           "event 1: field 'args.lane' must be an integer");
  // Lanes and streams are capped: each id becomes an allocated slot.
  rejected(trace(args(R"("cpu-worker")", "1", "1e12")),
           "event 1: field 'args.lane' must be an integer in [0, 4096)");
  rejected(trace(args(R"("cpu-worker")", "1", "4096")),
           "field 'args.lane' must be an integer in [0, 4096)");
  rejected(trace(args(R"("compute")", "1", "0", "4096")),
           "field 'args.stream' must be an integer in [0, 4096)");
  const auto widest =
      analyze::parse_trace(trace(args(R"("cpu-worker")", "1", "4095")), "");
  EXPECT_EQ(widest.worker_lanes, 4096u);

  // A directory opens like a file; it must fail as one, not as a huge
  // allocation.
  EXPECT_THROW(analyze::read_trace_file(::testing::TempDir()), Error);
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
