// cli/ tests: argument parsing for the unified `pipad` driver, plus an
// in-process end-to-end run of each subcommand on a tiny synthetic graph.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "analyze/report.hpp"
#include "api/job_result.hpp"
#include "api/json.hpp"
#include "cli/cli.hpp"
#include "gpusim/timeline.hpp"
#include "gpusim/trace.hpp"
#include "graph/generator.hpp"

namespace pipad::cli {
namespace {

ParseResult parse(std::initializer_list<const char*> args) {
  return parse_args(std::vector<std::string>(args.begin(), args.end()));
}

TEST(CliParse, MissingSubcommandIsAnError) {
  const auto r = parse({});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("subcommand"), std::string::npos);
}

TEST(CliParse, UnknownSubcommandIsAnError) {
  const auto r = parse({"tarin"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("tarin"), std::string::npos);
}

TEST(CliParse, DefaultsAreApplied) {
  const auto r = parse({"train"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.command, Command::Train);
  EXPECT_EQ(r.options.job.model, "tgcn");
  EXPECT_EQ(r.options.job.runtime, "pipad");
  EXPECT_EQ(r.options.job.dataset, "synthetic");
  EXPECT_EQ(r.options.job.snapshots, 0);
  EXPECT_EQ(r.options.job.threads, 0);
}

TEST(CliParse, AllSubcommandsRecognized) {
  EXPECT_EQ(parse({"train"}).options.command, Command::Train);
  EXPECT_EQ(parse({"bench"}).options.command, Command::Bench);
  EXPECT_EQ(parse({"trace"}).options.command, Command::Trace);
  EXPECT_EQ(parse({"help"}).options.command, Command::Help);
}

TEST(CliParse, SpaceAndEqualsFormsBothWork) {
  const auto a = parse({"train", "--model", "mpnn-lstm", "--snapshots", "4"});
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.options.job.model, "mpnn-lstm");
  EXPECT_EQ(a.options.job.snapshots, 4);

  const auto b = parse({"train", "--model=mpnn-lstm", "--snapshots=4"});
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.options.job.model, "mpnn-lstm");
  EXPECT_EQ(b.options.job.snapshots, 4);
}

TEST(CliParse, EveryModelNameIsAccepted) {
  for (const char* m : {"gcn", "tgcn", "evolvegcn", "mpnn-lstm"}) {
    const auto r = parse({"train", "--model", m});
    EXPECT_TRUE(r.ok) << m << ": " << r.error;
    EXPECT_EQ(r.options.job.model, m);
  }
}

TEST(CliParse, EveryRuntimeNameIsAccepted) {
  for (const char* rt : {"pipad", "pygt", "pygt-a", "pygt-r", "pygt-g"}) {
    const auto r = parse({"train", "--runtime", rt});
    EXPECT_TRUE(r.ok) << rt << ": " << r.error;
    EXPECT_EQ(r.options.job.runtime, rt);
  }
}

TEST(CliParse, UnknownModelIsAnError) {
  const auto r = parse({"train", "--model", "transformer"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("transformer"), std::string::npos);
}

TEST(CliParse, UnknownRuntimeIsAnError) {
  EXPECT_FALSE(parse({"train", "--runtime", "cuda"}).ok);
}

TEST(CliParse, ReplicaFlagsLandAndValidate) {
  const auto r = parse({"train", "--replicas", "4", "--allreduce", "tree"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.job.replicas, 4);
  EXPECT_EQ(r.options.job.allreduce, "tree");
  // Defaults: 0 replicas, one device stepping after every frame.
  EXPECT_EQ(parse({"train"}).options.job.replicas, 0);
  EXPECT_EQ(parse({"train"}).options.job.allreduce, "ring");
  EXPECT_FALSE(parse({"train", "--replicas", "-1"}).ok);
  EXPECT_FALSE(parse({"train", "--replicas", "65"}).ok);
  EXPECT_FALSE(parse({"train", "--replicas", "two"}).ok);
  const auto bad = parse({"train", "--allreduce", "butterfly"});
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("butterfly"), std::string::npos);
}

TEST(CliParse, ReplicasRequirePipadRuntime) {
  EXPECT_TRUE(parse({"train", "--replicas", "2"}).ok);
  EXPECT_TRUE(parse({"bench", "--replicas", "2"}).ok);
  const auto pygt = parse({"train", "--runtime", "pygt", "--replicas", "2"});
  EXPECT_FALSE(pygt.ok);
  EXPECT_NE(pygt.error.find("--runtime pipad"), std::string::npos);
}

TEST(CliUsage, MentionsReplicaFlags) {
  const std::string u = usage();
  for (const char* s : {"--replicas", "--allreduce", "ring", "tree"}) {
    EXPECT_NE(u.find(s), std::string::npos) << s;
  }
}

TEST(CliParse, UnknownFlagIsAnError) {
  const auto r = parse({"train", "--modle", "tgcn"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--modle"), std::string::npos);
}

TEST(CliParse, MissingValueIsAnError) {
  const auto r = parse({"train", "--snapshots"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--snapshots"), std::string::npos);
}

TEST(CliParse, NonNumericValueIsAnError) {
  EXPECT_FALSE(parse({"train", "--snapshots", "many"}).ok);
  EXPECT_FALSE(parse({"train", "--epochs", "2.5"}).ok);
  EXPECT_FALSE(parse({"train", "--nodes", "-5"}).ok);
}

TEST(CliParse, NumericFlagsLand) {
  const auto r = parse({"bench", "--nodes=300", "--events=2000",
                        "--feat-dim=16", "--epochs=1", "--frame-size=4",
                        "--frames=2", "--threads=8", "--seed=42",
                        "--edge-life=4.5", "--scale-large=64",
                        "--scale-small=4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.job.nodes, 300);
  EXPECT_EQ(r.options.job.events, 2000);
  EXPECT_EQ(r.options.job.feat_dim, 16);
  EXPECT_EQ(r.options.job.epochs, 1);
  EXPECT_EQ(r.options.job.frame_size, 4);
  EXPECT_EQ(r.options.job.frames, 2);
  EXPECT_EQ(r.options.job.threads, 8);
  EXPECT_EQ(r.options.job.seed, 42u);
  EXPECT_DOUBLE_EQ(r.options.job.edge_life, 4.5);
  EXPECT_EQ(r.options.job.scale_large, 64);
  EXPECT_EQ(r.options.job.scale_small, 4);
}

TEST(CliParse, HelpShortCircuits) {
  const auto r = parse({"train", "--help"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.options.command, Command::Help);
}

TEST(CliParse, ZeroEpochsRejected) {
  EXPECT_FALSE(parse({"train", "--epochs", "0"}).ok);
}

TEST(CliParse, ZeroFeatDimAndScalesRejected) {
  EXPECT_FALSE(parse({"train", "--feat-dim", "0"}).ok);
  EXPECT_FALSE(parse({"train", "--scale-large", "0"}).ok);
  EXPECT_FALSE(parse({"train", "--scale-small", "0"}).ok);
}

TEST(CliParse, IntOverflowRejectedInsteadOfWrapping) {
  // 2^32 + 4 would silently truncate to 4 under a bare static_cast<int>.
  const auto r = parse({"train", "--snapshots", "4294967300"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--snapshots"), std::string::npos);
  // Beyond long long entirely.
  EXPECT_FALSE(parse({"train", "--events", "99999999999999999999"}).ok);
  // 64-bit flags still take values past INT_MAX.
  const auto ok = parse({"train", "--seed", "4294967300"});
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.options.job.seed, 4294967300u);
}

TEST(CliUsage, MentionsEverySubcommandAndModel) {
  const std::string u = usage();
  for (const char* s : {"train", "bench", "trace", "analyze", "gcn", "tgcn",
                        "evolvegcn", "mpnn-lstm", "--snapshots", "--threads",
                        "--trace", "--fail-above", "--top"}) {
    EXPECT_NE(u.find(s), std::string::npos) << s;
  }
}

TEST(CliUsage, MentionsEveryAcceptedDataset) {
  // --help must enumerate every --dataset value the CLI accepts: all seven
  // Table-1 names, the synthetic generator, and the file: ingest form.
  const std::string u = usage();
  for (const auto& cfg : graph::evaluation_datasets()) {
    EXPECT_NE(u.find(cfg.name), std::string::npos) << cfg.name;
  }
  EXPECT_NE(u.find("synthetic"), std::string::npos);
  EXPECT_NE(u.find("file:"), std::string::npos);
  EXPECT_NE(u.find("--snapshot-window"), std::string::npos);
  EXPECT_NE(u.find("--cache-dir"), std::string::npos);
  EXPECT_NE(u.find("--log-level"), std::string::npos);
}

TEST(CliParse, FileDatasetFlagsLand) {
  const auto r = parse({"train", "--dataset", "file:/tmp/g.csv",
                        "--snapshot-window", "10", "--cache-dir", "/tmp/c",
                        "--features", "/tmp/f.tsv", "--log-level", "debug"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.job.dataset, "file:/tmp/g.csv");
  EXPECT_EQ(r.options.job.snapshot_window, 10);
  EXPECT_EQ(r.options.job.cache_dir, "/tmp/c");
  EXPECT_EQ(r.options.job.features, "/tmp/f.tsv");
  EXPECT_EQ(r.options.log_level, "debug");
}

TEST(CliParse, FileOnlyFlagsRejectedForSyntheticDatasets) {
  EXPECT_FALSE(parse({"train", "--snapshot-window", "10"}).ok);
  EXPECT_FALSE(parse({"train", "--cache-dir", "/tmp/c"}).ok);
  EXPECT_FALSE(parse({"train", "--dataset", "epinions", "--features",
                      "/tmp/f.tsv"}).ok);
}

TEST(CliParse, WindowAndSnapshotsExclusiveForFileDatasets) {
  EXPECT_FALSE(parse({"train", "--dataset", "file:/tmp/g.csv",
                      "--snapshot-window", "10", "--snapshots", "4"}).ok);
}

TEST(CliParse, WindowBytesLandsAndRequiresAFileDataset) {
  const auto r = parse({"train", "--dataset", "file:/tmp/g.el",
                        "--window-bytes", "1048576"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.job.window_bytes, 1048576);
  EXPECT_FALSE(parse({"train", "--window-bytes", "1048576"}).ok);
  EXPECT_FALSE(parse({"train", "--dataset", "file:/tmp/g.el",
                      "--window-bytes", "-1"}).ok);
  // 0 = the loader default, same convention as --snapshot-window.
  EXPECT_TRUE(parse({"train", "--dataset", "file:/tmp/g.el",
                     "--window-bytes", "0"}).ok);
  EXPECT_NE(usage().find("--window-bytes"), std::string::npos);
}

TEST(CliParse, OverflowingFloatLiteralsRejected) {
  // strtod turns 1e999 into +inf with ERANGE; accepting it would silently
  // train with an infinite edge lifetime.
  EXPECT_FALSE(parse({"train", "--edge-life", "1e999"}).ok);
  EXPECT_FALSE(parse({"train", "--edge-life", "inf"}).ok);
  EXPECT_FALSE(parse({"train", "--edge-life", "nan"}).ok);
  EXPECT_FALSE(parse({"train", "--edge-life", "1e-999999999"}).ok);
  EXPECT_TRUE(parse({"train", "--edge-life", "4.5"}).ok);
}

TEST(CliParse, EdgeLifeForFileDatasetsMustBeInteger) {
  const auto r = parse({"train", "--dataset", "file:/tmp/g.csv",
                        "--edge-life", "3"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.options.job.edge_life_set);
  EXPECT_DOUBLE_EQ(r.options.job.edge_life, 3.0);
  // Fractional lifetimes only make sense for the synthetic generator, and
  // absurd ones would overflow the loader's int snapshot arithmetic.
  EXPECT_FALSE(parse({"train", "--dataset", "file:/tmp/g.csv",
                      "--edge-life", "4.5"}).ok);
  EXPECT_FALSE(parse({"train", "--dataset", "file:/tmp/g.csv",
                      "--edge-life", "3000000000"}).ok);
  EXPECT_TRUE(parse({"train", "--edge-life", "4.5"}).ok);
}

TEST(CliParse, JsonOnlyForBenchAndAnalyze) {
  EXPECT_TRUE(parse({"bench", "--json", "/tmp/r.json"}).ok);
  EXPECT_TRUE(parse({"analyze", "--json", "/tmp/r.json"}).ok);
  EXPECT_FALSE(parse({"train", "--json", "/tmp/r.json"}).ok);
  EXPECT_FALSE(parse({"trace", "--json", "/tmp/r.json"}).ok);
}

TEST(CliParse, AnalyzeFlagsLand) {
  const auto r = parse({"analyze", "--trace", "a.csv", "--trace", "b.csv",
                        "--fail-above", "medium", "--top", "3"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.command, Command::Analyze);
  ASSERT_EQ(r.options.traces.size(), 2u);
  EXPECT_EQ(r.options.traces[0], "a.csv");
  EXPECT_EQ(r.options.traces[1], "b.csv");
  EXPECT_EQ(r.options.fail_above, "medium");
  EXPECT_EQ(r.options.top, 3);
}

TEST(CliParse, AnalyzeFlagValidation) {
  EXPECT_FALSE(parse({"analyze", "--trace", ""}).ok);
  EXPECT_FALSE(parse({"analyze", "--top", "0"}).ok);
  EXPECT_FALSE(parse({"analyze", "--fail-above", "critical"}).ok);
  // Analyzer flags are meaningless for the other subcommands.
  EXPECT_FALSE(parse({"train", "--trace", "a.csv"}).ok);
  EXPECT_FALSE(parse({"bench", "--fail-above", "low"}).ok);
  EXPECT_FALSE(parse({"trace", "--top", "3"}).ok);
}

TEST(CliParse, UnknownLogLevelRejected) {
  EXPECT_FALSE(parse({"train", "--log-level", "chatty"}).ok);
}

// ---- serve / submit surfaces ----

TEST(CliParse, ServeFlagsLand) {
  const auto r = parse({"serve", "--socket", "/tmp/s.sock",
                        "--queue-capacity", "8", "--executors", "3",
                        "--threads", "2"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.command, Command::Serve);
  EXPECT_EQ(r.options.socket, "/tmp/s.sock");
  EXPECT_EQ(r.options.queue_capacity, 8);
  EXPECT_EQ(r.options.executors, 3);
  EXPECT_EQ(r.options.job.threads, 2);
  EXPECT_FALSE(parse({"serve", "--queue-capacity", "0"}).ok);
  EXPECT_FALSE(parse({"serve", "--executors", "0"}).ok);
  EXPECT_FALSE(parse({"serve", "--executors", "257"}).ok);
  EXPECT_FALSE(parse({"serve", "--socket", ""}).ok);
}

TEST(CliParse, SubmitFlagsLand) {
  const auto r = parse({"submit", "--model", "gcn", "--tenant", "team-a",
                        "--priority", "9", "--tag", "nightly", "--no-wait"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.options.command, Command::Submit);
  EXPECT_EQ(r.options.job.model, "gcn");
  EXPECT_EQ(r.options.job.tenant, "team-a");
  EXPECT_EQ(r.options.job.priority, 9);
  EXPECT_EQ(r.options.job.tag, "nightly");
  EXPECT_TRUE(r.options.no_wait);
}

TEST(CliParse, TenantAndPriorityValidated) {
  EXPECT_FALSE(parse({"submit", "--priority", "0"}).ok);
  EXPECT_FALSE(parse({"submit", "--priority", "11"}).ok);
  EXPECT_FALSE(parse({"submit", "--tenant", ""}).ok);
  EXPECT_TRUE(parse({"submit", "--priority", "1"}).ok);
  EXPECT_TRUE(parse({"submit", "--priority", "10"}).ok);
}

TEST(CliParse, SubmitModesAreMutuallyExclusive) {
  EXPECT_TRUE(parse({"submit", "--list"}).ok);
  EXPECT_TRUE(parse({"submit", "--shutdown"}).ok);
  EXPECT_TRUE(parse({"submit", "--wait", "3"}).ok);
  EXPECT_TRUE(parse({"submit", "--cancel", "3"}).ok);
  EXPECT_TRUE(parse({"submit", "--status", "3"}).ok);
  EXPECT_FALSE(parse({"submit", "--list", "--shutdown"}).ok);
  EXPECT_FALSE(parse({"submit", "--wait", "3", "--cancel", "3"}).ok);
  EXPECT_FALSE(parse({"submit", "--list", "--no-wait"}).ok);
  EXPECT_FALSE(parse({"submit", "--wait", "0"}).ok);
  EXPECT_FALSE(parse({"submit", "--cancel", "-1"}).ok);
  // The mode flags take no value.
  EXPECT_FALSE(parse({"submit", "--list=yes"}).ok);
}

TEST(CliParse, ServeSubmitFlagsRejectedOnOtherSubcommands) {
  EXPECT_FALSE(parse({"train", "--socket", "/tmp/s.sock"}).ok);
  EXPECT_FALSE(parse({"train", "--queue-capacity", "8"}).ok);
  EXPECT_FALSE(parse({"bench", "--executors", "3"}).ok);
  EXPECT_FALSE(parse({"train", "--no-wait"}).ok);
  EXPECT_FALSE(parse({"bench", "--shutdown"}).ok);
  EXPECT_FALSE(parse({"trace", "--list"}).ok);
  EXPECT_FALSE(parse({"train", "--wait", "3"}).ok);
  EXPECT_FALSE(parse({"train", "--record-json", "/tmp/r.json"}).ok);
}

TEST(CliUsage, MentionsServeAndSubmit) {
  const std::string u = usage();
  for (const char* s : {"serve", "submit", "--socket", "--queue-capacity",
                        "--executors", "--priority", "--tenant", "--tag",
                        "--no-wait", "--record-json", "--shutdown"}) {
    EXPECT_NE(u.find(s), std::string::npos) << s;
  }
}

// ---- one flag vocabulary: the CLI and the bench binaries must reject the
// same bad job inputs with byte-identical error text ----

std::string cli_error(std::initializer_list<const char*> args) {
  const auto r = parse(args);
  EXPECT_FALSE(r.ok);
  return r.error;
}

std::string bench_error(const std::vector<std::string>& args) {
  bench::Flags f;
  std::string error;
  EXPECT_FALSE(bench::Flags::try_parse(args, f, error));
  return error;
}

TEST(CliBenchParity, BadSharedInputsRejectedWithIdenticalText) {
  EXPECT_EQ(cli_error({"train", "--model", "transformer"}),
            bench_error({"--model=transformer"}));
  EXPECT_EQ(cli_error({"train", "--runtime", "cuda"}),
            bench_error({"--runtime=cuda"}));
  EXPECT_EQ(cli_error({"train", "--epochs", "0"}),
            bench_error({"--epochs=0"}));
  EXPECT_EQ(cli_error({"train", "--replicas", "65"}),
            bench_error({"--replicas=65"}));
  EXPECT_EQ(cli_error({"train", "--allreduce", "butterfly"}),
            bench_error({"--allreduce=butterfly"}));
  EXPECT_EQ(cli_error({"train", "--edge-life", "inf"}),
            bench_error({"--edge-life=inf"}));
  EXPECT_EQ(cli_error({"train", "--priority", "11"}),
            bench_error({"--priority=11"}));
  // Validation rules that fire post-parse (not per-flag) also agree: the
  // bench surface runs the same JobSpec::validate().
  EXPECT_EQ(cli_error({"train", "--runtime", "pygt", "--replicas", "2"}),
            bench_error({"--runtime=pygt", "--replicas=2"}));
  // --tuner and --prep are not in the flag vocabulary: both surfaces
  // reject them as unknown, whatever value they carry.
  for (const char* flag : {"--tuner", "--prep"}) {
    for (const char* value : {"measured", "batch", "analytic", "stream"}) {
      const std::string cli = cli_error({"train", flag, value});
      EXPECT_EQ(cli, "unknown flag '" + std::string(flag) + "'");
      EXPECT_EQ(cli, bench_error({std::string(flag) + "=" + value}));
    }
  }
  EXPECT_EQ(cli_error({"analyze", "--prep", "batch"}),
            bench_error({"--prep=batch"}));
}

TEST(CliBenchParity, GoodSharedInputsLandIdentically) {
  const auto r = parse({"bench", "--model", "mpnn-lstm", "--threads", "4",
                        "--replicas", "2", "--allreduce", "tree"});
  ASSERT_TRUE(r.ok) << r.error;
  bench::Flags f;
  std::string error;
  ASSERT_TRUE(bench::Flags::try_parse(
      {"--model=mpnn-lstm", "--threads=4", "--replicas=2",
       "--allreduce=tree"},
      f, error))
      << error;
  EXPECT_EQ(r.options.job.model, f.job.model);
  EXPECT_EQ(r.options.job.threads, f.job.threads);
  EXPECT_EQ(r.options.job.replicas, f.job.replicas);
  EXPECT_EQ(r.options.job.allreduce, f.job.allreduce);
}

api::Json read_json(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::stringstream buf;
  buf << is.rdbuf();
  return api::Json::parse(buf.str());
}

std::vector<std::string> keys_of(const api::Json& obj) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : obj.members()) keys.push_back(key);
  return keys;
}

const std::vector<std::string> kLegacyRecordKeys = {
    "dataset", "model", "method", "epoch_us", "total_us", "transfer_us",
    "compute_us", "prep_us", "first_steady_us", "sm_util", "final_loss"};

std::vector<std::string> with_keys(std::vector<std::string> keys,
                                   std::initializer_list<const char*> more) {
  keys.insert(keys.end(), more.begin(), more.end());
  return keys;
}

TEST(BenchRecord, LegacyFieldsKeepOrderAndExactValuesUnderVersioning) {
  // The legacy fields come first in their pre-versioning order and
  // schema_version comes last, so fresh records line up with the
  // checked-in BENCH_*.json baselines; every number reads back exactly.
  models::TrainResult r;
  r.total_us = 2469.0;
  r.transfer_us = 100.5;
  r.compute_us = 2000.5;
  r.prep_us = 42.0;
  r.first_steady_us = 617.5;
  r.sm_utilization = 0.8125;
  r.frame_loss = {0.5f, 0.25f};
  const api::Json rec = api::Json::parse(
      api::bench_record("web", "tgcn", "pipad", 1234.5, r).dump());
  EXPECT_EQ(keys_of(rec), with_keys(kLegacyRecordKeys, {"schema_version"}));
  EXPECT_EQ(rec.find("dataset")->as_string(), "web");
  EXPECT_EQ(rec.find("model")->as_string(), "tgcn");
  EXPECT_EQ(rec.find("method")->as_string(), "pipad");
  EXPECT_EQ(rec.find("epoch_us")->as_number(), 1234.5);
  EXPECT_EQ(rec.find("total_us")->as_number(), 2469.0);
  EXPECT_EQ(rec.find("transfer_us")->as_number(), 100.5);
  EXPECT_EQ(rec.find("compute_us")->as_number(), 2000.5);
  EXPECT_EQ(rec.find("prep_us")->as_number(), 42.0);
  EXPECT_EQ(rec.find("first_steady_us")->as_number(), 617.5);
  EXPECT_EQ(rec.find("steals"), nullptr);  // Retired in schema version 2.
  EXPECT_EQ(rec.find("sm_util")->as_number(), 0.8125);
  EXPECT_EQ(rec.find("final_loss")->as_number(), 0.25);
  EXPECT_EQ(rec.find("schema_version")->as_int(),
            api::kBenchRecordSchemaVersion);

  // Replica fields ride between the legacy set and the version tag, and
  // only on replicated runs.
  r.replicas = 2;
  r.allreduce_us = 7.5;
  const api::Json rep = api::Json::parse(
      api::bench_record("web", "tgcn", "pipad", 1234.5, r).dump());
  EXPECT_EQ(keys_of(rep),
            with_keys(kLegacyRecordKeys,
                      {"replicas", "allreduce_us", "schema_version"}));
  EXPECT_EQ(rep.find("replicas")->as_int(), 2);
  EXPECT_EQ(rep.find("allreduce_us")->as_number(), 7.5);
}

TEST(BenchRecord, EscapesJsonStrings) {
  // Dataset names are file stems and may contain JSON-special characters.
  models::TrainResult r;
  const std::string name = "sa\"mp\\le\x01";
  const api::Json rec = api::Json::parse(
      api::bench_record(name, "tgcn", "pipad", 1.0, r).dump());
  EXPECT_EQ(rec.find("dataset")->as_string(), name);
}

/// The analyzer's record and finding key orders, taken from a report on a
/// prep-bound trace (which fires one finding).
api::Json prep_bound_report() {
  gpusim::Timeline tl;
  tl.submit_worker(0, "prep:x", 50.0);
  tl.submit(0, gpusim::Resource::Compute, "kernel:k", 50.0, 50.0);
  return analyze::report_json(
      {analyze::analyze_trace(analyze::from_timeline(tl))}, 1);
}

TEST(BenchBaselines, CheckedInRecordsKeepTheBuilderKeyOrder) {
  // Every checked-in baseline record carries exactly the keys its builder
  // emits today, in the same order — ignoring the trailing schema_version,
  // which baselines written before versioning lack. A field renamed or
  // reordered in a builder shows up here before it breaks a CI perf gate.
  const auto strip_version = [](std::vector<std::string> keys) {
    if (!keys.empty() && keys.back() == "schema_version") keys.pop_back();
    return keys;
  };
  models::TrainResult single;
  models::TrainResult replicated;
  replicated.replicas = 1;
  const std::vector<std::string> single_keys = strip_version(
      keys_of(api::bench_record("d", "m", "x", 0.0, single)));
  const std::vector<std::string> replica_keys = strip_version(
      keys_of(api::bench_record("d", "m", "x", 0.0, replicated)));
  for (const char* name : {"fig10", "cli_file", "pool", "ingest",
                           "replicas"}) {
    SCOPED_TRACE(name);
    const api::Json doc = read_json(std::string(PIPAD_SOURCE_DIR) +
                                    "/BENCH_" + name + ".json");
    ASSERT_NE(doc.find("records"), nullptr);
    ASSERT_FALSE(doc.find("records")->items().empty());
    for (const api::Json& rec : doc.find("records")->items()) {
      const bool has_replicas = rec.find("replicas") != nullptr;
      EXPECT_EQ(strip_version(keys_of(rec)),
                has_replicas ? replica_keys : single_keys)
          << rec.dump();
    }
  }

  const api::Json fresh = prep_bound_report();
  const std::vector<std::string> record_keys =
      keys_of(fresh.find("records")->items().at(0));
  const std::vector<std::string> finding_keys =
      keys_of(fresh.find("findings")->items().at(0));
  const api::Json analyze_doc =
      read_json(std::string(PIPAD_SOURCE_DIR) + "/BENCH_analyze.json");
  ASSERT_NE(analyze_doc.find("records"), nullptr);
  ASSERT_NE(analyze_doc.find("findings"), nullptr);
  ASSERT_FALSE(analyze_doc.find("records")->items().empty());
  for (const api::Json& rec : analyze_doc.find("records")->items()) {
    EXPECT_EQ(keys_of(rec), record_keys) << rec.dump();
  }
  for (const api::Json& f : analyze_doc.find("findings")->items()) {
    EXPECT_EQ(keys_of(f), finding_keys) << f.dump();
  }
}

// ---- end-to-end: run() on a tiny synthetic dataset, in process ----

Options tiny(Command cmd) {
  Options o;
  o.command = cmd;
  o.job.nodes = 200;
  o.job.events = 1500;
  o.job.snapshots = 4;
  o.job.frame_size = 4;
  o.job.epochs = 1;
  o.job.frames = 2;
  return o;
}

TEST(CliRun, TrainEveryModelUnderPipad) {
  for (const char* m : {"gcn", "tgcn", "evolvegcn", "mpnn-lstm"}) {
    Options o = tiny(Command::Train);
    o.job.model = m;
    EXPECT_EQ(run(o), 0) << m;
  }
}

TEST(CliRun, TrainUnderBaselineRuntime) {
  Options o = tiny(Command::Train);
  o.job.runtime = "pygt-r";
  EXPECT_EQ(run(o), 0);
}

TEST(CliRun, BenchCompletes) {
  Options o = tiny(Command::Bench);
  EXPECT_EQ(run(o), 0);
}

TEST(CliRun, TrainAndBenchOnFileDataset) {
  Options o = tiny(Command::Train);
  o.job.dataset = std::string("file:") + PIPAD_TEST_DATA_DIR +
              "/sample_edges.csv";
  o.job.snapshots = 0;   // The file's snapshots=4 directive governs.
  o.job.frame_size = 2;
  EXPECT_EQ(run(o), 0);

  o.command = Command::Bench;
  const std::string json = ::testing::TempDir() + "cli_file_bench.json";
  o.json = json;
  EXPECT_EQ(run(o), 0);
  // The JSON report is bench_diff-compatible: a records array keyed by
  // (dataset, model, method).
  const api::Json doc = read_json(json);
  const api::Json* records = doc.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items().size(), 2u);
  const api::Json& rec = records->items()[1];
  EXPECT_EQ(rec.find("dataset")->as_string(), "sample_edges");
  EXPECT_EQ(rec.find("method")->as_string(), "pipad");
  EXPECT_NE(rec.find("epoch_us"), nullptr);
  std::remove(json.c_str());
}

TEST(CliRun, AnalyzeLiveRunAndTraceFileRoundTrip) {
  // Live mode: train a tiny graph in-process and analyze its timeline.
  Options o = tiny(Command::Analyze);
  const std::string json = ::testing::TempDir() + "cli_analyze.json";
  o.json = json;
  EXPECT_EQ(run(o), 0);
  const api::Json doc = read_json(json);
  EXPECT_EQ(doc.find("bench")->as_string(), "pipad-analyze");
  ASSERT_EQ(doc.find("records")->items().size(), 1u);
  EXPECT_NE(doc.find("records")->items()[0].find("critical_path_us"),
            nullptr);
  std::remove(json.c_str());

  // Trace-file mode: `pipad trace` writes a labeled CSV, analyze reads it.
  Options t = tiny(Command::Trace);
  const std::string csv = ::testing::TempDir() + "cli_analyze_trace.csv";
  t.out = csv;
  EXPECT_EQ(run(t), 0);
  Options a = tiny(Command::Analyze);
  a.traces = {csv};
  EXPECT_EQ(run(a), 0);
  std::remove(csv.c_str());
}

TEST(CliRun, TrainReplicatedUnderPipad) {
  Options o = tiny(Command::Train);
  o.job.replicas = 2;
  EXPECT_EQ(run(o), 0);
  o.job.replicas = 4;
  o.job.threads = 4;
  o.job.allreduce = "tree";
  EXPECT_EQ(run(o), 0);
}

TEST(CliRun, FailAboveGateExitsWithCode3) {
  // A trace whose all-reduce steps are fully exposed: allreduce_bound
  // fires at High severity, so any gate level trips.
  gpusim::Timeline tl;
  tl.submit(0, gpusim::Resource::Compute, "kernel:k", 50.0);
  tl.submit(0, gpusim::Resource::Link, "comm:allreduce:ring", 25.0, 50.0);
  tl.submit(0, gpusim::Resource::Link, "comm:allreduce:ring", 25.0);
  const std::string csv = ::testing::TempDir() + "cli_gate_trace.csv";
  {
    std::ofstream os(csv);
    ASSERT_TRUE(os.good());
    gpusim::write_trace_csv(tl, os);
  }
  Options o;
  o.command = Command::Analyze;
  o.traces = {csv};
  o.fail_above = "info";
  EXPECT_EQ(run(o), 3);
  o.fail_above = "high";
  EXPECT_EQ(run(o), 3);
  // Reporting without a gate never turns findings into a failure.
  o.fail_above = "none";
  EXPECT_EQ(run(o), 0);
  std::remove(csv.c_str());
}

TEST(CliRun, AnalyzeMissingTraceFileFailsCleanly) {
  const char* argv[] = {"pipad", "analyze", "--trace", "/no/such/trace.csv"};
  EXPECT_EQ(main_impl(4, argv), 1);
}

TEST(CliRun, MissingFileDatasetFailsCleanly) {
  const char* argv[] = {"pipad", "train", "--dataset",
                        "file:/no/such/file.csv"};
  EXPECT_EQ(main_impl(4, argv), 1);
}

TEST(CliRun, UnknownDatasetFailsCleanly) {
  const char* argv[] = {"pipad", "train", "--dataset", "no-such-graph",
                        "--nodes", "200"};
  // run() throws pipad::Error; main_impl converts it to exit code 1.
  EXPECT_EQ(main_impl(6, argv), 1);
}

TEST(CliRun, MainImplReportsParseErrorsWithExitCode2) {
  const char* argv[] = {"pipad", "launch"};
  EXPECT_EQ(main_impl(2, argv), 2);
}

}  // namespace
}  // namespace pipad::cli
