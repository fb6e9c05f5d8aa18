// api/ tests: the strict Json substrate, JobSpec round-trips and
// validation (including the rules relocated from the CLI), and JobResult's
// versioned schema with bitwise float fidelity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "api/json.hpp"
#include "common/error.hpp"

namespace pipad::api {
namespace {

// ---- Json: parse/dump ----

TEST(Json, RoundTripsEveryValueKind) {
  const std::string doc =
      R"({"s":"hi","n":42,"f":-1.5,"t":true,"nil":null,"a":[1,2],"o":{"k":"v"}})";
  const Json j = Json::parse(doc);
  EXPECT_EQ(j.find("s")->as_string(), "hi");
  EXPECT_EQ(j.find("n")->as_int(), 42);
  EXPECT_DOUBLE_EQ(j.find("f")->as_number(), -1.5);
  EXPECT_TRUE(j.find("t")->as_bool());
  EXPECT_TRUE(j.find("nil")->is_null());
  ASSERT_EQ(j.find("a")->items().size(), 2u);
  EXPECT_EQ(j.find("o")->find("k")->as_string(), "v");
  // dump() preserves insertion order, so parse-dump-parse is stable.
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(Json, IntegersDumpWithoutExponentOrFraction) {
  Json j = Json::object();
  j.set("id", Json(static_cast<std::uint64_t>(123456789)));
  j.set("neg", Json(-42));
  EXPECT_EQ(j.dump(), R"({"id":123456789,"neg":-42})");
}

TEST(Json, StrictParseRejectsMalformedInput) {
  for (const char* bad : {
           "",                    // empty
           "{",                   // unterminated object
           "[1,]",                // trailing comma
           "{\"a\":1,}",          // trailing comma in object
           "{'a':1}",             // single quotes
           "{\"a\":1} x",         // trailing garbage
           "01",                  // leading zero
           "+1",                  // leading plus
           "nul",                 // truncated literal
           "\"\\q\"",             // bad escape
           "{\"a\":1 \"b\":2}",   // missing comma
           "\"unterminated",      // unterminated string
       }) {
    EXPECT_THROW(Json::parse(bad), Error) << bad;
  }
}

TEST(Json, NestingDepthIsBoundedNotStackLimited) {
  // 128 levels parse; one more is a clean Error — and a megabyte of '['
  // (the wire-killer a malicious client would send) must throw, never
  // overflow the parser's recursion stack.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(Json::parse(nested(128)));
  try {
    Json::parse(nested(129));
    FAIL() << "over-deep nesting accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  EXPECT_THROW(Json::parse(std::string(1 << 20, '[')), Error);
  EXPECT_THROW(Json::parse(std::string(1 << 20, '{')), Error);
}

TEST(Json, DuplicateObjectKeysRejected) {
  try {
    Json::parse(R"({"a":1,"a":2})");
    FAIL() << "duplicate key accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key"), std::string::npos);
  }
}

TEST(Json, UnicodeEscapesAndSurrogatePairs) {
  // \u0041 = 'A'; the surrogate pair encodes U+1F600 (4-byte UTF-8).
  const Json j = Json::parse(R"(["\u0041", "\uD83D\uDE00"])");
  EXPECT_EQ(j.items()[0].as_string(), "A");
  EXPECT_EQ(j.items()[1].as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(Json::parse(R"("\uD83D")"), Error);      // unpaired high
  EXPECT_THROW(Json::parse(R"("\uD83D\u0041")"), Error);  // bad low
}

TEST(Json, TypeMismatchesThrowInsteadOfUB) {
  const Json j = Json::parse(R"({"n":1.5,"s":"x"})");
  EXPECT_THROW(j.find("n")->as_string(), Error);
  EXPECT_THROW(j.find("s")->as_number(), Error);
  EXPECT_THROW(j.find("n")->as_int(), Error);  // non-integral number
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_EQ(Json(1.0).find("k"), nullptr);  // find on a non-object
}

TEST(Json, FloatRenderingRoundTripsBinary32) {
  // Losses and params are floats widened to double: the dumper's shortest
  // round-trip rendering must bring back the exact float bit pattern.
  for (const float f : {0.1f, 1.0f / 3.0f, 1e-30f, 3.4e38f,
                        std::numeric_limits<float>::min(),
                        std::nextafterf(1.0f, 2.0f), -0.015625f, 611.6f}) {
    Json a = Json::array();
    a.push_back(Json(static_cast<double>(f)));
    const Json back = Json::parse(a.dump());
    EXPECT_EQ(static_cast<float>(back.items()[0].as_number()), f) << a.dump();
  }
  // Doubles print as the shortest decimal that parses back exactly.
  EXPECT_EQ(Json(611.6).dump(), "611.6");
  EXPECT_EQ(Json::parse(Json(0.1).dump()).as_number(), 0.1);
}

TEST(Json, QuoteEscapesControlCharacters) {
  EXPECT_EQ(Json(std::string("a\"b\\c\n")).dump(), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

// ---- JobSpec ----

JobSpec full_spec() {
  JobSpec s;
  s.model = "gcn";
  s.runtime = "pipad";
  s.dataset = "file:/tmp/g.csv";
  s.snapshots = 0;
  s.snapshot_window = 100;
  s.window_bytes = 1 << 20;
  s.features = "/tmp/f.tsv";
  s.cache_dir = "/tmp/cache";
  s.nodes = 300;
  s.events = 1234;
  s.feat_dim = 16;
  s.edge_life = 3.0;
  s.edge_life_set = true;
  s.scale_large = 64;
  s.scale_small = 4;
  s.epochs = 3;
  s.frame_size = 4;
  s.frames = 2;
  s.threads = 2;
  s.replicas = 0;
  s.seed = 4294967300ull;
  s.tenant = "team-a";
  s.priority = 9;
  s.tag = "nightly";
  s.return_params = true;
  s.run_analyzer = true;
  return s;
}

TEST(JobSpec, JsonRoundTripIsLossless) {
  const JobSpec s = full_spec();
  ASSERT_EQ(s.validate(), "");
  const Json wire = Json::parse(s.to_json().dump());
  JobSpec back;
  std::string error;
  ASSERT_TRUE(JobSpec::from_json(wire, back, error)) << error;
  EXPECT_EQ(back.model, s.model);
  EXPECT_EQ(back.runtime, s.runtime);
  EXPECT_EQ(back.dataset, s.dataset);
  EXPECT_EQ(back.snapshots, s.snapshots);
  EXPECT_EQ(back.snapshot_window, s.snapshot_window);
  EXPECT_EQ(back.window_bytes, s.window_bytes);
  EXPECT_EQ(back.features, s.features);
  EXPECT_EQ(back.cache_dir, s.cache_dir);
  EXPECT_EQ(back.nodes, s.nodes);
  EXPECT_EQ(back.events, s.events);
  EXPECT_EQ(back.feat_dim, s.feat_dim);
  EXPECT_TRUE(back.edge_life_set);
  EXPECT_DOUBLE_EQ(back.edge_life, s.edge_life);
  EXPECT_EQ(back.scale_large, s.scale_large);
  EXPECT_EQ(back.scale_small, s.scale_small);
  EXPECT_EQ(back.epochs, s.epochs);
  EXPECT_EQ(back.frame_size, s.frame_size);
  EXPECT_EQ(back.frames, s.frames);
  EXPECT_EQ(back.threads, s.threads);
  EXPECT_EQ(back.replicas, s.replicas);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.tenant, s.tenant);
  EXPECT_EQ(back.priority, s.priority);
  EXPECT_EQ(back.tag, s.tag);
  EXPECT_EQ(back.return_params, s.return_params);
  EXPECT_EQ(back.run_analyzer, s.run_analyzer);
  EXPECT_EQ(back.validate(), "");
}

TEST(JobSpec, EdgeLifeOnlySerializedWhenExplicit) {
  JobSpec s;  // defaults: edge_life_set = false.
  EXPECT_EQ(s.to_json().find("edge_life"), nullptr);
  JobSpec back;
  std::string error;
  ASSERT_TRUE(JobSpec::from_json(s.to_json(), back, error)) << error;
  EXPECT_FALSE(back.edge_life_set);
}

TEST(JobSpec, FromJsonIsStrict) {
  JobSpec out;
  std::string error;
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"({"modle":"tgcn"})"), out,
                                  error));
  EXPECT_NE(error.find("unknown job spec field"), std::string::npos);
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"({"epochs":"two"})"), out,
                                  error));
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"({"epochs":2.5})"), out,
                                  error));
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"({"seed":-1})"), out, error));
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"([1,2])"), out, error));
  EXPECT_EQ(error, "job spec must be a JSON object");
  // "tuner", "prep" and "allreduce" are not spec fields: a client still
  // sending them gets an error instead of a silently different job.
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"({"tuner":"analytic"})"),
                                  out, error));
  EXPECT_EQ(error, "unknown job spec field \"tuner\"");
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"({"prep":"stream"})"), out,
                                  error));
  EXPECT_EQ(error, "unknown job spec field \"prep\"");
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"({"allreduce":"ring"})"),
                                  out, error));
  EXPECT_EQ(error, "unknown job spec field \"allreduce\"");
}

TEST(JobSpec, FromJsonRejectsIntOverflowLikeTheFlagPath) {
  // 2^32 + 1 truncates to 1 through a bare static_cast<int> — it must be
  // an error, not a spec that validates cleanly, matching what
  // apply_flag says for the same value on the flag surface.
  JobSpec out;
  std::string error;
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"({"epochs":4294967297})"),
                                  out, error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_NE(error.find("epochs"), std::string::npos) << error;
  EXPECT_FALSE(JobSpec::from_json(Json::parse(R"({"nodes":-4294967297})"),
                                  out, error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  JobSpec flag_spec;
  EXPECT_EQ(apply_flag("--epochs", "4294967297", flag_spec, error),
            FlagStatus::Error);
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(JobSpec, ParseJobSpecAcceptsBothFlagForms) {
  JobSpec s;
  std::string error;
  ASSERT_TRUE(parse_job_spec({"--model", "gcn", "--epochs=3"}, s, error))
      << error;
  EXPECT_EQ(s.model, "gcn");
  EXPECT_EQ(s.epochs, 3);
  EXPECT_FALSE(parse_job_spec({"--modle", "gcn"}, s, error));
  EXPECT_NE(error.find("--modle"), std::string::npos);
  EXPECT_FALSE(parse_job_spec({"--model"}, s, error));
  EXPECT_NE(error.find("expects a value"), std::string::npos);
}

TEST(JobSpec, ValidateOwnsTheReplicaRules) {
  // The --replicas constraints moved out of the CLI into the shared
  // validator, so the daemon enforces them on JSON-built specs too.
  JobSpec s;
  s.replicas = 2;
  s.runtime = "pygt";
  EXPECT_NE(s.validate().find("--runtime pipad"), std::string::npos);
  s.runtime = "pipad";
  EXPECT_EQ(s.validate(), "");
  s.replicas = 65;
  EXPECT_NE(s.validate().find("--replicas"), std::string::npos);
}

TEST(JobSpec, ValidateOwnsTheTenantRules) {
  JobSpec s;
  s.tenant = "";
  EXPECT_NE(s.validate().find("--tenant"), std::string::npos);
  s.tenant = "team-a";
  s.priority = 0;
  EXPECT_NE(s.validate().find("--priority"), std::string::npos);
  s.priority = 11;
  EXPECT_NE(s.validate().find("--priority"), std::string::npos);
  s.priority = 10;
  EXPECT_EQ(s.validate(), "");
}

TEST(JobSpec, ValidateRejectsFileOnlyKnobsWithoutFileDataset) {
  JobSpec s;
  s.window_bytes = 4096;
  EXPECT_NE(s.validate().find("file:"), std::string::npos);
  s.dataset = "file:/tmp/g.el";
  EXPECT_EQ(s.validate(), "");
}

// ---- JobResult ----

TEST(JobResult, VersionedRoundTripIsLossless) {
  JobResult r;
  r.id = 7;
  r.tenant = "team-b";
  r.priority = 3;
  r.tag = "smoke";
  r.state = "done";
  r.seq = 2;
  r.record = Json::parse(R"({"dataset":"web","epoch_us":12.5})");
  r.frame_loss = {0.1f, 1.0f / 3.0f, std::nextafterf(0.5f, 1.0f)};
  r.params = {-0.25f, 1e-20f};
  r.analyzed = true;
  r.critical_path_us = 123.5;
  r.findings = 2;
  r.worst_severity = "medium";

  const Json wire = Json::parse(r.to_json().dump());
  JobResult back;
  std::string error;
  ASSERT_TRUE(JobResult::from_json(wire, back, error)) << error;
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.tenant, r.tenant);
  EXPECT_EQ(back.priority, r.priority);
  EXPECT_EQ(back.tag, r.tag);
  EXPECT_EQ(back.state, r.state);
  EXPECT_EQ(back.seq, r.seq);
  EXPECT_EQ(back.record.find("dataset")->as_string(), "web");
  // Bitwise float fidelity through the wire.
  ASSERT_EQ(back.frame_loss.size(), r.frame_loss.size());
  for (std::size_t i = 0; i < r.frame_loss.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back.frame_loss[i], &r.frame_loss[i],
                          sizeof(float)),
              0)
        << i;
  }
  ASSERT_EQ(back.params, r.params);
  EXPECT_TRUE(back.analyzed);
  EXPECT_DOUBLE_EQ(back.critical_path_us, r.critical_path_us);
  EXPECT_EQ(back.findings, r.findings);
  EXPECT_EQ(back.worst_severity, r.worst_severity);
}

TEST(JobResult, OptionalSectionsOmittedWhenEmpty) {
  JobResult r;  // no params, not analyzed.
  const Json j = r.to_json();
  EXPECT_EQ(j.find("params"), nullptr);
  EXPECT_EQ(j.find("analysis"), nullptr);
  EXPECT_EQ(j.find("schema_version")->as_int(), kResultSchemaVersion);
}

TEST(JobResult, SchemaVersionIsEnforced) {
  JobResult out;
  std::string error;
  EXPECT_FALSE(JobResult::from_json(Json::parse(R"({"state":"done"})"), out,
                                    error));
  EXPECT_NE(error.find("missing schema_version"), std::string::npos);
  EXPECT_FALSE(JobResult::from_json(
      Json::parse(R"({"schema_version":999,"state":"done"})"), out, error));
  EXPECT_NE(error.find("unsupported"), std::string::npos);
  EXPECT_FALSE(JobResult::from_json(
      Json::parse(R"({"schema_version":1,"bogus":1})"), out, error));
  EXPECT_NE(error.find("unknown job result field"), std::string::npos);
}

}  // namespace
}  // namespace pipad::api
