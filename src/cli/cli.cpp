#include "cli/cli.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "analyze/report.hpp"
#include "api/run_job.hpp"
#include "common/compute_pool.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "gpusim/trace.hpp"
#include "models/training.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace pipad::cli {

namespace {

bool parse_ll(const std::string& s, long long& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

void print_header() {
  std::printf("%-8s %14s %14s %14s %10s %10s\n", "method", "sim total (us)",
              "transfer (us)", "compute (us)", "SM util", "last loss");
}

void print_result(const std::string& method, const models::TrainResult& r) {
  std::printf("%-8s %14.0f %14.0f %14.0f %9.1f%% %10.4f\n", method.c_str(),
              r.total_us, r.transfer_us, r.compute_us,
              100.0 * r.sm_utilization, r.final_loss());
}

/// The dataset's shape and, for a file dataset, its measured load phases
/// (wall clock; never part of the modeled timeline).
void print_dataset(const api::BuiltDataset& built) {
  const graph::DTDG& data = built.data;
  std::printf("dataset %s: %d vertices, %zu edge instances, %d snapshots, "
              "feat dim %d\n",
              data.name.c_str(), data.num_nodes, data.total_edges(),
              data.num_snapshots(), data.feat_dim);
  if (!built.from_file) return;
  const graph::io::LoadStats& l = built.load;
  std::printf("load (wall clock): read %.1f ms, inflate %.1f ms, parse %.1f "
              "ms, build %.1f ms, sidecars %.1f ms",
              l.read_us / 1e3, l.inflate_us / 1e3, l.parse_us / 1e3,
              l.build_us / 1e3, l.sidecar_us / 1e3);
  if (!l.cache_path.empty()) {
    std::printf(", cache %s %.1f ms", l.cache_hit ? "read" : "write",
                l.cache_us / 1e3);
  }
  std::printf("\n");
}

/// Write the two bench records as a bench document, so `bench_diff` can
/// gate `pipad bench` runs (CI does this for the checked-in sample dataset).
void write_bench_json(const Options& o, const std::string& dataset,
                      const std::string& base_method,
                      const models::TrainResult& rb,
                      const models::TrainResult& rp) {
  api::Json flags = api::Json::object();
  flags.set("epochs", o.job.epochs);
  flags.set("frames", o.job.frames);
  flags.set("frame_size", o.job.frame_size);
  flags.set("threads", o.job.threads);
  api::Json records = api::Json::array();
  records.push_back(api::bench_record(dataset, o.job.model, base_method,
                                      rb.total_us / o.job.epochs, rb));
  records.push_back(api::bench_record(dataset, o.job.model, "pipad",
                                      rp.total_us / o.job.epochs, rp));
  api::write_bench_document(o.json, "pipad-cli", std::move(flags),
                            std::move(records));
  std::printf("\n2 records written to %s\n", o.json.c_str());
}

/// What `bench` and `trace` compare PiPAD against: the requested PyGT
/// variant (PyGT under --runtime pipad) on one device.
api::JobSpec baseline_job(api::JobSpec job) {
  if (job.runtime == "pipad") job.runtime = "pygt";
  job.replicas = 0;
  return job;
}

int cmd_train(const Options& o) {
  const api::BuiltDataset data = api::build_dataset(o.job);
  print_dataset(data);
  std::printf("training %s under %s: %d epochs, frame size %d\n",
              models::model_type_name(api::train_config(o.job).model),
              o.job.runtime.c_str(), o.job.epochs, o.job.frame_size);
  gpusim::Gpu gpu;
  const auto out = api::run_method(o.job, o.job.runtime, gpu, data, nullptr);
  print_header();
  print_result(o.job.runtime, out.train);
  return 0;
}

int cmd_bench(const Options& o) {
  const api::BuiltDataset data = api::build_dataset(o.job);
  print_dataset(data);
  const api::JobSpec base_job = baseline_job(o.job);
  const std::string& base = base_job.runtime;
  gpusim::Gpu gpu_base;
  const auto rb = api::run_method(base_job, base, gpu_base, data, nullptr);
  gpusim::Gpu gpu_pipad;
  const auto rp = api::run_method(o.job, "pipad", gpu_pipad, data, nullptr);
  print_header();
  print_result(base, rb.train);
  print_result("pipad", rp.train);
  std::printf("\nPiPAD end-to-end speedup over %s: %.2fx\n", base.c_str(),
              rb.train.total_us / rp.train.total_us);
  if (!o.json.empty()) {
    write_bench_json(o, data.data.name, base, rb.train, rp.train);
  }
  return 0;
}

int cmd_trace(const Options& o) {
  const api::BuiltDataset data = api::build_dataset(o.job);
  print_dataset(data);
  const api::JobSpec base_job = baseline_job(o.job);
  const std::string& base = base_job.runtime;
  gpusim::Gpu gpu_base;
  api::run_method(base_job, base, gpu_base, data, nullptr);
  gpusim::Gpu gpu_pipad;
  api::run_method(o.job, "pipad", gpu_pipad, data, nullptr);

  gpusim::GanttOptions gopts;
  gopts.width = 100;
  std::printf("=== %s ===\n%s\n", base.c_str(),
              gpusim::render_gantt(gpu_base.timeline(), gopts).c_str());
  std::printf("=== pipad ===\n%s\n",
              gpusim::render_gantt(gpu_pipad.timeline(), gopts).c_str());
  using gpusim::Resource;
  std::printf("copy/compute overlap: %s %.0f%%   pipad %.0f%%\n", base.c_str(),
              100.0 * gpusim::overlap_fraction(gpu_base.timeline(),
                                               Resource::H2D,
                                               Resource::Compute),
              100.0 * gpusim::overlap_fraction(gpu_pipad.timeline(),
                                               Resource::H2D,
                                               Resource::Compute));
  if (!o.out.empty()) {
    analyze::TraceData td = analyze::from_timeline(gpu_pipad.timeline());
    td.dataset = data.data.name;
    td.model = o.job.model;
    td.method = "pipad";
    analyze::write_trace_file(o.out, td);
    std::printf("PiPAD trace written to %s (%zu ops)\n", o.out.c_str(),
                td.records.size());
  }
  return 0;
}

/// "runs/trace-4.json" -> "trace-4": the fallback dataset label for traces
/// without an otherData.dataset label, so multiple unlabeled traces
/// keep distinct (dataset|model|method) keys in the JSON report.
std::string file_stem(const std::string& path) {
  const auto slash = path.find_last_of("/\\");
  std::string stem =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  return stem.empty() ? std::string("trace") : stem;
}

int cmd_analyze(const Options& o) {
  std::vector<analyze::Analysis> analyses;
  const analyze::PassOptions popts;
  if (o.traces.empty()) {
    // Live mode: run PiPAD on the requested dataset and analyze its
    // timeline in-process.
    const api::BuiltDataset data = api::build_dataset(o.job);
    print_dataset(data);
    gpusim::Gpu gpu;
    api::run_method(o.job, "pipad", gpu, data, nullptr);
    analyze::TraceData td = analyze::from_timeline(gpu.timeline());
    td.dataset = data.data.name;
    td.model = o.job.model;
    td.method = "pipad";
    analyses.push_back(analyze::analyze_trace(
        std::move(td), popts, &ComputePool::instance().pool()));
  } else {
    ComputePool::instance().configure(
        o.job.threads > 0 ? static_cast<std::size_t>(o.job.threads) : 0);
    for (const auto& path : o.traces) {
      analyze::TraceData td = analyze::read_trace_file(path);
      if (td.dataset.empty()) td.dataset = file_stem(path);
      analyses.push_back(analyze::analyze_trace(
          std::move(td), popts, &ComputePool::instance().pool()));
    }
  }

  for (const auto& a : analyses) {
    std::ostringstream os;
    analyze::write_human_report(os, a, o.top);
    std::fputs(os.str().c_str(), stdout);
    std::printf("\n");
  }

  if (!o.json.empty()) {
    api::write_document(o.json, analyze::report_json(analyses, o.job.threads));
    std::printf("%zu analysis records written to %s\n", analyses.size(),
                o.json.c_str());
  }

  if (o.fail_above != "none") {
    analyze::Severity gate;
    // Parse cannot fail here: parse_args validated the value.
    analyze::parse_severity(o.fail_above, gate);
    const analyze::Severity worst = analyze::max_severity(analyses);
    bool any = false;
    for (const auto& a : analyses) any = any || !a.findings.empty();
    if (any && worst >= gate) {
      std::fprintf(stderr,
                   "pipad: analyze gate failed: worst finding severity "
                   "'%s' reaches --fail-above %s\n",
                   analyze::severity_name(worst), o.fail_above.c_str());
      return 3;
    }
  }
  return 0;
}

int cmd_serve(const Options& o) {
  serve::SessionOptions sopts;
  sopts.threads = o.job.threads;
  sopts.queue_capacity = static_cast<std::size_t>(o.queue_capacity);
  sopts.executors = o.executors;
  serve::Session session(sopts);
  serve::WireServer server(session, o.socket);
  // The readiness line goes out unbuffered: the CI smoke script and the
  // docs quick-start wait for it before submitting.
  std::printf("pipad serve: listening on %s (%d executor(s), queue %d, "
              "%d pool threads)\n",
              o.socket.c_str(), o.executors, o.queue_capacity,
              session.threads());
  std::fflush(stdout);
  server.wait_shutdown();
  std::printf("pipad serve: shutdown requested, draining\n");
  // Resolve every job before tearing down connections, so handlers blocked
  // in wait() answer their clients and exit (see wire.hpp stop order).
  session.shutdown();
  server.stop();
  return 0;
}

/// One-line human summary of a finished job.
void print_job_result(const api::JobResult& r) {
  std::printf("job %llu %s (completion #%llu)",
              static_cast<unsigned long long>(r.id), r.state.c_str(),
              static_cast<unsigned long long>(r.seq));
  if (r.state == "done" && r.record.is_object()) {
    const api::Json* dataset = r.record.find("dataset");
    const api::Json* epoch_us = r.record.find("epoch_us");
    const api::Json* loss = r.record.find("final_loss");
    if (dataset != nullptr) {
      std::printf(": %s", dataset->as_string().c_str());
    }
    if (epoch_us != nullptr) std::printf(", epoch %.1f us",
                                         epoch_us->as_number());
    if (loss != nullptr) std::printf(", final loss %.6f", loss->as_number());
  } else if (!r.error.empty()) {
    std::printf(": %s", r.error.c_str());
  }
  std::printf("\n");
}

/// Write one job's bench record as a single-record bench_diff document, so
/// serve output feeds the same perf gate as `pipad bench --json`.
bool write_record_json(const std::string& path, const api::JobResult& r) {
  if (!r.record.is_object()) {
    std::fprintf(stderr, "pipad: job %llu has no bench record (state %s)\n",
                 static_cast<unsigned long long>(r.id), r.state.c_str());
    return false;
  }
  api::Json records = api::Json::array();
  records.push_back(r.record);
  // A job result does not carry the flags its job ran with: none to list.
  api::write_bench_document(path, "pipad-serve", api::Json::object(),
                            std::move(records));
  std::printf("1 record written to %s\n", path.c_str());
  return true;
}

/// Send one op; die on transport errors, return the response. A response
/// with ok=false is printed to stderr and mapped to exit 1 by the caller.
api::Json wire_call(serve::WireClient& client, const api::Json& req) {
  return client.request(req);
}

bool response_ok(const api::Json& resp) {
  const api::Json* ok = resp.find("ok");
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) return true;
  const api::Json* error = resp.find("error");
  std::fprintf(stderr, "pipad: %s\n",
               error != nullptr && error->is_string()
                   ? error->as_string().c_str()
                   : "malformed daemon response");
  return false;
}

int wait_and_report(serve::WireClient& client, std::uint64_t id,
                    const Options& o) {
  api::Json req = api::Json::object();
  req.set("op", "wait");
  req.set("id", static_cast<double>(id));
  const api::Json resp = wire_call(client, req);
  if (!response_ok(resp)) return 1;
  const api::Json* result_field = resp.find("result");
  api::JobResult result;
  std::string error;
  if (result_field == nullptr ||
      !api::JobResult::from_json(*result_field, result, error)) {
    std::fprintf(stderr, "pipad: malformed job result: %s\n", error.c_str());
    return 1;
  }
  print_job_result(result);
  if (!o.record_json.empty() && !write_record_json(o.record_json, result)) {
    return 1;
  }
  return result.state == "done" ? 0 : 1;
}

int cmd_submit(const Options& o) {
  serve::WireClient client(o.socket);
  if (o.shutdown) {
    api::Json req = api::Json::object();
    req.set("op", "shutdown");
    if (!response_ok(wire_call(client, req))) return 1;
    std::printf("pipad serve: shutdown requested\n");
    return 0;
  }
  if (o.list) {
    api::Json req = api::Json::object();
    req.set("op", "list");
    const api::Json resp = wire_call(client, req);
    if (!response_ok(resp)) return 1;
    const api::Json* jobs = resp.find("jobs");
    std::printf("%6s %-12s %8s %-10s %s\n", "id", "tenant", "priority",
                "state", "tag");
    if (jobs != nullptr && jobs->is_array()) {
      for (const api::Json& j : jobs->items()) {
        std::printf("%6lld %-12s %8lld %-10s %s\n", j.find("id")->as_int(),
                    j.find("tenant")->as_string().c_str(),
                    j.find("priority")->as_int(),
                    j.find("state")->as_string().c_str(),
                    j.find("tag")->as_string().c_str());
      }
    }
    return 0;
  }
  if (o.cancel_id > 0) {
    api::Json req = api::Json::object();
    req.set("op", "cancel");
    req.set("id", static_cast<double>(o.cancel_id));
    const api::Json resp = wire_call(client, req);
    if (!response_ok(resp)) return 1;
    const api::Json* cancelled = resp.find("cancelled");
    std::printf("job %lld %s\n", o.cancel_id,
                cancelled != nullptr && cancelled->as_bool()
                    ? "cancellation requested"
                    : "already finished");
    return 0;
  }
  if (o.status_id > 0) {
    api::Json req = api::Json::object();
    req.set("op", "status");
    req.set("id", static_cast<double>(o.status_id));
    const api::Json resp = wire_call(client, req);
    if (!response_ok(resp)) return 1;
    const api::Json* job = resp.find("job");
    std::printf("job %lld: %s\n", o.status_id,
                job != nullptr ? job->find("state")->as_string().c_str()
                               : "?");
    return 0;
  }
  if (o.wait_id > 0) {
    return wait_and_report(client, static_cast<std::uint64_t>(o.wait_id), o);
  }
  // Default: submit the parsed JobSpec, then wait unless --no-wait.
  api::Json req = api::Json::object();
  req.set("op", "submit");
  req.set("spec", o.job.to_json());
  const api::Json resp = wire_call(client, req);
  if (!response_ok(resp)) return 1;
  const api::Json* id_field = resp.find("id");
  if (id_field == nullptr) {
    std::fprintf(stderr, "pipad: malformed daemon response (no id)\n");
    return 1;
  }
  const std::uint64_t id = static_cast<std::uint64_t>(id_field->as_int());
  std::printf("job %llu submitted\n", static_cast<unsigned long long>(id));
  if (o.no_wait) return 0;
  return wait_and_report(client, id, o);
}

}  // namespace

std::string usage() {
  return
      "usage: pipad <train|bench|trace|analyze|serve|submit> [flags]\n"
      "\n"
      "subcommands:\n"
      "  train    train one model under one runtime, print the sim summary\n"
      "  bench    train under a baseline and under PiPAD, print the speedup\n"
      "  trace    like bench, plus ASCII Gantt charts and an optional trace\n"
      "           file (trace-event JSON; opens in Perfetto)\n"
      "  analyze  critical-path + bottleneck analysis of trace files\n"
      "           (--trace, repeatable), or of a live PiPAD run when no\n"
      "           --trace is given (docs/ANALYZER.md)\n"
      "  serve    long-lived multi-tenant training daemon on a local\n"
      "           socket (docs/SERVE.md)\n"
      "  submit   client for a running daemon: submit a job described by\n"
      "           the shared flags below, or --wait/--cancel/--status/\n"
      "           --list/--shutdown an existing one\n"
      "\n"
      "job flags (shared by train/bench/trace/analyze/submit and the\n"
      "serve wire protocol):\n" +
      api::flags_help() +
      "\n"
      "command flags:\n"
      "  --out FILE         trace: write the PiPAD timeline as trace-event\n"
      "                     JSON\n"
      "  --json FILE        bench/analyze: write records as JSON\n"
      "                     (bench_diff-compatible)\n"
      "  --trace FILE       analyze: a trace file to analyze (repeatable);\n"
      "                     omitted = run PiPAD live and analyze that\n"
      "  --top N            analyze: findings shown per trace  [5]\n"
      "  --fail-above SEV   analyze: exit 3 when any finding reaches this\n"
      "                     severity: none | info | low | medium | high\n"
      "                     [none]\n"
      "  --socket PATH      serve/submit: AF_UNIX socket path\n"
      "                     [/tmp/pipad.sock]\n"
      "  --queue-capacity N serve: admission-queue bound (backpressure)\n"
      "                     [64]\n"
      "  --executors N      serve: concurrent job slots  [2]\n"
      "  --no-wait          submit: print the job id, don't wait\n"
      "  --wait ID          submit: wait for an existing job\n"
      "  --cancel ID        submit: cancel a job\n"
      "  --status ID        submit: print one job's state\n"
      "  --list             submit: list the daemon's jobs\n"
      "  --record-json FILE submit: write the finished job's bench record\n"
      "                     as a bench_diff-compatible document\n"
      "  --shutdown         submit: stop the daemon\n"
      "  --log-level L      debug | info | warn | error | off  [warn]\n"
      "  --help             print this text\n";
}

ParseResult parse_args(const std::vector<std::string>& args) {
  ParseResult res;
  Options& o = res.options;

  if (args.empty()) {
    res.error =
        "missing subcommand (train | bench | trace | analyze | serve | "
        "submit)";
    return res;
  }

  std::size_t i = 0;
  const std::string& cmd = args[i];
  if (cmd == "train") {
    o.command = Command::Train;
  } else if (cmd == "bench") {
    o.command = Command::Bench;
  } else if (cmd == "trace") {
    o.command = Command::Trace;
  } else if (cmd == "analyze") {
    o.command = Command::Analyze;
  } else if (cmd == "serve") {
    o.command = Command::Serve;
  } else if (cmd == "submit") {
    o.command = Command::Submit;
  } else if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    o.command = Command::Help;
    res.ok = true;
    return res;
  } else {
    res.error = "unknown subcommand '" + cmd + "'";
    return res;
  }
  ++i;

  for (; i < args.size(); ++i) {
    std::string flag = args[i];
    std::string value;
    bool has_value = false;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }

    if (flag == "--help" || flag == "-h") {
      o.command = Command::Help;
      res.ok = true;
      return res;
    }
    // Boolean flags (no value).
    if (flag == "--no-wait" || flag == "--shutdown" || flag == "--list") {
      if (has_value) {
        res.error = flag + " does not take a value";
        return res;
      }
      if (flag == "--no-wait") o.no_wait = true;
      else if (flag == "--shutdown") o.shutdown = true;
      else o.list = true;
      continue;
    }

    // Every remaining flag takes a value.
    if (!has_value) {
      if (i + 1 >= args.size()) {
        res.error = "flag " + flag + " expects a value";
        return res;
      }
      value = args[++i];
    }

    long long n = 0;
    if (flag == "--out") {
      o.out = value;
    } else if (flag == "--json") {
      o.json = value;
    } else if (flag == "--trace") {
      if (value.empty()) {
        res.error = "--trace expects a file path";
        return res;
      }
      o.traces.push_back(value);
    } else if (flag == "--fail-above") {
      analyze::Severity sev;
      if (value != "none" && !analyze::parse_severity(value, sev)) {
        res.error = "unknown severity '" + value +
                    "' (expected none | info | low | medium | high)";
        return res;
      }
      o.fail_above = value;
    } else if (flag == "--top") {
      if (!parse_ll(value, n) || n < 1 || n > INT_MAX) {
        res.error = "--top expects a positive integer, got '" + value + "'";
        return res;
      }
      o.top = static_cast<int>(n);
    } else if (flag == "--log-level") {
      if (value != "debug" && value != "info" && value != "warn" &&
          value != "error" && value != "off") {
        res.error = "unknown log level '" + value +
                    "' (expected debug | info | warn | error | off)";
        return res;
      }
      o.log_level = value;
    } else if (flag == "--socket") {
      if (value.empty()) {
        res.error = "--socket expects a path";
        return res;
      }
      o.socket = value;
    } else if (flag == "--queue-capacity") {
      if (!parse_ll(value, n) || n < 1 || n > INT_MAX) {
        res.error = "--queue-capacity expects a positive integer, got '" +
                    value + "'";
        return res;
      }
      o.queue_capacity = static_cast<int>(n);
    } else if (flag == "--executors") {
      if (!parse_ll(value, n) || n < 1 || n > 256) {
        res.error =
            "--executors expects an integer in [1, 256], got '" + value + "'";
        return res;
      }
      o.executors = static_cast<int>(n);
    } else if (flag == "--wait" || flag == "--cancel" || flag == "--status") {
      if (!parse_ll(value, n) || n < 1) {
        res.error = flag + " expects a job id, got '" + value + "'";
        return res;
      }
      if (flag == "--wait") o.wait_id = n;
      else if (flag == "--cancel") o.cancel_id = n;
      else o.status_id = n;
    } else if (flag == "--record-json") {
      if (value.empty()) {
        res.error = "--record-json expects a file path";
        return res;
      }
      o.record_json = value;
    } else {
      // Everything else is a shared JobSpec flag — one vocabulary, one
      // set of error messages for every surface.
      switch (api::apply_flag(flag, value, o.job, res.error)) {
        case api::FlagStatus::Applied:
          break;
        case api::FlagStatus::Error:
          return res;
        case api::FlagStatus::Unknown:
          res.error = "unknown flag '" + flag + "'";
          return res;
      }
    }
  }

  res.error = o.job.validate();
  if (!res.error.empty()) return res;

  // Invocation-level rules (which flag belongs to which subcommand) stay
  // here: they are about the CLI surface, not the job.
  if (!o.json.empty() && o.command != Command::Bench &&
      o.command != Command::Analyze) {
    res.error = "--json is only supported by the bench and analyze "
                "subcommands";
    return res;
  }
  if (o.command != Command::Analyze &&
      (!o.traces.empty() || o.fail_above != "none" || o.top != 5)) {
    res.error = "--trace, --top and --fail-above require the analyze "
                "subcommand";
    return res;
  }
  if (o.command != Command::Submit &&
      (o.no_wait || o.shutdown || o.list || o.wait_id > 0 ||
       o.cancel_id > 0 || o.status_id > 0 || !o.record_json.empty())) {
    res.error = "--no-wait, --wait, --cancel, --status, --list, "
                "--record-json and --shutdown require the submit subcommand";
    return res;
  }
  if (o.command != Command::Serve && o.command != Command::Submit &&
      o.socket != "/tmp/pipad.sock") {
    res.error = "--socket requires the serve or submit subcommand";
    return res;
  }
  if (o.command != Command::Serve &&
      (o.queue_capacity != 64 || o.executors != 2)) {
    res.error = "--queue-capacity and --executors require the serve "
                "subcommand";
    return res;
  }
  if (o.command == Command::Submit) {
    const int modes = (o.shutdown ? 1 : 0) + (o.list ? 1 : 0) +
                      (o.wait_id > 0 ? 1 : 0) + (o.cancel_id > 0 ? 1 : 0) +
                      (o.status_id > 0 ? 1 : 0);
    if (modes > 1) {
      res.error = "--wait, --cancel, --status, --list and --shutdown are "
                  "mutually exclusive";
      return res;
    }
    if (modes > 0 && o.no_wait) {
      res.error = "--no-wait only applies when submitting a new job";
      return res;
    }
  }

  res.ok = true;
  return res;
}

int run(const Options& opts) {
  // --log-level debug exposes the runtime's decision log — including the
  // dataset loader's cache hit/miss lines.
  if (opts.log_level == "debug") set_log_level(LogLevel::Debug);
  else if (opts.log_level == "info") set_log_level(LogLevel::Info);
  else if (opts.log_level == "error") set_log_level(LogLevel::Error);
  else if (opts.log_level == "off") set_log_level(LogLevel::Off);
  else set_log_level(LogLevel::Warn);
  switch (opts.command) {
    case Command::Help:
      std::printf("%s", usage().c_str());
      return 0;
    case Command::Train:
      return cmd_train(opts);
    case Command::Bench:
      return cmd_bench(opts);
    case Command::Trace:
      return cmd_trace(opts);
    case Command::Analyze:
      return cmd_analyze(opts);
    case Command::Serve:
      return cmd_serve(opts);
    case Command::Submit:
      return cmd_submit(opts);
  }
  return 2;
}

int main_impl(int argc, const char* const* argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const ParseResult parsed = parse_args(args);
  if (!parsed.ok) {
    std::fprintf(stderr, "pipad: %s\n\n%s", parsed.error.c_str(),
                 usage().c_str());
    return 2;
  }
  try {
    return run(parsed.options);
  } catch (const Error& e) {
    std::fprintf(stderr, "pipad: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // E.g. bad_alloc from a corrupt on-disk dataset: fail with an exit
    // code, not std::terminate.
    std::fprintf(stderr, "pipad: %s\n", e.what());
    return 1;
  }
}

}  // namespace pipad::cli
