#include "api/run_job.hpp"

#include <utility>

#include "analyze/report.hpp"
#include "common/compute_pool.hpp"
#include "graph/generator.hpp"
#include "replica/replica_trainer.hpp"

namespace pipad::api {

namespace {

/// Flat copy of every parameter tensor (value then grad, in param order) —
/// the bitwise-comparison payload of the determinism walls.
std::vector<float> flat_params(models::DgnnModel& model) {
  std::vector<float> out;
  for (const auto* p : model.params()) {
    out.insert(out.end(), p->value.storage().begin(),
               p->value.storage().end());
    out.insert(out.end(), p->grad.storage().begin(), p->grad.storage().end());
  }
  return out;
}

void run_analyzer(const JobSpec& spec, const gpusim::Gpu& gpu,
                  const std::string& method, RunOutput& out) {
  analyze::TraceData td = analyze::from_timeline(gpu.timeline());
  td.dataset = out.dataset_name;
  td.model = spec.model;
  td.method = method;
  const analyze::Analysis a = analyze::analyze_trace(
      std::move(td), {}, &ComputePool::instance().pool());
  out.analyzed = true;
  out.critical_path_us = a.path.total_us;
  out.findings = static_cast<int>(a.findings.size());
  if (!a.findings.empty()) {
    analyze::Severity worst = analyze::Severity::Info;
    for (const auto& f : a.findings) worst = std::max(worst, f.severity);
    out.worst_severity = analyze::severity_name(worst);
  }
}

}  // namespace

BuiltDataset build_dataset(const JobSpec& o) {
  // Dataset construction parallelizes on the process-wide ComputePool —
  // the same lanes the trainer's host prep and numeric kernels will use
  // (deterministic for any thread count).
  ComputePool::instance().configure(
      o.threads > 0 ? static_cast<std::size_t>(o.threads) : 0);
  BuiltDataset b;
  if (graph::io::is_file_dataset(o.dataset)) {
    graph::io::LoadOptions lo;
    lo.snapshot_count = o.snapshots;
    lo.snapshot_window = o.snapshot_window;
    lo.edge_life = o.edge_life_set ? static_cast<int>(o.edge_life) : 1;
    lo.feat_dim = o.feat_dim;
    lo.features_path = o.features;
    lo.cache_dir = o.cache_dir;
    lo.seed = o.seed;
    lo.window_bytes = static_cast<std::size_t>(o.window_bytes);
    b.from_file = true;
    b.data = graph::io::load_dataset(graph::io::file_dataset_path(o.dataset),
                                     lo, &ComputePool::instance().pool(),
                                     &b.load);
    return b;
  }
  graph::DatasetConfig cfg;
  if (o.dataset == "synthetic") {
    cfg.name = "synthetic";
    cfg.num_nodes = o.nodes;
    cfg.raw_events = o.events;
    cfg.num_snapshots = o.snapshots > 0 ? o.snapshots : 24;
    cfg.feat_dim = o.feat_dim;
    cfg.edge_life = o.edge_life;
    cfg.seed = o.seed;
  } else {
    cfg = graph::dataset_by_name(o.dataset, o.scale_large, o.scale_small);
    if (o.snapshots > 0) cfg.num_snapshots = o.snapshots;
  }
  b.data = graph::generate(cfg, &ComputePool::instance().pool());
  return b;
}

models::TrainConfig train_config(const JobSpec& o) {
  models::TrainConfig tcfg;
  const auto model = models::parse_model(o.model);
  PIPAD_CHECK_MSG(model.has_value(), "unknown model " << o.model);
  tcfg.model = *model;
  tcfg.frame_size = o.frame_size;
  tcfg.epochs = o.epochs;
  tcfg.max_frames_per_epoch = o.frames;
  tcfg.seed = o.seed;
  return tcfg;
}

runtime::PipadOptions pipad_options(const JobSpec& o) {
  runtime::PipadOptions popts;
  popts.host_threads = o.threads;  // 0 = ComputePool default.
  popts.replicas = o.replicas;
  popts.allreduce = o.allreduce;
  return popts;
}

RunOutput run_method(const JobSpec& o, const std::string& runtime,
                     gpusim::Gpu& gpu, const BuiltDataset& b,
                     const std::atomic<bool>* cancel) {
  // Ingest time is wall-clock only (BuiltDataset::load); it never reaches
  // the modeled timeline. A loaded dataset still leaves the pool at the
  // job's width for the baselines, which own no HostLane.
  if (b.from_file) {
    ComputePool::instance().configure(
        o.threads > 0 ? static_cast<std::size_t>(o.threads) : 0);
  }
  const auto method = models::parse_runtime(runtime);
  PIPAD_CHECK_MSG(method.has_value(), "unknown runtime " << runtime);
  runtime::PipadOptions popts = pipad_options(o);
  popts.cancel = cancel;
  // Replica 0 runs on `gpu`, so trace/analyze render the primary replica's
  // timeline (Link lane included when there are several).
  replica::ReplicaTrainer trainer(gpu, b.data, train_config(o), *method,
                                  popts);
  RunOutput out;
  out.dataset_name = b.data.name;
  out.train = trainer.train();
  if (o.return_params) out.params = flat_params(trainer.model());
  if (o.run_analyzer) run_analyzer(o, gpu, runtime, out);
  return out;
}

RunOutput run_job(const JobSpec& spec, const std::atomic<bool>* cancel) {
  const BuiltDataset b = build_dataset(spec);
  gpusim::Gpu gpu;
  return run_method(spec, spec.runtime, gpu, b, cancel);
}

JobResult make_result(const JobSpec& spec, const RunOutput& out) {
  JobResult r;
  r.tenant = spec.tenant;
  r.priority = spec.priority;
  r.tag = spec.tag;
  r.state = "done";
  r.record = bench_record(out.dataset_name, spec.model, spec.runtime,
                          out.train.total_us / spec.epochs, out.train);
  r.frame_loss = out.train.frame_loss;
  if (spec.return_params) r.params = out.params;
  r.analyzed = out.analyzed;
  r.critical_path_us = out.critical_path_us;
  r.findings = out.findings;
  r.worst_severity = out.worst_severity;
  return r;
}

}  // namespace pipad::api
