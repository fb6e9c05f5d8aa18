// pipad_e2e: the repository's end-to-end wall-clock benchmark.
//
// One process runs one workload through the public API (api::, graph::io::,
// PipadTrainer's step API and serve::) for a fixed measuring time, checks
// that every output is right, and prints one `workload metric value unit`
// line per metric followed by a one-line JSON summary:
//
//   pipad_e2e --workload rnn-dense --seed 1 --seconds 10 --work-dir DIR
//             [--trace FILE]
//
// Without --trace the run reports the end-to-end metrics. With --trace it
// records spans around every call into a src/ module (never inside src/),
// appends them to FILE as one JSON object per line when the run ends, and
// reports the per-layer metrics. Every traced run measures every layer on
// its own workload's inputs, so all workloads report the same per-layer
// set. README.md defines each metric and says why each workload exists.
//
// A failed correctness check prints `"correct": false` with no metrics and
// exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analyze/report.hpp"
#include "analyze/trace_data.hpp"
#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "api/json.hpp"
#include "api/run_job.hpp"
#include "common/compute_pool.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/gpu.hpp"
#include "graph/dtdg.hpp"
#include "graph/formats.hpp"
#include "graph/io/exporter.hpp"
#include "graph/io/loader.hpp"
#include "graph/io/text_format.hpp"
#include "kernels/aggregate.hpp"
#include "pipad/pipad_trainer.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "sliced/partition.hpp"
#include "sliced/sliced_csr.hpp"
#include "tensor/ops.hpp"

namespace {

namespace fs = std::filesystem;
using namespace pipad;
using Clock = std::chrono::steady_clock;

/// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupReps = 3;
/// Timed operations per run, at least, however long they take.
constexpr int kMinOps = 5;
/// Per-layer kernel replays are repeated this many times (median kept).
constexpr int kReplayReps = 3;
/// Traced training runs at least this many (unrecorded, recorded) pairs of
/// step-API passes: with fewer, rep-to-rep noise of about 5% on a shared
/// machine moved the overhead's median past 5% in either direction.
constexpr int kMinOverheadPairs = 8;
/// serve-mix: closed-loop clients, two per tenant, and the jobs each runs
/// at least: one pass over the 12 (model, runtime) pairs, which the
/// standalone comparison needs.
constexpr int kClients = 4;
constexpr int kMinJobsPerClient = 12;
/// Pool width and executor count of the serve-mix daemon.
constexpr int kServeThreads = 2;
constexpr int kServeExecutors = 2;
/// serve-mix traced runs measure the tracing overhead on step-API
/// trainings of one small job for this long.
constexpr double kServeStepSeconds = 2.0;
/// The io layer probe of the non-file workloads exports at most this many
/// edge instances (a prefix of whole snapshots).
constexpr std::size_t kIoProbeInstances = 2'500'000;

const Clock::time_point g_t0 = Clock::now();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double ms_since(Clock::time_point t) { return ms_between(t, Clock::now()); }
long long ns_since_start(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_t0)
      .count();
}

volatile double g_sink = 0.0;  ///< Keeps replayed results observable.

// ------------------------------------------------------------------ tracing

struct SpanRecord {
  std::string name;
  long parent = -1;
  long long start_ns = 0;
  long long end_ns = -1;
};

/// Spans of the traced run, kept in memory and written when the run ends.
/// Only the main thread records, so a span's parent is the innermost span
/// still open.
class Tracer {
 public:
  bool enabled = false;

  long begin(const char* name, Clock::time_point start) {
    const long id = static_cast<long>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(),
                      ns_since_start(start), -1});
    open_.push_back(id);
    return id;
  }

  void end(long id, Clock::time_point end) {
    spans_[static_cast<std::size_t>(id)].end_ns = ns_since_start(end);
    open_.erase(std::remove(open_.begin(), open_.end(), id), open_.end());
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<long> open_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;

/// Times one call. When tracing is on and `record` is set it is also a
/// span; untraced runs time with the same two clock reads.
class Span {
 public:
  explicit Span(const char* name, bool record = true)
      : start_(Clock::now()),
        id_(record && g_tracer.enabled ? g_tracer.begin(name, start_) : -1) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span on the first call; returns its duration in ms.
  double stop() {
    if (!stopped_) {
      stopped_ = true;
      end_ = Clock::now();
      if (id_ >= 0) g_tracer.end(id_, end_);
    }
    return ms_between(start_, end_);
  }

 private:
  Clock::time_point start_;
  long id_;
  Clock::time_point end_;
  bool stopped_ = false;
};

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::string workload;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< Values not derived from spans.
  std::vector<Metric> info;       ///< Printed, never in the JSON line.
  std::vector<std::string> info_text;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;

  // Raw per-layer samples gathered while the workload runs.
  std::vector<graph::io::LoadStats> cold_loads, warm_loads;
  double io_file_mb = 0.0;
  /// The same op run alternately without and with span recording, so
  /// traced_op_ms[k] ran right after plain_op_ms[k].
  std::vector<double> plain_op_ms, traced_op_ms;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool all_finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

/// Info line with the FNV-1a of the frame-loss bits: an equal digest means
/// the arithmetic did not change; a different digest with close losses
/// means sums were reordered.
void add_loss_digest(Report& rep, const std::vector<float>& losses) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(graph::io::fnv1a(
                    losses.data(), losses.size() * sizeof(float))));
  rep.info_text.push_back(std::string("loss_digest ") + buf + " fnv1a");
}

bool same_csr(const graph::CSR& a, const graph::CSR& b) {
  return a.rows == b.rows && a.cols == b.cols && a.row_ptr == b.row_ptr &&
         a.col_idx == b.col_idx;
}

/// Bit-exact DTDG equality; `name` is excluded (the loader derives it from
/// the file name).
bool same_dtdg(const graph::DTDG& a, const graph::DTDG& b) {
  if (a.num_nodes != b.num_nodes || a.feat_dim != b.feat_dim ||
      a.sim_scale != b.sim_scale || a.num_snapshots() != b.num_snapshots() ||
      a.vertex_names != b.vertex_names ||
      a.targets.size() != b.targets.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.snapshots.size(); ++t) {
    const auto& x = a.snapshots[t];
    const auto& y = b.snapshots[t];
    if (!same_csr(x.adj, y.adj) || !same_csr(x.adj_t, y.adj_t) ||
        !same_bits(x.edge_w, y.edge_w) ||
        !same_bits(x.features.storage(), y.features.storage()) ||
        !same_bits(a.targets[t].storage(), b.targets[t].storage())) {
      return false;
    }
  }
  return true;
}

/// The end-to-end metrics every workload reports (set-up and median
/// operation time), with the tail and the rate as info lines.
void report_ops(Report& rep, const std::vector<double>& setup_s,
                const std::vector<double>& op_ms, double ops, double wall_s) {
  rep.end_to_end.push_back({"setup_s", median(setup_s), "s"});
  rep.end_to_end.push_back({"op_p50_ms", median(op_ms), "ms"});
  rep.info.push_back({"op_p90_ms", quantile(op_ms, 0.9), "ms"});
  rep.info.push_back({"ops", ops, "count"});
  rep.info.push_back({"ops_per_s", ops / wall_s, "1/s"});
}

/// Runs op(i) until `seconds` have passed and at least `min_ops` ran;
/// returns the loop's wall time in seconds.
template <typename F>
double timed_loop(double seconds, F&& op, int min_ops = kMinOps) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int i = 0; i < min_ops || Clock::now() < deadline; ++i) op(i);
  return ms_since(start) / 1e3;
}

/// Whether op i of a loop that measures the tracing overhead records
/// spans: U R R U U R R U ... Each pair {2k, 2k+1} holds one unrecorded and
/// one recorded op, in alternating order, so neither the machine's drift
/// nor the order within a pair biases their ratio.
bool recorded_op(int i) { return i % 4 == 1 || i % 4 == 2; }

// ------------------------------------------------------------ drift probe

/// A fixed dependent integer chain that no library code touches; best of
/// three, in ms. Read at the start and end of every run.
double calib_cpu_ms() {
  double best = 1e300;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t acc = 0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += x & 0xffff;
    }
    g_sink = g_sink + static_cast<double>(acc);
    best = std::min(best, ms_since(t0));
  }
  return best;
}

/// Streams an 8 MiB buffer 128 times; best of three, in ms. Small, so the
/// probe never sets the run's peak RSS.
double calib_mem_ms() {
  std::vector<std::uint64_t> buf(std::size_t{1} << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = i;
  double best = 1e300;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int pass = 0; pass < 128; ++pass) {
      for (std::size_t i = 0; i < buf.size(); ++i) acc += buf[i] ^ pass;
    }
    g_sink = g_sink + static_cast<double>(acc);
    best = std::min(best, ms_since(t0));
  }
  return best;
}

// --------------------------------------------------------------- training

api::JobSpec checked(api::JobSpec spec) {
  const std::string error = spec.validate();
  if (!error.empty()) throw Error("invalid workload spec: " + error);
  return spec;
}

/// Synthetic graph with hepth's shape; T-GCN at one thread.
api::JobSpec rnn_dense_spec(std::uint64_t seed) {
  api::JobSpec s;
  s.model = "tgcn";
  s.nodes = 2750;
  s.events = 325000;
  s.snapshots = 214;
  s.feat_dim = 16;
  s.edge_life = 7;
  s.threads = 1;
  s.epochs = 2;
  s.frames = 4;
  s.frame_size = 8;
  s.seed = seed;
  return checked(s);
}

/// About 80 nnz per row over 32 snapshots; GCN at two threads, all frames.
api::JobSpec graph_heavy_spec(std::uint64_t seed) {
  api::JobSpec s;
  s.model = "gcn";
  s.nodes = 4000;
  s.events = 1500000;
  s.snapshots = 32;
  s.feat_dim = 2;
  s.threads = 2;
  s.epochs = 2;
  s.frames = 0;
  s.frame_size = 8;
  s.seed = seed;
  return checked(s);
}

/// One PiPAD training driven through the step API on a fresh simulated Gpu,
/// with a span around each call when `record` is set; the same work as
/// train(), with bit-identical losses.
struct StepRun {
  std::unique_ptr<gpusim::Gpu> gpu;
  models::TrainResult result;  ///< finish_steps() leaves frame_loss to us.
  std::map<int, int> sper;
  std::vector<std::pair<int, int>> param_shapes;
  double ms = 0.0;
};

StepRun step_pass(const api::JobSpec& spec, const graph::DTDG& data,
                  bool record = true) {
  StepRun r;
  Span total("pipad.train", record);
  r.gpu = std::make_unique<gpusim::Gpu>();
  {
    const runtime::PipadOptions popts = api::pipad_options(spec);
    runtime::PipadTrainer trainer(*r.gpu, data, api::train_config(spec),
                                  popts);
    ComputePool::instance().discard_regions();
    std::vector<float> losses;
    const std::vector<graph::Frame>* frames = nullptr;
    {
      Span s("pipad.begin_steps", record);
      frames = &trainer.begin_steps();
    }
    for (int epoch = 0; epoch < spec.epochs; ++epoch) {
      const bool prep = epoch < popts.preparing_epochs;
      {
        Span s(prep ? "pipad.begin_prep_epoch" : "pipad.begin_epoch", record);
        trainer.begin_epoch(epoch, *frames);
      }
      for (const graph::Frame& f : *frames) {
        {
          Span s(prep ? "pipad.prep_frame" : "pipad.steady_frame", record);
          losses.push_back(trainer.grad_frame(f));
        }
        Span s("pipad.apply_step", record);
        trainer.apply_step();
      }
    }
    {
      Span s("pipad.finish", record);
      r.result = trainer.finish_steps();
    }
    r.result.frame_loss = std::move(losses);
    r.sper = trainer.sper_decisions();
    for (const nn::Parameter* p : trainer.params()) {
      r.param_shapes.emplace_back(p->value.rows(), p->value.cols());
    }
  }
  r.ms = total.stop();
  return r;
}

/// Alternates unrecorded and recorded step-API trainings until `seconds`
/// passed and kMinOverheadPairs pairs ran, so the tracing overhead compares
/// one code path with itself. Every pass's losses must equal `ref`,
/// train()'s. Returns the last recorded pass.
StepRun traced_steps(const api::JobSpec& spec, const graph::DTDG& data,
                     const std::vector<float>& ref, double seconds,
                     Report& rep) {
  std::optional<StepRun> last;
  timed_loop(
      seconds,
      [&](int i) {
        ++rep.attempted;
        const bool record = recorded_op(i);
        StepRun r = step_pass(spec, data, record);
        (record ? rep.traced_op_ms : rep.plain_op_ms).push_back(r.ms);
        rep.check(same_bits(r.result.frame_loss, ref),
                  "step-API losses equal train() losses");
        if (record) last = std::move(r);
      },
      2 * kMinOverheadPairs);
  return std::move(*last);
}

/// make_result plus the JSON text a client receives; returns its ms.
double serialize_result(const api::JobSpec& spec, const api::RunOutput& out) {
  Span s("api.result");
  g_sink = g_sink + static_cast<double>(
                        api::make_result(spec, out).to_json().dump().size());
  return s.stop();
}

// ---------------------------------------------------------------- io layer

struct IoFiles {
  std::string edges, features, targets, cache_dir;
  double mb = 0.0;  ///< Edge-list size.
};

IoFiles export_dataset(const graph::DTDG& g, const std::string& dir) {
  Span s("graph.io.export");
  IoFiles f;
  f.edges = dir + "/edges.txt";
  f.features = dir + "/features.txt";
  f.targets = dir + "/targets.txt";
  f.cache_dir = dir + "/cache";
  graph::io::export_edge_list(g, f.edges);
  graph::io::export_features(g, f.features);
  graph::io::export_targets(g, f.targets);
  f.mb = static_cast<double>(fs::file_size(f.edges)) / 1e6;
  return f;
}

struct Loaded {
  graph::DTDG data;
  graph::io::LoadStats stats;
  double ms = 0.0;  ///< Wall time of load_dataset.
};

/// Loads the exported files; `cold` removes the .dtdg cache first, so the
/// load parses, builds and writes the cache.
Loaded load_files(const IoFiles& f, bool cold, bool record = true) {
  if (cold) {
    fs::remove_all(f.cache_dir);
    fs::create_directories(f.cache_dir);
  }
  graph::io::LoadOptions lo;
  lo.features_path = f.features;
  lo.targets_path = f.targets;
  lo.cache_dir = f.cache_dir;
  Loaded l;
  Span s(cold ? "graph.io.load_cold" : "graph.io.load_warm", record);
  l.data = graph::io::load_dataset(f.edges, lo, &ComputePool::instance().pool(),
                                   &l.stats);
  l.ms = s.stop();
  return l;
}

/// Round trip of (a prefix of) a workload's graph through the exporters
/// and the loader, cold then warm: the io layer on this workload's data.
void io_probe(const graph::DTDG& g, const std::string& dir, Report& rep) {
  graph::DTDG part;
  part.name = g.name;
  part.num_nodes = g.num_nodes;
  part.feat_dim = g.feat_dim;
  part.sim_scale = g.sim_scale;
  part.vertex_names = g.vertex_names;
  std::size_t instances = 0;
  for (std::size_t t = 0; t < g.snapshots.size(); ++t) {
    if (t > 0 && instances + g.snapshots[t].nnz() > kIoProbeInstances) break;
    part.snapshots.push_back(g.snapshots[t]);
    part.targets.push_back(g.targets[t]);
    instances += g.snapshots[t].nnz();
  }
  const std::string probe_dir = dir + "/io_probe";
  fs::create_directories(probe_dir);
  const IoFiles files = export_dataset(part, probe_dir);
  rep.io_file_mb = files.mb;
  Loaded cold = load_files(files, true);
  rep.check(!cold.stats.cache_hit && same_dtdg(part, cold.data),
            "io probe: cold load equals the exported graph");
  rep.cold_loads.push_back(cold.stats);
  const Loaded warm = load_files(files, false);
  rep.check(warm.stats.cache_hit && same_dtdg(cold.data, warm.data),
            "io probe: warm load equals the cold load from cache");
  rep.warm_loads.push_back(warm.stats);
  fs::remove_all(probe_dir);
}

// ------------------------------------------------------ per-layer replays

int common_sper(const std::map<int, int>& decisions) {
  std::map<int, int> votes;
  for (const auto& [frame, s] : decisions) ++votes[s];
  int best = 2, count = 0;
  for (const auto& [s, n] : votes) {
    if (n > count) best = s, count = n;
  }
  return best;
}

/// tensor: the trained model's weight shapes on the workload's node count
/// (forward GEMM, weight-gradient GEMM, gate elementwise ops).
void replay_tensor(const graph::DTDG& g,
                   const std::vector<std::pair<int, int>>& shapes) {
  struct Case {
    Tensor x, w, y, dy, dw;
  };
  Rng rng(7);
  std::vector<Case> cases;
  for (const auto& [in, out] : shapes) {
    if (in < 2 || out < 2) continue;  // Biases and scalar heads.
    cases.push_back({Tensor::uniform(g.num_nodes, in, rng, -1.0f, 1.0f),
                     Tensor::uniform(in, out, rng, -1.0f, 1.0f),
                     Tensor(g.num_nodes, out),
                     Tensor::uniform(g.num_nodes, out, rng, -1.0f, 1.0f),
                     Tensor(in, out)});
  }
  for (int rep = 0; rep < kReplayReps; ++rep) {
    {
      Span s("tensor.gemm_nn");
      for (Case& c : cases) ops::gemm(c.x, c.w, c.y);
    }
    {
      Span s("tensor.gemm_tn");
      for (Case& c : cases) ops::gemm(c.x, c.dy, c.dw, /*trans_a=*/true);
    }
    Span s("tensor.ew");
    for (Case& c : cases) {
      const Tensor gate = ops::mul(ops::sigmoid(c.y), ops::tanh(c.dy));
      g_sink = g_sink + gate.data()[0];
    }
  }
}

/// sliced + kernels: the first frame's snapshots, coalesced at the tuner's
/// most common S_per.
void replay_graph_kernels(const graph::DTDG& g, int sper) {
  const int frame = std::min(8, g.num_snapshots());
  ThreadPool& pool = ComputePool::instance().pool();
  std::vector<graph::COO> coo;
  std::vector<std::vector<float>> deg;
  for (int t = 0; t < frame; ++t) {
    coo.push_back(graph::coo_from_csr(g.snapshots[t].adj));
    deg.push_back(kernels::degrees(g.snapshots[t].adj));
  }
  const int n = g.num_nodes;
  const int f = g.feat_dim;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    {
      Span s("sliced.slice");
      for (int t = 0; t < frame; ++t) {
        g_sink = g_sink + static_cast<double>(
                              sliced::slice(g.snapshots[t].adj).num_slices());
      }
    }
    std::vector<sliced::FramePartition> parts;
    {
      Span s("sliced.build_partition");
      for (int start = 0; start < frame; start += sper) {
        parts.push_back(sliced::build_partition(
            g, start, std::min(sper, frame - start),
            sliced::kDefaultSliceBound, &pool));
      }
    }
    std::vector<Tensor> agg;
    {
      Span s("kernels.agg_sliced");
      for (const sliced::FramePartition& p : parts) {
        std::vector<const Tensor*> feats;
        for (int i = 0; i < p.count; ++i) {
          feats.push_back(&g.snapshots[p.start + i].features);
        }
        const Tensor x = sliced::coalesce_features(feats);
        Tensor out(n, f * p.count);
        kernels::agg_sliced(p.overlap, x, out);
        std::vector<Tensor> split = sliced::split_coalesced(out, p.count);
        for (int i = 0; i < p.count; ++i) {
          kernels::agg_sliced(p.exclusive[i], *feats[i], split[i], 4,
                              /*accumulate=*/true);
          agg.push_back(std::move(split[i]));
        }
      }
    }
    {
      Span s("kernels.normalize");
      for (int t = 0; t < frame; ++t) {
        Tensor out(n, f);
        kernels::gcn_normalize(deg[t], g.snapshots[t].features, agg[t], out);
        g_sink = g_sink + out.data()[0];
      }
    }
    Span s("kernels.agg_coo");
    for (int t = 0; t < frame; ++t) {
      Tensor out(n, f);
      kernels::agg_coo(coo[t], g.snapshots[t].features, out);
      g_sink = g_sink + out.data()[0];
    }
  }
}

/// The traced-run tail every workload shares: result JSON, analyzer,
/// modeled clock and layer replays on the workload's own data and trained
/// model.
void layer_sweep(const api::JobSpec& spec, const graph::DTDG& data,
                 const StepRun& run, Report& rep) {
  api::RunOutput out;
  out.train = run.result;
  out.dataset_name = data.name;
  for (int i = 0; i < kReplayReps; ++i) serialize_result(spec, out);
  {
    Span s("analyze.trace");
    const analyze::Analysis a =
        analyze::analyze_trace(analyze::from_timeline(run.gpu->timeline()), {},
                               &ComputePool::instance().pool());
    g_sink = g_sink + a.path.total_us;
  }
  const models::TrainResult& tr = run.result;
  rep.per_layer.push_back(
      {"gpusim.sim_epoch_ms", tr.total_us / 1e3 / spec.epochs, "ms"});
  rep.info.push_back({"gpusim.compute_ms", tr.compute_us / 1e3, "ms"});
  rep.info.push_back({"gpusim.transfer_ms", tr.transfer_us / 1e3, "ms"});
  rep.info.push_back(
      {"gpusim.ops",
       static_cast<double>(run.gpu->timeline().records().size()), "count"});
  rep.info.push_back(
      {"common.pool.steals", static_cast<double>(tr.steals), "count"});
  rep.info.push_back(
      {"pipad.frames", static_cast<double>(tr.frame_loss.size()), "count"});
  double sper_sum = 0.0;
  for (const auto& [frame, s] : run.sper) sper_sum += s;
  rep.info.push_back(
      {"pipad.sper_mean",
       run.sper.empty() ? 0.0 : sper_sum / static_cast<double>(run.sper.size()),
       "count"});
  replay_tensor(data, run.param_shapes);
  replay_graph_kernels(data, common_sper(run.sper));
}

void run_training(const api::JobSpec& spec, double seconds,
                  const std::string& dir, Report& rep) {
  const bool traced = g_tracer.enabled;
  api::BuiltDataset built;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    built = {};
    ++rep.attempted;
    Span s("graph.build");
    built = api::build_dataset(spec);
    setup_s.push_back(s.stop() / 1e3);
  }

  // Untimed warm-up rep: its losses are the reference for every other rep.
  ++rep.attempted;
  std::vector<float> ref;
  {
    gpusim::Gpu gpu;
    ref = api::run_method(spec, spec.runtime, gpu, built).train.frame_loss;
  }
  rep.check(!ref.empty() && all_finite(ref), "rep 0 losses are finite");
  add_loss_digest(rep, ref);

  if (traced) {
    // The per-layer spans need the step API; train() reps add nothing.
    const StepRun r = traced_steps(spec, built.data, ref, seconds, rep);
    rep.end_to_end.push_back({"setup_s", median(setup_s), "s"});
    layer_sweep(spec, built.data, r, rep);
    io_probe(built.data, dir, rep);
    return;
  }

  std::vector<double> op_ms;
  const double wall = timed_loop(seconds, [&](int i) {
    ++rep.attempted;
    Span s("api.run_method");
    gpusim::Gpu gpu;
    const api::RunOutput out = api::run_method(spec, spec.runtime, gpu, built);
    op_ms.push_back(s.stop());
    rep.check(same_bits(out.train.frame_loss, ref),
              "rep " + std::to_string(i) + " losses equal rep 0's");
  });
  report_ops(rep, setup_s, op_ms, static_cast<double>(op_ms.size()), wall);

  ++rep.attempted;
  const StepRun r = step_pass(spec, built.data);
  rep.check(same_bits(r.result.frame_loss, ref),
            "step-API losses equal train() losses");
  // What the traced run's pipad.* spans break down costs this much more
  // (or less) than the train() reps op_p50_ms times.
  rep.info.push_back(
      {"bench.step_vs_train_pct", (r.ms / median(op_ms) - 1.0) * 100.0, "%"});
}

// ------------------------------------------------------------ ingest-file

api::JobSpec ingest_source_spec(std::uint64_t seed) {
  api::JobSpec s;
  s.nodes = 50000;
  s.events = 1500000;
  s.snapshots = 24;
  s.edge_life = 4;
  s.feat_dim = 2;
  s.threads = 2;
  s.seed = seed;
  return checked(s);
}

void run_ingest(std::uint64_t seed, double seconds, const std::string& dir,
                Report& rep) {
  const bool traced = g_tracer.enabled;
  const api::JobSpec spec = ingest_source_spec(seed);
  IoFiles files;
  Loaded cold;
  std::vector<double> setup_s;
  {
    api::BuiltDataset source;
    {
      Span s("graph.build");
      source = api::build_dataset(spec);
    }
    files = export_dataset(source.data, dir);
    rep.io_file_mb = files.mb;
    for (int i = 0; i < kSetupReps; ++i) {
      ++rep.attempted;
      cold = {};
      cold = load_files(files, true);
      rep.check(!cold.stats.cache_hit && same_dtdg(source.data, cold.data),
                "cold load equals the generated graph");
      rep.cold_loads.push_back(cold.stats);
      setup_s.push_back(cold.ms / 1e3);
    }
  }

  // Untimed warm-up: the first cache hit.
  ++rep.attempted;
  {
    const Loaded warm = load_files(files, false);
    rep.check(warm.stats.cache_hit && same_dtdg(cold.data, warm.data),
              "warm load equals the cold load, from cache");
  }
  const double wall = timed_loop(seconds, [&](int i) {
    ++rep.attempted;
    const bool record = traced && recorded_op(i);
    const Loaded warm = load_files(files, false, record);
    (record ? rep.traced_op_ms : rep.plain_op_ms).push_back(warm.ms);
    rep.warm_loads.push_back(warm.stats);
    rep.check(warm.stats.cache_hit && same_dtdg(cold.data, warm.data),
              "warm load " + std::to_string(i) + " equals the cold load");
  });
  const double ops = static_cast<double>(rep.plain_op_ms.size() +
                                         rep.traced_op_ms.size());

  report_ops(rep, setup_s, rep.plain_op_ms, ops, wall);
  if (traced) {
    // What `pipad train --dataset file:...` does next: train the loaded
    // graph (JobSpec defaults at the workload's width).
    api::JobSpec train = api::JobSpec{};
    train.threads = spec.threads;
    train.seed = seed;
    const StepRun r = step_pass(checked(train), cold.data);
    rep.check(!r.result.frame_loss.empty() && all_finite(r.result.frame_loss),
              "losses on the loaded graph are finite");
    add_loss_digest(rep, r.result.frame_loss);
    layer_sweep(train, cold.data, r, rep);
  }
}

// -------------------------------------------------------------- serve-mix

/// Job `i` of client `c`. Each client walks all 12 (model, runtime) pairs,
/// offset by client so the four clients run different pairs at once.
api::JobSpec serve_job(std::uint64_t seed, int c, long i, int& pipad_jobs) {
  static const char* const kModels[] = {"gcn", "tgcn", "evolvegcn",
                                        "mpnn-lstm"};
  static const char* const kRuntimes[] = {"pipad", "pygt-g", "pygt"};
  const long pair = (i + 3L * c) % 12;
  api::JobSpec s;
  s.model = kModels[pair % 4];
  s.runtime = kRuntimes[pair % 3];
  s.nodes = 1000;
  s.events = 20000;
  s.snapshots = 16;
  s.seed = seed + static_cast<std::uint64_t>(pair);
  s.threads = kServeThreads;
  s.tenant = c < kClients / 2 ? "interactive" : "batch";
  s.priority = c < kClients / 2 ? 8 : 2;
  s.tag = std::to_string(c) + "-" + std::to_string(i);
  if (s.runtime == "pipad" && ++pipad_jobs % 7 == 0) s.replicas = 2;
  if (i % 4 == 3) s.run_analyzer = true;
  return checked(s);
}

struct JobRecord {
  int client = 0;
  long index = 0;  ///< The client's job number.
  api::JobSpec spec;
  double latency_ms = 0.0;
  api::JobResult result;
};

/// Submits a job on a wire connection and blocks until its result.
api::JobResult submit_wait(serve::WireClient& client,
                           const api::JobSpec& spec) {
  api::JobResult res;
  api::Json submit = api::Json::object();
  submit.set("op", "submit");
  submit.set("spec", spec.to_json());
  const api::Json sr = client.request(submit);
  if (!sr.find("ok")->as_bool()) {
    res.state = "refused";
    res.error = sr.find("error")->as_string();
    return res;
  }
  api::Json wait = api::Json::object();
  wait.set("op", "wait");
  wait.set("id", sr.find("id")->as_int());
  const api::Json wr = client.request(wait);
  std::string error;
  if (!wr.find("ok")->as_bool() ||
      !api::JobResult::from_json(*wr.find("result"), res, error)) {
    throw Error("wait failed: " + wr.dump() + " " + error);
  }
  return res;
}

/// kClients closed-loop clients, each on its own connection to `sock`,
/// sending its next job when the previous one returned, until `seconds`
/// passed. Returns every job.
std::vector<JobRecord> closed_loop(std::uint64_t seed, double seconds,
                                   const std::string& sock, double& wall_s,
                                   Report& rep) {
  std::vector<std::vector<JobRecord>> per(kClients);
  std::vector<std::string> errors(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          serve::WireClient client(sock);
          int pipad_jobs = 0;
          for (long i = 0; i < kMinJobsPerClient || Clock::now() < deadline;
               ++i) {
            JobRecord rec;
            rec.client = c;
            rec.index = i;
            rec.spec = serve_job(seed, c, i, pipad_jobs);
            const auto t0 = Clock::now();
            rec.result = submit_wait(client, rec.spec);
            rec.latency_ms = ms_since(t0);
            per[static_cast<std::size_t>(c)].push_back(std::move(rec));
          }
        } catch (const std::exception& e) {
          errors[static_cast<std::size_t>(c)] = e.what();
        }
      });
    }
  }
  wall_s = ms_since(start) / 1e3;
  std::vector<JobRecord> all;
  for (int c = 0; c < kClients; ++c) {
    const auto k = static_cast<std::size_t>(c);
    rep.check(errors[k].empty(), "client " + std::to_string(c) + ": " +
                                     errors[k]);
    for (JobRecord& r : per[k]) all.push_back(std::move(r));
  }
  return all;
}

/// Every job ends done. Client 0's first 12 jobs, one per (model, runtime)
/// pair and with specs that do not depend on timing, then run standalone:
/// api::run_job's two calls (build_dataset, then run_method on a fresh
/// Gpu) made apart, plus make_result, each timed. Their losses must equal
/// the served ones and make the digest. Their times split what a job costs
/// without a queue or a shared pool.
void check_served(const std::vector<JobRecord>& jobs, Report& rep) {
  std::set<std::pair<std::string, std::string>> pairs;
  std::vector<float> losses;
  std::vector<double> job_ms;
  double build_ms = 0.0, train_ms = 0.0, result_ms = 0.0;
  for (const JobRecord& j : jobs) {
    ++rep.attempted;
    if (j.result.state != "done") {
      ++rep.failed;
      rep.check(false, "job " + j.spec.tag + " ended " + j.result.state +
                           ": " + j.result.error);
      continue;
    }
    if (j.client != 0 || j.index >= 12) continue;
    pairs.emplace(j.spec.model, j.spec.runtime);
    Span job("serve.solo_job");
    api::BuiltDataset data;
    {
      Span s("graph.build");
      data = api::build_dataset(j.spec);
      build_ms += s.stop();
    }
    api::RunOutput out;
    {
      Span s("api.train");
      gpusim::Gpu gpu;
      out = api::run_method(j.spec, j.spec.runtime, gpu, data);
      train_ms += s.stop();
    }
    result_ms += serialize_result(j.spec, out);
    job_ms.push_back(job.stop());
    rep.check(same_bits(out.train.frame_loss, j.result.frame_loss),
              "served job " + j.spec.tag + " (" + j.spec.model + "/" +
                  j.spec.runtime + ") losses equal a standalone run");
    losses.insert(losses.end(), j.result.frame_loss.begin(),
                  j.result.frame_loss.end());
  }
  rep.check(pairs.size() == 12,
            "client 0's first 12 jobs cover every (model, runtime) pair");
  add_loss_digest(rep, losses);
  const double total_ms = build_ms + train_ms + result_ms;
  rep.info.push_back({"serve.solo_job_ms.p50", median(job_ms), "ms"});
  rep.info.push_back({"serve.solo_build_share", build_ms / total_ms, "ratio"});
  rep.info.push_back({"serve.solo_train_share", train_ms / total_ms, "ratio"});
  rep.info.push_back(
      {"serve.solo_result_share", result_ms / total_ms, "ratio"});
}

void run_serve(std::uint64_t seed, double seconds, const std::string& dir,
               Report& rep) {
  const std::string sock = dir + "/serve.sock";
  serve::SessionOptions so;
  so.threads = kServeThreads;
  so.executors = kServeExecutors;
  int pipad_jobs = 0;
  const api::JobSpec first = serve_job(seed, 0, 0, pipad_jobs);

  // Set-up: daemon cold start to first result, on a fresh daemon each time.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    ++rep.attempted;
    Span s("serve.cold_start");
    serve::Session session(so);
    serve::WireServer server(session, sock);
    serve::WireClient client(sock);
    const api::JobResult r = submit_wait(client, first);
    setup_s.push_back(s.stop() / 1e3);
    rep.check(r.state == "done", "cold-start job ended " + r.state);
    session.shutdown();
    server.stop();
  }

  // The same daemon and wire loop, traced or not: spans are never recorded
  // inside it.
  std::vector<JobRecord> jobs;
  double wall = 0.0;
  {
    serve::Session session(so);
    serve::WireServer server(session, sock);
    jobs = closed_loop(seed, seconds, sock, wall, rep);
    session.shutdown();
    server.stop();
  }

  std::vector<double> latency, hi, lo;
  for (const JobRecord& j : jobs) {
    latency.push_back(j.latency_ms);
    (j.spec.priority > 5 ? hi : lo).push_back(j.latency_ms);
  }
  check_served(jobs, rep);

  const double n = static_cast<double>(jobs.size());
  report_ops(rep, setup_s, latency, n, wall);
  rep.info.push_back({"serve.job_p95_ms", quantile(latency, 0.95), "ms"});
  rep.info.push_back({"serve.interactive_p50_ms", median(hi), "ms"});
  rep.info.push_back({"serve.batch_p50_ms", median(lo), "ms"});
  rep.info.push_back(
      {"serve.hi_lo_p50_ratio", median(hi) / median(lo), "ratio"});
  // kClients jobs are always in the daemon, so both executors are always
  // busy: a job runs for kServeExecutors * wall / n on average, and the
  // rest of its mean latency is queue wait.
  double latency_sum = 0.0;
  for (const double ms : latency) latency_sum += ms;
  const double run_ms = kServeExecutors * wall * 1e3 / n;
  rep.info.push_back({"serve.run_ms.mean_est", run_ms, "ms"});
  rep.info.push_back(
      {"serve.queue_wait_ms.mean_est", latency_sum / n - run_ms, "ms"});
  if (!g_tracer.enabled) return;

  // Status round trip over the wire, against a finished job.
  {
    serve::Session session(so);
    serve::WireServer server(session, sock);
    serve::WireClient client(sock);
    std::string error;
    const std::uint64_t id = session.submit(first, error);
    rep.check(id != 0 && session.wait(id).state == "done",
              "status probe job ended done " + error);
    api::Json status = api::Json::object();
    status.set("op", "status");
    status.set("id", static_cast<long long>(id));
    std::vector<double> rtt_us;
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      const api::Json r = client.request(status);
      rtt_us.push_back(ms_since(t0) * 1e3);
      rep.check(r.find("ok")->as_bool(), "status request answered");
    }
    rep.info.push_back({"serve.status_rtt_us.p50", median(rtt_us), "us"});
    session.shutdown();
    server.stop();
  }

  // Tracing overhead and layer sweep on the first job's graph and model
  // (gcn under pipad); its served losses, checked against a standalone
  // run above, are the reference.
  const auto served = std::find_if(jobs.begin(), jobs.end(), [](const auto& j) {
    return j.client == 0 && j.index == 0;
  });
  if (served == jobs.end()) throw Error("client 0 ran no job");
  const api::BuiltDataset data = api::build_dataset(first);
  const StepRun r = traced_steps(first, data.data, served->result.frame_loss,
                                 kServeStepSeconds, rep);
  layer_sweep(first, data.data, r, rep);
  io_probe(data.data, dir, rep);
}

// ----------------------------------------------------------------- output

/// Per-layer metric names in report order; span-derived ones carry the
/// span name whose median duration they report.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* span;  ///< nullptr: computed, not a span median.
};

constexpr LayerDef kLayers[] = {
    {"graph.build_ms", "ms", "graph.build"},
    {"graph.io.load_cold_ms", "ms", "graph.io.load_cold"},
    {"graph.io.read_ms", "ms", nullptr},
    {"graph.io.parse_ms", "ms", nullptr},
    {"graph.io.build_ms", "ms", nullptr},
    {"graph.io.cache_write_ms", "ms", nullptr},
    {"graph.io.mb_per_s", "MB/s", nullptr},
    {"graph.io.load_warm_ms", "ms", "graph.io.load_warm"},
    {"graph.io.hash_ms", "ms", nullptr},
    {"graph.io.cache_read_ms", "ms", nullptr},
    {"pipad.begin_steps_ms", "ms", "pipad.begin_steps"},
    {"pipad.begin_epoch_ms", "ms", "pipad.begin_epoch"},
    {"pipad.prep_frame_ms.p50", "ms", "pipad.prep_frame"},
    {"pipad.steady_frame_ms.p50", "ms", "pipad.steady_frame"},
    {"pipad.apply_step_ms.p50", "ms", "pipad.apply_step"},
    {"pipad.finish_ms", "ms", "pipad.finish"},
    {"tensor.gemm_nn_ms", "ms", "tensor.gemm_nn"},
    {"tensor.gemm_tn_ms", "ms", "tensor.gemm_tn"},
    {"tensor.ew_ms", "ms", "tensor.ew"},
    {"kernels.agg_sliced_ms", "ms", "kernels.agg_sliced"},
    {"kernels.normalize_ms", "ms", "kernels.normalize"},
    {"kernels.agg_coo_ms", "ms", "kernels.agg_coo"},
    {"sliced.slice_ms", "ms", "sliced.slice"},
    {"sliced.build_partition_ms", "ms", "sliced.build_partition"},
    {"gpusim.sim_epoch_ms", "ms", nullptr},
    {"analyze.trace_ms", "ms", "analyze.trace"},
    {"api.result_ms.p50", "ms", "api.result"},
    {"bench.calib_cpu_ms", "ms", nullptr},
    {"bench.calib_mem_ms", "ms", nullptr},
    {"bench.trace_overhead_pct", "%", nullptr},
};

/// Adds the span-derived and LoadStats-derived per-layer metrics, self
/// times as info lines, and returns the metrics in kLayers order.
std::vector<Metric> per_layer_metrics(const std::vector<SpanRecord>& spans,
                                      Report& rep) {
  std::map<std::string, std::vector<double>> dur;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    dur[s.name].push_back(ms);
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms;
  }
  // Self time: a span's duration minus what its child spans cover.
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ms[spans[i].name] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6 -
        child_ms[i];
  }
  for (const auto& [name, ms] : self_ms) {
    rep.info.push_back({"self." + name + "_ms", ms, "ms"});
  }

  const auto stat = [](const std::vector<graph::io::LoadStats>& v,
                       double graph::io::LoadStats::*field) {
    std::vector<double> x;
    for (const auto& s : v) x.push_back(s.*field / 1e3);
    return median(x);
  };
  using LS = graph::io::LoadStats;
  const double cold_ms = median(dur["graph.io.load_cold"]);
  std::map<std::string, double> computed = {
      {"graph.io.read_ms", stat(rep.cold_loads, &LS::read_us)},
      {"graph.io.parse_ms", stat(rep.cold_loads, &LS::parse_us)},
      {"graph.io.build_ms", stat(rep.cold_loads, &LS::build_us)},
      {"graph.io.cache_write_ms", stat(rep.cold_loads, &LS::cache_us)},
      {"graph.io.mb_per_s", rep.io_file_mb / (cold_ms / 1e3)},
      {"graph.io.hash_ms", stat(rep.warm_loads, &LS::read_us)},
      {"graph.io.cache_read_ms", stat(rep.warm_loads, &LS::cache_us)},
  };
  // Each recorded op ran right after an unrecorded one; the ratio within a
  // pair cancels the machine's slow speed drift.
  std::vector<double> overhead;
  for (std::size_t k = 0;
       k < std::min(rep.plain_op_ms.size(), rep.traced_op_ms.size()); ++k) {
    overhead.push_back(rep.traced_op_ms[k] / rep.plain_op_ms[k]);
  }
  computed["bench.trace_overhead_pct"] = (median(overhead) - 1.0) * 100.0;
  for (const Metric& m : rep.per_layer) computed[m.name] = m.value;

  std::vector<Metric> out;
  for (const LayerDef& d : kLayers) {
    double v = std::nan("");
    if (d.span != nullptr) {
      v = median(dur[d.span]);
    } else if (computed.count(d.name) != 0) {
      v = computed[d.name];
    }
    out.push_back({d.name, v, d.unit});
  }
  return out;
}

void write_trace(const std::string& path, const std::string& workload,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream os(path, std::ios::app);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    api::Json j = api::Json::object();
    j.set("workload", workload);
    j.set("id", static_cast<long long>(i));
    j.set("name", spans[i].name);
    j.set("parent", static_cast<long long>(spans[i].parent));
    j.set("start_ns", spans[i].start_ns);
    j.set("end_ns", spans[i].end_ns);
    os << j.dump() << '\n';
  }
  os.flush();
  if (!os) throw Error("cannot write trace file " + path);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  ///< Empty: untraced.
  std::string work_dir;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "pipad_e2e: %s\n"
               "usage: pipad_e2e --workload rnn-dense|graph-heavy|ingest-file|"
               "serve-mix --seed N --seconds S --work-dir DIR [--trace FILE]\n",
               error.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace_path = value;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  static const std::set<std::string> kWorkloads = {
      "rnn-dense", "graph-heavy", "ingest-file", "serve-mix"};
  if (kWorkloads.count(o.workload) == 0) usage("unknown workload");
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

void print_metric(const std::string& workload, const Metric& m) {
  std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(), m.value,
              m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  g_tracer.enabled = !o.trace_path.empty();
  Report rep;
  rep.workload = o.workload;
  std::vector<Metric> json_metrics;
  try {
    fs::remove_all(o.work_dir);
    fs::create_directories(o.work_dir);
    const double cpu0 = calib_cpu_ms();
    const double mem0 = calib_mem_ms();
    if (o.workload == "rnn-dense") {
      run_training(rnn_dense_spec(o.seed), o.seconds, o.work_dir, rep);
    } else if (o.workload == "graph-heavy") {
      run_training(graph_heavy_spec(o.seed), o.seconds, o.work_dir, rep);
    } else if (o.workload == "ingest-file") {
      run_ingest(o.seed, o.seconds, o.work_dir, rep);
    } else {
      run_serve(o.seed, o.seconds, o.work_dir, rep);
    }
    rep.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    const double cpu1 = calib_cpu_ms();
    const double mem1 = calib_mem_ms();
    for (const auto& [what, a, b] :
         {std::tuple{"cpu", cpu0, cpu1}, std::tuple{"mem", mem0, mem1}}) {
      if (std::abs(b / a - 1.0) > 0.10) {
        std::fprintf(stderr,
                     "pipad_e2e: warning: %s drift probe moved %.1f%% during "
                     "the run (%.2f -> %.2f ms); the machine's speed changed\n",
                     what, (b / a - 1.0) * 100.0, a, b);
      }
    }
    rep.per_layer.push_back({"bench.calib_cpu_ms", cpu0, "ms"});
    rep.per_layer.push_back({"bench.calib_mem_ms", mem0, "ms"});
    rep.info.push_back({"bench.calib_cpu_end_ms", cpu1, "ms"});
    rep.info.push_back({"bench.calib_mem_end_ms", mem1, "ms"});

    if (g_tracer.enabled) {
      const std::vector<SpanRecord> spans = g_tracer.spans();
      json_metrics = per_layer_metrics(spans, rep);
      write_trace(o.trace_path, o.workload, spans);
      for (const Metric& m : rep.end_to_end) rep.info.push_back(m);
    } else {
      json_metrics = rep.end_to_end;
      for (const Metric& m : rep.per_layer) rep.info.push_back(m);
    }
    for (const Metric& m : json_metrics) {
      rep.check(std::isfinite(m.value), "metric " + m.name + " was measured");
    }
  } catch (const std::exception& e) {
    rep.failures.push_back(std::string("run aborted: ") + e.what());
  }
  std::error_code ec;
  fs::remove_all(o.work_dir, ec);

  const bool correct = rep.failures.empty();
  for (const std::string& f : rep.failures) {
    std::fprintf(stderr, "pipad_e2e: %s: FAIL: %s\n", o.workload.c_str(),
                 f.c_str());
  }
  if (correct) {
    for (const Metric& m : json_metrics) print_metric(o.workload, m);
    for (const Metric& m : rep.info) print_metric(o.workload, m);
    for (const std::string& t : rep.info_text) {
      std::printf("%s %s\n", o.workload.c_str(), t.c_str());
    }
  }
  api::Json summary = api::Json::object();
  summary.set("correct", correct);
  summary.set("attempted", rep.attempted);
  summary.set("failed", rep.failed);
  api::Json metrics = api::Json::object();
  if (correct) {
    for (const Metric& m : json_metrics) {
      api::Json v = api::Json::object();
      v.set("value", m.value);
      v.set("unit", m.unit);
      metrics.set(m.name, v);
    }
  }
  summary.set("metrics", metrics);
  std::printf("%s\n", summary.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
