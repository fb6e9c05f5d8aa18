// ingest_stream: the bounded-memory windowed text-ingestion path.
//
// Generates a deterministic timestamped edge list (fat fixed-width rows, so
// bytes/edge is stable across seeds), gzips it, and loads it three ways —
// plain with the default 8 MiB window, plain with a deliberately tiny
// window, and gzip'd — timing each load's phases (read / inflate / parse /
// build, from graph::io::LoadStats). The plain file is then loaded twice
// more through a fresh `.dtdg` cache directory: cold (parse + cache write)
// and warm (cache key + cache read) — the `cached` record is the warm load,
// whose read time is the cache key's content hash.
//
// The binary is its own gate: all loads must produce bit-identical DTDGs
// (adjacency, weights, features, targets and name table all folded into
// one FNV signature) and the same edge-instance count, and the warm load
// must be a cache hit, or it exits nonzero — CI runs it before diffing
// BENCH_ingest.json, so a windowing, gzip or cache regression fails fast
// even when timings stay inside the bench_diff threshold.
//
// Extra flags on top of the shared bench set (--threads / --epochs /
// --json are the meaningful shared ones):
//   --dir=PATH        where the generated files live  [ingest_bench_data]
//   --gen-edges=N     edge rows to generate           [1000000]
//   --gen-nodes=N     vertex-id space (nodes=N directive)  [100000]
//   --window-bytes=N  the loads' streaming window     [8 MiB]
//   --gen-only        generate the plain + gzip edge files, plus a
//                     temporal feature file and a target file with a row
//                     for every (snapshot, vertex) slot, print them, exit
//   --parse-only      load the --gen-only files once (direct staging, both
//                     sidecars) and exit — the CI large-file smoke runs
//                     this under a `ulimit -v` cap below the edge file's
//                     size and below what reading the sidecars whole needs
#include <zlib.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "graph/io/text_format.hpp"

namespace {

namespace fs = std::filesystem;
using pipad::Error;
using pipad::graph::DTDG;

struct GenConfig {
  std::string dir = "ingest_bench_data";
  long long edges = 1000000;
  long long nodes = 100000;
  long long window_bytes = 0;  ///< 0: the loader's default.
  bool gen_only = false;
  bool parse_only = false;
};

/// Timestamps run over this many snapshots (see generate()).
constexpr int kSnapshots = 12;
/// Feature columns of the generated feature file.
constexpr int kSidecarDim = 4;

/// Writes `rows` rows of `row(i, buf)` bytes to `path` behind `header`.
template <typename Row>
void write_rows(const std::string& path, const std::string& header,
                long long rows, const Row& row) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw Error("cannot write " + path);
  os << header << "\n";
  std::string buf;
  for (long long i = 0; i < rows; ++i) {
    row(i, buf);
    if (buf.size() >= (1u << 20)) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  os.flush();
  if (!os) throw Error("write failed: " + path);
}

/// Rows are fixed-width (zero-padded ids and timestamp, fixed-precision
/// weight): 64 bytes each, so --gen-edges maps directly to file size and
/// the CI ulimit cap can be computed from it. Timestamps are monotone with
/// 12 distinct values across the file; snapshot_window=1 then buckets them
/// into 12 snapshots via the loader's bounded-memory direct staging.
void generate(const GenConfig& g, const std::string& path) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
  };
  char row[80];
  write_rows(path,
             "# ingest_stream synthetic edge list\n# nodes=" +
                 std::to_string(g.nodes),
             g.edges, [&](long long i, std::string& buf) {
               const auto src = static_cast<long long>(
                   next() % static_cast<std::uint64_t>(g.nodes));
               const auto dst = static_cast<long long>(
                   next() % static_cast<std::uint64_t>(g.nodes));
               const long long t = (i * kSnapshots) / g.edges;
               const double w =
                   0.5 + 0.25 * static_cast<double>(next() % 1024) / 1024.0;
               std::snprintf(row, sizeof(row),
                             "%012lld %012lld %019lld %016.14f\n", src, dst,
                             t, w);
               buf += row;
             });
}

/// A temporal feature file (kSidecarDim fixed-width values in [0, 1)) and a
/// target file, each with one row per (snapshot, vertex) slot in snapshot
/// order.
void generate_sidecars(const GenConfig& g, const std::string& features,
                       const std::string& targets) {
  const long long rows = kSnapshots * g.nodes;
  const auto value = [](long long i, int d) {
    const auto h = static_cast<std::uint64_t>(i * (kSidecarDim + 1) + d) *
                   0x9e3779b97f4a7c15ull;
    return static_cast<double>(h >> 40) / static_cast<double>(1u << 24);
  };
  char cell[64];
  write_rows(features,
             "# pipad-features v1 dim=" + std::to_string(kSidecarDim) +
                 " temporal",
             rows,
             [&](long long i, std::string& buf) {
               std::snprintf(cell, sizeof(cell), "%lld %lld", i / g.nodes,
                             i % g.nodes);
               buf += cell;
               for (int d = 0; d < kSidecarDim; ++d) {
                 std::snprintf(cell, sizeof(cell), " %.9f", value(i, d));
                 buf += cell;
               }
               buf += '\n';
             });
  write_rows(targets, "# pipad-targets v1", rows,
             [&](long long i, std::string& buf) {
               std::snprintf(cell, sizeof(cell), "%lld %lld %.9f\n",
                             i / g.nodes, i % g.nodes, value(i, kSidecarDim));
               buf += cell;
             });
}

/// Gzip `src` to `dst` at Z_BEST_SPEED (CI generates a ~200 MB input; the
/// compression level only affects generation time, not what is measured).
void gzip_file(const std::string& src, const std::string& dst) {
  std::ifstream is(src, std::ios::binary);
  if (!is) throw Error("cannot open " + src);
  gzFile out = gzopen(dst.c_str(), "wb1");
  if (out == nullptr) throw Error("cannot write " + dst);
  std::vector<char> buf(1u << 20);
  for (;;) {
    is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<unsigned>(is.gcount());
    if (got == 0) break;
    if (gzwrite(out, buf.data(), got) != static_cast<int>(got)) {
      gzclose(out);
      throw Error("gzwrite failed: " + dst);
    }
  }
  if (gzclose(out) != Z_OK) throw Error("gzclose failed: " + dst);
}

std::uint64_t fold(const void* data, std::size_t n, std::uint64_t h) {
  return pipad::graph::io::fnv1a(data, n, h);
}

/// One FNV signature over everything a load produces — any bit of
/// adjacency, weight, feature, target or vertex-name divergence between
/// two loads of the same data changes it.
std::uint64_t dtdg_signature(const DTDG& g) {
  std::uint64_t h = pipad::graph::io::fnv1a_u64(
      static_cast<std::uint64_t>(g.num_nodes));
  h = pipad::graph::io::fnv1a_u64(static_cast<std::uint64_t>(g.feat_dim), h);
  h = pipad::graph::io::fnv1a_u64(
      static_cast<std::uint64_t>(g.num_snapshots()), h);
  for (const auto& name : g.vertex_names) {
    h = fold(name.data(), name.size(), h);
    h = pipad::graph::io::fnv1a_u64(name.size(), h);
  }
  for (int t = 0; t < g.num_snapshots(); ++t) {
    const auto& s = g.snapshots[static_cast<std::size_t>(t)];
    h = fold(s.adj.row_ptr.data(), s.adj.row_ptr.size() * sizeof(int), h);
    h = fold(s.adj.col_idx.data(), s.adj.col_idx.size() * sizeof(int), h);
    h = fold(s.edge_w.data(), s.edge_w.size() * sizeof(float), h);
    const auto& f = s.features;
    h = fold(f.data(), static_cast<std::size_t>(f.rows()) *
                           static_cast<std::size_t>(f.cols()) * sizeof(float),
             h);
    const auto& y = g.targets[static_cast<std::size_t>(t)];
    h = fold(y.data(), static_cast<std::size_t>(y.rows()) * sizeof(float), h);
  }
  return h;
}

struct LoadRun {
  double total_us = 0.0;
  pipad::graph::io::LoadStats stats;
  std::uint64_t signature = 0;
  std::size_t edges = 0;
};

LoadRun load_once(const std::string& path, std::size_t window_bytes,
                  const std::string& cache_dir = {},
                  const std::string& features = {},
                  const std::string& targets = {}) {
  pipad::graph::io::LoadOptions lo;
  lo.snapshot_window = 1;  // 12 distinct timestamps -> 12 snapshots.
  lo.window_bytes = window_bytes;
  lo.cache_dir = cache_dir;
  lo.features_path = features;
  lo.targets_path = targets;
  LoadRun r;
  pipad::Timer timer;
  const DTDG g = pipad::graph::io::load_dataset(
      path, lo, &pipad::ComputePool::instance().pool(), &r.stats);
  r.total_us = timer.elapsed_us();
  r.signature = dtdg_signature(g);
  r.edges = g.total_edges();
  return r;
}

}  // namespace

int run(int argc, char** argv) {
  using namespace pipad;

  // Strip the ingest-specific flags, hand the rest to the shared parser.
  GenConfig gen;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  const auto ll_value = [&](const std::string& arg, const char* key,
                            long long& out) {
    const std::string prefix = std::string(key) + "=";
    if (arg.rfind(prefix, 0) != 0) return false;
    const std::string v = arg.substr(prefix.size());
    char* end = nullptr;
    errno = 0;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || end == nullptr || *end != '\0' || errno == ERANGE ||
        n < 1) {
      std::fprintf(stderr, "%s expects a positive integer, got '%s'\n", key,
                    v.c_str());
      std::exit(2);
    }
    out = n;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dir=", 0) == 0) {
      gen.dir = arg.substr(6);
    } else if (ll_value(arg, "--gen-edges", gen.edges) ||
               ll_value(arg, "--gen-nodes", gen.nodes) ||
               ll_value(arg, "--window-bytes", gen.window_bytes)) {
      // Parsed in the condition.
    } else if (arg == "--gen-only") {
      gen.gen_only = true;
    } else if (arg == "--parse-only") {
      gen.parse_only = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto flags =
      bench::Flags::parse(static_cast<int>(rest.size()), rest.data(),
                          bench::Writes::Records);
  ComputePool::instance().configure(
      flags.job.threads > 0 ? static_cast<std::size_t>(flags.job.threads) : 0);

  const std::string plain =
      (fs::path(gen.dir) / "ingest_edges.txt").string();
  const std::string gz = plain + ".gz";
  const std::string features =
      (fs::path(gen.dir) / "ingest_features.txt").string();
  const std::string targets =
      (fs::path(gen.dir) / "ingest_targets.txt").string();
  const auto mb = [](const std::string& file) {
    return static_cast<double>(fs::file_size(file)) / 1e6;
  };
  if (!gen.parse_only) {
    fs::create_directories(gen.dir);
    generate(gen, plain);
    gzip_file(plain, gz);
    std::printf("ingest_stream: generated %s (%lld edges, %.1f MB) and "
                "%s (%.1f MB)\n",
                plain.c_str(), gen.edges, mb(plain), gz.c_str(), mb(gz));
    if (gen.gen_only) {
      generate_sidecars(gen, features, targets);
      std::printf("ingest_stream: generated %s (%.1f MB) and %s (%.1f MB)\n",
                  features.c_str(), mb(features), targets.c_str(),
                  mb(targets));
      return 0;
    }
  }

  const auto wb = static_cast<std::size_t>(gen.window_bytes);
  if (gen.parse_only) {
    // The CI large-file smoke: one bounded-memory load of files bigger
    // than the address-space cap the harness set with ulimit -v.
    const LoadRun r = load_once(plain, wb, {}, features, targets);
    std::printf("ingest_stream: parsed %s, %s and %s under the bounded "
                "window: %zu edge instances, %.1f ms "
                "(read %.1f ms, parse %.1f ms, build %.1f ms)\n",
                plain.c_str(), features.c_str(), targets.c_str(), r.edges,
                r.total_us / 1e3,
                r.stats.read_us / 1e3, r.stats.parse_us / 1e3,
                r.stats.build_us / 1e3);
    return r.edges > 0 ? 0 : 1;
  }

  std::printf("\n%-14s %12s %10s %10s %10s %10s\n", "method", "total_us",
              "read_ms", "inflate_ms", "parse_ms", "build_ms");
  const auto show = [](const char* name, const LoadRun& r) {
    std::printf("%-14s %12.1f %10.1f %10.1f %10.1f %10.1f\n", name,
                r.total_us, r.stats.read_us / 1e3, r.stats.inflate_us / 1e3,
                r.stats.parse_us / 1e3, r.stats.build_us / 1e3);
  };
  const LoadRun stream = load_once(plain, wb);
  show("stream", stream);
  const LoadRun tiny = load_once(plain, 1u << 20);
  show("stream-1MiB", tiny);
  const LoadRun gzr = load_once(gz, wb);
  show("gzip", gzr);

  // The gate: window size and transparent gzip must never change a bit.
  if (stream.signature != tiny.signature ||
      stream.signature != gzr.signature || stream.edges != tiny.edges ||
      stream.edges != gzr.edges) {
    std::fprintf(stderr,
                 "FAIL: loads diverge — stream %016llx/%zu, "
                 "1MiB-window %016llx/%zu, gzip %016llx/%zu\n",
                 static_cast<unsigned long long>(stream.signature),
                 stream.edges,
                 static_cast<unsigned long long>(tiny.signature),
                 tiny.edges, static_cast<unsigned long long>(gzr.signature),
                 gzr.edges);
    return 1;
  }
  std::printf("\nsignature %016llx (%zu edge instances) — identical for "
              "plain, 1 MiB window and gzip\n",
              static_cast<unsigned long long>(stream.signature),
              stream.edges);
  if (gzr.stats.inflate_us <= 0.0) {
    std::fprintf(stderr, "FAIL: gzip load measured no inflate time\n");
    return 1;
  }

  // Cold then warm through a cache directory emptied first, so the cold
  // load always parses and writes the cache the warm one must hit.
  const std::string cache_dir = (fs::path(gen.dir) / "dtdg_cache").string();
  fs::remove_all(cache_dir);
  const LoadRun cold = load_once(plain, wb, cache_dir);
  show("cache-cold", cold);
  const LoadRun warm = load_once(plain, wb, cache_dir);
  show("cached", warm);
  std::printf("cached load: key %.1f ms, cache read %.1f ms\n",
              warm.stats.read_us / 1e3, warm.stats.cache_us / 1e3);
  if (cold.stats.cache_hit || !warm.stats.cache_hit ||
      warm.signature != stream.signature || warm.edges != stream.edges) {
    std::fprintf(stderr,
                 "FAIL: cached load — cold hit %d, warm hit %d, "
                 "signature %016llx/%zu vs stream %016llx/%zu\n",
                 cold.stats.cache_hit ? 1 : 0, warm.stats.cache_hit ? 1 : 0,
                 static_cast<unsigned long long>(warm.signature), warm.edges,
                 static_cast<unsigned long long>(stream.signature),
                 stream.edges);
    return 1;
  }

  bench::JsonReport report("ingest_stream", flags);
  const auto record = [&](const char* method, const LoadRun& r) {
    models::TrainResult tr;
    tr.total_us = r.total_us;
    tr.transfer_us = r.stats.read_us + r.stats.inflate_us;
    tr.prep_us = r.stats.parse_us;
    tr.compute_us = r.stats.build_us;
    report.add("synthetic", "io", method, tr);
  };
  record("stream", stream);
  record("gzip", gzr);
  record("cached", warm);
  if (!report.write_if_requested()) return 1;
  return 0;
}
