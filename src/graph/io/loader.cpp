#include "graph/io/loader.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "graph/io/dtdg_file.hpp"
#include "graph/io/stream_reader.hpp"
#include "graph/io/text_format.hpp"

namespace pipad::graph::io {

namespace fs = std::filesystem;

namespace {

/// Bumped whenever the loader's semantics change, so stale caches from an
/// older code version never match. v3: windowed streaming parse, string
/// vertex ids (names persist through `.dtdg` v3), gzip inputs. v4: the key
/// hashes file contents with XXH64 instead of FNV-1a.
constexpr std::uint64_t kLoaderVersion = 4;

/// Default snapshotting (one snapshot per distinct timestamp) refuses to
/// explode on epoch-style timestamps; callers must pick a window instead.
constexpr int kMaxAutoSnapshots = 4096;

/// Hard cap on snapshot counts from any mode — matches the `.dtdg` reader's
/// kMaxSnapshots, so a `snapshots=2000000000` directive (or an absurd
/// window) fails cleanly instead of allocating per-snapshot staging for
/// billions of buckets.
constexpr long long kMaxStagedSnapshots = 1LL << 24;

/// `nodes=N` plausibility guard: with an identity remap the loader
/// allocates features/targets for all N vertices, so a directive wildly
/// exceeding what the edge set could touch is treated as adversarial or
/// corrupt input rather than honored with a giant allocation.
constexpr unsigned long long kMinPlausibleNodes = 65536;
constexpr unsigned long long kNodesPerEdgeSlack = 256;

/// Streams `path` through a 1 MiB buffer into a ContentHash (the file is
/// never held in memory whole).
ContentHash hash_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("cannot open " + path);
  std::vector<char> buf(1u << 20);
  ContentHash h;
  for (;;) {
    is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (is.bad()) throw Error(path + ": read error");
    if (got == 0) break;
    h.update(buf.data(), got);
  }
  return h;
}

/// The cache key: loader version, the dataset's digest and size, then per
/// sidecar its presence bit, digest and size (an absent sidecar hashes as
/// empty), then every option that shapes the loaded DTDG.
std::uint64_t config_hash(const ContentHash& data, const ContentHash& feat,
                          const ContentHash& targ, const LoadOptions& o) {
  std::uint64_t h = fnv1a_u64(kLoaderVersion);
  h = fnv1a_u64(data.digest(), h);
  h = fnv1a_u64(data.size(), h);
  // Presence bits: an *absent* sidecar file must key differently from an
  // empty one (the latter is a parse error a warm cache must not mask).
  h = fnv1a_u64(o.features_path.empty() ? 0 : 1, h);
  h = fnv1a_u64(feat.digest(), h);
  h = fnv1a_u64(feat.size(), h);
  h = fnv1a_u64(o.targets_path.empty() ? 0 : 1, h);
  h = fnv1a_u64(targ.digest(), h);
  h = fnv1a_u64(targ.size(), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(o.snapshot_window), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(o.snapshot_count), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(o.edge_life), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(o.feat_dim), h);
  h = fnv1a_u64(o.add_self_loops ? 1u : 0u, h);
  h = fnv1a_u64(o.seed, h);
  // window_bytes is deliberately NOT hashed: the window size never changes
  // the loaded DTDG (bit-identical by construction), so any window may
  // serve any cached result.
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return s;
}

std::string file_stem(const std::string& path) {
  fs::path p(path);
  if (p.extension() == ".gz") p = p.stem();
  const std::string stem = p.stem().string();
  return stem.empty() ? std::string("dataset") : stem;
}

/// A pool usable from this thread (nested pool calls run inline instead).
ThreadPool* usable_pool(ThreadPool* pool) {
  return (pool != nullptr && ThreadPool::current_pool() == nullptr) ? pool
                                                                    : nullptr;
}

/// The generator's regression target: normalized in-degree blended with
/// the node's mean feature plus a shared seasonal term, so any on-disk
/// topology yields a learnable task even without a targets file.
void synthesize_target(const Snapshot& snap, int t, int feat_dim,
                       Tensor& out) {
  const int n = snap.adj.rows;
  const float season =
      std::sin(2.0f * 3.14159265f * static_cast<float>(t) / 12.0f);
  for (int v = 0; v < n; ++v) {
    const float deg = static_cast<float>(snap.adj.degree(v));
    float fmean = 0.0f;
    for (int d = 0; d < feat_dim; ++d) fmean += snap.features.at(v, d);
    fmean /= static_cast<float>(feat_dim);
    out.at(v, 0) = 0.5f * std::log1p(deg) + 0.5f * fmean + 0.1f * season;
  }
}

std::string_view strip_quotes_sv(std::string_view t) {
  if (t.size() >= 2 && t.front() == '"' && t.back() == '"') {
    t.remove_prefix(1);
    t.remove_suffix(1);
  }
  return t;
}

[[noreturn]] void throw_snapshot_cap(const std::string& path, long long s) {
  throw Error(path + ": snapshotting produces " + std::to_string(s) +
              " snapshots (cap " + std::to_string(kMaxStagedSnapshots) + ")");
}

/// Bounded-memory staging for the common big-file shape: integer ids,
/// `nodes=N` declared up front, a fixed snapshot_window. Edges are bucketed
/// into per-snapshot key/weight stages window by window and never retained,
/// so peak memory is the staged keys (~edge instances), not the edge list
/// plus the stages. Produces byte-identical stages to the general path: the
/// bucket arithmetic is the same, and the trailing truncation reproduces
/// S = bucket(t_max) + 1 (timestamps are sorted, so buckets past the last
/// real one only ever come from edge_life spill, which the general path
/// clamps at S).
struct DirectStager {
  const std::string& path;
  int n = 0;
  unsigned long long window = 0;
  int edge_life = 1;
  bool weights = false;
  bool have_first_t = false;
  long long t_min = 0;
  int max_s0 = -1;
  std::vector<std::vector<std::uint64_t>> keys_at;
  std::vector<std::vector<float>> w_at;

  explicit DirectStager(const std::string& p) : path(p) {}

  void feed(const std::vector<TemporalEdge>& batch, bool has_weights) {
    if (has_weights && !weights) {
      // The weight column first appeared in this window: earlier rows get
      // the implicit 1.0, exactly as the general path stages them.
      weights = true;
      w_at.resize(keys_at.size());
      for (std::size_t s = 0; s < keys_at.size(); ++s) {
        w_at[s].assign(keys_at[s].size(), 1.0f);
      }
    }
    for (const TemporalEdge& e : batch) {
      if (e.src >= n || e.dst >= n) {
        throw Error(path + ": vertex id " +
                    std::to_string(std::max(e.src, e.dst)) +
                    " out of range for declared nodes=" + std::to_string(n));
      }
      if (!have_first_t) {
        have_first_t = true;
        t_min = e.t;
      }
      const auto bucket = (static_cast<unsigned long long>(e.t) -
                           static_cast<unsigned long long>(t_min)) /
                          window;
      if (bucket >= static_cast<unsigned long long>(
                        std::numeric_limits<int>::max())) {
        throw Error(path + ": snapshot_window produces " +
                    std::to_string(bucket) + "+1 snapshots");
      }
      const auto s0 = static_cast<int>(bucket);
      if (s0 >= kMaxStagedSnapshots) throw_snapshot_cap(path, bucket + 1);
      max_s0 = std::max(max_s0, s0);
      const std::uint64_t key64 = edge_key(
          Edge{static_cast<int>(e.src), static_cast<int>(e.dst)});
      const auto s_end = static_cast<int>(std::min<long long>(
          kMaxStagedSnapshots, static_cast<long long>(s0) + edge_life));
      if (static_cast<std::size_t>(s_end) > keys_at.size()) {
        keys_at.resize(static_cast<std::size_t>(s_end));
        if (weights) w_at.resize(static_cast<std::size_t>(s_end));
      }
      for (int s = s0; s < s_end; ++s) {
        keys_at[static_cast<std::size_t>(s)].push_back(key64);
        if (weights) w_at[static_cast<std::size_t>(s)].push_back(e.w);
      }
    }
  }

  /// Final snapshot count; drops edge_life spill past the last real bucket
  /// (the general path never stages those either).
  int finish() {
    const int S = max_s0 + 1;
    keys_at.resize(static_cast<std::size_t>(S));
    if (weights) w_at.resize(static_cast<std::size_t>(S));
    return S;
  }
};

}  // namespace

DTDG load_dataset(const std::string& path, const LoadOptions& opts,
                  ThreadPool* pool, LoadStats* stats) {
  PIPAD_CHECK_MSG(!(opts.snapshot_window > 0 && opts.snapshot_count > 0),
                  "snapshot_window and snapshot_count are mutually exclusive");
  PIPAD_CHECK_MSG(opts.edge_life >= 1, "edge_life must be >= 1");
  PIPAD_CHECK_MSG(opts.feat_dim >= 1, "feat_dim must be >= 1");
  ThreadPool* p = usable_pool(pool);
  LoadStats st;

  fs::path fsp(path);
  const bool gz = fsp.extension() == ".gz";
  const std::string ext =
      (gz ? fs::path(fsp.stem()) : fsp).extension().string();
  if (ext == ".dtdg") {
    if (gz) {
      throw Error(path +
                  ": gzip-compressed .dtdg files are not supported (the "
                  "binary format is already compact; store it uncompressed)");
    }
    // Direct binary dataset: already snapshotted, featured and targeted —
    // options that would reshape it are errors, not silently dropped.
    if (opts.snapshot_count > 0 || opts.snapshot_window > 0 ||
        opts.edge_life != 1 || opts.add_self_loops ||
        !opts.features_path.empty() || !opts.targets_path.empty()) {
      throw Error(path +
                  ": snapshotting/edge-life/self-loop/feature/target options "
                  "do not apply to binary .dtdg files (re-export the source "
                  "data to reshape it)");
    }
    Timer rt;
    DTDG g = read_dtdg(path, p);
    st.read_us = rt.elapsed_us();
    st.build_tasks = static_cast<std::size_t>(g.num_snapshots());
    st.edges = g.total_edges();
    if (stats != nullptr) *stats = st;
    PIPAD_DEBUG("loaded binary dataset " << path << ": " << g.num_nodes
                                         << " vertices, " << st.edges
                                         << " edge instances, "
                                         << g.num_snapshots() << " snapshots");
    return g;
  }

  // ---- Cache key + probe ----
  // Every input file is hashed in a streaming pass, and only when a cache
  // could use the key; a hit never reads the sidecars beyond that.
  std::uint64_t key = 0;
  if (!opts.cache_dir.empty()) {
    Timer rt;
    const auto digest = [](const std::string& file) {
      return file.empty() ? ContentHash() : hash_file(file);
    };
    key = config_hash(hash_file(path), digest(opts.features_path),
                      digest(opts.targets_path), opts);
    st.read_us = rt.elapsed_us();
    st.cache_path =
        (fs::path(opts.cache_dir) / (file_stem(path) + "-" + hex16(key) +
                                     ".dtdg"))
            .string();
    std::error_code ec;
    if (fs::exists(st.cache_path, ec)) {
      Timer ct;
      try {
        std::uint64_t stored = 0;
        DTDG g = read_dtdg(st.cache_path, p, &stored);
        if (stored == key) {
          st.cache_us = ct.elapsed_us();
          st.cache_hit = true;
          st.build_tasks = static_cast<std::size_t>(g.num_snapshots());
          st.edges = g.total_edges();
          if (stats != nullptr) *stats = st;
          PIPAD_DEBUG("dataset cache hit for " << path << " at "
                                               << st.cache_path << " ("
                                               << g.num_snapshots()
                                               << " snapshots, " << st.edges
                                               << " edge instances)");
          return g;
        }
        PIPAD_DEBUG("dataset cache stale for " << path << " at "
                                               << st.cache_path);
      } catch (const std::exception& e) {
        // Any corruption — including bad_alloc/length_error from a header
        // that requests an absurd allocation — is a miss, never an abort.
        PIPAD_WARN("ignoring unreadable dataset cache " << st.cache_path
                                                        << ": " << e.what());
      }
    }
  }

  // ---- Sidecars (read whole only without a cache hit; parsed below, once
  // the vertex remap exists) ----
  Timer rt;
  const std::string feat_content =
      opts.features_path.empty() ? std::string() : read_file(opts.features_path);
  const std::string targ_content =
      opts.targets_path.empty() ? std::string() : read_file(opts.targets_path);
  st.read_us += rt.elapsed_us();

  // ---- Parse (windowed streaming, chunk-parallel per window) ----
  // Two staging strategies behind one sink:
  //   general  the edges accumulate and everything below runs exactly as
  //            the old slurp path did (needed whenever the vertex set or
  //            snapshot range is only known at EOF);
  //   direct   integer ids + `nodes=N` in the first window + a fixed
  //            snapshot_window: edges go straight into per-snapshot stages
  //            and are never retained, so memory stays bounded by the
  //            window plus the staged keys — files larger than RAM load.
  Timer pt;
  StreamReader reader(path, opts.window_bytes);
  std::vector<TemporalEdge> all;
  DirectStager stager(path);
  bool decided = false;
  bool direct = false;
  const EdgeSink sink = [&](const EdgeFile& hdr,
                            std::vector<TemporalEdge>&& batch) {
    if (!decided) {
      decided = true;
      direct = !hdr.string_ids && opts.snapshot_count == 0 &&
               opts.snapshot_window > 0 && hdr.declared_nodes >= 0 &&
               hdr.declared_nodes <= std::numeric_limits<int>::max();
      if (direct) {
        stager.n = static_cast<int>(hdr.declared_nodes);
        stager.window =
            static_cast<unsigned long long>(opts.snapshot_window);
        stager.edge_life = opts.edge_life;
      }
    }
    if (direct) {
      stager.feed(batch, hdr.has_weights);
    } else if (all.empty()) {
      all = std::move(batch);
    } else {
      all.insert(all.end(), batch.begin(), batch.end());
    }
  };
  EdgeFile ef = ext == ".csv"
                    ? parse_temporal_csv_stream(path, reader, p, sink)
                    : parse_edge_list_stream(path, reader, p, sink);
  ef.edges = std::move(all);
  st.read_us += reader.read_us();
  st.inflate_us = reader.inflate_us();
  st.parse_us = std::max(
      0.0, pt.elapsed_us() - reader.read_us() - reader.inflate_us());
  st.parse_chunks = ef.parse_chunks;
  if (ef.streamed_edges == 0) throw Error(path + ": contains no edges");

  Timer bt;

  // ---- Vertex remapping ----
  // `dense` is THE mapping rule (unchecked — callers guarantee the id is
  // mappable); `remap` is validation + dense, for sidecar files whose ids
  // were not vetted with the edge stream.
  int n = 0;
  std::vector<long long> ids;  // Sorted unique raw ids (remapped mode).
  std::vector<int> name_perm;  // Arrival id -> dense id (string-id mode).
  std::vector<std::string> sorted_names;
  const bool strings = ef.string_ids;
  const bool identity = !strings && ef.declared_nodes >= 0;
  if (strings) {
    PIPAD_CHECK_MSG(ef.names.size() <=
                        static_cast<std::size_t>(
                            std::numeric_limits<int>::max()),
                    path << ": too many distinct vertices");
    n = static_cast<int>(ef.names.size());
    // Deterministic dense order: ascending by name (independent of arrival
    // order, therefore of window size and pool width — though those are
    // already deterministic — and stable under edge reordering).
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return ef.names[static_cast<std::size_t>(a)] <
             ef.names[static_cast<std::size_t>(b)];
    });
    name_perm.resize(static_cast<std::size_t>(n));
    sorted_names.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      const int arrival = order[static_cast<std::size_t>(r)];
      name_perm[static_cast<std::size_t>(arrival)] = r;
      sorted_names[static_cast<std::size_t>(r)] =
          std::move(ef.names[static_cast<std::size_t>(arrival)]);
    }
  } else if (identity) {
    PIPAD_CHECK_MSG(ef.declared_nodes <= std::numeric_limits<int>::max(),
                    path << ": nodes directive out of range");
    // Plausibility: features/targets allocate for all N declared vertices,
    // so a directive the edge set cannot remotely justify is rejected as
    // corrupt/adversarial input instead of honored with a huge allocation.
    const auto declared = static_cast<unsigned long long>(ef.declared_nodes);
    const auto edge_rows = static_cast<unsigned long long>(ef.streamed_edges);
    if (declared > std::max(kMinPlausibleNodes,
                            kNodesPerEdgeSlack * edge_rows)) {
      throw Error(path + ": declared nodes=" + std::to_string(declared) +
                  " is implausibly large for " + std::to_string(edge_rows) +
                  " edge row(s)");
    }
    n = static_cast<int>(ef.declared_nodes);
    for (const TemporalEdge& e : ef.edges) {
      if (e.src >= n || e.dst >= n) {
        throw Error(path + ": vertex id " +
                    std::to_string(std::max(e.src, e.dst)) +
                    " out of range for declared nodes=" + std::to_string(n));
      }
    }
  } else {
    ids.reserve(ef.edges.size() * 2);
    for (const TemporalEdge& e : ef.edges) {
      ids.push_back(e.src);
      ids.push_back(e.dst);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    PIPAD_CHECK_MSG(ids.size() <=
                        static_cast<std::size_t>(std::numeric_limits<int>::max()),
                    path << ": too many distinct vertices");
    n = static_cast<int>(ids.size());
  }
  const auto dense = [&](long long id) {
    if (strings) return name_perm[static_cast<std::size_t>(id)];
    if (identity) return static_cast<int>(id);
    return static_cast<int>(std::lower_bound(ids.begin(), ids.end(), id) -
                            ids.begin());
  };
  VertexRemap remap;
  if (strings) {
    remap = [&sorted_names](std::string_view tok) {
      const std::string_view name = strip_quotes_sv(tok);
      const auto it = std::lower_bound(
          sorted_names.begin(), sorted_names.end(), name,
          [](const std::string& a, std::string_view b) {
            return std::string_view(a) < b;
          });
      if (it == sorted_names.end() || std::string_view(*it) != name) {
        throw Error("vertex id '" + escape_token(name) +
                    "' does not appear in the edge file");
      }
      return static_cast<int>(it - sorted_names.begin());
    };
  } else {
    const auto parse_id = [](std::string_view tok) {
      long long id = 0;
      const auto [pe, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), id);
      if (ec != std::errc{} || pe != tok.data() + tok.size()) {
        throw Error("malformed vertex id '" + escape_token(tok) + "'");
      }
      return id;
    };
    if (identity) {
      remap = [n, parse_id](std::string_view tok) {
        const long long id = parse_id(tok);
        if (id < 0 || id >= n) {
          throw Error("vertex id " + std::to_string(id) +
                      " out of range for declared nodes=" + std::to_string(n));
        }
        return static_cast<int>(id);
      };
    } else {
      remap = [&ids, parse_id](std::string_view tok) {
        const long long id = parse_id(tok);
        if (!std::binary_search(ids.begin(), ids.end(), id)) {
          throw Error("vertex id " + std::to_string(id) +
                      " does not appear in the edge file");
        }
        return static_cast<int>(
            std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
      };
    }
  }

  // ---- Snapshotting ----
  int S = 0;
  std::vector<std::vector<std::uint64_t>> keys_at;
  std::vector<std::vector<float>> w_at;
  if (direct) {
    S = stager.finish();
    keys_at = std::move(stager.keys_at);
    w_at = std::move(stager.w_at);
  } else {
    const long long t_min = ef.edges.front().t;
    const long long t_max = ef.edges.back().t;
    // Window arithmetic runs on the unsigned span: subtraction of
    // full-range 64-bit timestamps would be signed-overflow UB, and the
    // unsigned magnitude is always exact (t_max >= t_min).
    const auto uspan = static_cast<unsigned long long>(t_max) -
                       static_cast<unsigned long long>(t_min);
    unsigned long long window = 0;  // 0 = distinct-t or declared-index mode.
    bool declared_index = false;
    if (opts.snapshot_count > 0) {
      S = opts.snapshot_count;
      // floor(uspan/S) + 1 == ceil((uspan + 1) / S), without the +1
      // overflow — except when uspan/S is itself ULLONG_MAX (S == 1 over
      // the full 64-bit range), where the +1 wraps to 0; saturate instead
      // (the staging loop clamps bucket indices to S-1, so one max-width
      // window is exact).
      window = uspan / static_cast<unsigned long long>(S) + 1;
      if (window == 0) {
        window = std::numeric_limits<unsigned long long>::max();
      }
    } else if (opts.snapshot_window > 0) {
      window = static_cast<unsigned long long>(opts.snapshot_window);
      // Highest bucket index first: `uspan / window + 1` itself can wrap.
      const unsigned long long buckets = uspan / window;
      if (buckets >= static_cast<unsigned long long>(
                         std::numeric_limits<int>::max())) {
        throw Error(path + ": snapshot_window produces " +
                    std::to_string(buckets) + "+1 snapshots");
      }
      S = static_cast<int>(buckets) + 1;
    } else if (ef.declared_snapshots > 0) {
      S = ef.declared_snapshots;
      declared_index = true;
      if (t_min < 0 || t_max >= S) {
        throw Error(path + ": timestamp " +
                    std::to_string(t_min < 0 ? t_min : t_max) +
                    " out of range for declared snapshots=" +
                    std::to_string(S));
      }
    } else {
      // One snapshot per distinct timestamp.
      long long distinct = 1;
      for (std::size_t i = 1; i < ef.edges.size(); ++i) {
        if (ef.edges[i].t != ef.edges[i - 1].t) ++distinct;
      }
      if (distinct > kMaxAutoSnapshots) {
        throw Error(path + ": " + std::to_string(distinct) +
                    " distinct timestamps — pass snapshot_window/"
                    "snapshot_count (--snapshot-window/--snapshots) to bucket "
                    "them");
      }
      S = static_cast<int>(distinct);
    }
    if (S > kMaxStagedSnapshots) throw_snapshot_cap(path, S);

    // Stage every snapshot's raw edge keys; the edges are timestamp-sorted,
    // so distinct-timestamp ranks advance monotonically in one walk. When
    // the file carries a weight column, weights are staged in lockstep (in
    // file order, so the dedup-sum below is order-deterministic).
    keys_at.resize(static_cast<std::size_t>(S));
    if (ef.has_weights) w_at.resize(static_cast<std::size_t>(S));
    int rank = 0;
    long long rank_t = t_min;
    for (const TemporalEdge& e : ef.edges) {
      int s0;
      if (declared_index) {
        s0 = static_cast<int>(e.t);
      } else if (window > 0) {
        const auto bucket = (static_cast<unsigned long long>(e.t) -
                             static_cast<unsigned long long>(t_min)) /
                            window;
        s0 = static_cast<int>(std::min<unsigned long long>(
            static_cast<unsigned long long>(S) - 1, bucket));
      } else {
        if (e.t != rank_t) {
          ++rank;
          rank_t = e.t;
        }
        s0 = rank;
      }
      const std::uint64_t key64 = edge_key(Edge{dense(e.src), dense(e.dst)});
      // long long: s0 + edge_life can exceed INT_MAX for huge lifetimes.
      const int s_end = static_cast<int>(std::min<long long>(
          S, static_cast<long long>(s0) + opts.edge_life));
      for (int s = s0; s < s_end; ++s) {
        keys_at[static_cast<std::size_t>(s)].push_back(key64);
        if (ef.has_weights) w_at[static_cast<std::size_t>(s)].push_back(e.w);
      }
    }
    ef.edges = std::vector<TemporalEdge>();  // Free the edge list eagerly.
  }
  const bool weighted = direct ? stager.weights : ef.has_weights;

  // ---- Features ----
  DTDG g;
  g.name = file_stem(path);
  g.num_nodes = n;
  g.sim_scale = 1;
  g.snapshots.resize(static_cast<std::size_t>(S));
  g.targets.resize(static_cast<std::size_t>(S));
  if (!opts.features_path.empty()) {
    FeatureFile ff =
        parse_features(opts.features_path, feat_content, remap, n, S);
    g.feat_dim = ff.dim;
    for (int t = 0; t < S; ++t) {
      g.snapshots[t].features =
          ff.temporal ? std::move(ff.per_snapshot[t]) : ff.static_feat;
    }
  } else {
    // Seeded AR(1) walk with a shared seasonal term — the same shape the
    // synthetic generators produce. All RNG draws happen here, serially,
    // so the result is independent of the pool width.
    g.feat_dim = opts.feat_dim;
    Rng rng(opts.seed);
    Tensor feat = Tensor::randn(n, g.feat_dim, rng, 1.0f);
    for (int t = 0; t < S; ++t) {
      const float season =
          std::sin(2.0f * 3.14159265f * static_cast<float>(t) / 12.0f);
      for (int v = 0; v < n; ++v) {
        for (int d = 0; d < g.feat_dim; ++d) {
          float x = feat.at(v, d);
          x = 0.92f * x + 0.05f * rng.normal() + 0.03f * season;
          feat.at(v, d) = x;
        }
      }
      g.snapshots[t].features = feat;
    }
  }

  // ---- Targets ----
  std::vector<Tensor> file_targets;
  if (!opts.targets_path.empty()) {
    file_targets = parse_targets(opts.targets_path, targ_content, remap, n, S);
  }
  // Only after the sidecar files are parsed: `remap` binds sorted_names.
  g.vertex_names = std::move(sorted_names);

  // ---- Per-snapshot build (pool-parallel, width-independent) ----
  const bool self_loops = opts.add_self_loops;
  const auto build_one = [&](std::size_t t) {
    auto& keys = keys_at[t];
    Snapshot& snap = g.snapshots[t];
    if (weighted) {
      // Dedup-sum: duplicate instances of an edge add their weights, and a
      // self-loop contributes +1 on top of any real (v, v) weight —
      // \tilde{A} = A + I, weighted. stable_sort keeps equal keys in file
      // order, so the float sums are bit-identical for any pool width.
      auto& ws = w_at[t];
      std::vector<std::pair<std::uint64_t, float>> kw;
      kw.reserve(keys.size() + (self_loops ? static_cast<std::size_t>(n) : 0));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        kw.emplace_back(keys[i], ws[i]);
      }
      if (self_loops) {
        for (int v = 0; v < n; ++v) {
          kw.emplace_back(edge_key(Edge{v, v}), 1.0f);
        }
      }
      std::stable_sort(kw.begin(), kw.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      keys.clear();
      snap.edge_w.clear();
      for (const auto& [ekey, w] : kw) {
        if (!keys.empty() && keys.back() == ekey) {
          snap.edge_w.back() += w;
        } else {
          keys.push_back(ekey);
          snap.edge_w.push_back(w);
        }
      }
      ws = std::vector<float>();  // Free staged weights eagerly.
    } else {
      if (self_loops) {
        keys.reserve(keys.size() + static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v) keys.push_back(edge_key(Edge{v, v}));
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
    snap.adj = csr_from_sorted_keys(n, n, keys);
    snap.adj_t = transpose(snap.adj);
    keys = std::vector<std::uint64_t>();  // Free staged keys eagerly.
    if (file_targets.empty()) {
      Tensor y(n, 1);
      synthesize_target(snap, static_cast<int>(t), g.feat_dim, y);
      g.targets[t] = std::move(y);
    } else {
      g.targets[t] = std::move(file_targets[t]);
    }
  };
  if (p != nullptr && S > 1) {
    p->parallel_for(static_cast<std::size_t>(S), build_one);
  } else {
    for (int t = 0; t < S; ++t) build_one(static_cast<std::size_t>(t));
  }
  st.build_us = bt.elapsed_us();
  st.build_tasks = static_cast<std::size_t>(S);
  st.edges = g.total_edges();

  // ---- Cache write ----
  if (!st.cache_path.empty()) {
    Timer ct;
    std::error_code ec;
    fs::create_directories(opts.cache_dir, ec);
    if (ec) {
      PIPAD_WARN("cannot create cache dir " << opts.cache_dir << ": "
                                            << ec.message());
    } else {
      write_dtdg(g, st.cache_path, key);
      st.cache_us = ct.elapsed_us();
      PIPAD_DEBUG("dataset cache write for " << path << " at "
                                             << st.cache_path);
    }
  }

  PIPAD_DEBUG("loaded " << path << ": " << n << " vertices, " << st.edges
                        << " edge instances, " << S << " snapshots, feat dim "
                        << g.feat_dim << " (parse " << st.parse_chunks
                        << " chunks, " << (direct ? "direct" : "general")
                        << " staging" << (reader.gzip() ? ", gzip" : "")
                        << ")");
  if (stats != nullptr) *stats = st;
  return g;
}

}  // namespace pipad::graph::io
