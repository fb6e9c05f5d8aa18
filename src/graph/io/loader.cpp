#include "graph/io/loader.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "graph/io/dtdg_file.hpp"
#include "graph/io/stream_reader.hpp"
#include "graph/io/text_format.hpp"
#include "graph/snapshot_builder.hpp"

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
/// window) fails cleanly instead of building billions of snapshots.
constexpr long long kMaxStagedSnapshots = 1LL << 24;

/// The `nodes=N` plausibility guard: with an identity remap the loader
/// allocates features, targets and each snapshot's row offsets for all N
/// vertices, so a directive wildly exceeding what the edge set could touch
/// is treated as adversarial or corrupt input rather than honored with a
/// giant allocation. Monotone in `edge_rows`.
bool plausible_nodes(unsigned long long declared,
                     unsigned long long edge_rows) {
  constexpr unsigned long long kMinPlausibleNodes = 65536;
  constexpr unsigned long long kNodesPerEdgeSlack = 256;
  return declared <= std::max(kMinPlausibleNodes,
                              kNodesPerEdgeSlack * edge_rows);
}

/// Streams `path` through a 1 MiB buffer into a ContentHash (the file is
/// never held in memory whole).
ContentHash hash_file(const std::string& path) {
  std::ifstream is = open_input(path);
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

[[noreturn]] void throw_snapshot_cap(const std::string& path,
                                     const std::string& count) {
  throw Error(path + ": snapshotting produces " + count + " snapshots (cap " +
              std::to_string(kMaxStagedSnapshots) + ")");
}

/// The one snapshot-bucketing rule: the snapshot a row is born in, from its
/// timestamp. Rows arrive timestamp-sorted, so buckets never decrease.
///   declared  the file's `snapshots=S` (no snapshot option): bucket = t,
///             which must lie in [0, S); all S snapshots are built;
///   window    (t - t_min) / window for a fixed snapshot_window, or for the
///             snapshot_count window clamped to count - 1 (all count
///             snapshots are built);
///   rank      the timestamp's rank among the file's distinct timestamps.
/// Window and rank build up to the last row's bucket.
struct Bucketing {
  int declared = 0;               ///< The declared rule's S, else 0.
  int count = 0;                  ///< snapshot_count, else 0.
  unsigned long long window = 0;  ///< 0 under the declared and rank rules.
  long long t_min = 0;
  int last = -1;        ///< The last row's bucket.
  long long last_t = 0;  ///< The last row's timestamp (rank rule).

  int bucket(const std::string& path, long long t) {
    if (declared > 0) {
      if (t < 0 || t >= declared) {
        throw Error(path + ": timestamp " + std::to_string(t) +
                    " out of range for declared snapshots=" +
                    std::to_string(declared));
      }
      return last = static_cast<int>(t);
    }
    if (window == 0) {
      if (last < 0 || t != last_t) ++last;
      last_t = t;
      return last;
    }
    // Unsigned arithmetic: subtracting full-range 64-bit timestamps would
    // be signed-overflow UB, and the unsigned magnitude is exact.
    const auto b = (static_cast<unsigned long long>(t) -
                    static_cast<unsigned long long>(t_min)) /
                   window;
    if (count > 0) {
      return last = static_cast<int>(
                 std::min<unsigned long long>(count - 1, b));
    }
    if (b >= static_cast<unsigned long long>(kMaxStagedSnapshots)) {
      throw_snapshot_cap(path, std::to_string(b) + "+1");
    }
    return last = static_cast<int>(b);
  }

  int snapshots() const {
    return declared > 0 ? declared : count > 0 ? count : last + 1;
  }
};

/// Fixes the rule from the options and the file: its `snapshots=S`
/// directive (`declared`, <= 0 when absent), first and last timestamps and
/// distinct-timestamp count. The last two are read only by the rules that
/// need the whole file (snapshot_count and rank).
Bucketing fix_rule(const std::string& path, const LoadOptions& opts,
                   int declared, long long first_t, long long last_t,
                   long long distinct) {
  Bucketing rule;
  rule.t_min = first_t;
  if (opts.snapshot_count > 0) {
    rule.count = opts.snapshot_count;
    // floor(span/S) + 1 == ceil((span + 1) / S), without the +1 overflow —
    // except when span/S is itself ULLONG_MAX (S == 1 over the full 64-bit
    // range), where the +1 wraps to 0; saturate instead (bucket() clamps
    // to S-1, so one max-width window is exact).
    const auto span = static_cast<unsigned long long>(last_t) -
                      static_cast<unsigned long long>(first_t);
    rule.window = span / static_cast<unsigned long long>(rule.count) + 1;
    if (rule.window == 0) {
      rule.window = std::numeric_limits<unsigned long long>::max();
    }
  } else if (opts.snapshot_window > 0) {
    rule.window = static_cast<unsigned long long>(opts.snapshot_window);
  } else if (declared > 0) {
    rule.declared = declared;
  } else if (distinct > kMaxAutoSnapshots) {
    throw Error(path + ": " + std::to_string(distinct) +
                " distinct timestamps — pass snapshot_window/"
                "snapshot_count (--snapshot-window/--snapshots) to bucket "
                "them");
  }
  if (rule.snapshots() > kMaxStagedSnapshots) {
    throw_snapshot_cap(path, std::to_string(rule.snapshots()));
  }
  return rule;
}

/// The one feed loop, for both staging strategies: each row's declared
/// vertex range is checked, the row is bucketed, its death clamped, and
/// the instance added to the builder. Rows carry dense ids by now (raw ids
/// under `nodes=N`, where ids >= N are the error).
struct Feed {
  const std::string& path;
  int n;
  int edge_life;
  Bucketing rule;
  /// Weights are kept from the first row on, since the weight column may
  /// first appear in a later window; an unweighted file drops them.
  SnapshotBuilder builder;

  Feed(const std::string& p, int nodes, int life, Bucketing r)
      : path(p), n(nodes), edge_life(life), rule(r),
        builder(nodes, /*weighted=*/true) {}

  void add(const std::vector<TemporalEdge>& rows) {
    for (const TemporalEdge& e : rows) {
      if (e.src >= n || e.dst >= n) {
        throw Error(path + ": vertex id " +
                    std::to_string(std::max(e.src, e.dst)) +
                    " out of range for declared nodes=" + std::to_string(n));
      }
      const int s0 = rule.bucket(path, e.t);
      // The builder stops at the last snapshot, so a death past it is
      // never reached; the clamp only keeps it an int (s0 + edge_life can
      // exceed INT_MAX for huge lifetimes).
      const auto death = static_cast<int>(std::min<long long>(
          kMaxStagedSnapshots, static_cast<long long>(s0) + edge_life));
      builder.add(s0, death,
                  edge_key(Edge{static_cast<int>(e.src),
                                static_cast<int>(e.dst)}),
                  e.w);
    }
  }

  std::vector<Snapshot> finish(bool weighted) {
    std::vector<Snapshot> snaps = builder.finish(rule.snapshots());
    if (!weighted) {
      for (Snapshot& s : snaps) s.edge_w = std::vector<float>();
    }
    return snaps;
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
        opts.edge_life != 1 || !opts.features_path.empty() ||
        !opts.targets_path.empty()) {
      throw Error(path +
                  ": snapshotting/edge-life/feature/target options "
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
  // could use the key; a hit never reads the sidecars beyond that. The
  // edge file and the two sidecars hash as three pool tasks; the lowest
  // index's error wins, so errors name edges, features, targets in that
  // order at every width. A hit reads the cache one snapshot per task.
  std::uint64_t key = 0;
  if (!opts.cache_dir.empty()) {
    Timer rt;
    const std::string* inputs[] = {&path, &opts.features_path,
                                   &opts.targets_path};
    ContentHash digests[3];
    const auto digest = [&](std::size_t i) {
      if (i == 0 || !inputs[i]->empty()) digests[i] = hash_file(*inputs[i]);
    };
    if (p != nullptr) {
      p->parallel_for(3, digest);
    } else {
      for (std::size_t i = 0; i < 3; ++i) digest(i);
    }
    key = config_hash(digests[0], digests[1], digests[2], opts);
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

  // ---- Sidecars: opened (and sniffed) now, so a missing or binary one
  // fails before the edge parse; they are read once the vertex remap
  // exists. Holding them open through the parse would cost more RSS. ----
  for (const std::string* file : {&opts.features_path, &opts.targets_path}) {
    if (!file->empty()) StreamReader probe(*file);
  }

  // ---- Parse (windowed streaming, chunk-parallel per window) ----
  // Two staging strategies behind one sink, both feeding rows through one
  // Feed, so both bucket with the one rule:
  //   direct   integer ids with `nodes=N`, plus either a fixed
  //            snapshot_window or (no snapshot_window/snapshot_count) a
  //            `snapshots=S` directive — the shape our exporters write —
  //            all seen by the first window with rows: the rule is fixed
  //            there, and each window feeds the builder as it is parsed
  //            and is never retained, so memory stays bounded by the
  //            window plus the built snapshots, and files larger than RAM
  //            load. While `nodes=N` is implausible for the rows seen so
  //            far (at most N / 256 of them), rows are held back: a
  //            snapshot allocates N + 1 row offsets, so none is built
  //            before the EOF guard could pass;
  //   general  everything else: the rows are staged, and feed the builder
  //            after the remap, once the vertex set and the timestamp range
  //            are known at EOF, where the rule is fixed.
  Timer pt;
  StreamReader reader(path, opts.window_bytes);
  std::vector<TemporalEdge> staged;
  std::optional<Feed> feed;  // Direct staging: set by the first window.
  EdgeChunks held;
  bool decided = false;
  const EdgeSink sink = [&](const EdgeFile& hdr, EdgeChunks&& batch) {
    if (batch.empty()) return;
    if (!decided) {
      decided = true;
      if (!hdr.string_ids && opts.snapshot_count == 0 &&
          (opts.snapshot_window > 0 || hdr.declared_snapshots > 0) &&
          hdr.declared_nodes >= 0 &&
          hdr.declared_nodes <= std::numeric_limits<int>::max()) {
        const long long t0 = batch.front().front().t;
        feed.emplace(path, static_cast<int>(hdr.declared_nodes),
                     opts.edge_life,
                     fix_rule(path, opts, hdr.declared_snapshots, t0, t0, 1));
      }
    }
    if (!feed) {
      for (const std::vector<TemporalEdge>& c : batch) {
        staged.insert(staged.end(), c.begin(), c.end());
      }
      return;
    }
    for (std::vector<TemporalEdge>& c : batch) held.push_back(std::move(c));
    if (!plausible_nodes(static_cast<unsigned long long>(feed->n),
                         hdr.streamed_edges)) {
      return;
    }
    for (const std::vector<TemporalEdge>& c : held) feed->add(c);
    held.clear();
  };
  EdgeFile ef = parse_edge_stream(path, ext == ".csv", reader, p, sink);
  st.read_us += reader.read_us();
  st.inflate_us = reader.inflate_us();
  st.parse_us = std::max(
      0.0, pt.elapsed_us() - reader.read_us() - reader.inflate_us());
  st.parse_chunks = ef.parse_chunks;
  if (ef.streamed_edges == 0) throw Error(path + ": contains no edges");

  Timer bt;

  // ---- Vertex remapping ----
  // Staged rows are densified in place (the mapping rule); `remap` is
  // validation + the same rule, for sidecar files whose ids were not
  // vetted with the edge stream. Under `nodes=N` ids stay as they are, and
  // the feed checks them against N.
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
    for (TemporalEdge& e : staged) {
      e.src = name_perm[static_cast<std::size_t>(e.src)];
      e.dst = name_perm[static_cast<std::size_t>(e.dst)];
    }
  } else if (identity) {
    PIPAD_CHECK_MSG(ef.declared_nodes <= std::numeric_limits<int>::max(),
                    path << ": nodes directive out of range");
    const auto declared = static_cast<unsigned long long>(ef.declared_nodes);
    const auto edge_rows = static_cast<unsigned long long>(ef.streamed_edges);
    if (!plausible_nodes(declared, edge_rows)) {
      throw Error(path + ": declared nodes=" + std::to_string(declared) +
                  " is implausibly large for " + std::to_string(edge_rows) +
                  " edge row(s)");
    }
    n = static_cast<int>(ef.declared_nodes);
  } else {
    ids.reserve(staged.size() * 2);
    for (const TemporalEdge& e : staged) {
      ids.push_back(e.src);
      ids.push_back(e.dst);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    PIPAD_CHECK_MSG(ids.size() <=
                        static_cast<std::size_t>(std::numeric_limits<int>::max()),
                    path << ": too many distinct vertices");
    n = static_cast<int>(ids.size());
    for (TemporalEdge& e : staged) {
      e.src = std::lower_bound(ids.begin(), ids.end(), e.src) - ids.begin();
      e.dst = std::lower_bound(ids.begin(), ids.end(), e.dst) - ids.begin();
    }
  }
  VertexRemap remap;
  if (strings) {
    remap = [&sorted_names](std::string_view tok) {
      const std::string_view name = strip_quotes(tok);
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
  DTDG g;
  g.name = file_stem(path);
  g.num_nodes = n;
  g.sim_scale = 1;
  const bool direct_staged = feed.has_value();
  if (!feed) {
    long long distinct = 1;
    for (std::size_t i = 1; i < staged.size(); ++i) {
      if (staged[i].t != staged[i - 1].t) ++distinct;
    }
    feed.emplace(path, n, opts.edge_life,
                 fix_rule(path, opts, ef.declared_snapshots, staged.front().t,
                          staged.back().t, distinct));
    feed->add(staged);
    staged = std::vector<TemporalEdge>();  // Free the rows eagerly.
  }
  PIPAD_CHECK(held.empty());
  g.snapshots = feed->finish(ef.has_weights);
  feed.reset();  // Frees the live edge set.
  const int S = g.num_snapshots();

  // ---- Sidecar parse; their reads count as read time, not build time ----
  double sidecar_io_us = 0.0;
  const auto parse_sidecar = [&](const std::string& file, const auto& parse) {
    StreamReader in(file, opts.window_bytes);
    auto parsed = parse(file, in, remap, n, S, p);
    st.read_us += in.read_us();
    st.inflate_us += in.inflate_us();
    sidecar_io_us += in.read_us() + in.inflate_us();
    return parsed;
  };

  // ---- Features ----
  if (!opts.features_path.empty()) {
    FeatureFile ff = parse_sidecar(opts.features_path, parse_features);
    g.feat_dim = ff.dim;
    for (int t = 0; t < S; ++t) {
      g.snapshots[t].features =
          ff.temporal ? std::move(ff.per_snapshot[t]) : ff.static_feat;
    }
  } else {
    g.feat_dim = opts.feat_dim;
    Rng rng(opts.seed);
    ar1_features(g, rng);
  }

  // ---- Targets ----
  if (!opts.targets_path.empty()) {
    g.targets = parse_sidecar(opts.targets_path, parse_targets);
  }
  // Only after the sidecar files are parsed: `remap` binds sorted_names.
  g.vertex_names = std::move(sorted_names);

  // ---- Transposes and synthesized targets (pool-parallel) ----
  finish_snapshots(g, p);
  st.build_us = std::max(0.0, bt.elapsed_us() - sidecar_io_us);
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
                        << " chunks, " << (direct_staged ? "direct" : "general")
                        << " staging" << (reader.gzip() ? ", gzip" : "")
                        << ")");
  if (stats != nullptr) *stats = st;
  return g;
}

}  // namespace pipad::graph::io
