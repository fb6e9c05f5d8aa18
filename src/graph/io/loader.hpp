// On-disk temporal dataset ingestion: the layer between raw data files and
// the simulator's DTDG.
//
// `load_dataset` turns a timestamped edge-list (`src dst t [w]`), a
// temporal-graph CSV, or a binary `.dtdg` snapshot file into a
// graph::DTDG:
//
//   read      the file is pulled through a bounded StreamReader window
//             (default 8 MiB; `.gz` inputs are inflated transparently) —
//             the read buffer is bounded by the window, not the file size
//             (whether parsed rows are kept is the build step's call); the
//             sidecar files are opened before the edge parse and pulled
//             through the same windows after it. When a cache_dir is set,
//             the raw bytes of the dataset and of each sidecar file are
//             first XXH64-hashed in a separate streaming pass (the cache
//             key);
//   parse     chunk-parallel on the shared ComputePool (text formats),
//             window by window; results are bit-identical for any window
//             size and thread count;
//   remap     raw vertex ids are densified deterministically — ascending
//             raw-id order — unless the file declares `nodes=N`, which
//             pins an identity mapping and makes ids >= N an error;
//             string-id files (see text_format.hpp) remap the sorted
//             name set instead and record it in DTDG::vertex_names;
//   snapshot  edges are bucketed by timestamp, under one rule for both
//             build strategies below, into time windows
//             (snapshot_window), an exact window count (snapshot_count),
//             the file's `snapshots=S` directive, or — by default — one
//             snapshot per distinct timestamp; edge_life > 1 keeps each
//             edge instance alive for that many consecutive snapshots
//             (the ESDG smoothing the synthetic generators apply);
//   build     the edges feed one graph::SnapshotBuilder sweep in file
//             order (duplicate weights sum in that order) — during the
//             parse, window by window and never staged, for integer ids
//             + `nodes=N` + either a fixed snapshot_window or a
//             `snapshots=S` directive (what the exporters write); after
//             the remap otherwise. Transposes and targets then run as one
//             pool task per snapshot — the loaded DTDG is bit-identical
//             for any thread count;
//   cache     with cache_dir set, the result is written as a `.dtdg` file
//             keyed by a content+options hash; a later load with the same
//             inputs skips the parse and the sidecar reads entirely (logged
//             at debug level).
//
// Features come from an optional sidecar file (static or temporal; see
// text_format.hpp, windowed and parsed chunk-parallel on the pool, each
// window's rows written straight into the tensors) or are synthesized
// as a seeded AR(1) walk; targets come from a sidecar file or the
// generator's degree/feature/season blend.
// Every phase is wall-clock-measured into LoadStats for reporting
// (bench/ingest_stream, bench/e2e's per-layer spans). Ingest is real work
// only: it never reaches the modeled timeline.
#pragma once

#include <cstdint>
#include <string>

#include "common/thread_pool.hpp"
#include "graph/dtdg.hpp"

namespace pipad::graph::io {

struct LoadOptions {
  long long snapshot_window = 0;  ///< >0: fixed-width time windows.
  int snapshot_count = 0;         ///< >0: split the span into exactly K.
  int edge_life = 1;     ///< Consecutive snapshots an edge instance lives.
  int feat_dim = 2;      ///< Synthesized feature width (no features file);
                         ///< matches the CLI's --feat-dim default so every
                         ///< harness trains the same tensors by default.
  std::string features_path;  ///< Optional `# pipad-features` file.
  std::string targets_path;   ///< Optional `# pipad-targets` file.
  std::string cache_dir;      ///< Non-empty: `.dtdg` snapshot cache.
  std::uint64_t seed = 2023;    ///< Synthesized-feature RNG seed.
  /// Streaming window for text inputs, in bytes (0 = the StreamReader
  /// default, 8 MiB). Never changes the loaded DTDG — only peak memory —
  /// and is therefore excluded from the cache key.
  std::size_t window_bytes = 0;
};

/// Measured wall-clock of each load phase (real time, not simulated), plus
/// how wide the parallel phases fanned out.
struct LoadStats {
  double read_us = 0.0;    ///< Cache-key hashing + file reads; on a
                           ///< cache hit, the key's hashing time only.
  double inflate_us = 0.0;  ///< Gzip decompression (0 for plain inputs).
  double parse_us = 0.0;   ///< Chunk-parallel text parse (0 on cache hit);
                           ///< with direct staging it includes the
                           ///< snapshot sweep, which runs per window.
  double build_us = 0.0;  ///< Remap, snapshot sweep (general staging
                          ///< only), sidecar parse, features, transposes
                          ///< and targets.
  double cache_us = 0.0;  ///< Cache read (hit) or write (miss).
  bool cache_hit = false;
  std::size_t parse_chunks = 0;  ///< Parallel width of the parse phase.
  std::size_t build_tasks = 0;   ///< Parallel width of the build phase.
  std::size_t edges = 0;         ///< Edge instances summed over snapshots.
  std::string cache_path;        ///< Probed/written cache file (if any).
};

/// Load a dataset from disk. Format is picked by extension: `.csv` ->
/// temporal CSV, `.dtdg` -> binary snapshot file, anything else -> text
/// edge list. A trailing `.gz` is stripped first (`edges.csv.gz` parses as
/// gzip'd CSV); `.dtdg.gz` is rejected. The DTDG's name is the file's
/// stem (both extensions stripped). Throws Error on
/// malformed input. `pool` parallelizes parse/build (pass
/// &ComputePool::instance().pool(); nullptr = serial).
DTDG load_dataset(const std::string& path, const LoadOptions& opts = {},
                  ThreadPool* pool = nullptr, LoadStats* stats = nullptr);

/// `--dataset` values of the form "file:PATH" select on-disk loading.
inline bool is_file_dataset(const std::string& spec) {
  return spec.rfind("file:", 0) == 0;
}
inline std::string file_dataset_path(const std::string& spec) {
  return spec.substr(5);
}

}  // namespace pipad::graph::io
