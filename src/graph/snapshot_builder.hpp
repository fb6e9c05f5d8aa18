// Dataset construction shared by the synthetic generator and the on-disk
// loader: one incremental topology sweep, the radix sort that orders its
// batches, the AR(1) feature walk, and the per-snapshot transposes and
// regression targets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/dtdg.hpp"

namespace pipad::graph {

/// Stable LSD radix sort of `items` by their 64-bit `key` member, one key
/// byte per pass, ping-ponging through `scratch` (at least as long). One
/// read counts every byte's histogram; a byte every key shares needs no
/// pass. Equal keys keep their order.
template <class T>
void radix_sort_by_key(std::span<T> items, std::span<T> scratch) {
  const std::size_t n = items.size();
  std::size_t count[8][256] = {};
  for (const T& e : items) {
    for (int b = 0; b < 8; ++b) ++count[b][(e.key >> (8 * b)) & 0xFF];
  }
  T* src = items.data();
  T* dst = scratch.data();
  for (int b = 0; b < 8; ++b) {
    std::size_t* start = count[b];
    if (std::find(start, start + 256, n) != start + 256) continue;
    std::size_t sum = 0;
    for (int d = 0; d < 256; ++d) sum += std::exchange(start[d], sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[start[(src[i].key >> (8 * b)) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items.data()) std::copy(src, src + n, items.data());
}

/// Builds a DTDG's snapshots in order from edge instances, each alive in
/// snapshots [birth, death). Adjacent snapshots share most edges (§3.1), so
/// the live set stays sorted by key across snapshots: a step merges the
/// newborn batch, sorted once, into the live run and writes the CSR from
/// that one pass, dropping expired instances as it meets them — O(live)
/// per snapshot, not a re-sort. Duplicate keys collapse into one CSR entry;
/// when weighted, their weights sum in arrival (add() call) order.
class SnapshotBuilder {
 public:
  /// `weighted`: fill Snapshot::edge_w (empty otherwise).
  SnapshotBuilder(int num_nodes, bool weighted);

  /// Adds an instance. Births never decrease; every snapshot before
  /// `birth` is built first, so a later add() cannot reach it.
  void add(int birth, int death, std::uint64_t key, float w = 1.0f);

  /// Builds the snapshots up to `num_snapshots` and hands over all of them
  /// (adjacency and edge_w only); later instances are dropped.
  std::vector<Snapshot> finish(int num_snapshots);

 private:
  struct Instance {
    std::uint64_t key;
    int death;
    float w;
  };

  /// Builds snapshot out_.size() from the live run and the newborn batch.
  void build_next();

  int n_;
  bool weighted_;
  std::vector<Instance> live_;  ///< Sorted by key; equal keys by arrival.
  std::vector<Instance> born_, merged_;  ///< Newborn batch; merge scratch.
  std::vector<int> cols_;  ///< Scratch for the snapshot's col_idx ...
  std::vector<float> w_;   ///< ... and its summed weights.
  std::vector<Snapshot> out_;
};

/// Fills every snapshot's features with a seeded AR(1) walk plus a shared
/// seasonal term, drawing from `rng` serially in (t, v, d) order.
void ar1_features(DTDG& g, Rng& rng);

/// Transposes every snapshot and synthesizes each missing (empty) target:
/// normalized in-degree blended with the node's mean feature plus the
/// seasonal term, so any topology yields a learnable task. One pool task
/// per snapshot (`pool` may be null); the result is the same at any width.
void finish_snapshots(DTDG& g, ThreadPool* pool);

}  // namespace pipad::graph
