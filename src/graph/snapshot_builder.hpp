// Dataset construction shared by the synthetic generator and the on-disk
// loader: one incremental topology sweep, the AR(1) feature walk, and the
// per-snapshot transposes and regression targets.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/dtdg.hpp"

namespace pipad::graph {

/// Builds a DTDG's snapshots in order from edge instances, each alive in
/// snapshots [birth, death). Adjacent snapshots share most edges (§3.1), so
/// the live set stays sorted by key across snapshots: a step drops the
/// expired instances and merges in the newborn batch, sorted once — O(live)
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
  std::vector<std::uint64_t> keys_;  ///< The snapshot's distinct keys.
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
