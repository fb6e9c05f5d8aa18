#include "graph/snapshot_builder.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/normal.hpp"

namespace pipad::graph {

namespace {

float season(int t) {
  return std::sin(2.0f * 3.14159265f * static_cast<float>(t) / 12.0f);
}

}  // namespace

SnapshotBuilder::SnapshotBuilder(int num_nodes, bool weighted)
    : n_(num_nodes), weighted_(weighted) {}

void SnapshotBuilder::add(int birth, int death, std::uint64_t key, float w) {
  PIPAD_CHECK(birth >= static_cast<int>(out_.size()) && death > birth);
  while (static_cast<int>(out_.size()) < birth) build_next();
  born_.push_back({key, death, w});
}

std::vector<Snapshot> SnapshotBuilder::finish(int num_snapshots) {
  while (static_cast<int>(out_.size()) < num_snapshots) build_next();
  return std::move(out_);
}

void SnapshotBuilder::build_next() {
  const int t = static_cast<int>(out_.size());
  const auto by_key = [](const Instance& a, const Instance& b) {
    return a.key < b.key;
  };
  // Generated batches and exported files come in key order already.
  if (!std::is_sorted(born_.begin(), born_.end(), by_key)) {
    merged_.resize(born_.size());
    radix_sort_by_key<Instance>(born_, merged_);
  }
  // One pass merges the newborn batch into the live run, drops expired
  // instances and writes the CSR: the merged run is in key order, so each
  // row's columns come sorted and the row counts only need a prefix sum.
  // Live entries come first on equal keys: they arrived earlier. Newborns
  // never expire here (death > birth == t). Columns and weights collect in
  // reused scratch and are copied out at their exact size, so a snapshot
  // keeps no spare capacity.
  merged_.clear();
  merged_.reserve(live_.size() + born_.size());
  cols_.clear();
  w_.clear();
  Snapshot& s = out_.emplace_back();
  s.adj.rows = s.adj.cols = n_;
  std::vector<int>& row_ptr = s.adj.row_ptr;
  row_ptr.assign(static_cast<std::size_t>(n_) + 1, 0);
  const auto take = [&](const Instance& e) {
    if (!merged_.empty() && merged_.back().key == e.key) {
      if (weighted_) w_.back() += e.w;
    } else {
      const Edge edge = key_edge(e.key);
      ++row_ptr[edge.dst + 1];
      cols_.push_back(edge.src);
      if (weighted_) w_.push_back(e.w);
    }
    merged_.push_back(e);
  };
  auto live = live_.cbegin();
  auto born = born_.cbegin();
  while (live != live_.cend()) {
    if (live->death <= t) {
      ++live;
    } else if (born == born_.cend() || !by_key(*born, *live)) {
      take(*live++);
    } else {
      take(*born++);
    }
  }
  while (born != born_.cend()) take(*born++);
  for (int r = 0; r < n_; ++r) row_ptr[r + 1] += row_ptr[r];
  s.adj.col_idx.assign(cols_.begin(), cols_.end());
  if (weighted_) s.edge_w.assign(w_.begin(), w_.end());
  live_.swap(merged_);
  born_.clear();
}

void ar1_features(DTDG& g, Rng& rng) {
  Tensor feat = Tensor::randn(g.num_nodes, g.feat_dim, rng, 1.0f);
  // Every snapshot steps each element, in row-major order, with one fresh
  // normal; they are drawn a block at a time.
  constexpr std::size_t kBlock = 256;
  float z[kBlock];
  float* x = feat.data();
  for (int t = 0; t < g.num_snapshots(); ++t) {
    const float s = season(t);
    for (std::size_t i = 0; i < feat.size(); i += kBlock) {
      const std::size_t m = std::min(kBlock, feat.size() - i);
      ops::fill_normal(rng, z, m);
      for (std::size_t j = 0; j < m; ++j) {
        x[i + j] = 0.92f * x[i + j] + 0.05f * z[j] + 0.03f * s;
      }
    }
    g.snapshots[t].features = feat;
  }
}

void finish_snapshots(DTDG& g, ThreadPool* pool) {
  const int S = g.num_snapshots();
  g.targets.resize(static_cast<std::size_t>(S));
  const auto finish_one = [&](std::size_t t) {
    Snapshot& snap = g.snapshots[t];
    snap.adj_t = transpose(snap.adj);
    Tensor& y = g.targets[t];
    if (!y.empty()) return;
    y = Tensor(g.num_nodes, 1);
    const float sea = season(static_cast<int>(t));
    for (int v = 0; v < g.num_nodes; ++v) {
      const float deg = static_cast<float>(snap.adj.degree(v));
      float fmean = 0.0f;
      for (int d = 0; d < g.feat_dim; ++d) fmean += snap.features.at(v, d);
      fmean /= static_cast<float>(g.feat_dim);
      y.at(v, 0) = 0.5f * std::log1p(deg) + 0.5f * fmean + 0.1f * sea;
    }
  };
  if (pool != nullptr && S > 1) {
    pool->parallel_for(static_cast<std::size_t>(S), finish_one);
  } else {
    for (int t = 0; t < S; ++t) finish_one(static_cast<std::size_t>(t));
  }
}

}  // namespace pipad::graph
