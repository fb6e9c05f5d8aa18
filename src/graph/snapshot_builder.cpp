#include "graph/snapshot_builder.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

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
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [t](const Instance& e) { return e.death <= t; }),
              live_.end());
  const auto by_key = [](const Instance& a, const Instance& b) {
    return a.key < b.key;
  };
  // Exported files list each snapshot in key order already. Otherwise an
  // LSD radix sort, one key byte per pass: it is stable, so equal keys keep
  // their arrival order. A byte every key shares needs no pass.
  if (!std::is_sorted(born_.begin(), born_.end(), by_key)) {
    merged_.resize(born_.size());
    for (int shift = 0; shift < 64; shift += 8) {
      std::size_t start[257] = {};
      for (const Instance& e : born_) ++start[((e.key >> shift) & 0xFF) + 1];
      if (std::find(start + 1, start + 257, born_.size()) != start + 257) {
        continue;
      }
      std::partial_sum(start, start + 257, start);
      for (const Instance& e : born_) {
        merged_[start[(e.key >> shift) & 0xFF]++] = e;
      }
      born_.swap(merged_);
    }
  }
  // Live entries come first on equal keys: they arrived earlier.
  merged_.clear();
  merged_.reserve(live_.size() + born_.size());
  std::merge(live_.begin(), live_.end(), born_.begin(), born_.end(),
             std::back_inserter(merged_), by_key);
  live_.swap(merged_);
  born_.clear();

  Snapshot& s = out_.emplace_back();
  if (weighted_) s.edge_w.reserve(live_.size());
  keys_.clear();
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (i > 0 && live_[i].key == live_[i - 1].key) {
      if (weighted_) s.edge_w.back() += live_[i].w;
    } else {
      keys_.push_back(live_[i].key);
      if (weighted_) s.edge_w.push_back(live_[i].w);
    }
  }
  s.adj = csr_from_sorted_keys(n_, n_, keys_);
}

void ar1_features(DTDG& g, Rng& rng) {
  Tensor feat = Tensor::randn(g.num_nodes, g.feat_dim, rng, 1.0f);
  for (int t = 0; t < g.num_snapshots(); ++t) {
    const float s = season(t);
    for (int v = 0; v < g.num_nodes; ++v) {
      for (int d = 0; d < g.feat_dim; ++d) {
        float x = feat.at(v, d);
        x = 0.92f * x + 0.05f * rng.normal() + 0.03f * s;
        feat.at(v, d) = x;
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
