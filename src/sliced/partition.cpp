#include "sliced/partition.hpp"

#include <algorithm>

namespace pipad::sliced {

namespace {

/// Weights of `part`'s edges (aligned with part.col_idx) looked up in a
/// member snapshot's (adj, edge_w). Every part edge exists in adj by the
/// decomposition invariant (overlap ∪ exclusive == member); columns are
/// sorted within each row, so the lookup is a binary search. An unweighted
/// member (empty w) gets a 1.0 fill so mixed groups can still share one
/// aggregation pass.
std::vector<float> part_weights(const graph::CSR& part, const graph::CSR& adj,
                                const std::vector<float>& w) {
  if (w.empty()) return std::vector<float>(part.nnz(), 1.0f);
  PIPAD_CHECK(w.size() == adj.nnz());
  std::vector<float> out(part.nnz());
  for (int r = 0; r < part.rows; ++r) {
    const auto row_lo = adj.col_idx.begin() + adj.row_ptr[r];
    const auto row_hi = adj.col_idx.begin() + adj.row_ptr[r + 1];
    for (int i = part.row_ptr[r]; i < part.row_ptr[r + 1]; ++i) {
      const auto it = std::lower_bound(row_lo, row_hi, part.col_idx[i]);
      PIPAD_CHECK_MSG(it != row_hi && *it == part.col_idx[i],
                      "part edge (" << part.col_idx[i] << "->" << r
                                    << ") missing from member adjacency");
      out[i] = w[it - adj.col_idx.begin()];
    }
  }
  return out;
}

}  // namespace

std::size_t FramePartition::unshared_topology_bytes() const {
  // Reconstruct each member's full size: overlap nnz + its exclusive nnz,
  // charged once per snapshot (plus transposes), as the one-at-a-time
  // baseline would ship it.
  std::size_t b = 0;
  for (std::size_t i = 0; i < exclusive.size(); ++i) {
    const std::size_t nnz = overlap.nnz() + exclusive[i].nnz();
    const std::size_t slices_est =
        overlap.num_slices() + exclusive[i].num_slices();
    const std::size_t one = (2 * nnz + 2 * slices_est + 1) * sizeof(int);
    b += 2 * one;  // forward + transpose
  }
  return b;
}

FramePartition build_partition(const graph::DTDG& g, int start, int count,
                               int slice_bound, ThreadPool* pool) {
  PIPAD_CHECK(start >= 0 && count > 0 &&
              start + count <= g.num_snapshots());
  FramePartition p;
  p.start = start;
  p.count = count;

  std::vector<const graph::CSR*> group;
  group.reserve(count);
  for (int i = 0; i < count; ++i) {
    group.push_back(&g.snapshots[start + i].adj);
  }

  auto decomp = graph::decompose_group(group);

  bool weighted = false;
  for (int i = 0; i < count; ++i) {
    weighted = weighted || g.snapshots[start + i].weighted();
  }

  p.exclusive.resize(count);
  p.exclusive_t.resize(count);
  if (weighted) {
    p.overlap_w.resize(count);
    p.overlap_w_t.resize(count);
    p.exclusive_w.resize(count);
    p.exclusive_w_t.resize(count);
  }
  // Tasks 0/1 build the shared overlap (forward/transposed); tasks 2 + 2i
  // and 3 + 2i build member i's exclusive pair. Every task writes its own
  // slot, so the parallel build is race-free and bit-identical to serial.
  // Weight fills live inside the task that owns the matching slot; task 1
  // recomputes the forward overlap weights itself rather than reading
  // task 0's output, which may not exist yet.
  const auto build_one = [&](std::size_t task) {
    const std::size_t member = (task - 2) / 2;
    switch (task) {
      case 0:
        p.overlap = slice(decomp.overlap, slice_bound);
        if (weighted) {
          for (int m = 0; m < count; ++m) {
            const auto& snap = g.snapshots[start + m];
            p.overlap_w[m] =
                part_weights(decomp.overlap, snap.adj, snap.edge_w);
          }
        }
        break;
      case 1:
        p.overlap_t = slice(graph::transpose(decomp.overlap), slice_bound);
        if (weighted) {
          for (int m = 0; m < count; ++m) {
            const auto& snap = g.snapshots[start + m];
            p.overlap_w_t[m] = graph::transpose_weights(
                decomp.overlap,
                part_weights(decomp.overlap, snap.adj, snap.edge_w));
          }
        }
        break;
      default:
        if (task % 2 == 0) {
          p.exclusive[member] = slice(decomp.exclusive[member], slice_bound);
          if (weighted) {
            const auto& snap = g.snapshots[start + static_cast<int>(member)];
            p.exclusive_w[member] =
                part_weights(decomp.exclusive[member], snap.adj, snap.edge_w);
          }
        } else {
          p.exclusive_t[member] =
              slice(graph::transpose(decomp.exclusive[member]), slice_bound);
          if (weighted) {
            const auto& snap = g.snapshots[start + static_cast<int>(member)];
            p.exclusive_w_t[member] = graph::transpose_weights(
                decomp.exclusive[member],
                part_weights(decomp.exclusive[member], snap.adj,
                             snap.edge_w));
          }
        }
    }
  };
  const std::size_t tasks = 2 + 2 * static_cast<std::size_t>(count);
  if (pool != nullptr) {
    pool->parallel_for(tasks, build_one);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) build_one(t);
  }
  return p;
}

std::vector<FramePartition> partition_frame(const graph::DTDG& g,
                                            const graph::Frame& frame,
                                            int s_per, int slice_bound) {
  PIPAD_CHECK(s_per > 0);
  std::vector<FramePartition> parts;
  int pos = frame.start;
  const int end = std::min(frame.end(), g.num_snapshots());
  while (pos < end) {
    const int take = std::min(s_per, end - pos);
    parts.push_back(build_partition(g, pos, take, slice_bound));
    pos += take;
  }
  return parts;
}

Tensor coalesce_features(const std::vector<const Tensor*>& feats) {
  PIPAD_CHECK(!feats.empty());
  const int n = feats[0]->rows();
  const int f = feats[0]->cols();
  for (const Tensor* t : feats) {
    PIPAD_CHECK_MSG(t->rows() == n && t->cols() == f,
                    "coalesce_features shape mismatch");
  }
  const int s = static_cast<int>(feats.size());
  Tensor out(n, f * s);
  for (int v = 0; v < n; ++v) {
    float* dst = out.row(v);
    for (int i = 0; i < s; ++i) {
      const float* src = feats[i]->row(v);
      std::copy(src, src + f, dst + static_cast<std::size_t>(i) * f);
    }
  }
  return out;
}

std::vector<Tensor> split_coalesced(const Tensor& coalesced, int parts) {
  PIPAD_CHECK(parts > 0 && coalesced.cols() % parts == 0);
  const int f = coalesced.cols() / parts;
  const int n = coalesced.rows();
  std::vector<Tensor> out;
  out.reserve(parts);
  for (int i = 0; i < parts; ++i) {
    Tensor t(n, f);
    for (int v = 0; v < n; ++v) {
      const float* src = coalesced.row(v) + static_cast<std::size_t>(i) * f;
      std::copy(src, src + f, t.row(v));
    }
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace pipad::sliced
