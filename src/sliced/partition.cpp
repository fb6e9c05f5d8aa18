#include "sliced/partition.hpp"

#include <algorithm>

namespace pipad::sliced {

FramePartition build_partition(const graph::DTDG& g, int start, int count,
                               int slice_bound, ThreadPool* pool) {
  PIPAD_CHECK(start >= 0 && count > 0 &&
              start + count <= g.num_snapshots());
  FramePartition p;
  p.start = start;
  p.count = count;

  std::vector<const graph::CSR*> group;
  std::vector<const std::vector<float>*> weights;
  group.reserve(count);
  weights.reserve(count);
  for (int i = 0; i < count; ++i) {
    group.push_back(&g.snapshots[start + i].adj);
    weights.push_back(&g.snapshots[start + i].edge_w);
  }
  auto decomp = graph::decompose_group(group, weights);
  const bool weighted = !decomp.overlap_w.empty();

  p.exclusive.resize(count);
  p.exclusive_t.resize(count);
  if (weighted) {
    p.overlap_w_t.resize(count);
    p.exclusive_w_t.resize(count);
  }
  // Tasks 0/1 build the shared overlap (forward/transposed); tasks 2 + 2i
  // and 3 + 2i build member i's exclusive pair. Every task writes its own
  // slot and only reads `decomp`, so the parallel build is race-free and
  // bit-identical to serial. The forward weights move over afterwards.
  const auto build_one = [&](std::size_t task) {
    const std::size_t member = (task - 2) / 2;
    switch (task) {
      case 0:
        p.overlap = slice(decomp.overlap, slice_bound);
        break;
      case 1:
        p.overlap_t = slice(graph::transpose(decomp.overlap), slice_bound);
        if (weighted) {
          for (int m = 0; m < count; ++m) {
            p.overlap_w_t[m] =
                graph::transpose_weights(decomp.overlap, decomp.overlap_w[m]);
          }
        }
        break;
      default:
        if (task % 2 == 0) {
          p.exclusive[member] = slice(decomp.exclusive[member], slice_bound);
        } else {
          p.exclusive_t[member] =
              slice(graph::transpose(decomp.exclusive[member]), slice_bound);
          if (weighted) {
            p.exclusive_w_t[member] = graph::transpose_weights(
                decomp.exclusive[member], decomp.exclusive_w[member]);
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
  p.overlap_w = std::move(decomp.overlap_w);
  p.exclusive_w = std::move(decomp.exclusive_w);
  return p;
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
