#include "graph/overlap.hpp"

#include <algorithm>

namespace pipad::graph {

double overlap_rate(const CSR& a, const CSR& b) {
  PIPAD_CHECK_MSG(a.rows == b.rows && a.cols == b.cols,
                  "overlap_rate operands must share shape");
  std::size_t inter = 0;
  for (int r = 0; r < a.rows; ++r) {
    int i = a.row_ptr[r];
    int j = b.row_ptr[r];
    while (i < a.row_ptr[r + 1] && j < b.row_ptr[r + 1]) {
      if (a.col_idx[i] < b.col_idx[j]) {
        ++i;
      } else if (b.col_idx[j] < a.col_idx[i]) {
        ++j;
      } else {
        ++inter;
        ++i;
        ++j;
      }
    }
  }
  const std::size_t uni = a.nnz() + b.nnz() - inter;
  return uni == 0 ? 1.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

OverlapDecomposition decompose_group(
    const std::vector<const CSR*>& group,
    const std::vector<const std::vector<float>*>& weights) {
  PIPAD_CHECK(!group.empty());
  PIPAD_CHECK(weights.empty() || weights.size() == group.size());
  const std::size_t k = group.size();
  const int rows = group[0]->rows;
  const int cols = group[0]->cols;
  bool weighted = false;
  for (std::size_t m = 0; m < k; ++m) {
    PIPAD_CHECK_MSG(group[m]->rows == rows && group[m]->cols == cols,
                    "overlap group members must share shape");
    if (!weights.empty() && !weights[m]->empty()) {
      PIPAD_CHECK(weights[m]->size() == group[m]->nnz());
      weighted = true;
    }
  }

  // Parts are written in place into buffers sized to an upper bound (the
  // overlap is no larger than member 0, an exclusive part no larger than
  // its member) and cut to size at the end. In a weighted group `w[m]` is
  // member m's weights, 1.0s for an unweighted member.
  OverlapDecomposition out;
  out.overlap = CSR{rows, cols, std::vector<int>(rows + 1, 0),
                    std::vector<int>(group[0]->nnz())};
  out.exclusive.reserve(k);
  out.overlap_w.reserve(weighted ? k : 0);
  out.exclusive_w.reserve(weighted ? k : 0);
  std::vector<std::vector<float>> ones;
  ones.reserve(k);
  std::vector<const float*> w(k, nullptr);
  for (std::size_t m = 0; m < k; ++m) {
    const std::size_t nnz = group[m]->nnz();
    out.exclusive.push_back(CSR{rows, cols, std::vector<int>(rows + 1, 0),
                                std::vector<int>(nnz)});
    if (!weighted) continue;
    out.overlap_w.emplace_back(group[0]->nnz());
    out.exclusive_w.emplace_back(nnz);
    if (weights[m]->empty()) ones.emplace_back(nnz, 1.0f);
    w[m] = weights[m]->empty() ? ones.back().data() : weights[m]->data();
  }

  int* shared = out.overlap.col_idx.data();
  std::size_t hi = 0;  // End of the shared columns written so far.
  for (int r = 0; r < rows; ++r) {
    // The row's shared columns: member 0's row, intersected in place with
    // every other member's (branch-free: a column is kept when both lists
    // hold it, and each list steps past its smaller head).
    const std::size_t lo = hi;
    const CSR& first = *group[0];
    hi = lo + static_cast<std::size_t>(first.degree(r));
    std::copy(first.col_idx.begin() + first.row_ptr[r],
              first.col_idx.begin() + first.row_ptr[r + 1], shared + lo);
    for (std::size_t m = 1; m < k && hi > lo; ++m) {
      const int* col = group[m]->col_idx.data();
      int j = group[m]->row_ptr[r];
      const int j_end = group[m]->row_ptr[r + 1];
      std::size_t kept = lo;
      for (std::size_t i = lo; i < hi && j < j_end;) {
        const int a = shared[i];
        const int b = col[j];
        shared[kept] = a;
        kept += a == b;
        i += a <= b;
        j += b <= a;
      }
      hi = kept;
    }
    out.overlap.row_ptr[r + 1] = static_cast<int>(hi);

    // Each member's row splits along the shared columns, a subsequence of
    // it: a shared entry's weight goes to the overlap, any other entry and
    // its weight to the member's exclusive part. Both slots are written and
    // only one cursor advances; past the last shared column the rest of
    // the row is exclusive.
    for (std::size_t m = 0; m < k; ++m) {
      const int* col = group[m]->col_idx.data();
      int* excl = out.exclusive[m].col_idx.data();
      int i = group[m]->row_ptr[r];
      int e = out.exclusive[m].row_ptr[r];
      for (std::size_t o = lo; o < hi; ++i) {
        const bool is_shared = shared[o] == col[i];
        excl[e] = col[i];
        if (weighted) {
          out.overlap_w[m][o] = w[m][i];
          out.exclusive_w[m][e] = w[m][i];
        }
        e += !is_shared;
        o += is_shared;
      }
      const int tail = group[m]->row_ptr[r + 1] - i;
      std::copy(col + i, col + i + tail, excl + e);
      if (weighted) {
        std::copy(w[m] + i, w[m] + i + tail, out.exclusive_w[m].data() + e);
      }
      out.exclusive[m].row_ptr[r + 1] = e + tail;
    }
  }

  // Partitions keep the weight arrays for their lifetime, so those also
  // give back the unused capacity.
  out.overlap.col_idx.resize(hi);
  for (std::size_t m = 0; m < k; ++m) {
    out.exclusive[m].col_idx.resize(out.exclusive[m].row_ptr[rows]);
    if (weighted) {
      out.overlap_w[m].resize(hi);
      out.overlap_w[m].shrink_to_fit();
      out.exclusive_w[m].resize(out.exclusive[m].nnz());
      out.exclusive_w[m].shrink_to_fit();
    }
  }
  return out;
}

}  // namespace pipad::graph
