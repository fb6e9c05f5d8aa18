#include "graph/formats.hpp"

#include <algorithm>

namespace pipad::graph {

void CSR::validate() const {
  PIPAD_CHECK_MSG(static_cast<int>(row_ptr.size()) == rows + 1,
                  "row_ptr size " << row_ptr.size() << " vs rows " << rows);
  PIPAD_CHECK(row_ptr.front() == 0);
  PIPAD_CHECK(row_ptr.back() == static_cast<int>(col_idx.size()));
  // Every offset is checked before any col_idx read: a monotone row_ptr
  // that starts at 0 and ends at nnz keeps each row inside col_idx.
  for (int r = 0; r < rows; ++r) {
    PIPAD_CHECK_MSG(row_ptr[r] <= row_ptr[r + 1], "row_ptr not monotone at "
                                                      << r);
  }
  for (int r = 0; r < rows; ++r) {
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      PIPAD_CHECK_MSG(col_idx[i] >= 0 && col_idx[i] < cols,
                      "col out of range at row " << r);
      if (i > row_ptr[r]) {
        PIPAD_CHECK_MSG(col_idx[i - 1] < col_idx[i],
                        "cols not strictly sorted in row " << r);
      }
    }
  }
}

CSR csr_from_edges(int rows, int cols, const std::vector<Edge>& edges) {
  std::vector<std::uint64_t> keys;
  keys.reserve(edges.size());
  for (const auto& e : edges) {
    PIPAD_CHECK_MSG(e.src >= 0 && e.src < cols && e.dst >= 0 && e.dst < rows,
                    "edge (" << e.src << "->" << e.dst << ") out of range");
    keys.push_back(edge_key(e));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return csr_from_sorted_keys(rows, cols, keys);
}

CSR csr_from_sorted_keys(int rows, int cols,
                         const std::vector<std::uint64_t>& keys) {
  CSR csr;
  csr.rows = rows;
  csr.cols = cols;
  csr.row_ptr.assign(rows + 1, 0);
  csr.col_idx.reserve(keys.size());
  for (std::uint64_t k : keys) {
    const Edge e = key_edge(k);
    csr.row_ptr[e.dst + 1]++;
    csr.col_idx.push_back(e.src);
  }
  for (int r = 0; r < rows; ++r) csr.row_ptr[r + 1] += csr.row_ptr[r];
  return csr;
}

COO coo_from_csr(const CSR& csr) {
  COO coo;
  coo.rows = csr.rows;
  coo.cols = csr.cols;
  coo.row.reserve(csr.nnz());
  coo.col.reserve(csr.nnz());
  for (int r = 0; r < csr.rows; ++r) {
    for (int i = csr.row_ptr[r]; i < csr.row_ptr[r + 1]; ++i) {
      coo.row.push_back(r);
      coo.col.push_back(csr.col_idx[i]);
    }
  }
  return coo;
}

CSR csr_from_coo(const COO& coo) {
  std::vector<Edge> edges(coo.nnz());
  for (std::size_t i = 0; i < coo.nnz(); ++i) {
    edges[i] = {coo.col[i], coo.row[i]};
  }
  return csr_from_edges(coo.rows, coo.cols, edges);
}

CSR transpose(const CSR& csr) {
  CSR t;
  t.rows = csr.cols;
  t.cols = csr.rows;
  t.row_ptr.assign(t.rows + 1, 0);
  t.col_idx.assign(csr.nnz(), 0);
  for (int s : csr.col_idx) t.row_ptr[s + 1]++;
  for (int r = 0; r < t.rows; ++r) t.row_ptr[r + 1] += t.row_ptr[r];
  std::vector<int> cursor(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (int r = 0; r < csr.rows; ++r) {
    for (int i = csr.row_ptr[r]; i < csr.row_ptr[r + 1]; ++i) {
      t.col_idx[cursor[csr.col_idx[i]]++] = r;
    }
  }
  // Rows of the transpose are filled in increasing original-row order, so
  // each row's columns are already sorted.
  return t;
}

std::vector<float> transpose_weights(const CSR& csr,
                                     const std::vector<float>& w) {
  PIPAD_CHECK_MSG(w.size() == csr.nnz(),
                  "transpose_weights: " << w.size() << " weights vs "
                                        << csr.nnz() << " nnz");
  std::vector<int> row_ptr(csr.cols + 1, 0);
  for (int s : csr.col_idx) row_ptr[s + 1]++;
  for (int r = 0; r < csr.cols; ++r) row_ptr[r + 1] += row_ptr[r];
  std::vector<int> cursor(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<float> out(csr.nnz(), 0.0f);
  for (int r = 0; r < csr.rows; ++r) {
    for (int i = csr.row_ptr[r]; i < csr.row_ptr[r + 1]; ++i) {
      out[cursor[csr.col_idx[i]]++] = w[i];
    }
  }
  return out;
}

std::vector<std::uint64_t> edge_keys(const CSR& csr) {
  std::vector<std::uint64_t> keys;
  keys.reserve(csr.nnz());
  for (int r = 0; r < csr.rows; ++r) {
    for (int i = csr.row_ptr[r]; i < csr.row_ptr[r + 1]; ++i) {
      keys.push_back(edge_key(Edge{csr.col_idx[i], r}));
    }
  }
  // CSR iteration order (row-major, sorted cols) is already key order.
  return keys;
}

bool same_topology(const CSR& a, const CSR& b) {
  return a.rows == b.rows && a.cols == b.cols && a.row_ptr == b.row_ptr &&
         a.col_idx == b.col_idx;
}

}  // namespace pipad::graph
