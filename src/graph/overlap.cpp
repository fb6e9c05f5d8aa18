#include "graph/overlap.hpp"

#include <algorithm>

namespace pipad::graph {

std::vector<std::uint64_t> key_intersection(
    const std::vector<std::uint64_t>& a,
    const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<std::uint64_t> key_difference(
    const std::vector<std::uint64_t>& a,
    const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

double overlap_rate(const CSR& a, const CSR& b) {
  const auto ka = edge_keys(a);
  const auto kb = edge_keys(b);
  const std::size_t inter = key_intersection(ka, kb).size();
  const std::size_t uni = ka.size() + kb.size() - inter;
  return uni == 0 ? 1.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

OverlapDecomposition decompose_group(const std::vector<const CSR*>& group) {
  PIPAD_CHECK(!group.empty());
  const int rows = group[0]->rows;
  const int cols = group[0]->cols;
  for (const CSR* g : group) {
    PIPAD_CHECK_MSG(g->rows == rows && g->cols == cols,
                    "overlap group members must share shape");
  }

  std::vector<std::vector<std::uint64_t>> keys;
  keys.reserve(group.size());
  for (const CSR* g : group) keys.push_back(edge_keys(*g));

  std::vector<std::uint64_t> inter = keys[0];
  for (std::size_t i = 1; i < keys.size(); ++i) {
    inter = key_intersection(inter, keys[i]);
  }

  OverlapDecomposition out;
  out.overlap = csr_from_sorted_keys(rows, cols, inter);
  out.exclusive.reserve(group.size());
  for (const auto& k : keys) {
    out.exclusive.push_back(
        csr_from_sorted_keys(rows, cols, key_difference(k, inter)));
  }
  return out;
}

}  // namespace pipad::graph
