#include "sliced/sliced_csr.hpp"

#include <algorithm>
#include <cstdint>

namespace pipad::sliced {

namespace {

/// sliced_load_balance's model fed one slice at a time, so slice() computes
/// it inside its own loop: slice i adds its size to bin i % units. With
/// fewer slices than units every slice has a bin to itself, which is the
/// model's one-unit-per-slice case. Sizes are summed as integers, exactly,
/// like the costs they become.
class SliceBins {
 public:
  explicit SliceBins(int units) : bins_(static_cast<std::size_t>(units), 0) {}

  void add(int size) {
    bins_[next_] += size;
    total_ += size;
    if (++next_ == bins_.size()) next_ = 0;
    ++count_;
  }

  LoadBalance result() const {
    if (count_ == 0) return {};
    LoadBalance lb;
    lb.balanced_cost = static_cast<double>(total_) /
                       static_cast<double>(std::min(bins_.size(), count_));
    lb.actual_cost =
        static_cast<double>(*std::max_element(bins_.begin(), bins_.end()));
    return lb;
  }

 private:
  std::vector<std::int64_t> bins_;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
  std::int64_t total_ = 0;
};

}  // namespace

void SlicedCSR::validate() const {
  PIPAD_CHECK(slice_bound > 0);
  PIPAD_CHECK_MSG(slice_off.size() == row_idx.size() + 1,
                  "slice_off/row_idx size mismatch");
  PIPAD_CHECK(slice_off.empty() || slice_off.front() == 0);
  PIPAD_CHECK(slice_off.empty() ||
              slice_off.back() == static_cast<int>(col_idx.size()));
  for (std::size_t s = 0; s < num_slices(); ++s) {
    const int sz = slice_size(s);
    PIPAD_CHECK_MSG(sz > 0 && sz <= slice_bound,
                    "slice " << s << " size " << sz << " out of bounds");
    PIPAD_CHECK_MSG(row_idx[s] >= 0 && row_idx[s] < rows,
                    "slice " << s << " row out of range");
    if (s > 0) {
      PIPAD_CHECK_MSG(row_idx[s - 1] <= row_idx[s],
                      "slices not row-ordered at " << s);
    }
    for (int i = slice_off[s]; i < slice_off[s + 1]; ++i) {
      PIPAD_CHECK_MSG(col_idx[i] >= 0 && col_idx[i] < cols,
                      "col out of range in slice " << s);
      if (i > slice_off[s]) {
        PIPAD_CHECK_MSG(col_idx[i - 1] < col_idx[i],
                        "cols not sorted in slice " << s);
      }
    }
  }
}

SlicedCSR slice(const graph::CSR& csr, int bound) {
  PIPAD_CHECK(bound > 0);
  SlicedCSR s;
  s.rows = csr.rows;
  s.cols = csr.cols;
  s.slice_bound = bound;
  s.col_idx = csr.col_idx;
  s.slice_off.push_back(0);
  SliceBins bins(kBalanceUnits);
  for (int r = 0; r < csr.rows; ++r) {
    int remaining = csr.degree(r);
    int off = csr.row_ptr[r];
    while (remaining > 0) {
      const int take = std::min(remaining, bound);
      s.row_idx.push_back(r);
      off += take;
      s.slice_off.push_back(off);
      bins.add(take);
      remaining -= take;
    }
  }
  s.imbalance = bins.result().imbalance();
  return s;
}

graph::CSR unslice(const SlicedCSR& s) {
  graph::CSR csr;
  csr.rows = s.rows;
  csr.cols = s.cols;
  csr.row_ptr.assign(s.rows + 1, 0);
  csr.col_idx = s.col_idx;
  for (std::size_t i = 0; i < s.num_slices(); ++i) {
    csr.row_ptr[s.row_idx[i] + 1] += s.slice_size(i);
  }
  for (int r = 0; r < s.rows; ++r) csr.row_ptr[r + 1] += csr.row_ptr[r];
  return csr;
}

LoadBalance csr_load_balance(const graph::CSR& csr, int parallel_units) {
  PIPAD_CHECK(parallel_units > 0);
  // One warp per row; row cost ~ degree plus a small fixed visit cost
  // (row_ptr read — paid even by empty rows).
  // With fewer rows than blocks, each row is its own unit; the ideal cost
  // is then the mean row, not total/blocks (which would fabricate
  // imbalance out of low occupancy — that effect lives in the cost
  // model's occupancy term instead).
  const int units = std::max(1, std::min(parallel_units, csr.rows));
  std::vector<double> bins(units, 0.0);
  double total = 0.0;
  for (int r = 0; r < csr.rows; ++r) {
    const double w = csr.degree(r) + 0.25;
    bins[r % units] += w;
    total += w;
  }
  LoadBalance lb;
  lb.balanced_cost = total / units;
  lb.actual_cost = *std::max_element(bins.begin(), bins.end());
  return lb;
}

LoadBalance sliced_load_balance(const SlicedCSR& s, int parallel_units) {
  PIPAD_CHECK(parallel_units > 0);
  SliceBins bins(parallel_units);
  for (std::size_t i = 0; i < s.num_slices(); ++i) bins.add(s.slice_size(i));
  return bins.result();
}

}  // namespace pipad::sliced
