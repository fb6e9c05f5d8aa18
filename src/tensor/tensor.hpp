// Dense 2-D row-major float tensor.
//
// This is the numeric substrate for features, hidden states and weights. It
// is deliberately small: DGNN training needs matrices, elementwise maps and
// GEMM — nothing more. Real math runs here on the CPU; simulated cost is
// reported separately by the kernels layer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/normal.hpp"

namespace pipad {

class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols) : rows_(rows), cols_(cols) {
    PIPAD_CHECK_MSG(rows >= 0 && cols >= 0, "negative tensor shape");
    data_.assign(static_cast<std::size_t>(rows) * cols, 0.0f);
  }

  static Tensor zeros(int rows, int cols) { return Tensor(rows, cols); }

  static Tensor full(int rows, int cols, float v) {
    Tensor t(rows, cols);
    std::fill(t.data_.begin(), t.data_.end(), v);
    return t;
  }

  /// Gaussian init scaled by `stddev` (Glorot-style callers pass
  /// sqrt(2/(fan_in+fan_out))).
  static Tensor randn(int rows, int cols, Rng& rng, float stddev = 1.0f) {
    Tensor t(rows, cols);
    ops::fill_normal(rng, t.data(), t.size());
    for (auto& v : t.data_) v *= stddev;
    return t;
  }

  static Tensor uniform(int rows, int cols, Rng& rng, float lo, float hi) {
    Tensor t(rows, cols);
    for (auto& v : t.data_) v = rng.uniform(lo, hi);
    return t;
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  std::size_t bytes() const { return data_.size() * sizeof(float); }
  bool empty() const { return data_.empty(); }

  float& at(int r, int c) {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(int r) { return data_.data() + static_cast<std::size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_.data() + static_cast<std::size_t>(r) * cols_;
  }

  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  bool same_shape(const Tensor& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  std::string shape_str() const {
    // Built with append() rather than operator+ chains: GCC 12's -Wrestrict
    // fires a false positive on `const char* + std::string&&` at -O2
    // (GCC PR 105651), which -Werror turns fatal.
    std::string s = "[";
    s += std::to_string(rows_);
    s += 'x';
    s += std::to_string(cols_);
    s += ']';
    return s;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

}  // namespace pipad
