#pragma once
// A dense 2-D array of doubles over an inclusive index rectangle
// [lo_i, hi_i] x [lo_j, hi_j], with bounds-checked access. The rectangle
// includes a halo around the iteration domain so boundary reads (e.g.
// a[i-2][j-1] at i=0) hit well-defined initial values.

#include <cstdint>
#include <vector>

#include "support/diagnostics.hpp"

namespace lf::exec {

class Array2D {
  public:
    static constexpr const char* kOutOfBounds = "Array2D: index out of bounds (halo too small?)";

    Array2D() = default;
    Array2D(std::int64_t lo_i, std::int64_t hi_i, std::int64_t lo_j, std::int64_t hi_j)
        : lo_i_(lo_i), lo_j_(lo_j), rows_(hi_i - lo_i + 1), cols_(hi_j - lo_j + 1) {
        check(rows_ > 0 && cols_ > 0, "Array2D: empty index rectangle");
        data_.assign(static_cast<std::size_t>(rows_ * cols_), 0.0);
    }

    [[nodiscard]] bool in_bounds(std::int64_t i, std::int64_t j) const {
        return i >= lo_i_ && i < lo_i_ + rows_ && j >= lo_j_ && j < lo_j_ + cols_;
    }

    [[nodiscard]] double at(std::int64_t i, std::int64_t j) const {
        return data_[index(i, j)];
    }

    void set(std::int64_t i, std::int64_t j, double v) { data_[index(i, j)] = v; }

    /// Linear offset of (i, j) within this array; the cache simulator treats
    /// it as the element address relative to the array base.
    [[nodiscard]] std::int64_t linear_index(std::int64_t i, std::int64_t j) const {
        return static_cast<std::int64_t>(index(i, j));
    }

    /// The cells in row-major order (linear_index order).
    [[nodiscard]] double* data() { return data_.data(); }
    [[nodiscard]] const double* data() const { return data_.data(); }

    [[nodiscard]] std::int64_t size() const { return rows_ * cols_; }
    [[nodiscard]] std::int64_t lo_i() const { return lo_i_; }
    [[nodiscard]] std::int64_t lo_j() const { return lo_j_; }
    [[nodiscard]] std::int64_t rows() const { return rows_; }
    [[nodiscard]] std::int64_t cols() const { return cols_; }

  private:
    [[nodiscard]] std::size_t index(std::int64_t i, std::int64_t j) const {
        check(in_bounds(i, j), kOutOfBounds);
        return static_cast<std::size_t>((i - lo_i_) * cols_ + (j - lo_j_));
    }

    std::int64_t lo_i_ = 0;
    std::int64_t lo_j_ = 0;
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::vector<double> data_;
};

}  // namespace lf::exec
