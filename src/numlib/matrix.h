// Dense column-major matrix, the storage convention of LINPACK
// (dgefa/dgesl operate on columns; the paper's benchmark ships these
// matrices over Ninf RPC).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"

namespace ninf::numlib {

/// Column-major dense matrix of doubles.
/// Element (i, j) lives at data[i + j*rows] — the LINPACK/Fortran layout.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// A copy of `values`, already in column-major order (rows * cols of
  /// them).
  Matrix(std::size_t rows, std::size_t cols, std::span<const double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i + j * rows_];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i + j * rows_];
  }

  /// Column j as a contiguous span (valid because storage is column-major).
  std::span<double> col(std::size_t j) {
    return {data_.data() + j * rows_, rows_};
  }
  std::span<const double> col(std::size_t j) const {
    return {data_.data() + j * rows_, rows_};
  }

  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// n x n matrix with entries uniform in [-0.5, 0.5], the classic LINPACK
/// test-matrix fill (matgen).  Deterministic for a given seed.
Matrix randomMatrix(std::size_t n, std::uint64_t seed);

/// Right-hand side b = A * ones(n), so the reference solution is all-ones.
std::vector<double> onesRhs(const Matrix& a);

/// Infinity norm of a matrix (max absolute row sum).
double infNorm(const Matrix& a);
/// Infinity norm of a vector.
double infNorm(std::span<const double> v);

/// y = A*x (used by residual checks).
std::vector<double> matVec(const Matrix& a, std::span<const double> x);

/// LINPACK residual quality metric ||Ax - b||_inf / (||A||_inf ||x||_inf n eps).
/// A factorization is considered correct when this is O(1) (LINPACK accepts
/// values up to a few tens).
double linpackResidual(const Matrix& a, std::span<const double> x,
                       std::span<const double> b);

/// Floating-point operation count the paper uses for Linpack performance:
/// 2/3 n^3 + 2 n^2  (section 3.1).
double linpackFlops(std::size_t n);

}  // namespace ninf::numlib
