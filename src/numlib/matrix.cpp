#include "numlib/matrix.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace ninf::numlib {

Matrix::Matrix(std::size_t rows, std::size_t cols,
               std::span<const double> values)
    : rows_(rows), cols_(cols), data_(values.begin(), values.end()) {
  NINF_REQUIRE(values.size() == rows * cols, "matrix value count mismatch");
}

Matrix randomMatrix(std::size_t n, std::uint64_t seed) {
  Matrix a(n, n);
  SplitMix64 rng(seed);
  for (double& v : a.flat()) v = rng.nextDouble() - 0.5;
  return a;
}

std::vector<double> onesRhs(const Matrix& a) {
  std::vector<double> ones(a.cols(), 1.0);
  return matVec(a, ones);
}

double infNorm(const Matrix& a) {
  std::vector<double> row_sum(a.rows(), 0.0);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const auto col = a.col(j);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      row_sum[i] += std::abs(col[i]);
    }
  }
  double best = 0.0;
  for (double s : row_sum) best = std::max(best, s);
  return best;
}

double infNorm(std::span<const double> v) {
  double best = 0.0;
  for (double x : v) best = std::max(best, std::abs(x));
  return best;
}

std::vector<double> matVec(const Matrix& a, std::span<const double> x) {
  NINF_REQUIRE(x.size() == a.cols(), "matVec dimension mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double xj = x[j];
    const auto col = a.col(j);
    for (std::size_t i = 0; i < a.rows(); ++i) y[i] += col[i] * xj;
  }
  return y;
}

double linpackResidual(const Matrix& a, std::span<const double> x,
                       std::span<const double> b) {
  NINF_REQUIRE(x.size() == b.size() && x.size() == a.rows(),
               "residual dimension mismatch");
  const std::vector<double> ax = matVec(a, x);
  double resid = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    resid = std::max(resid, std::abs(ax[i] - b[i]));
  }
  const double denom = infNorm(a) * infNorm(x) *
                       static_cast<double>(a.rows()) *
                       std::numeric_limits<double>::epsilon();
  return denom > 0 ? resid / denom : resid;
}

double linpackFlops(std::size_t n) {
  const double dn = static_cast<double>(n);
  return 2.0 / 3.0 * dn * dn * dn + 2.0 * dn * dn;
}

}  // namespace ninf::numlib
