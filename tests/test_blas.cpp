#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "numlib/blas.h"
#include "numlib/dgemm_kernels.h"
#include "numlib/linpack_driver.h"
#include "numlib/lu.h"
#include "numlib/matrix.h"

namespace ninf::numlib {
namespace {

TEST(Blas, Daxpy) {
  const std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  daxpy(2.0, x, y);
  EXPECT_EQ(y, (std::vector<double>{12, 24, 36}));
}

TEST(Blas, DaxpyZeroAlphaIsNoop) {
  const std::vector<double> x = {1, 2};
  std::vector<double> y = {5, 6};
  daxpy(0.0, x, y);
  EXPECT_EQ(y, (std::vector<double>{5, 6}));
}

TEST(Blas, DaxpyLengthMismatchThrows) {
  const std::vector<double> x = {1};
  std::vector<double> y = {1, 2};
  EXPECT_THROW(daxpy(1.0, x, y), std::logic_error);
}

TEST(Blas, Ddot) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(ddot(x, y), 32.0);
}

TEST(Blas, Dscal) {
  std::vector<double> x = {1, -2, 3};
  dscal(-2.0, x);
  EXPECT_EQ(x, (std::vector<double>{-2, 4, -6}));
}

TEST(Blas, IdamaxFindsLargestMagnitude) {
  const std::vector<double> x = {1.0, -7.0, 3.0, 6.9};
  EXPECT_EQ(idamax(x), 1u);
  EXPECT_EQ(idamax(std::span<const double>{}), 0u);
}

TEST(Blas, IdamaxFirstOfTies) {
  const std::vector<double> x = {-5.0, 5.0};
  EXPECT_EQ(idamax(x), 0u);
}

TEST(Blas, DgemmAccMatchesNaive) {
  const std::size_t m = 7, n = 5, k = 6;
  Matrix a(m, k), b(k, n), c(m, n), expected(m, n);
  SplitMix64 rng(3);
  for (double& v : a.flat()) v = rng.nextDouble() - 0.5;
  for (double& v : b.flat()) v = rng.nextDouble() - 0.5;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      double acc = 0;
      for (std::size_t p = 0; p < k; ++p) acc += a(i, p) * b(p, j);
      expected(i, j) = acc;
    }
  }
  dgemmAcc(m, n, k, a.data(), m, b.data(), k, c.data(), m);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(Blas, DgemmAccNegativeAlphaSubtracts) {
  Matrix a(2, 2), b(2, 2), c(2, 2);
  a(0, 0) = a(1, 1) = 1.0;  // identity
  b(0, 0) = 3.0;
  b(1, 1) = 4.0;
  c(0, 0) = 10.0;
  c(1, 1) = 10.0;
  dgemmAcc(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2, -1.0);
  EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 6.0);
}

TEST(Blas, DtrsmLowerUnitSolves) {
  // L = [1 0; 2 1]; B = L * X with X = [3; 4] => solve recovers X.
  Matrix l(2, 2);
  l(0, 0) = 1;
  l(1, 0) = 2;
  l(1, 1) = 1;
  std::vector<double> b = {3.0, 2.0 * 3.0 + 4.0};
  dtrsmLowerUnit(2, 1, l.data(), 2, b.data(), 2);
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], 4.0);
}

// Property tests of the level-3 kernels against naive loops.  Operands
// are windows of larger column-major buffers (leading dimension above the
// row count, as in LU's submatrix views); every cell outside the output
// window is a guard that must come back bit-identical.  The dgemmAcc
// properties are checked on every micro-kernel this CPU can run, not only
// on the one dgemmAcc picked.

// Around the 4- and 8-row tiles and their 1-3-row and -column edges.
constexpr std::size_t kShapes[] = {0,  1,  2,  3,  4,  5,  7,  8,
                                   9,  12, 15, 16, 17, 24, 31, 33};
constexpr double kAlphas[] = {1.0, -1.0, 0.5};

/// A rows x cols window at (kRowOffset, kColOffset) of a buffer with
/// leading dimension rows + kExtraRows and one spare column on each side.
struct Window {
  static constexpr std::size_t kRowOffset = 2;
  static constexpr std::size_t kExtraRows = 5;

  Window(std::size_t rows, std::size_t cols, SplitMix64& rng)
      : ld(rows + kExtraRows), buf(ld * (cols + 2)) {
    for (double& v : buf) v = rng.nextDouble() - 0.5;
  }
  double* data() { return buf.data() + ld + kRowOffset; }
  double& at(std::size_t i, std::size_t j) { return data()[i + j * ld]; }
  double at(std::size_t i, std::size_t j) const {
    return buf[ld + kRowOffset + i + j * ld];
  }

  std::size_t ld;
  std::vector<double> buf;
};

bool bitIdentical(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// Every cell of `after` outside the rows x cols window equals `before`
/// bit for bit.
void expectGuardsIntact(const Window& before, const Window& after,
                        std::size_t rows, std::size_t cols) {
  for (std::size_t idx = 0; idx < after.buf.size(); ++idx) {
    const std::size_t col = idx / after.ld;
    const std::size_t row = idx % after.ld;
    const bool inside = col >= 1 && col <= cols &&
                        row >= Window::kRowOffset &&
                        row < Window::kRowOffset + rows;
    if (!inside) {
      ASSERT_TRUE(bitIdentical(after.buf[idx], before.buf[idx]))
          << "guard cell " << idx << " changed";
    }
  }
}

TEST(BlasProperty, DgemmAccMatchesNaiveOverShapes) {
  for (const auto& kernel : detail::runnableDgemmKernels()) {
    SCOPED_TRACE(kernel.name);
    SplitMix64 rng(42);
    for (const std::size_t m : kShapes) {
      for (const std::size_t n : kShapes) {
        for (const std::size_t k : kShapes) {
          for (const double alpha : kAlphas) {
            SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n
                                              << " k=" << k << " alpha="
                                              << alpha);
            Window a(m, k, rng), b(k, n, rng), c(m, n, rng);
            const Window c0 = c;
            kernel.run(m, n, k, a.data(), a.ld, b.data(), b.ld, c.data(),
                       c.ld, alpha);
            for (std::size_t j = 0; j < n; ++j) {
              for (std::size_t i = 0; i < m; ++i) {
                double sum = 0.0, mag = 0.0;
                for (std::size_t p = 0; p < k; ++p) {
                  sum += a.at(i, p) * b.at(p, j);
                  mag += std::abs(a.at(i, p) * b.at(p, j));
                }
                const double expected = c0.at(i, j) + alpha * sum;
                ASSERT_NEAR(c.at(i, j), expected, 1e-14 * (1.0 + mag))
                    << "at (" << i << ", " << j << ")";
              }
            }
            expectGuardsIntact(c0, c, m, n);
          }
        }
      }
    }
  }
}

TEST(BlasProperty, DgemmAccZeroAlphaIgnoresNonFiniteA) {
  for (const auto& kernel : detail::runnableDgemmKernels()) {
    SplitMix64 rng(43);
    for (const std::size_t m : kShapes) {
      for (const std::size_t n : kShapes) {
        const std::size_t k = 5;
        Window a(m, k, rng), b(k, n, rng), c(m, n, rng);
        for (std::size_t i = 0; i < m; ++i) {
          a.at(i, 0) = std::numeric_limits<double>::quiet_NaN();
          a.at(i, k - 1) = std::numeric_limits<double>::infinity();
        }
        const Window c0 = c;
        kernel.run(m, n, k, a.data(), a.ld, b.data(), b.ld, c.data(), c.ld,
                   0.0);
        for (std::size_t idx = 0; idx < c.buf.size(); ++idx) {
          ASSERT_TRUE(bitIdentical(c.buf[idx], c0.buf[idx]))
              << kernel.name << " m=" << m << " n=" << n << " cell " << idx;
        }
      }
    }
  }
}

TEST(BlasKernels, PortableAlwaysRunsAndDgemmAccUsesTheLast) {
  const auto kernels = detail::runnableDgemmKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front().run, &detail::dgemmAccPortable);
  EXPECT_EQ(detail::selectedDgemmKernel().run, kernels.back().run);
  // dgemmAcc is the selected kernel, bit for bit.
  SplitMix64 rng(45);
  const std::size_t m = 17, n = 15, k = 12;
  Window a(m, k, rng), b(k, n, rng), c(m, n, rng);
  Window c2 = c;
  dgemmAcc(m, n, k, a.data(), a.ld, b.data(), b.ld, c.data(), c.ld, -1.0);
  detail::selectedDgemmKernel().run(m, n, k, a.data(), a.ld, b.data(), b.ld,
                                    c2.data(), c2.ld, -1.0);
  for (std::size_t idx = 0; idx < c.buf.size(); ++idx) {
    ASSERT_TRUE(bitIdentical(c.buf[idx], c2.buf[idx])) << "cell " << idx;
  }
}

/// Right-looking LU with partial pivoting in the storage convention dgesl
/// expects (whole rows swapped), in which every update runs on `kernel`:
/// inside a panel, column j gets (1 x 1) products for its U rows and one
/// (n-j) x 1 product for the rest; the U12 block takes 1-row products and
/// the trailing matrix one (n-k-nb)^2 x nb product per panel.
PivotVector luThroughKernel(const detail::DgemmKernel& kernel, Matrix& a,
                            std::size_t nb) {
  const std::size_t n = a.rows();
  double* d = a.data();
  const auto at = [&](std::size_t i, std::size_t j) { return d + i + j * n; };
  PivotVector ipvt(n);
  for (std::size_t k = 0; k < n; k += nb) {
    const std::size_t b = std::min(nb, n - k);
    for (std::size_t j = k; j < k + b; ++j) {
      for (std::size_t r = k + 1; r < j; ++r) {
        kernel.run(1, 1, r - k, at(r, k), n, at(k, j), n, at(r, j), n, -1.0);
      }
      kernel.run(n - j, 1, j - k, at(j, k), n, at(k, j), n, at(j, j), n,
                 -1.0);
      const std::size_t p = j + idamax({at(j, j), n - j});
      ipvt[j] = p;
      for (std::size_t c = 0; c < n; ++c) std::swap(*at(j, c), *at(p, c));
      for (std::size_t i = j + 1; i < n; ++i) *at(i, j) /= *at(j, j);
    }
    if (k + b >= n) break;
    const std::size_t rest = n - k - b;
    for (std::size_t r = k + 1; r < k + b; ++r) {
      kernel.run(1, rest, r - k, at(r, k), n, at(k, k + b), n, at(r, k + b),
                 n, -1.0);
    }
    kernel.run(rest, rest, b, at(k + b, k), n, at(k, k + b), n,
               at(k + b, k + b), n, -1.0);
  }
  return ipvt;
}

TEST(BlasKernels, EachKernelSolvesLinpack256) {
  // FMA rounds differently, so pivots and solutions may differ between
  // kernels; each must still meet the LINPACK residual bound.
  for (const auto& kernel : detail::runnableDgemmKernels()) {
    Matrix a = randomMatrix(256, 1256);
    const Matrix original = a;
    std::vector<double> x = onesRhs(a);
    const std::vector<double> rhs = x;
    const PivotVector ipvt = luThroughKernel(kernel, a, 32);
    dgesl(a, ipvt, x);
    EXPECT_LT(linpackResidual(original, x, rhs), kResidualThreshold)
        << kernel.name;
  }
}

TEST(BlasProperty, DtrsmLowerUnitMatchesNaiveOverShapes) {
  SplitMix64 rng(44);
  for (const std::size_t m : kShapes) {
    for (const std::size_t n : kShapes) {
      SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n);
      Window l(m, m, rng), b(m, n, rng);
      // The kernel may read only the strict lower triangle: the unit
      // diagonal is implied, and NaN elsewhere would poison the result.
      for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t i = 0; i <= j; ++i) {
          l.at(i, j) = std::numeric_limits<double>::quiet_NaN();
        }
      }
      const Window b0 = b;
      dtrsmLowerUnit(m, n, l.data(), l.ld, b.data(), b.ld);
      for (std::size_t j = 0; j < n; ++j) {
        // Naive forward substitution on a copy of column j.
        std::vector<double> x(m);
        double mag = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          double sum = b0.at(i, j);
          for (std::size_t p = 0; p < i; ++p) sum -= l.at(i, p) * x[p];
          x[i] = sum;
          mag = std::max(mag, std::abs(sum));
        }
        for (std::size_t i = 0; i < m; ++i) {
          ASSERT_NEAR(b.at(i, j), x[i], 1e-12 * (1.0 + mag))
              << "at (" << i << ", " << j << ")";
        }
      }
      expectGuardsIntact(b0, b, m, n);
    }
  }
}

}  // namespace
}  // namespace ninf::numlib
