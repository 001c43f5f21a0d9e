#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "numlib/blas.h"
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
// window is a guard that must come back bit-identical.

constexpr std::size_t kShapes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 33};
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
          dgemmAcc(m, n, k, a.data(), a.ld, b.data(), b.ld, c.data(), c.ld,
                   alpha);
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

TEST(BlasProperty, DgemmAccZeroAlphaIgnoresNonFiniteA) {
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
      dgemmAcc(m, n, k, a.data(), a.ld, b.data(), b.ld, c.data(), c.ld, 0.0);
      for (std::size_t idx = 0; idx < c.buf.size(); ++idx) {
        ASSERT_TRUE(bitIdentical(c.buf[idx], c0.buf[idx]))
            << "m=" << m << " n=" << n << " cell " << idx;
      }
    }
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
