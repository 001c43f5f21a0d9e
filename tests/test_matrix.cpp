#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "numlib/matrix.h"

namespace ninf::numlib {
namespace {

TEST(Matrix, ColumnMajorLayout) {
  Matrix a(3, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  a(0, 1) = 4;
  const auto flat = a.flat();
  EXPECT_EQ(flat[0], 1);
  EXPECT_EQ(flat[1], 2);
  EXPECT_EQ(flat[2], 3);
  EXPECT_EQ(flat[3], 4);
}

TEST(Matrix, BuiltFromColumnMajorValues) {
  const std::vector<double> values = {1, 2, 3, 4, 5, 6};
  const Matrix a(3, 2, values);
  EXPECT_EQ(a(2, 0), 3);
  EXPECT_EQ(a(0, 1), 4);
  EXPECT_TRUE(std::equal(values.begin(), values.end(), a.flat().begin()));
  EXPECT_THROW(Matrix(2, 2, values), std::logic_error);
}

TEST(Matrix, ColumnSpansAreContiguous) {
  Matrix a(4, 4);
  a(2, 3) = 7.0;
  EXPECT_EQ(a.col(3)[2], 7.0);
  a.col(1)[0] = -1.0;
  EXPECT_EQ(a(0, 1), -1.0);
}

TEST(Matrix, RandomMatrixDeterministicAndBounded) {
  const Matrix a = randomMatrix(32, 99);
  const Matrix b = randomMatrix(32, 99);
  EXPECT_EQ(a, b);
  for (double v : a.flat()) {
    EXPECT_GE(v, -0.5);
    EXPECT_LT(v, 0.5);
  }
  EXPECT_NE(a, randomMatrix(32, 100));
}

TEST(Matrix, MatVecIdentity) {
  Matrix eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye(i, i) = 1.0;
  const std::vector<double> x = {1.0, -2.0, 3.0};
  EXPECT_EQ(matVec(eye, x), x);
}

TEST(Matrix, MatVecKnownValues) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const std::vector<double> x = {5.0, 6.0};
  const auto y = matVec(a, x);
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Matrix, InfNormMaxRowSum) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = -2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  EXPECT_DOUBLE_EQ(infNorm(a), 7.0);
  const std::vector<double> v = {-9.0, 2.0};
  EXPECT_DOUBLE_EQ(infNorm(std::span<const double>(v)), 9.0);
}

TEST(Matrix, OnesRhsIsRowSums) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const auto b = onesRhs(a);
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], 7.0);
}

TEST(Matrix, LinpackFlopsFormula) {
  // 2/3 n^3 + 2 n^2 (paper, section 3.1).
  EXPECT_DOUBLE_EQ(linpackFlops(3), 2.0 / 3.0 * 27 + 2 * 9);
  EXPECT_NEAR(linpackFlops(1000), 6.686666e8, 1e3);
}

TEST(Matrix, ResidualOfExactSolutionIsTiny) {
  const Matrix a = randomMatrix(16, 5);
  std::vector<double> x(16, 1.0);
  const auto b = matVec(a, x);
  EXPECT_LT(linpackResidual(a, x, b), 1e-6);
}

}  // namespace
}  // namespace ninf::numlib
