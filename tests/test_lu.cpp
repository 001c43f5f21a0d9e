// LU factorizations: the three library variants of the paper (reference
// dgefa/dgesl, blocked, data-parallel) must all solve to LINPACK accuracy
// and agree with each other.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "numlib/linpack_driver.h"
#include "numlib/lu.h"
#include "numlib/matrix.h"

namespace ninf::numlib {
namespace {

std::vector<double> solveWith(LuVariant variant, std::size_t n,
                              std::uint64_t seed, std::size_t workers = 4) {
  Matrix a = randomMatrix(n, seed);
  std::vector<double> b = onesRhs(a);
  luSolve(a, b, variant, workers);
  return b;
}

TEST(Lu, Dgefa2x2KnownSolution) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  std::vector<double> b = {5.0, 10.0};  // x = (1, 3)
  luSolve(a, b, LuVariant::Reference);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(Lu, DgefaPivotsOnZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  std::vector<double> b = {2.0, 3.0};  // x = (3, 2) after the swap
  luSolve(a, b, LuVariant::Reference);
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a(2, 2);  // all zeros
  EXPECT_THROW(dgefa(a), Error);
  Matrix b(3, 3);
  b(0, 0) = 1;
  b(1, 1) = 1;  // third column all zero
  EXPECT_THROW(dgefa(b), Error);
}

TEST(Lu, NonSquareRejected) {
  Matrix a(2, 3);
  EXPECT_THROW(dgefa(a), std::logic_error);
}

TEST(Lu, EmptyMatrixIsFine) {
  Matrix a(0, 0);
  EXPECT_TRUE(dgefa(a).empty());
}

TEST(Lu, OneByOne) {
  Matrix a(1, 1);
  a(0, 0) = 4.0;
  std::vector<double> b = {8.0};
  luSolve(a, b, LuVariant::Reference);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
}

TEST(Lu, VariantsAgreeBitForBitOnSolution) {
  // All three variants perform the same pivoting, so the solutions should
  // agree to rounding noise.
  const auto ref = solveWith(LuVariant::Reference, 96, 7);
  const auto blk = solveWith(LuVariant::Blocked, 96, 7);
  const auto par = solveWith(LuVariant::Parallel, 96, 7);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(blk[i], ref[i], 1e-8);
    EXPECT_NEAR(par[i], ref[i], 1e-8);
  }
}

TEST(Lu, BlockedHandlesSizeNotMultipleOfBlock) {
  // Blocks of 5 and 6 columns also put the kernels' 4-wide tiles off
  // their grid on every panel, U-panel solve and trailing update.
  for (const std::size_t nb : {8, 5, 6}) {
    Matrix a = randomMatrix(37, 11);
    const Matrix original = a;
    std::vector<double> b = onesRhs(a);
    const std::vector<double> rhs = b;
    const auto ipvt = luBlocked(a, nb);
    dgesl(a, ipvt, b);
    EXPECT_LT(linpackResidual(original, b, rhs), kResidualThreshold)
        << "nb=" << nb;
  }
}

TEST(Lu, BlockSizeLargerThanMatrix) {
  Matrix a = randomMatrix(5, 13);
  const Matrix original = a;
  std::vector<double> b = onesRhs(a);
  const std::vector<double> rhs = b;
  const auto ipvt = luBlocked(a, 64);
  dgesl(a, ipvt, b);
  EXPECT_LT(linpackResidual(original, b, rhs), kResidualThreshold);
}

class LuResidualTest
    : public ::testing::TestWithParam<std::tuple<LuVariant, std::size_t>> {};

TEST_P(LuResidualTest, SolvesToLinpackAccuracy) {
  const auto [variant, n] = GetParam();
  Matrix a = randomMatrix(n, 1000 + n);
  const Matrix original = a;
  std::vector<double> b = onesRhs(a);
  const std::vector<double> rhs = b;
  luSolve(a, b, variant, 4);
  const double resid = linpackResidual(original, b, rhs);
  EXPECT_LT(resid, kResidualThreshold) << "n=" << n;
  // The generated system has solution all-ones.
  for (double x : b) EXPECT_NEAR(x, 1.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LuResidualTest,
    ::testing::Combine(::testing::Values(LuVariant::Reference,
                                         LuVariant::Blocked,
                                         LuVariant::Parallel),
                       ::testing::Values<std::size_t>(1, 2, 3, 8, 17, 33, 64,
                                                      100, 200, 255, 256,
                                                      257)));

TEST(Dgeco, WellConditionedMatrixHasLargeRcond) {
  // Identity: condition number 1, rcond == 1.
  Matrix eye(8, 8);
  for (std::size_t i = 0; i < 8; ++i) eye(i, i) = 1.0;
  PivotVector ipvt;
  EXPECT_NEAR(dgeco(eye, ipvt), 1.0, 1e-12);
}

TEST(Dgeco, ScalingInvariance) {
  // rcond depends on conditioning, not scale: 1000*I is as good as I.
  Matrix a(6, 6);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) = 1000.0;
  PivotVector ipvt;
  EXPECT_NEAR(dgeco(a, ipvt), 1.0, 1e-12);
}

TEST(Dgeco, IllConditionedMatrixHasSmallRcond) {
  // Diagonal with a 1e-10 spread: condition number ~1e10.
  Matrix a(4, 4);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  a(2, 2) = 1.0;
  a(3, 3) = 1e-10;
  PivotVector ipvt;
  const double rcond = dgeco(a, ipvt);
  EXPECT_LT(rcond, 1e-8);
  EXPECT_GT(rcond, 1e-12);
}

TEST(Dgeco, OrderingDiscriminatesConditioning) {
  // A random matrix is far better conditioned than a nearly singular one.
  Matrix good = randomMatrix(24, 5);
  Matrix bad = randomMatrix(24, 5);
  // Make two rows of `bad` nearly identical.
  for (std::size_t j = 0; j < 24; ++j) {
    bad(1, j) = bad(0, j) * (1.0 + 1e-12);
  }
  PivotVector ipvt;
  const double rcond_good = dgeco(good, ipvt);
  const double rcond_bad = dgeco(bad, ipvt);
  EXPECT_GT(rcond_good, rcond_bad * 1e3);
}

TEST(Dgeco, FactorsRemainUsableWithDgesl) {
  Matrix a = randomMatrix(16, 9);
  const Matrix original = a;
  std::vector<double> b = onesRhs(a);
  PivotVector ipvt;
  const double rcond = dgeco(a, ipvt);
  EXPECT_GT(rcond, 0.0);
  dgesl(a, ipvt, b);
  for (double xi : b) EXPECT_NEAR(xi, 1.0, 1e-6);
}

TEST(Dgeco, SingularReturnsZero) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // third column/row zero -> dgefa throws... use try
  PivotVector ipvt;
  try {
    const double rcond = dgeco(a, ipvt);
    EXPECT_EQ(rcond, 0.0);
  } catch (const Error&) {
    SUCCEED();  // exact singularity may surface from dgefa instead
  }
}

TEST(LinpackDriver, ReportsPassingRun) {
  const LinpackReport report = runLinpack(64, LuVariant::Blocked);
  EXPECT_TRUE(report.passed);
  EXPECT_GT(report.mflops, 0.0);
  EXPECT_LT(report.residual, kResidualThreshold);
  EXPECT_EQ(report.n, 64u);
}

TEST(LinpackDriver, ParallelVariantUsesWorkers) {
  const LinpackReport report = runLinpack(200, LuVariant::Parallel, 4);
  EXPECT_TRUE(report.passed);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallelFor(1000, 8, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleWorkerRunsSequentially) {
  std::vector<std::size_t> order;
  parallelFor(10, 1, [&](std::size_t i) { order.push_back(i); });
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool ran = false;
  parallelFor(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, ExceptionPropagates) {
  EXPECT_THROW(parallelFor(100, 4,
                           [](std::size_t i) {
                             if (i == 50) throw std::runtime_error("bad");
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace ninf::numlib
