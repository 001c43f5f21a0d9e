// Level-1/3 BLAS kernels used by the LU factorizations.
// Signatures follow the reference BLAS but take spans; strides are always 1
// because our matrices are column-contiguous.
#pragma once

#include <cstddef>
#include <span>

namespace ninf::numlib {

/// y += alpha * x.
void daxpy(double alpha, std::span<const double> x, std::span<double> y);

/// dot(x, y).
double ddot(std::span<const double> x, std::span<const double> y);

/// x *= alpha.
void dscal(double alpha, std::span<double> x);

/// Index of the element of largest magnitude; 0 for empty input.
std::size_t idamax(std::span<const double> x);

/// C(mxn) += alpha * A(mxk) * B(kxn), all column-major with leading
/// dimensions lda/ldb/ldc; the workhorse of the blocked ("optimized
/// library") LU path and of dmmul.  C is covered by register tiles whose
/// sums stay in vector registers over the whole k loop, so each element
/// of C is loaded and stored once.  Two micro-kernels (dgemm_kernels.h)
/// implement it, and the first call picks one for the whole process:
///  * on CPUs with AVX2 and FMA, 8x4 tiles of 4-wide FMA accumulators,
///    with 4-row, masked 1-3-row and 1-3-column tiles for the edges;
///  * everywhere else, 4x4 tiles in 2-wide SSE2/NEON vectors without FMA,
///    with a scalar dot product per element of the ragged edge.
/// The two round differently (FMA), so results may differ in the last
/// bits between hosts, never within one process.  alpha == 0 returns at
/// once without reading A or B, so C stays bit-identical even when they
/// hold NaN or Inf.
void dgemmAcc(std::size_t m, std::size_t n, std::size_t k, const double* a,
              std::size_t lda, const double* b, std::size_t ldb, double* c,
              std::size_t ldc, double alpha = 1.0);

/// Solve L * X = B for X in place, where L is unit lower triangular
/// (m x m, column-major, lda; only its strict lower triangle is read) and
/// B is m x n (ldb).  Used for the U-panel update in blocked LU.  Works
/// down B four rows at a time: dgemmAcc subtracts the rows already solved,
/// then a small substitution solves the 4x4 diagonal block.
void dtrsmLowerUnit(std::size_t m, std::size_t n, const double* l,
                    std::size_t lda, double* b, std::size_t ldb);

}  // namespace ninf::numlib
