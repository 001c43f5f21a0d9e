#include "numlib/blas.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"

namespace ninf::numlib {

void daxpy(double alpha, std::span<const double> x, std::span<double> y) {
  NINF_REQUIRE(x.size() == y.size(), "daxpy length mismatch");
  if (alpha == 0.0) return;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double ddot(std::span<const double> x, std::span<const double> y) {
  NINF_REQUIRE(x.size() == y.size(), "ddot length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void dscal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

std::size_t idamax(std::span<const double> x) {
  std::size_t best = 0;
  double best_abs = -1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = std::abs(x[i]);
    if (a > best_abs) {
      best_abs = a;
      best = i;
    }
  }
  return best;
}

namespace {

// Two doubles in one vector register (SSE2 on x86-64, NEON on AArch64);
// GCC and Clang both accept the vector_size extension at the baseline ISA.
using v2d = double __attribute__((vector_size(16)));

v2d load2(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, v2d v) { std::memcpy(p, &v, sizeof v); }

/// C(4x4) += alpha * A(4xk) * B(kx4).  The 16 sums stay in eight vector
/// registers for the whole k loop, each load of A feeds four columns and
/// each element of B four rows, and C is read and written once.
void tile4x4(std::size_t k, const double* a, std::size_t lda, const double* b,
             std::size_t ldb, double* c, std::size_t ldc, double alpha) {
  const double* b0 = b;
  const double* b1 = b + ldb;
  const double* b2 = b + 2 * ldb;
  const double* b3 = b + 3 * ldb;
  v2d c00{}, c10{}, c01{}, c11{}, c02{}, c12{}, c03{}, c13{};
  for (std::size_t p = 0; p < k; ++p) {
    const v2d a0 = load2(a + p * lda);
    const v2d a1 = load2(a + p * lda + 2);
    c00 += a0 * b0[p];
    c10 += a1 * b0[p];
    c01 += a0 * b1[p];
    c11 += a1 * b1[p];
    c02 += a0 * b2[p];
    c12 += a1 * b2[p];
    c03 += a0 * b3[p];
    c13 += a1 * b3[p];
  }
  const v2d acc[4][2] = {{c00, c10}, {c01, c11}, {c02, c12}, {c03, c13}};
  for (std::size_t j = 0; j < 4; ++j) {
    double* cj = c + j * ldc;
    store2(cj, load2(cj) + alpha * acc[j][0]);
    store2(cj + 2, load2(cj + 2) + alpha * acc[j][1]);
  }
}

/// The ragged edge of C, fewer than four rows or columns wide: one dot
/// product per element.
void edgeTile(std::size_t mr, std::size_t nr, std::size_t k, const double* a,
              std::size_t lda, const double* b, std::size_t ldb, double* c,
              std::size_t ldc, double alpha) {
  for (std::size_t j = 0; j < nr; ++j) {
    for (std::size_t i = 0; i < mr; ++i) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += a[i + p * lda] * b[p + j * ldb];
      }
      c[i + j * ldc] += alpha * acc;
    }
  }
}

}  // namespace

void dgemmAcc(std::size_t m, std::size_t n, std::size_t k, const double* a,
              std::size_t lda, const double* b, std::size_t ldb, double* c,
              std::size_t ldc, double alpha) {
  if (alpha == 0.0 || k == 0) return;
  const std::size_t m4 = m - m % 4;
  const std::size_t n4 = n - n % 4;
  for (std::size_t j = 0; j < n4; j += 4) {
    const double* bj = b + j * ldb;
    double* cj = c + j * ldc;
    for (std::size_t i = 0; i < m4; i += 4) {
      tile4x4(k, a + i, lda, bj, ldb, cj + i, ldc, alpha);
    }
    edgeTile(m - m4, 4, k, a + m4, lda, bj, ldb, cj + m4, ldc, alpha);
  }
  edgeTile(m, n - n4, k, a, lda, b + n4 * ldb, ldb, c + n4 * ldc, ldc, alpha);
}

void dtrsmLowerUnit(std::size_t m, std::size_t n, const double* l,
                    std::size_t lda, double* b, std::size_t ldb) {
  // Left-looking over blocks of four rows: one dgemmAcc subtracts the
  // rows already solved (its 4x4 tiles share each load of an L column
  // across four columns of B), then the 4x4 unit triangle on the diagonal
  // is solved in place.
  for (std::size_t i0 = 0; i0 < m; i0 += 4) {
    const std::size_t i1 = std::min(m, i0 + 4);
    dgemmAcc(i1 - i0, n, i0, l + i0, lda, b, ldb, b + i0, ldb, -1.0);
    for (std::size_t j = 0; j < n; ++j) {
      double* bj = b + j * ldb;
      for (std::size_t p = i0; p < i1; ++p) {
        for (std::size_t i = p + 1; i < i1; ++i) {
          bj[i] -= bj[p] * l[i + p * lda];
        }
      }
    }
  }
}

}  // namespace ninf::numlib
