#include "numlib/blas.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "numlib/dgemm_kernels.h"

// The AVX2/FMA kernel is compiled on x86 GCC and Clang builds only, at the
// baseline ISA, with the wider instructions enabled per function.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define NINF_NUMLIB_AVX2_KERNEL 1
#include <immintrin.h>
#else
#define NINF_NUMLIB_AVX2_KERNEL 0
#endif

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

#if NINF_NUMLIB_AVX2_KERNEL

#define NINF_AVX2_FMA __attribute__((target("avx2,fma")))

/// c[0..3] += alpha * acc, lanes outside `mask` untouched when Masked.
template <bool Masked>
NINF_AVX2_FMA void update4(double* c, __m256d acc, __m256d alpha,
                           __m256i mask) {
  if constexpr (Masked) {
    _mm256_maskstore_pd(
        c, mask, _mm256_fmadd_pd(alpha, acc, _mm256_maskload_pd(c, mask)));
  } else {
    _mm256_storeu_pd(c, _mm256_fmadd_pd(alpha, acc, _mm256_loadu_pd(c)));
  }
}

/// C(8 x NR) += alpha * A(8 x k) * B(k x NR), NR = 1..4.  Each column of
/// C is two 4-wide FMA accumulators; each pair of A loads feeds NR
/// columns and each broadcast of B eight rows.  The accumulators are named
/// variables: GCC at -O2 keeps an accumulator array in memory.
template <int NR>
NINF_AVX2_FMA void tile8(std::size_t k, const double* a, std::size_t lda,
                         const double* b, std::size_t ldb, double* c,
                         std::size_t ldc, double alpha) {
  const double* b1 = b + (NR > 1 ? ldb : 0);
  const double* b2 = b + (NR > 2 ? 2 * ldb : 0);
  const double* b3 = b + (NR > 3 ? 3 * ldb : 0);
  __m256d c00 = _mm256_setzero_pd(), c10 = c00, c01 = c00, c11 = c00,
          c02 = c00, c12 = c00, c03 = c00, c13 = c00;
  for (std::size_t p = 0; p < k; ++p) {
    const __m256d a0 = _mm256_loadu_pd(a + p * lda);
    const __m256d a1 = _mm256_loadu_pd(a + p * lda + 4);
    __m256d bp = _mm256_broadcast_sd(b + p);
    c00 = _mm256_fmadd_pd(a0, bp, c00);
    c10 = _mm256_fmadd_pd(a1, bp, c10);
    if constexpr (NR > 1) {
      bp = _mm256_broadcast_sd(b1 + p);
      c01 = _mm256_fmadd_pd(a0, bp, c01);
      c11 = _mm256_fmadd_pd(a1, bp, c11);
    }
    if constexpr (NR > 2) {
      bp = _mm256_broadcast_sd(b2 + p);
      c02 = _mm256_fmadd_pd(a0, bp, c02);
      c12 = _mm256_fmadd_pd(a1, bp, c12);
    }
    if constexpr (NR > 3) {
      bp = _mm256_broadcast_sd(b3 + p);
      c03 = _mm256_fmadd_pd(a0, bp, c03);
      c13 = _mm256_fmadd_pd(a1, bp, c13);
    }
  }
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256i all = _mm256_set1_epi64x(-1);
  update4<false>(c, c00, va, all);
  update4<false>(c + 4, c10, va, all);
  if constexpr (NR > 1) {
    update4<false>(c + ldc, c01, va, all);
    update4<false>(c + ldc + 4, c11, va, all);
  }
  if constexpr (NR > 2) {
    update4<false>(c + 2 * ldc, c02, va, all);
    update4<false>(c + 2 * ldc + 4, c12, va, all);
  }
  if constexpr (NR > 3) {
    update4<false>(c + 3 * ldc, c03, va, all);
    update4<false>(c + 3 * ldc + 4, c13, va, all);
  }
}

/// C(4 x NR) += alpha * A(4 x k) * B(k x NR): one accumulator per column.
/// Masked, only the rows set in `mask` (a prefix of 1-3 lanes) are read
/// from A and C or written to C.
template <int NR, bool Masked>
NINF_AVX2_FMA void tile4(std::size_t k, const double* a, std::size_t lda,
                         const double* b, std::size_t ldb, double* c,
                         std::size_t ldc, double alpha, __m256i mask) {
  const double* b1 = b + (NR > 1 ? ldb : 0);
  const double* b2 = b + (NR > 2 ? 2 * ldb : 0);
  const double* b3 = b + (NR > 3 ? 3 * ldb : 0);
  __m256d c0 = _mm256_setzero_pd(), c1 = c0, c2 = c0, c3 = c0;
  for (std::size_t p = 0; p < k; ++p) {
    const __m256d ap = Masked ? _mm256_maskload_pd(a + p * lda, mask)
                              : _mm256_loadu_pd(a + p * lda);
    c0 = _mm256_fmadd_pd(ap, _mm256_broadcast_sd(b + p), c0);
    if constexpr (NR > 1) {
      c1 = _mm256_fmadd_pd(ap, _mm256_broadcast_sd(b1 + p), c1);
    }
    if constexpr (NR > 2) {
      c2 = _mm256_fmadd_pd(ap, _mm256_broadcast_sd(b2 + p), c2);
    }
    if constexpr (NR > 3) {
      c3 = _mm256_fmadd_pd(ap, _mm256_broadcast_sd(b3 + p), c3);
    }
  }
  const __m256d va = _mm256_set1_pd(alpha);
  update4<Masked>(c, c0, va, mask);
  if constexpr (NR > 1) update4<Masked>(c + ldc, c1, va, mask);
  if constexpr (NR > 2) update4<Masked>(c + 2 * ldc, c2, va, mask);
  if constexpr (NR > 3) update4<Masked>(c + 3 * ldc, c3, va, mask);
}

/// NR columns of C, all m rows: 8-row tiles, then at most one 4-row tile
/// and one masked tile for the last 1-3 rows.
template <int NR>
NINF_AVX2_FMA void columnsAvx2(std::size_t m, std::size_t k, const double* a,
                               std::size_t lda, const double* b,
                               std::size_t ldb, double* c, std::size_t ldc,
                               double alpha) {
  const __m256i all = _mm256_set1_epi64x(-1);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    tile8<NR>(k, a + i, lda, b, ldb, c + i, ldc, alpha);
  }
  if (i + 4 <= m) {
    tile4<NR, false>(k, a + i, lda, b, ldb, c + i, ldc, alpha, all);
    i += 4;
  }
  if (i < m) {
    const __m256i rows = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(m - i)),
        _mm256_set_epi64x(3, 2, 1, 0));
    tile4<NR, true>(k, a + i, lda, b, ldb, c + i, ldc, alpha, rows);
  }
}

/// The whole AVX2/FMA kernel: columnsAvx2<4> over every four columns of
/// C, then one narrower columnsAvx2 for the last 1-3.
NINF_AVX2_FMA void dgemmAccAvx2Fma(std::size_t m, std::size_t n,
                                   std::size_t k, const double* a,
                                   std::size_t lda, const double* b,
                                   std::size_t ldb, double* c,
                                   std::size_t ldc, double alpha) {
  if (alpha == 0.0 || k == 0) return;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    columnsAvx2<4>(m, k, a, lda, b + j * ldb, ldb, c + j * ldc, ldc, alpha);
  }
  switch (n - j) {
    case 3:
      columnsAvx2<3>(m, k, a, lda, b + j * ldb, ldb, c + j * ldc, ldc, alpha);
      break;
    case 2:
      columnsAvx2<2>(m, k, a, lda, b + j * ldb, ldb, c + j * ldc, ldc, alpha);
      break;
    case 1:
      columnsAvx2<1>(m, k, a, lda, b + j * ldb, ldb, c + j * ldc, ldc, alpha);
      break;
    default:
      break;
  }
}

#endif  // NINF_NUMLIB_AVX2_KERNEL

}  // namespace

namespace detail {

void dgemmAccPortable(std::size_t m, std::size_t n, std::size_t k,
                      const double* a, std::size_t lda, const double* b,
                      std::size_t ldb, double* c, std::size_t ldc,
                      double alpha) {
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

std::vector<DgemmKernel> runnableDgemmKernels() {
  const DgemmKernel portable{"portable-4x4", &dgemmAccPortable};
#if NINF_NUMLIB_AVX2_KERNEL
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {portable, {"avx2-fma-8x4", &dgemmAccAvx2Fma}};
  }
#endif
  return {portable};
}

const DgemmKernel& selectedDgemmKernel() {
  static const DgemmKernel selected = runnableDgemmKernels().back();
  return selected;
}

}  // namespace detail

void dgemmAcc(std::size_t m, std::size_t n, std::size_t k, const double* a,
              std::size_t lda, const double* b, std::size_t ldb, double* c,
              std::size_t ldc, double alpha) {
  detail::selectedDgemmKernel().run(m, n, k, a, lda, b, ldb, c, ldc, alpha);
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
