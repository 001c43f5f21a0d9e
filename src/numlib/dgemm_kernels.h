// The micro-kernels behind numlib::dgemmAcc (blas.h).  dgemmAcc runs the
// one selectedDgemmKernel() picked on first use; this header lists every
// kernel the host supports so tests and benches can run each one.  Not
// part of the numlib API: callers outside tests and benches go through
// dgemmAcc.
#pragma once

#include <cstddef>
#include <vector>

namespace ninf::numlib::detail {

/// Same contract as dgemmAcc.
using DgemmKernelFn = void (*)(std::size_t m, std::size_t n, std::size_t k,
                               const double* a, std::size_t lda,
                               const double* b, std::size_t ldb, double* c,
                               std::size_t ldc, double alpha);

struct DgemmKernel {
  const char* name;
  DgemmKernelFn run;
};

/// 4x4 tiles in 2-wide vectors of the baseline ISA (SSE2 or NEON), no FMA;
/// every host can run it.
void dgemmAccPortable(std::size_t m, std::size_t n, std::size_t k,
                      const double* a, std::size_t lda, const double* b,
                      std::size_t ldb, double* c, std::size_t ldc,
                      double alpha);

/// The kernels this CPU can run: the portable one first, the fastest last
/// ("avx2-fma-8x4", 8x4 tiles of 4-wide FMA accumulators, listed only on
/// x86 CPUs with AVX2 and FMA).
std::vector<DgemmKernel> runnableDgemmKernels();

/// The kernel dgemmAcc uses: the last of runnableDgemmKernels(), picked
/// once per process.
const DgemmKernel& selectedDgemmKernel();

}  // namespace ninf::numlib::detail
