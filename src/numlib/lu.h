// LU factorization and triangular solve, the Linpack core of the paper.
//
// Three variants mirror the paper's library choices (section 3.1):
//  * dgefa/dgesl      — reference LINPACK column-oriented factorization,
//                       the "standard, non-optimized routine" of Figure 4.
//  * blocked LU       — right-looking factorization with a recursive panel
//                       and a dgemm trailing update, standing in for the
//                       blocked glub4/gslv4 routines.  Its level-3 kernels
//                       (blas.h) are register-tiled, so it beats the
//                       reference as an optimized library should: at
//                       n = 256 on a 4-vCPU Xeon KVM host (-O2), blocked
//                       ran at about 0.8-1.0x reference (2.3 vs 2.9 GFLOPS)
//                       while dgemmAcc was a jki axpy loop, at about
//                       2.5x (6.8 vs 2.7 GFLOPS) with the 4x4 tiles, and
//                       at about 5-6x (13-19 vs 2.3-2.9 GFLOPS; the 4x4
//                       tiles read 5.6-7.7 in the same runs) with the
//                       AVX2/FMA 8x4 tiles the CPU selects when it has
//                       them.
//  * threaded blocked — the trailing update fanned across worker threads,
//                       standing in for the 4-PE libsci sgetrf/sgetrs used
//                       on the Cray J90 (the "data-parallel" library).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "numlib/matrix.h"

namespace ninf::numlib {

/// Pivot vector produced by the factorizations: ipvt[k] is the row swapped
/// with row k at step k (LINPACK convention).
using PivotVector = std::vector<std::size_t>;

/// Reference LINPACK dgefa: in-place LU with partial pivoting.
/// Returns the pivot vector.  Throws ninf::Error on exact singularity.
PivotVector dgefa(Matrix& a);

/// Reference LINPACK dgesl: solve A x = b given the dgefa output.
/// b is overwritten with the solution.
void dgesl(const Matrix& a, const PivotVector& ipvt, std::span<double> b);

/// Blocked right-looking LU with partial pivoting, block size nb.
PivotVector luBlocked(Matrix& a, std::size_t nb = 32);

/// Blocked LU with the trailing-matrix update parallelized across
/// `workers` threads (the data-parallel "optimized library" path).
PivotVector luParallel(Matrix& a, std::size_t workers, std::size_t nb = 32);

/// Run `body(i)` for i in [0, n) across at most `workers` threads and
/// wait; the first exception a body throws is rethrown here.  The
/// strips of luParallel's trailing update run through it.
void parallelFor(std::size_t n, std::size_t workers,
                 const std::function<void(std::size_t)>& body);

/// LINPACK dgeco: factor A (like dgefa) and estimate its reciprocal
/// condition number rcond = 1 / (||A||_1 * ||A^-1||_1), the classic
/// Cline-Moler-Stewart-Wilkinson estimator.  rcond near 1 means well
/// conditioned; rcond + 1.0 == 1.0 means singular to working precision.
/// On return `a` holds the factors and `ipvt` the pivots (reusable with
/// dgesl).
double dgeco(Matrix& a, PivotVector& ipvt);

/// Which factorization a solver driver should use.
enum class LuVariant { Reference, Blocked, Parallel };

/// Factor + solve convenience used by the Ninf executable registrations:
/// solves A x = b in place (b becomes x); A is destroyed.
void luSolve(Matrix& a, std::span<double> b, LuVariant variant,
             std::size_t workers = 1);

}  // namespace ninf::numlib
