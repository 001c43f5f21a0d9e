// Microbenchmarks (google-benchmark): the local kernels underpinning the
// study — XDR marshalling rate, LU factorization variants, dmmul, EP —
// so absolute host rates can be compared with the calibrated 1997
// machine models.
#include <benchmark/benchmark.h>

#include "numlib/blas.h"
#include "numlib/dgemm_kernels.h"
#include "numlib/ep.h"
#include "numlib/lu.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "xdr/xdr.h"

namespace {

using namespace ninf;

void BM_XdrEncodeDoubleArray(benchmark::State& state) {
  const std::size_t count = state.range(0);
  std::vector<double> data(count, 3.14);
  for (auto _ : state) {
    xdr::Encoder enc;
    enc.putDoubleArray(data);
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count * 8);
}
BENCHMARK(BM_XdrEncodeDoubleArray)->Range(1 << 10, 1 << 18);

void BM_XdrDecodeDoubleArray(benchmark::State& state) {
  const std::size_t count = state.range(0);
  std::vector<double> data(count, 3.14);
  xdr::Encoder enc;
  enc.putDoubleArray(data);
  std::vector<double> out(count);
  for (auto _ : state) {
    xdr::Decoder dec(enc.bytes());
    dec.getDoubleArrayInto(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count * 8);
}
BENCHMARK(BM_XdrDecodeDoubleArray)->Range(1 << 10, 1 << 18);

void BM_LuReference(benchmark::State& state) {
  const std::size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    numlib::Matrix a = numlib::randomMatrix(n, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(numlib::dgefa(a));
  }
  state.counters["Mflops"] = benchmark::Counter(
      numlib::linpackFlops(n) / 1e6 * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuReference)->Arg(128)->Arg(256)->Arg(512);

void BM_LuBlocked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    numlib::Matrix a = numlib::randomMatrix(n, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(numlib::luBlocked(a));
  }
  state.counters["Mflops"] = benchmark::Counter(
      numlib::linpackFlops(n) / 1e6 * state.iterations(),
      benchmark::Counter::kIsRate);
  state.SetLabel(numlib::detail::selectedDgemmKernel().name);
}
BENCHMARK(BM_LuBlocked)->Arg(128)->Arg(256)->Arg(512);

void BM_LuParallel(benchmark::State& state) {
  const std::size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    numlib::Matrix a = numlib::randomMatrix(n, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(numlib::luParallel(a, 4));
  }
  state.counters["Mflops"] = benchmark::Counter(
      numlib::linpackFlops(n) / 1e6 * state.iterations(),
      benchmark::Counter::kIsRate);
}
// Wall time: the factorization runs on pool threads, so the main thread's
// CPU time would overstate the rate.
BENCHMARK(BM_LuParallel)->Arg(256)->Arg(512)->UseRealTime();

void BM_Dmmul(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const numlib::Matrix a = numlib::randomMatrix(n, 1);
  const numlib::Matrix b = numlib::randomMatrix(n, 2);
  numlib::Matrix c(n, n);
  for (auto _ : state) {
    numlib::dmmul(n, a.flat(), b.flat(), c.flat());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * n * n * n / 1e6 * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Dmmul)->Arg(64)->Arg(128)->Arg(256);

// The trailing update of blocked LU's first step at the benchmark size
// (n = 256, nb = 32): A22(224x224) -= L21(224x32) * U12(32x224), all
// views into one 256 x 256 matrix.
void BM_DgemmAcc(benchmark::State& state) {
  const std::size_t n = 256, nb = 32, m = n - nb;
  numlib::Matrix a = numlib::randomMatrix(n, 1);
  double* l21 = a.data() + nb;
  double* u12 = a.data() + nb * n;
  double* a22 = a.data() + nb * n + nb;
  for (auto _ : state) {
    numlib::dgemmAcc(m, m, nb, l21, n, u12, n, a22, n, -1.0);
    benchmark::DoNotOptimize(a22);
    benchmark::ClobberMemory();
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * m * m * nb / 1e6 * state.iterations(),
      benchmark::Counter::kIsRate);
  state.SetLabel(numlib::detail::selectedDgemmKernel().name);
}
BENCHMARK(BM_DgemmAcc);

// The narrow updates at the bottom of blocked LU's recursive panel
// (panelFactor halves 32 -> 16 -> 8 -> 4 -> 2 -> 1 columns): with n = 1
// or 2 columns on each side of the split, C((r - n) x n) -= A((r - n) x n)
// * B(n x n) for a panel of r rows, here r = 240.  LU at n = 256 makes no
// other dgemmAcc call narrower than four columns: 128 of these with n = 1
// and 64 with n = 2 per factorization.
void BM_DgemmAccNarrow(benchmark::State& state) {
  const std::size_t n = state.range(0), m = 240 - n, ld = 256;
  numlib::Matrix a = numlib::randomMatrix(ld, 1);
  double* panel = a.data() + n;
  double* b = a.data() + n * ld;
  double* c = a.data() + n * ld + n;
  for (auto _ : state) {
    numlib::dgemmAcc(m, n, n, panel, ld, b, ld, c, ld, -1.0);
    benchmark::DoNotOptimize(c);
    benchmark::ClobberMemory();
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * m * n * n / 1e6 * state.iterations(),
      benchmark::Counter::kIsRate);
  state.SetLabel(numlib::detail::selectedDgemmKernel().name);
}
BENCHMARK(BM_DgemmAccNarrow)->Arg(1)->Arg(2);

void BM_EpKernel(benchmark::State& state) {
  const std::int64_t pairs = state.range(0);
  std::int64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(numlib::runEp(offset, pairs));
    offset += pairs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          pairs);
}
BENCHMARK(BM_EpKernel)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace
