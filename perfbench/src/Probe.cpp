//===- perfbench/src/Probe.cpp - Machine ceiling probes -------*- C++ -*-===//
///
/// \file
/// The ceilings the roofline percentages are taken against, measured on
/// the machine that runs the benchmark, single-threaded (the roofline is
/// reported for the Threads=1 variants):
///  - STREAM triad a[i] = b[i] + s*c[i] over three arrays each at least
///    four times the last-level cache (STREAM's sizing rule), capped at
///    64 MiB per array; best of ten passes, 24 bytes per element;
///  - a multiply-add peak: 16 independent accumulator chains, compiled
///    with the same flags as the library (no -march), 2 flops each.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <unistd.h>

#include <algorithm>
#include <vector>

namespace pb {

namespace {

volatile double Sink;

double triadGBs(size_t N, RunContext &Ctx) {
  std::vector<double> A(N, 0.0), B(N, 1.0), C(N, 2.0);
  const double S = 3.0;
  double Best = 1e30;
  for (int Pass = 0; Pass < 10; ++Pass) {
    const uint64_t T0 = nowNs();
    double *__restrict Ap = A.data();
    const double *__restrict Bp = B.data();
    const double *__restrict Cp = C.data();
    for (size_t I = 0; I < N; ++I)
      Ap[I] = Bp[I] + S * Cp[I];
    const uint64_t T1 = nowNs();
    Sink = Ap[N / 2];
    Best = std::min(Best, double(T1 - T0) / 1e9);
  }
  Ctx.note(fmt("probe: triad arrays 3 x %.1f MiB, best of 10 passes %.3f ms",
               double(N * sizeof(double)) / (1 << 20), Best * 1e3));
  return 24.0 * double(N) / Best / 1e9;
}

double fmaGFlops() {
  constexpr int Chains = 16;
  double Acc[Chains];
  for (int K = 0; K < Chains; ++K)
    Acc[K] = 1.0 + K * 1e-3;
  const double M = 0.9999999, Add = 1e-7;
  const long Iters = 20'000'000;
  double Best = 1e30;
  for (int Pass = 0; Pass < 5; ++Pass) {
    const uint64_t T0 = nowNs();
    for (long I = 0; I < Iters; ++I)
      for (int K = 0; K < Chains; ++K)
        Acc[K] = Acc[K] * M + Add;
    const uint64_t T1 = nowNs();
    Best = std::min(Best, double(T1 - T0) / 1e9);
  }
  double S = 0;
  for (double X : Acc)
    S += X;
  Sink = S;
  return 2.0 * Chains * double(Iters) / Best / 1e9;
}

} // namespace

Ceiling probeCeiling(RunContext &Ctx) {
  Scope Span("probe.ceiling");
  long Llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const bool Known = Llc > 0;
  if (!Known)
    Llc = 32l << 20;
  const size_t Bytes =
      std::min<size_t>(size_t(4) * size_t(Llc), size_t(64) << 20);
  Ctx.note(fmt("probe: last-level cache %.1f MiB%s", double(Llc) / (1 << 20),
               Known ? "" : " (unknown; assumed)"));
  Ceiling C;
  C.TriadGBs = triadGBs(Bytes / sizeof(double), Ctx);
  C.FmaGFlops = fmaGFlops();
  Ctx.note(fmt("probe: triad %.2f GB/s, multiply-add peak %.2f GFLOP/s "
               "(one core)",
               C.TriadGBs, C.FmaGFlops));
  return C;
}

} // namespace pb
