//===- examples/symmetric_cpd.cpp - Symmetric CP decomposition -*- C++ -*-===//
///
/// \file
/// One of the paper's motivating applications (Section 5.2.6): the
/// symmetric canonical polyadic decomposition. For a symmetric tensor
/// the CPD uses a single factor matrix for all modes, so each ALS-style
/// sweep needs only one MTTKRP instead of N transposed ones — and the
/// symmetric MTTKRP that SySTeC generates reads only 1/n! of the
/// tensor. This example runs a fixed-point iteration of
///
///     B <- normalize( MTTKRP(A, B) )
///
/// to approximate the dominant rank-1 symmetric component of a random
/// symmetric 3-d tensor (the higher-order power method of Kofidis &
/// Regalia, the paper's [20]).
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "runtime/Executor.h"

#include <cmath>
#include <cstdio>

using namespace systec;

namespace {

/// Frobenius norm of a dense matrix column.
double columnNorm(const Tensor &M, int64_t Col) {
  double S = 0;
  for (int64_t I = 0; I < M.dim(0); ++I) {
    double V = M.at({I, Col});
    S += V * V;
  }
  return std::sqrt(S);
}

} // namespace

int main() {
  const int64_t Dim = 120;
  const int64_t Rank = 4;
  Rng Random(2025);

  CompileResult R = compileEinsum(makeMttkrp(3));
  std::printf("symmetric MTTKRP kernel used for the CPD sweep:\n%s\n",
              R.Optimized.str().c_str());

  Tensor A = generateSymmetricTensor(3, Dim, 4000, Random,
                                     TensorFormat::csf(3));
  Tensor B = generateDenseMatrix(Dim, Rank, Random);
  Tensor C = Tensor::dense({Dim, Rank});

  // Higher-order power iterations. Because B changes every sweep, the
  // concordized alias B_T must be refreshed: we re-prepare a fresh
  // executor per sweep (transposition is cheap data preparation, not
  // kernel time).
  double Lambda = 0;
  for (unsigned Sweep = 0; Sweep < 12; ++Sweep) {
    Executor Step(R.Optimized);
    Step.bind("A", &A).bind("B", &B).bind("C", &C);
    C.setAllValues(0.0);
    Status S = Step.tryPrepare();
    if (S.ok())
      S = Step.tryRun();
    if (!S.ok()) {
      std::fprintf(stderr, "sweep %u: %s\n", Sweep, S.str().c_str());
      return 1;
    }
    // Normalize each column; the norms approximate component weights.
    Lambda = 0;
    for (int64_t Col = 0; Col < Rank; ++Col) {
      double Norm = columnNorm(C, Col);
      Lambda = std::max(Lambda, Norm);
      if (Norm == 0)
        continue;
      for (int64_t I = 0; I < Dim; ++I)
        B.denseRef({I, Col}) = C.at({I, Col}) / Norm;
    }
    std::printf("sweep %2u: dominant component weight %.6f\n", Sweep,
                Lambda);
  }

  // Report the rank-1 reconstruction quality of the dominant column.
  double Num = 0, Den = 0;
  A.forEach([&](const std::vector<int64_t> &Coord, double V) {
    double Approx = Lambda;
    for (int64_t M : Coord)
      Approx *= B.at({M, 0});
    Num += (V - Approx) * (V - Approx);
    Den += V * V;
  });
  std::printf("relative residual of dominant rank-1 term: %.4f\n",
              std::sqrt(Num / Den));
  return Lambda > 0 ? 0 : 1;
}
