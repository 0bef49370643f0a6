//===- examples/quadratic_forms.cpp - Statistics with SYPRD ---*- C++ -*-===//
///
/// \file
/// Quadratic forms x'Ax over symmetric matrices appear throughout
/// statistics — variances of linear combinations under a covariance
/// matrix, Mahalanobis-style distances, Rayleigh quotients (the paper's
/// Section 1 motivates symmetric tensors with exactly these). This
/// example builds a sparse symmetric "covariance-like" matrix, compiles
/// SYPRD once, and evaluates the quadratic form for a batch of
/// portfolio vectors, reading only the canonical triangle each time. A
/// power-method Rayleigh quotient estimates the dominant eigenvalue
/// using the same compiled kernel plus SSYMV.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "runtime/Executor.h"

#include <cmath>
#include <cstdio>

using namespace systec;

int main() {
  const int64_t Dim = 5000;
  Rng Random(7);

  // A sparse symmetric positive-ish matrix: banded correlations plus
  // random long-range terms (A + A' construction).
  Tensor Local = generateBandedSymmetric(Dim, 4, Random,
                                         TensorFormat::csf(2));
  Tensor Long = symmetrizeMatrix(generateSparseMatrix(
      Dim, Dim, 4 * Dim, Random, TensorFormat::csf(2)));
  Coo Sum(Local.dims());
  Local.forEach(
      [&Sum](const std::vector<int64_t> &C, double V) { Sum.add(C, V); });
  Long.forEach(
      [&Sum](const std::vector<int64_t> &C, double V) { Sum.add(C, V); });
  Tensor Sigma = Tensor::fromCoo(std::move(Sum), TensorFormat::csf(2));

  CompileResult Syprd = compileEinsum(makeSyprd());
  CompileResult Ssymv = compileEinsum(makeSsymv());

  Tensor X = generateDenseVector(Dim, Random);
  Tensor Scalar = Tensor::dense({1});
  Executor Quad(Syprd.Optimized);
  Quad.bind("A", &Sigma).bind("x", &X).bind("y", &Scalar);
  if (Status S = Quad.tryPrepare(); !S.ok()) {
    std::fprintf(stderr, "%s\n", S.str().c_str());
    return 1;
  }

  // Batch of quadratic forms: x is rewritten in place between runs;
  // the compiled kernel and its canonical-triangle splits are reused.
  std::printf("quadratic forms over a %lld-dimensional symmetric "
              "matrix (%zu stored entries):\n",
              static_cast<long long>(Dim), Sigma.storedCount());
  uint64_t Reads = 0;
  for (unsigned Trial = 0; Trial < 5; ++Trial) {
    for (double &V : X.vals())
      V = Random.nextDouble(-1.0, 1.0);
    Scalar.setAllValues(0.0);
    obs::ExecReport Report;
    if (Status S = Quad.tryRun(&Report); !S.ok()) {
      std::fprintf(stderr, "%s\n", S.str().c_str());
      return 1;
    }
    Reads += Report.Counters.SparseReads;
    std::printf("  x_%u' A x_%u = %12.4f\n", Trial, Trial,
                Scalar.at({0}));
  }
  std::printf("canonical reads per evaluation: ~%llu of %zu\n",
              static_cast<unsigned long long>(Reads / 5),
              Sigma.storedCount());

  // Rayleigh quotient power iteration with the SSYMV kernel.
  Tensor V = generateDenseVector(Dim, Random);
  Tensor W = Tensor::dense({Dim});
  Executor Mv(Ssymv.Optimized);
  Mv.bind("A", &Sigma).bind("x", &V).bind("y", &W);
  if (Status S = Mv.tryPrepare(); !S.ok()) {
    std::fprintf(stderr, "%s\n", S.str().c_str());
    return 1;
  }
  double Rayleigh = 0;
  for (unsigned It = 0; It < 30; ++It) {
    W.setAllValues(0.0);
    if (Status S = Mv.tryRun(); !S.ok()) {
      std::fprintf(stderr, "%s\n", S.str().c_str());
      return 1;
    }
    double Norm = 0;
    for (double Val : W.vals())
      Norm += Val * Val;
    Norm = std::sqrt(Norm);
    for (int64_t I = 0; I < Dim; ++I)
      V.denseRef({I}) = W.at({I}) / Norm;
    // Rayleigh quotient via the SYPRD kernel on the current vector.
    Executor Rq(Syprd.Optimized);
    Rq.bind("A", &Sigma).bind("x", &V).bind("y", &Scalar);
    Scalar.setAllValues(0.0);
    Status S = Rq.tryPrepare();
    if (S.ok())
      S = Rq.tryRun();
    if (!S.ok()) {
      std::fprintf(stderr, "%s\n", S.str().c_str());
      return 1;
    }
    Rayleigh = Scalar.at({0});
  }
  std::printf("dominant eigenvalue estimate (Rayleigh quotient): %.6f\n",
              Rayleigh);
  return std::isfinite(Rayleigh) ? 0 : 1;
}
