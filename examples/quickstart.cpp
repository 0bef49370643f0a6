//===- examples/quickstart.cpp - SySTeC in five minutes -------*- C++ -*-===//
///
/// \file
/// Quickstart: compile the sparse symmetric matrix-vector product
/// (SSYMV), inspect the generated kernels, run both the naive and the
/// symmetry-optimized version over a random symmetric matrix, and check
/// that they agree while the optimized kernel reads only the canonical
/// triangle.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "runtime/Executor.h"

#include <cstdio>

using namespace systec;

int main() {
  // 1. Describe the kernel: y[i] += A[i,j] * x[j] with A symmetric.
  //    makeSsymv() bundles the paper's formats (A in CSC) and loop
  //    order; building an Einsum by hand takes four lines — see
  //    examples/graph_shortest_path.cpp.
  Einsum E = makeSsymv();

  // 2. Compile. The result holds the naive baseline and the
  //    symmetry-optimized kernel plus all intermediate artifacts.
  CompileResult R = compileEinsum(E);
  std::printf("%s\n", R.report().c_str());

  // 3. Build a workload: a 2000x2000 symmetric sparse matrix with
  //    ~40000 stored entries, and a dense input vector.
  Rng Random(42);
  Tensor A = generateSymmetricTensor(2, 2000, 20000, Random,
                                     TensorFormat::csf(2));
  Tensor X = generateDenseVector(2000, Random);
  Tensor YNaive = Tensor::dense({2000});
  Tensor YOpt = Tensor::dense({2000});

  // 4. Run the naive kernel. Every executor entry point returns a
  //    Status: a kernel that does not fit its bindings is an error the
  //    client checks, never an abort. Each run's counts come back by
  //    value in its report.
  Executor Naive(R.Naive);
  Naive.bind("A", &A).bind("x", &X).bind("y", &YNaive);
  obs::ExecReport NaiveReport;
  if (Status S = Naive.tryPrepare(); !S.ok()) {
    std::fprintf(stderr, "%s\n", S.str().c_str());
    return 1;
  }
  if (Status S = Naive.tryRun(&NaiveReport); !S.ok()) {
    std::fprintf(stderr, "%s\n", S.str().c_str());
    return 1;
  }
  uint64_t NaiveReads = NaiveReport.Counters.SparseReads;

  // 5. Run the optimized kernel (reads only the upper triangle and
  //    performs both updates per read).
  Executor Opt(R.Optimized);
  Opt.bind("A", &A).bind("x", &X).bind("y", &YOpt);
  obs::ExecReport OptReport;
  if (Status S = Opt.tryPrepare(); !S.ok()) {
    std::fprintf(stderr, "%s\n", S.str().c_str());
    return 1;
  }
  if (Status S = Opt.tryRun(&OptReport); !S.ok()) {
    std::fprintf(stderr, "%s\n", S.str().c_str());
    return 1;
  }
  uint64_t OptReads = OptReport.Counters.SparseReads;

  double Diff = Tensor::maxAbsDiff(YNaive, YOpt);
  std::printf("naive reads of A:     %llu\n",
              static_cast<unsigned long long>(NaiveReads));
  std::printf("optimized reads of A: %llu  (expect about half)\n",
              static_cast<unsigned long long>(OptReads));
  std::printf("max |y_naive - y_opt|: %.3e\n", Diff);

  // 6. The recoverable error surface (docs/ROBUSTNESS.md): anything
  //    malformed that comes from *client input* is a typed Status, not
  //    an abort. A COO entry outside the declared extent:
  Coo Bad({3, 3});
  Bad.add({2, 5}, 1.0); // column 5 in a 3x3 matrix
  Expected<Tensor> Rejected = Tensor::tryFromCoo(std::move(Bad),
                                                 TensorFormat::csf(2));
  std::printf("malformed COO -> %s\n", Rejected.status().str().c_str());

  // 7. Cooperative cancellation: a pre-cancelled token makes the run
  //    abort deterministically with ErrCode::Cancelled before any
  //    output is written; the token is reusable after reset().
  CancelToken Stop;
  Stop.cancel();
  ExecOptions Opts;
  Opts.Cancel = &Stop;
  Tensor YCancelled = Tensor::dense({2000});
  Executor Cancelled(R.Optimized, Opts);
  Cancelled.bind("A", &A).bind("x", &X).bind("y", &YCancelled);
  obs::ExecReport CancelledReport;
  Status Prep = Cancelled.tryPrepare();
  Status Run =
      Prep.ok() ? Cancelled.tryRun(&CancelledReport) : Status::success();
  std::printf("cancelled run  -> %s (abort reason: %s)\n",
              Run.str().c_str(), CancelledReport.AbortReason.c_str());

  const bool RobustnessOk = !Rejected.ok() &&
                            Rejected.status().code() ==
                                ErrCode::InvalidArgument &&
                            Prep.ok() && !Run.ok() &&
                            Run.code() == ErrCode::Cancelled;
  return Diff < 1e-9 && RobustnessOk ? 0 : 1;
}
