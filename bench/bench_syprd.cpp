//===- bench/bench_syprd.cpp - Figure 8 reproduction ----------*- C++ -*-===//
///
/// \file
/// SYPRD (y = x'Ax, A symmetric) over the Table 2 suite. The optimized
/// kernel reads half of A and performs half the multiplications
/// (invisible output symmetry); expected speedup approaches 2x (paper
/// measured 1.79x average vs naive Finch).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "baselines/Baselines.h"
#include "core/Compiler.h"
#include "kernels/Kernels.h"

using namespace systec;
using namespace systec::bench;

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  Rng R(20260613);
  CompileResult C = compileEinsum(makeSyprd());

  std::vector<std::unique_ptr<Holder>> Holders;
  std::vector<Row> Rows;
  for (const MatrixSpec &Spec : suiteForBench()) {
    auto H = std::make_unique<Holder>();
    H->Tensors.emplace("A", buildSuiteMatrix(Spec, R));
    H->Tensors.emplace("x", generateDenseVector(Spec.Dimension, R));
    H->Tensors.emplace("y", Tensor::dense({1}));
    Tensor *A = &H->tensor("A");
    Tensor *X = &H->tensor("x");
    Tensor *Y = &H->tensor("y");

    Executor &Naive = H->addExecutor(C.Naive);
    Naive.bind("A", A).bind("x", X).bind("y", Y);
    checkOk(Naive.tryPrepare());
    Executor &Opt = H->addExecutor(C.Optimized);
    Opt.bind("A", A).bind("x", X).bind("y", Y);
    checkOk(Opt.tryPrepare());

    std::string Base = "syprd/" + Spec.Name;
    auto Reset = [Y] { Y->setAllValues(0.0); };
    registerRun(Base + "/naive", Reset,
                [&Naive] { checkOk(Naive.tryRunBody()); });
    registerRun(Base + "/systec", Reset, [&Opt] { checkOk(Opt.tryRunBody()); });
    registerRun(Base + "/taco", Reset, [A, X, Y] {
      Y->vals()[0] += tacoSyprd(*A, *X);
      benchmark::DoNotOptimize(Y->vals()[0]);
    });

    Row RowEntry;
    RowEntry.Label = Spec.Name;
    for (const char *Impl : {"naive", "systec", "taco"})
      RowEntry.Entries.push_back({Impl, Base + "/" + Impl});
    Rows.push_back(RowEntry);
    Holders.push_back(std::move(H));
  }

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);
  printSpeedups(Rep, "Figure 8: SYPRD speedup over naive",
                {"naive", "systec", "taco"}, Rows,
                /*ExpectedSpeedup=*/2.0);
  return 0;
}
