//===- bench/bench_bellmanford.cpp - Figure 7 reproduction ----*- C++ -*-===//
///
/// \file
/// Bellman-Ford relaxation (y[i] min= A[i,j] + d[j], A symmetric CSC,
/// fill = inf) over the Table 2 suite. Performance-identical to SSYMV
/// (paper 5.2.2); included to show symmetrization over the (min,+)
/// semiring.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "baselines/Baselines.h"
#include "core/Compiler.h"
#include "kernels/Kernels.h"

#include <limits>

using namespace systec;
using namespace systec::bench;

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  const double Inf = std::numeric_limits<double>::infinity();
  Rng R(20260612);
  CompileResult C = compileEinsum(makeBellmanFord());

  std::vector<std::unique_ptr<Holder>> Holders;
  std::vector<Row> Rows;
  for (const MatrixSpec &Spec : suiteForBench()) {
    auto H = std::make_unique<Holder>();
    // Edge weights: reuse the suite matrix values as distances with
    // fill = inf (missing edges).
    Tensor Weights = buildSuiteMatrix(Spec, R);
    H->Tensors.emplace("A", Tensor::fromCoo(Weights.toCoo(),
                                            TensorFormat::csf(2), Inf));
    H->Tensors.emplace("d", generateDenseVector(Spec.Dimension, R));
    H->Tensors.emplace("y", Tensor::dense({Spec.Dimension}, Inf));
    Tensor *A = &H->tensor("A");
    Tensor *D = &H->tensor("d");
    Tensor *Y = &H->tensor("y");

    Executor &Naive = H->addExecutor(C.Naive);
    Naive.bind("A", A).bind("d", D).bind("y", Y);
    checkOk(Naive.tryPrepare());
    Executor &Opt = H->addExecutor(C.Optimized);
    Opt.bind("A", A).bind("d", D).bind("y", Y);
    checkOk(Opt.tryPrepare());

    std::string Base = "bellmanford/" + Spec.Name;
    auto Reset = [Y, Inf] { Y->setAllValues(Inf); };
    registerRun(Base + "/naive", Reset,
                [&Naive] { checkOk(Naive.tryRunBody()); });
    registerRun(Base + "/systec", Reset, [&Opt] { checkOk(Opt.tryRunBody()); });
    registerRun(Base + "/taco", Reset,
                [A, D, Y] { tacoBellmanFord(*A, *D, *Y); });

    Row RowEntry;
    RowEntry.Label = Spec.Name;
    for (const char *Impl : {"naive", "systec", "taco"})
      RowEntry.Entries.push_back({Impl, Base + "/" + Impl});
    Rows.push_back(RowEntry);
    Holders.push_back(std::move(H));
  }

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);
  printSpeedups(Rep, "Figure 7: Bellman-Ford step speedup over naive",
                {"naive", "systec", "taco"}, Rows,
                /*ExpectedSpeedup=*/2.0);
  return 0;
}
