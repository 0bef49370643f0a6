//===- bench/bench_ssymv.cpp - Figure 6 reproduction ----------*- C++ -*-===//
///
/// \file
/// SSYMV (y[i] += A[i,j]*x[j], A symmetric CSC) over the Table 2 suite:
/// naive engine vs SySTeC engine (the paper's red-line normalization),
/// plus native taco-like SpMV and mkl-like symmetric SpMV comparators.
/// Expected speedup approaches 2x (bandwidth bound; paper measured
/// 1.45x average vs naive Finch).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "baselines/Baselines.h"
#include "core/Compiler.h"
#include "kernels/Kernels.h"

using namespace systec;
using namespace systec::bench;

// Ahead-of-time compiled compiler output (bench/gen_ssymv.cpp, emitted
// by tools/systec_gen at build time). The generated symmetric kernel
// takes the prepared diagonal splits as parameters.
void ssymv_naive(const Tensor &A, const Tensor &X, Tensor &Y);
void ssymv_systec(const Tensor &A, const Tensor &ADiag,
                  const Tensor &ANondiag, const Tensor &X, Tensor &Y);

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  Rng R(20260611);
  CompileResult C = compileEinsum(makeSsymv());

  std::vector<std::unique_ptr<Holder>> Holders;
  std::vector<Row> Rows;
  for (const MatrixSpec &Spec : suiteForBench()) {
    auto H = std::make_unique<Holder>();
    H->Tensors.emplace("A", buildSuiteMatrix(Spec, R));
    H->Tensors.emplace("AU", upperTriangle(H->tensor("A")));
    H->Tensors.emplace("x", generateDenseVector(Spec.Dimension, R));
    H->Tensors.emplace("y", Tensor::dense({Spec.Dimension}));
    auto Split = H->tensor("A").splitDiagonal(Partition::full(2));
    H->Tensors.emplace("A_nondiag", std::move(Split.first));
    H->Tensors.emplace("A_diag", std::move(Split.second));
    Tensor *A = &H->tensor("A");
    Tensor *AU = &H->tensor("AU");
    Tensor *AOff = &H->tensor("A_nondiag");
    Tensor *ADiag = &H->tensor("A_diag");
    Tensor *X = &H->tensor("x");
    Tensor *Y = &H->tensor("y");

    Executor &Naive = H->addExecutor(C.Naive);
    Naive.bind("A", A).bind("x", X).bind("y", Y);
    checkOk(Naive.tryPrepare());
    Executor &Opt = H->addExecutor(C.Optimized);
    Opt.bind("A", A).bind("x", X).bind("y", Y);
    checkOk(Opt.tryPrepare());

    std::string Base = "ssymv/" + Spec.Name;
    auto Reset = [Y] { Y->setAllValues(0.0); };
    registerRun(Base + "/naive", Reset,
                [&Naive] { checkOk(Naive.tryRunBody()); });
    registerRun(Base + "/systec", Reset, [&Opt] { checkOk(Opt.tryRunBody()); });
    registerRun(Base + "/taco", Reset, [A, X, Y] { tacoSpmv(*A, *X, *Y); });
    registerRun(Base + "/mkl", Reset,
                [AU, X, Y] { mklSymv(*AU, *X, *Y); });
    // AOT-compiled compiler output (the Finch-JIT analogue).
    registerRun(Base + "/naive_gen", Reset,
                [A, X, Y] { ssymv_naive(*A, *X, *Y); });
    registerRun(Base + "/systec_gen", Reset, [A, ADiag, AOff, X, Y] {
      ssymv_systec(*A, *ADiag, *AOff, *X, *Y);
    });

    Row RowEntry;
    RowEntry.Label = Spec.Name;
    for (const char *Impl :
         {"naive", "systec", "naive_gen", "systec_gen", "taco", "mkl"})
      RowEntry.Entries.push_back({Impl, Base + "/" + Impl});
    Rows.push_back(RowEntry);
    Holders.push_back(std::move(H));
  }

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);
  printSpeedups(Rep, "Figure 6: SSYMV speedup over naive (engine rows; "
                     "see *_gen columns for AOT-compiled output)",
                {"naive", "systec", "naive_gen", "systec_gen", "taco",
                 "mkl"},
                Rows,
                /*ExpectedSpeedup=*/2.0);
  // Native shape: speedup of compiled compiler output.
  std::printf("\nAOT-generated-code speedups (systec_gen vs naive_gen, "
              "the paper's bandwidth-bound comparison):\n");
  double Geo = 0;
  unsigned N = 0;
  for (const Row &RowEntry : Rows) {
    double TN = Rep.millis("ssymv/" + RowEntry.Label + "/naive_gen");
    double TO = Rep.millis("ssymv/" + RowEntry.Label + "/systec_gen");
    if (TN > 0 && TO > 0) {
      std::printf("  %-16s %.2fx\n", RowEntry.Label.c_str(), TN / TO);
      Geo += std::log(TN / TO);
      ++N;
    }
  }
  if (N)
    std::printf("  geometric mean:  %.2fx (paper: 1.45x average)\n",
                std::exp(Geo / N));
  // Machine-readable trajectory log (single-threaded reference rows;
  // bench_threads records the thread-scaling rows).
  std::vector<BenchRecord> Records;
  // The naive/systec rows run through the Executor with its default
  // options; the *_gen/taco/mkl rows are native code with no
  // ExecOptions (empty options field).
  const std::string EngineOpts = execOptionsSummary(ExecOptions());
  for (size_t RI = 0; RI < Rows.size(); ++RI) {
    const Row &RowEntry = Rows[RI];
    for (const auto &[Impl, BenchName] : RowEntry.Entries) {
      double Ms = Rep.millis(BenchName);
      const bool Engine = Impl == "naive" || Impl == "systec";
      if (Ms <= 0)
        continue;
      BenchRecord Rec{"ssymv", RowEntry.Label, Impl, 1, "none", Ms, 0,
                      Engine ? EngineOpts : "", "", ""};
      if (Engine) {
        // addExecutor order per holder: naive first, then systec.
        Executor &E = *Holders[RI]->Executors[Impl == "naive" ? 0 : 1];
        Tensor *Y = &Holders[RI]->tensor("y");
        annotateRecord(Rec, E, [Y] { Y->setAllValues(0.0); });
      }
      Records.push_back(std::move(Rec));
    }
  }
  writeBenchJson("BENCH_ssymv.json", Records);
  return 0;
}
