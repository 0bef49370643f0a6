//===- bench/bench_ssymv.cpp - Figure 6 reproduction ----------*- C++ -*-===//
///
/// \file
/// SSYMV (y[i] += A[i,j]*x[j], A symmetric CSC) over the Table 2 suite:
/// naive engine vs SySTeC engine (the paper's red-line normalization),
/// the same two kernels on the native engine (C++ emitted from the
/// compiled plan and built by the host compiler, the Finch-JIT
/// analogue), plus native taco-like SpMV and mkl-like symmetric SpMV
/// comparators. Expected speedup approaches 2x (bandwidth bound; paper
/// measured 1.45x average vs naive Finch).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "baselines/Baselines.h"
#include "core/Compiler.h"
#include "jit/NativeKernelCache.h"
#include "kernels/Kernels.h"

using namespace systec;
using namespace systec::bench;

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  Rng R(20260611);
  CompileResult C = compileEinsum(makeSsymv());

  // The naive and systec rows run the per-loop engines (named outright,
  // so they never tier up mid-run). The *_native rows ride along
  // whenever a host compiler is available; otherwise they are skipped
  // with a visible note.
  const ExecOptions EngineOpt = perLoopEngines();
  ExecOptions NativeOpt;
  NativeOpt.Engines = {Engine::Native, Engine::Fused, Engine::Interp};
  std::string NoCompiler;
  const bool WithNative =
      jit::NativeKernelCache::compilerAvailable(&NoCompiler);
  if (!WithNative)
    std::printf("native rows skipped: %s\n", NoCompiler.c_str());

  std::vector<std::unique_ptr<Holder>> Holders;
  std::vector<Row> Rows;
  // Per row, the executor behind each engine impl (for the records).
  std::vector<std::map<std::string, Executor *>> RowExecs;
  for (const MatrixSpec &Spec : suiteForBench()) {
    auto H = std::make_unique<Holder>();
    H->Tensors.emplace("A", buildSuiteMatrix(Spec, R));
    H->Tensors.emplace("AU", upperTriangle(H->tensor("A")));
    H->Tensors.emplace("x", generateDenseVector(Spec.Dimension, R));
    H->Tensors.emplace("y", Tensor::dense({Spec.Dimension}));
    Tensor *A = &H->tensor("A");
    Tensor *AU = &H->tensor("AU");
    Tensor *X = &H->tensor("x");
    Tensor *Y = &H->tensor("y");

    std::string Base = "ssymv/" + Spec.Name;
    auto Reset = [Y] { Y->setAllValues(0.0); };
    std::map<std::string, Executor *> &Execs = RowExecs.emplace_back();
    // Prepares \p K under \p O and registers its body as row \p Impl.
    // Native rows wait for their build first, so every timed run is
    // native; a build that falls back is reported and left out, so a
    // fused run is never labelled native.
    auto AddEngineRun = [&](const std::string &Impl, const Kernel &K,
                            const ExecOptions &O) {
      H->Executors.push_back(std::make_unique<Executor>(K, O));
      Executor &E = *H->Executors.back();
      E.bind("A", A).bind("x", X).bind("y", Y);
      checkOk(E.tryPrepare());
      if (O.Engines.front() == Engine::Native)
        if (Status S = E.awaitNative(); !S.ok()) {
          std::printf("%s/%s: native build fell back (%s)\n",
                      Spec.Name.c_str(), Impl.c_str(), S.str().c_str());
          H->Executors.pop_back();
          return;
        }
      Execs[Impl] = &E;
      registerRun(Base + "/" + Impl, Reset, [&E] { checkOk(E.tryRunBody()); });
    };
    AddEngineRun("naive", C.Naive, EngineOpt);
    AddEngineRun("systec", C.Optimized, EngineOpt);
    if (WithNative) {
      AddEngineRun("naive_native", C.Naive, NativeOpt);
      AddEngineRun("systec_native", C.Optimized, NativeOpt);
    }
    registerRun(Base + "/taco", Reset, [A, X, Y] { tacoSpmv(*A, *X, *Y); });
    registerRun(Base + "/mkl", Reset,
                [AU, X, Y] { mklSymv(*AU, *X, *Y); });

    Row RowEntry;
    RowEntry.Label = Spec.Name;
    for (const char *Impl : {"naive", "systec", "naive_native",
                             "systec_native", "taco", "mkl"})
      RowEntry.Entries.push_back({Impl, Base + "/" + Impl});
    Rows.push_back(RowEntry);
    Holders.push_back(std::move(H));
  }

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);
  printSpeedups(Rep, "Figure 6: SSYMV speedup over naive (engine rows; "
                     "see *_native columns for compiled output)",
                {"naive", "systec", "naive_native", "systec_native", "taco",
                 "mkl"},
                Rows,
                /*ExpectedSpeedup=*/2.0);
  // Native shape: speedup of compiled compiler output.
  std::printf("\nNative generated-code speedups (systec_native vs "
              "naive_native, the paper's bandwidth-bound comparison):\n");
  double Geo = 0;
  unsigned N = 0;
  for (const Row &RowEntry : Rows) {
    double TN = Rep.millis("ssymv/" + RowEntry.Label + "/naive_native");
    double TO = Rep.millis("ssymv/" + RowEntry.Label + "/systec_native");
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
  // The engine rows carry their ExecOptions; the taco/mkl rows are
  // native code with no ExecOptions (empty options field).
  for (size_t RI = 0; RI < Rows.size(); ++RI) {
    const Row &RowEntry = Rows[RI];
    for (const auto &[Impl, BenchName] : RowEntry.Entries) {
      double Ms = Rep.millis(BenchName);
      if (Ms <= 0)
        continue;
      auto It = RowExecs[RI].find(Impl);
      Executor *E = It == RowExecs[RI].end() ? nullptr : It->second;
      const ExecOptions &O =
          Impl.ends_with("_native") ? NativeOpt : EngineOpt;
      BenchRecord Rec{"ssymv", RowEntry.Label, Impl, 1, Ms, 0,
                      E ? execOptionsSummary(O) : "", "", ""};
      if (E) {
        Tensor *Y = &Holders[RI]->tensor("y");
        annotateRecord(Rec, *E, [Y] { Y->setAllValues(0.0); });
      }
      Records.push_back(std::move(Rec));
    }
  }
  writeBenchJson("BENCH_ssymv.json", Records);
  return 0;
}
