//===- bench/bench_ssyrk.cpp - Figure 9 reproduction ----------*- C++ -*-===//
///
/// \file
/// SSYRK (C[i,j] += A[i,k]*A[j,k], A asymmetric) — visible output
/// symmetry halves the computation; expected speedup ~2x (paper
/// measured 2.20x vs naive Finch).
///
/// The paper's artifact excludes SSYRK on the full suite ("takes too
/// much time and memory"); like the artifact we run it on smaller
/// synthetic matrices. C is stored dense here (the engine writes dense
/// outputs), so dimensions are capped to keep C in memory.
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
  Rng R(20260614);
  CompileResult C = compileEinsum(makeSsyrk());

  struct Config {
    int64_t N;
    int64_t NnzPerCol;
  };
  std::vector<Config> Configs{{500, 8},  {1000, 8},  {2000, 8},
                              {500, 32}, {1000, 32}, {2000, 32}};

  std::vector<std::unique_ptr<Holder>> Holders;
  std::vector<Row> Rows;
  for (const Config &Cfg : Configs) {
    auto H = std::make_unique<Holder>();
    H->Tensors.emplace("A",
                       generateSparseMatrix(Cfg.N, Cfg.N,
                                            Cfg.N * Cfg.NnzPerCol, R,
                                            TensorFormat::csf(2)));
    H->Tensors.emplace("C", Tensor::dense({Cfg.N, Cfg.N}));
    Tensor *A = &H->tensor("A");
    Tensor *Out = &H->tensor("C");

    Executor &Naive = H->addExecutor(C.Naive);
    Naive.bind("A", A).bind("C", Out);
    checkOk(Naive.tryPrepare());
    Executor &Opt = H->addExecutor(C.Optimized);
    Opt.bind("A", A).bind("C", Out);
    checkOk(Opt.tryPrepare());

    std::string Label = "n" + std::to_string(Cfg.N) + "_c" +
                        std::to_string(Cfg.NnzPerCol);
    std::string Base = "ssyrk/" + Label;
    auto Reset = [Out] { Out->setAllValues(0.0); };
    registerRun(Base + "/naive", Reset,
                [&Naive] { checkOk(Naive.tryRunBody()); });
    // Paper methodology: replication of the canonical triangle is a
    // post-processing step excluded from kernel timing.
    registerRun(Base + "/systec", Reset, [&Opt] { checkOk(Opt.tryRunBody()); });
    registerRun(Base + "/systec_repl", Reset,
                [&Opt] { checkOk(Opt.tryRun()); });
    registerRun(Base + "/taco", Reset, [A, Out] { tacoSsyrk(*A, *Out); });

    Row RowEntry;
    RowEntry.Label = Label;
    for (const char *Impl : {"naive", "systec", "systec_repl", "taco"})
      RowEntry.Entries.push_back({Impl, Base + "/" + Impl});
    Rows.push_back(RowEntry);
    Holders.push_back(std::move(H));
  }

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);
  printSpeedups(Rep, "Figure 9: SSYRK speedup over naive",
                {"naive", "systec", "systec_repl", "taco"}, Rows,
                /*ExpectedSpeedup=*/2.0);
  return 0;
}
