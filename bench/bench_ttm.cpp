//===- bench/bench_ttm.cpp - Figure 10 reproduction -----------*- C++ -*-===//
///
/// \file
/// TTM (C[i,j,l] += A[k,j,l]*B[k,i], A fully symmetric CSF) over a
/// density x rank sweep, like the paper's Figure 10. The optimized
/// kernel reads 1/6 of A and performs 1/2 of the computation; expected
/// speedup >= 2x at high density / low rank, degrading at high rank
/// where dense-output initialization dominates (paper 5.2.5).
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
  Rng R(20260615);
  CompileResult C = compileEinsum(makeTtm());

  const int64_t N = 50;
  std::vector<double> Densities{0.01, 0.05, 0.2};
  std::vector<int64_t> Ranks{4, 16, 64};

  std::vector<std::unique_ptr<Holder>> Holders;
  std::vector<Row> Rows;
  for (double Density : Densities) {
    // Canonical entries so that the full symmetric tensor has about
    // Density * N^3 stored values.
    int64_t Canonical =
        static_cast<int64_t>(Density * N * N * N / 6.0) + 1;
    for (int64_t Rank : Ranks) {
      auto H = std::make_unique<Holder>();
      H->Tensors.emplace("A", generateSymmetricTensor(
                                  3, N, Canonical, R, TensorFormat::csf(3)));
      H->Tensors.emplace("B", generateDenseMatrix(N, Rank, R));
      H->Tensors.emplace("C", Tensor::dense({Rank, N, N}));
      Tensor *A = &H->tensor("A");
      Tensor *B = &H->tensor("B");
      Tensor *Out = &H->tensor("C");

      Executor &Naive = H->addExecutor(C.Naive);
      Naive.bind("A", A).bind("B", B).bind("C", Out);
      checkOk(Naive.tryPrepare());
      Executor &Opt = H->addExecutor(C.Optimized);
      Opt.bind("A", A).bind("B", B).bind("C", Out);
      checkOk(Opt.tryPrepare());

      char LabelBuf[64];
      std::snprintf(LabelBuf, sizeof(LabelBuf), "d%.2f_r%lld", Density,
                    static_cast<long long>(Rank));
      std::string Label = LabelBuf;
      std::string Base = "ttm/" + Label;
      auto Reset = [Out] { Out->setAllValues(0.0); };
      registerRun(Base + "/naive", Reset,
                  [&Naive] { checkOk(Naive.tryRunBody()); });
      registerRun(Base + "/systec", Reset,
                  [&Opt] { checkOk(Opt.tryRunBody()); });
      registerRun(Base + "/taco", Reset,
                  [A, B, Out] { tacoTtm(*A, *B, *Out); });

      Row RowEntry;
      RowEntry.Label = Label;
      for (const char *Impl : {"naive", "systec", "taco"})
        RowEntry.Entries.push_back({Impl, Base + "/" + Impl});
      Rows.push_back(RowEntry);
      Holders.push_back(std::move(H));
    }
  }

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);
  printSpeedups(Rep, "Figure 10: TTM speedup over naive (density x rank)",
                {"naive", "systec", "taco"}, Rows,
                /*ExpectedSpeedup=*/2.0);
  return 0;
}
