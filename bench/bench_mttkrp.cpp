//===- bench/bench_mttkrp.cpp - Figure 11 reproduction --------*- C++ -*-===//
///
/// \file
/// 3-, 4-, and 5-dimensional MTTKRP with fully symmetric A over a
/// sparsity x rank sweep (paper Figure 11). Expected speedups grow with
/// the order: ~2x / ~6x / ~24x from the 1/(n-1)! computation saving,
/// with the paper's maxima at 3.38x / 7.35x / 29.8x. SPLATT- and
/// TACO-style native 3-d kernels are included as comparators.
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
  Rng R(20260616);

  struct Config {
    unsigned Order;
    int64_t N;
    int64_t Canonical;
    int64_t Rank;
  };
  // Dimensions are kept large relative to the order so diagonal edge
  // cases stay rare (the artifact notes that shrinking the tensors
  // "may demonstrate slightly less speedup as more time is spent on
  // diagonal edge cases").
  std::vector<Config> Configs{
      {3, 100, 5000, 10}, {3, 100, 5000, 100}, {3, 100, 50000, 10},
      {3, 100, 50000, 100}, {4, 80, 3000, 10}, {4, 80, 3000, 100},
      {4, 80, 15000, 10},  {5, 60, 1500, 10},  {5, 60, 1500, 100},
      {5, 60, 6000, 10}};

  std::vector<std::unique_ptr<Holder>> Holders;
  std::map<unsigned, std::vector<Row>> RowsByOrder;
  std::map<std::string, std::pair<uint64_t, uint64_t>> ReadCounts;

  for (const Config &Cfg : Configs) {
    CompileResult C = compileEinsum(makeMttkrp(Cfg.Order));
    auto H = std::make_unique<Holder>();
    H->Tensors.emplace("A",
                       generateSymmetricTensor(Cfg.Order, Cfg.N,
                                               Cfg.Canonical, R,
                                               TensorFormat::csf(Cfg.Order)));
    H->Tensors.emplace("B", generateDenseMatrix(Cfg.N, Cfg.Rank, R));
    H->Tensors.emplace("C", Tensor::dense({Cfg.N, Cfg.Rank}));
    Tensor *A = &H->tensor("A");
    Tensor *B = &H->tensor("B");
    Tensor *Out = &H->tensor("C");

    Executor &Naive = H->addExecutor(C.Naive);
    Naive.bind("A", A).bind("B", B).bind("C", Out);
    checkOk(Naive.tryPrepare());
    Executor &Opt = H->addExecutor(C.Optimized);
    Opt.bind("A", A).bind("B", B).bind("C", Out);
    checkOk(Opt.tryPrepare());

    char LabelBuf[96];
    std::snprintf(LabelBuf, sizeof(LabelBuf), "%ud_nnz%lld_r%lld",
                  Cfg.Order, static_cast<long long>(A->storedCount()),
                  static_cast<long long>(Cfg.Rank));
    std::string Label = LabelBuf;
    std::string Base = "mttkrp/" + Label;

    // Measure the canonical-read saving once (paper: 1/n! of A).
    obs::ExecReport NaiveRep, OptRep;
    checkOk(Naive.tryRunBody(&NaiveRep));
    checkOk(Opt.tryRunBody(&OptRep));
    ReadCounts[Label] = {NaiveRep.Counters.SparseReads,
                         OptRep.Counters.SparseReads};

    auto Reset = [Out] { Out->setAllValues(0.0); };
    registerRun(Base + "/naive", Reset,
                [&Naive] { checkOk(Naive.tryRunBody()); });
    registerRun(Base + "/systec", Reset, [&Opt] { checkOk(Opt.tryRunBody()); });
    if (Cfg.Order == 3) {
      registerRun(Base + "/taco", Reset,
                  [A, B, Out] { tacoMttkrp3(*A, *B, *Out); });
      registerRun(Base + "/splatt", Reset,
                  [A, B, Out] { splattMttkrp3(*A, *B, *Out); });
    }

    Row RowEntry;
    RowEntry.Label = Label;
    for (const char *Impl : {"naive", "systec", "taco", "splatt"})
      RowEntry.Entries.push_back({Impl, Base + "/" + Impl});
    RowsByOrder[Cfg.Order].push_back(RowEntry);
    Holders.push_back(std::move(H));
  }

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);
  double Expected[] = {0, 0, 0, 2.0, 6.0, 24.0};
  for (auto &[Order, Rows] : RowsByOrder) {
    printSpeedups(Rep,
                  "Figure 11: " + std::to_string(Order) +
                      "-dimensional MTTKRP speedup over naive",
                  {"naive", "systec", "taco", "splatt"}, Rows,
                  Expected[Order]);
  }
  std::printf("\ncanonical-read savings (reads of A, naive vs systec):\n");
  for (const auto &[Label, Counts] : ReadCounts)
    std::printf("  %-24s %12llu -> %10llu  (%.1fx; bound %s)\n",
                Label.c_str(),
                static_cast<unsigned long long>(Counts.first),
                static_cast<unsigned long long>(Counts.second),
                double(Counts.first) / double(Counts.second),
                Label[0] == '3' ? "6" : (Label[0] == '4' ? "24" : "120"));
  return 0;
}
