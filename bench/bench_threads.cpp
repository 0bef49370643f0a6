//===- bench/bench_threads.cpp - Thread-scaling benchmark -----*- C++ -*-===//
///
/// \file
/// Scaling of the parallel runtime on the symmetric kernels: SSYMV on
/// the largest suite matrix and SSYRK at the largest seed config, for
/// Threads in {1, 2, 4, 8} under every schedule policy. Prints a
/// speedup-vs-one-thread table (the acceptance trajectory: >= 3x at 8
/// threads on multicore hardware, with triangle-balanced beating
/// static blocks on the triangular nests) and appends machine-readable
/// BENCH_threads.json with kernel / threads / schedule / GFLOP/s.
///
/// The GFLOP/s figures use the runtime's own operation counters
/// (ScalarOps + Reductions of one instrumented run), so they measure
/// useful algorithmic work — the symmetry savings are visible as
/// fewer flops, not inflated rates.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Compiler.h"
#include "kernels/Kernels.h"

using namespace systec;
using namespace systec::bench;

namespace {

struct Variant {
  unsigned Threads;
  SchedulePolicy Policy;
};

std::vector<Variant> variants() {
  std::vector<Variant> Out{{1, SchedulePolicy::Auto}};
  for (unsigned T : {2u, 4u, 8u})
    for (SchedulePolicy P :
         {SchedulePolicy::Static, SchedulePolicy::Dynamic,
          SchedulePolicy::TriangleBalanced})
      Out.push_back({T, P});
  return Out;
}

std::string variantName(const Variant &V) {
  return "t" + std::to_string(V.Threads) + "_" +
         schedulePolicyName(V.Policy);
}

/// The single source of truth for a variant's execution options: used
/// to build the Executor *and* to attribute its BENCH_* record.
ExecOptions variantOptions(const Variant &V) {
  ExecOptions O;
  O.Threads = V.Threads;
  O.Schedule = V.Policy;
  return O;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  Rng R(20260731);

  struct Workload {
    std::string Kernel;
    std::string Label;
    CompileResult Compiled;
    std::unique_ptr<Holder> H;
    Tensor *Out = nullptr;
    double Flops = 0;
  };
  std::vector<Workload> Workloads;

  {
    // SSYMV on the largest matrix of the benchmark suite.
    MatrixSpec Largest{"", 0, 0};
    for (const MatrixSpec &S : suiteForBench())
      if (S.Dimension > Largest.Dimension)
        Largest = S;
    Workload W;
    W.Kernel = "ssymv";
    W.Label = Largest.Name;
    W.Compiled = compileEinsum(makeSsymv());
    W.H = std::make_unique<Holder>();
    W.H->Tensors.emplace("A", buildSuiteMatrix(Largest, R));
    W.H->Tensors.emplace("x", generateDenseVector(Largest.Dimension, R));
    W.H->Tensors.emplace("y", Tensor::dense({Largest.Dimension}));
    W.Out = &W.H->tensor("y");
    Workloads.push_back(std::move(W));
  }
  {
    // SSYRK at the largest seed benchmark config (n=2000, 32 nnz/col).
    const int64_t N = 2000, NnzPerCol = 32;
    Workload W;
    W.Kernel = "ssyrk";
    W.Label = "n2000_c32";
    W.Compiled = compileEinsum(makeSsyrk());
    W.H = std::make_unique<Holder>();
    W.H->Tensors.emplace("A", generateSparseMatrix(N, N, N * NnzPerCol, R,
                                                   TensorFormat::csf(2)));
    W.H->Tensors.emplace("C", Tensor::dense({N, N}));
    W.Out = &W.H->tensor("C");
    Workloads.push_back(std::move(W));
  }

  for (Workload &W : Workloads) {
    for (const Variant &V : variants()) {
      ExecOptions O = variantOptions(V);
      Executor &E = *W.H->Executors
                         .emplace_back(std::make_unique<Executor>(
                             W.Compiled.Optimized, O))
                         .get();
      for (auto &[Name, T] : W.H->Tensors)
        E.bind(Name, &T);
      checkOk(E.tryPrepare());
      if (W.Flops == 0) {
        // Count useful work once (any variant performs the same ops).
        setCountersEnabled(true);
        W.Out->setAllValues(0.0);
        obs::ExecReport Rep;
        checkOk(E.tryRunBody(&Rep));
        const CounterSnapshot &C = Rep.Counters;
        W.Flops = static_cast<double>(C.ScalarOps + C.Reductions);
      }
      Tensor *Out = W.Out;
      registerRun("threads/" + W.Kernel + "/" + W.Label + "/" +
                      variantName(V),
                  [Out] { Out->setAllValues(0.0); },
                  [&E] { checkOk(E.tryRunBody()); });
    }
  }

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);

  std::vector<BenchRecord> Records;
  for (Workload &W : Workloads) {
    std::string Base = "threads/" + W.Kernel + "/" + W.Label + "/";
    double T1 = Rep.millis(Base + variantName({1, SchedulePolicy::Auto}));
    std::printf("\n=== %s/%s thread scaling (one-thread: %.3f ms) ===\n",
                W.Kernel.c_str(), W.Label.c_str(), T1);
    std::printf("%-10s %12s %12s %12s\n", "threads", "ms", "speedup",
                "GFLOP/s");
    const std::vector<Variant> Vars = variants();
    for (size_t VI = 0; VI < Vars.size(); ++VI) {
      const Variant &V = Vars[VI];
      double Ms = Rep.millis(Base + variantName(V));
      if (Ms <= 0)
        continue;
      double GFlops = W.Flops / (Ms * 1e6);
      std::printf("%-10s %12.3f %12.2f %12.3f\n", variantName(V).c_str(),
                  Ms, T1 / Ms, GFlops);
      BenchRecord Rec{W.Kernel, W.Label, "systec", V.Threads,
                      schedulePolicyName(V.Policy), Ms, GFlops,
                      execOptionsSummary(variantOptions(V)), "", ""};
      // Executors were appended in variants() order per workload.
      Tensor *Out = W.Out;
      annotateRecord(Rec, *W.H->Executors[VI],
                     [Out] { Out->setAllValues(0.0); });
      Records.push_back(std::move(Rec));
    }
    // The acceptance comparison: triangle-balanced vs static blocks.
    double Tri = Rep.millis(
        Base + variantName({8, SchedulePolicy::TriangleBalanced}));
    double Sta = Rep.millis(Base + variantName({8, SchedulePolicy::Static}));
    if (Tri > 0 && Sta > 0)
      std::printf("triangle vs static at 8 threads: %.2fx\n", Sta / Tri);
  }
  writeBenchJson("BENCH_threads.json", Records);
  return 0;
}
