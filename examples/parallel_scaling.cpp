//===- examples/parallel_scaling.cpp - Parallel runtime demo --*- C++ -*-===//
///
/// \file
/// Demonstrates the parallel execution runtime: compiles SSYMV, prints
/// the optimized kernel's IR and the parallelism analysis's verdict on
/// each of its loops (safe or not, the triangle depth that balances
/// its chunks, and the outputs it privatizes), then runs the optimized
/// kernel across thread counts and reports timings and result
/// agreement. At Threads > 1, tryPrepare runs the outermost safe loop
/// of each nest in parallel.
///
/// Build and run:
///   cmake -B build && cmake --build build --target example_parallel_scaling
///   ./build/example_parallel_scaling [dimension]
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "parallel/ParallelAnalysis.h"
#include "runtime/Executor.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace systec;

int main(int Argc, char **Argv) {
  const int64_t N = Argc > 1 ? std::atoll(Argv[1]) : 20000;
  Rng R(42);
  Tensor A = generateSymmetricTensor(2, N, 8 * N, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(N, R);

  CompileResult C = compileEinsum(makeSsymv());
  std::printf("=== optimized kernel ===\n%s\n", C.Optimized.str().c_str());
  std::printf("=== parallel contract of each loop ===\n");
  Stmt::walk(C.Optimized.Body, [](const StmtPtr &S) {
    if (S->kind() != StmtKind::Loop)
      return;
    const LoopParallelism LP = analyzeLoopParallelism(S);
    if (!LP.Safe) {
      std::printf("  for %s: sequential\n", S->loopIndex().c_str());
      return;
    }
    std::printf("  for %s: parallel, triangle depth %d",
                S->loopIndex().c_str(), LP.TriangleDepth);
    for (const auto &[Name, Op] : LP.TensorMergeOps)
      std::printf(", privatizes %s (%s)", Name.c_str(), opInfo(Op).Name);
    for (const auto &[Name, Op] : LP.ScalarMergeOps)
      std::printf(", privatizes scalar %s (%s)", Name.c_str(),
                  opInfo(Op).Name);
    std::printf("\n");
  });
  std::printf("\n");

  Tensor Ref;
  double BaseMs = 0;
  std::printf("=== thread scaling on a %lld-dim symmetric matrix ===\n",
              static_cast<long long>(N));
  std::printf("%-8s %12s %10s %12s\n", "threads", "ms", "speedup",
              "maxAbsDiff");
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    Tensor Y = Tensor::dense({N});
    ExecOptions O;
    O.Threads = Threads;
    Executor E(C.Optimized, O);
    E.bind("A", &A).bind("x", &X).bind("y", &Y);
    // Warm once (materializes splits, allocates accumulators).
    Status S = E.tryPrepare();
    if (S.ok())
      S = E.tryRunBody();
    Y.setAllValues(0.0);
    auto T0 = std::chrono::steady_clock::now();
    if (S.ok())
      S = E.tryRun();
    if (!S.ok()) {
      std::fprintf(stderr, "%s\n", S.str().c_str());
      return 1;
    }
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    if (Threads == 1) {
      BaseMs = Ms;
      Ref = Y;
    }
    std::printf("%-8u %12.3f %10.2f %12.3g\n", Threads, Ms, BaseMs / Ms,
                Tensor::maxAbsDiff(Ref, Y));
  }
  std::printf("\nReduction privatization keeps every configuration "
              "within rounding of the sequential result; speedups "
              "require actual cores (this machine reports %u).\n",
              std::thread::hardware_concurrency());
  return 0;
}
