//===- bench/bench_table1.cpp - Table 1 reproduction ----------*- C++ -*-===//
///
/// \file
/// Table 1 is the feature-support matrix comparing MKL, TCE, Cyclops,
/// sBLACs, STUR and SySTeC. This binary reprints the table and then
/// *demonstrates* each SySTeC column by compiling a probe kernel
/// through this implementation: dense tensors, sparse tensors,
/// structured tensors (banded/RLE), general (non-contraction) einsums,
/// and the three redundancy optimizations (reads, operations, storage).
///
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "kernels/Oracle.h"
#include "runtime/Executor.h"
#include "support/Counters.h"

#include <cstdio>

using namespace systec;

namespace {

void printStatic() {
  std::printf("Table 1: supported features (Y = yes, p = partially)\n");
  std::printf("%-32s %5s %5s %8s %7s %5s %7s\n", "", "MKL", "TCE",
              "Cyclops", "sBLACs", "STUR", "SySTeC");
  auto Row = [](const char *Feature, const char *A, const char *B,
                const char *C, const char *D, const char *E,
                const char *F) {
    std::printf("%-32s %5s %5s %8s %7s %5s %7s\n", Feature, A, B, C, D, E,
                F);
  };
  Row("Supports Dense Tensors", "Y", "Y", "Y", "p1", "Y", "Y");
  Row("Supports Sparse Tensors", "p2", ".", "p1,3", "p3", ".", "Y");
  Row("Supports Structured Tensors", ".", ".", "p1", ".", "Y", "Y");
  Row("Supports General Einsums", ".", "p4", "p4", ".", "Y", "Y");
  Row("Optimizes Redundant Reads", ".", ".", ".", ".", ".", "Y");
  Row("Optimizes Redundant Operations", ".", "Y", "Y", "Y", "Y", "Y");
  Row("Optimizes Redundant Storage", ".", "Y", "Y", "Y", "Y", "Y");
  std::printf("1 = only static sizes, 2 = one sparse tensor at a time, "
              "3 = only symbolic patterns, 4 = only contractions\n\n");
}

bool checkKernel(const char *What, const Einsum &E,
                 std::map<std::string, Tensor> &Inputs,
                 std::vector<int64_t> OutDims, double Init) {
  CompileResult R = compileEinsum(E);
  std::map<std::string, const Tensor *> OracleIn;
  for (auto &[N, T] : Inputs)
    OracleIn[N] = &T;
  Tensor Ref = oracleEval(E, OracleIn);
  Tensor Out = Tensor::dense(OutDims, 0.0);
  Out.setAllValues(Init);
  Executor Exec(R.Optimized);
  for (auto &[N, T] : Inputs)
    Exec.bind(N, &T);
  Exec.bind(E.Output->tensorName(), &Out);
  obs::ExecReport Rep;
  const bool Ok = Exec.tryPrepare().ok() && Exec.tryRun(&Rep).ok() &&
                  Tensor::maxAbsDiff(Out, Ref) < 1e-8;
  const CounterSnapshot &C = Rep.Counters;
  std::printf("  [%s] %-34s %s (%llu sparse reads, %llu scalar ops)\n",
              Ok ? "ok" : "FAIL", What, E.str().c_str(),
              static_cast<unsigned long long>(C.SparseReads),
              static_cast<unsigned long long>(C.ScalarOps));
  return Ok;
}

} // namespace

int main() {
  printStatic();
  std::printf("SySTeC-cpp feature probes (each compiled, run, and "
              "checked against the dense oracle):\n");
  Rng R(1);
  bool AllOk = true;
  {
    // Dense tensors.
    Einsum E = makeSsymv();
    E.declare("A", TensorFormat::dense(2));
    E.setSymmetry("A", Partition::full(2));
    std::map<std::string, Tensor> In;
    Tensor A = generateSymmetricTensor(2, 40, 200, R, TensorFormat::csf(2));
    In.emplace("A", Tensor::fromCoo(A.toCoo(), TensorFormat::dense(2)));
    In.emplace("x", generateDenseVector(40, R));
    AllOk &= checkKernel("dense tensors", E, In, {40}, 0.0);
  }
  {
    // Sparse tensors (two sparse operands at once, unlike Cyclops).
    Einsum E = parseEinsum("frob", "y[] += A[i,j] * B[i,j]");
    E.LoopOrder = {"j", "i"};
    E.declare("A", TensorFormat::csf(2));
    E.setSymmetry("A", Partition::full(2));
    E.declare("B", TensorFormat::csf(2));
    E.setSymmetry("B", Partition::full(2));
    std::map<std::string, Tensor> In;
    In.emplace("A", generateSymmetricTensor(2, 40, 150, R,
                                            TensorFormat::csf(2)));
    In.emplace("B", generateSymmetricTensor(2, 40, 150, R,
                                            TensorFormat::csf(2)));
    AllOk &= checkKernel("two sparse tensors", E, In, {1}, 0.0);
  }
  {
    // Structured tensors: banded symmetric input.
    Einsum E = makeSsymv();
    TensorFormat Banded;
    Banded.Levels = {LevelKind::Dense, LevelKind::Banded};
    E.declare("A", Banded);
    E.setSymmetry("A", Partition::full(2));
    std::map<std::string, Tensor> In;
    In.emplace("A", generateBandedSymmetric(50, 3, R, Banded));
    In.emplace("x", generateDenseVector(50, R));
    AllOk &= checkKernel("structured (banded) tensors", E, In, {50}, 0.0);
  }
  {
    // General einsums beyond contractions: MTTKRP (Khatri-Rao).
    std::map<std::string, Tensor> In;
    In.emplace("A", generateSymmetricTensor(3, 20, 100, R,
                                            TensorFormat::csf(3)));
    In.emplace("B", generateDenseMatrix(20, 6, R));
    AllOk &= checkKernel("general einsums (MTTKRP)", makeMttkrp(3), In,
                         {20, 6}, 0.0);
  }
  {
    // General operators: (min,+) semiring.
    std::map<std::string, Tensor> In;
    double Inf = std::numeric_limits<double>::infinity();
    In.emplace("A", generateSymmetricTensor(2, 40, 150, R,
                                            TensorFormat::csf(2), Inf));
    In.emplace("d", generateDenseVector(40, R));
    AllOk &= checkKernel("general operators (min-plus)",
                         makeBellmanFord(), In, {40}, Inf);
  }
  std::printf("\nredundancy optimizations (SSYMV, 400x400, ~3200 nnz):\n");
  {
    Einsum E = makeSsymv();
    CompileResult C = compileEinsum(E);
    Tensor A = generateSymmetricTensor(2, 400, 1600, R,
                                       TensorFormat::csf(2));
    Tensor X = generateDenseVector(400, R);
    Tensor Y = Tensor::dense({400});
    auto Measure = [&](const Kernel &K) {
      Y.setAllValues(0.0);
      Executor Exec(K);
      Exec.bind("A", &A).bind("x", &X).bind("y", &Y);
      obs::ExecReport Rep;
      AllOk &= Exec.tryPrepare().ok() && Exec.tryRun(&Rep).ok();
      return Rep.Counters;
    };
    CounterSnapshot N = Measure(C.Naive);
    CounterSnapshot O = Measure(C.Optimized);
    std::printf("  redundant reads:      %llu -> %llu (optimized)\n",
                static_cast<unsigned long long>(N.SparseReads),
                static_cast<unsigned long long>(O.SparseReads));
    std::printf("  redundant operations: %llu -> %llu scalar ops for "
                "SYPRD-class kernels (see bench_syprd, bench_mttkrp)\n",
                static_cast<unsigned long long>(N.ScalarOps),
                static_cast<unsigned long long>(O.ScalarOps));
    Tensor Up = upperTriangle(A);
    std::printf("  redundant storage:    the optimized kernel touches "
                "only the canonical triangle (%zu of %zu stored "
                "entries), so canonical-triangle storage suffices\n",
                Up.storedCount(), A.storedCount());
  }
  std::printf("\n%s\n", AllOk ? "all feature probes passed"
                              : "FEATURE PROBES FAILED");
  return AllOk ? 0 : 1;
}
