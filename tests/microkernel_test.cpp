//===- tests/microkernel_test.cpp -----------------------------*- C++ -*-===//
///
/// Unit tests for the runtime specialization layer
/// (runtime/MicroKernels.h): each fused shape — sparse axpy/dot, dense
/// scale-accumulate, sparse-sparse two-finger merge, nest fusion — is
/// checked bit-identical to the generic interpreted path with exact
/// counter parity, including empty rows, non-zero fill (min-plus),
/// multiplicity handling, and the deliberate fallbacks. Also covers the
/// expression-VM deep-stack fix and the stateful SparseLoad locator.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "ir/Kernel.h"
#include "kernels/Kernels.h"
#include "runtime/Executor.h"
#include "support/Counters.h"
#include "support/Random.h"
#include "tensor/Tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <optional>

using namespace systec;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// A CSC matrix with an empty column and an empty row:
///   [ 1 0 0 2 ]
///   [ 0 0 0 0 ]
///   [ 3 0 4 0 ]
///   [ 0 0 5 6 ]
Tensor gappyCsc(double Fill = 0.0) {
  Coo C({4, 4});
  C.add({0, 0}, 1);
  C.add({2, 0}, 3);
  C.add({2, 2}, 4);
  C.add({3, 2}, 5);
  C.add({0, 3}, 2);
  C.add({3, 3}, 6);
  return Tensor::fromCoo(std::move(C), TensorFormat::csf(2), Fill);
}

/// Quantizes stored values to small integers so sums are exact and
/// bit-identical across task decompositions (thread-count sweeps).
void quantizeIntegers(Tensor &T) {
  for (double &V : T.vals())
    if (!std::isinf(V))
      V = std::floor(V * 8);
}

Tensor denseVec(std::vector<double> V) {
  Tensor T = Tensor::dense({static_cast<int64_t>(V.size())});
  T.vals() = std::move(V);
  return T;
}

void expectBitIdentical(const Tensor &A, const Tensor &B,
                        const char *What) {
  ASSERT_EQ(A.vals().size(), B.vals().size()) << What;
  for (size_t I = 0; I < A.vals().size(); ++I)
    EXPECT_EQ(A.vals()[I], B.vals()[I]) << What << " element " << I;
}

void expectCountersEqual(const CounterSnapshot &G,
                         const CounterSnapshot &F, const char *What) {
  EXPECT_EQ(G.SparseReads, F.SparseReads) << What;
  EXPECT_EQ(G.Reductions, F.Reductions) << What;
  EXPECT_EQ(G.ScalarOps, F.ScalarOps) << What;
  EXPECT_EQ(G.OutputWrites, F.OutputWrites) << What;
}

/// Runs \p K twice — micro-kernels off and on — over the same bindings
/// produced by \p Bind, asserting bit-identical outputs and exact
/// counter parity. Returns the fused executor's specialization stats.
MicroKernelStats
compareEngines(const Kernel &K,
               const std::function<void(Executor &, Tensor &)> &Bind,
               Tensor OutTemplate, const char *What) {
  MicroKernelStats Stats;
  Tensor OutGeneric = OutTemplate, OutFused = std::move(OutTemplate);
  CounterSnapshot SnapGeneric, SnapFused;
  for (bool Fused : {false, true}) {
    ExecOptions O;
    if (!Fused)
      O.Engines = {Engine::Interp};
    Executor E(K, O);
    Tensor &Out = Fused ? OutFused : OutGeneric;
    Bind(E, Out);
    E.prepare();
    setCountersEnabled(true);
    E.run();
    (Fused ? SnapFused : SnapGeneric) = E.lastReport().Counters;
    if (Fused)
      Stats = E.microKernelStats();
  }
  expectBitIdentical(OutGeneric, OutFused, What);
  expectCountersEqual(SnapGeneric, SnapFused, What);
  return Stats;
}

Kernel spmvKernel(std::optional<OpKind> Reduce = OpKind::Add,
                  OpKind Combine = OpKind::Mul) {
  Kernel K;
  K.Name = "spmv";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loops(
      {"j", "i"},
      Stmt::assign(Expr::access("y", {"i"}), Reduce,
                   Expr::call(Combine, {Expr::access("A", {"i", "j"}),
                                        Expr::access("x", {"j"})})));
  return K;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fused shapes vs. the generic oracle
//===----------------------------------------------------------------------===//

TEST(MicroKernels, SparseAxpyBitIdentical) {
  Tensor A = gappyCsc();
  Tensor X = denseVec({1.5, -2, 0.25, 3});
  MicroKernelStats S = compareEngines(
      spmvKernel(),
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("x", &X).bind("y", &Out);
      },
      Tensor::dense({4}), "sparse axpy");
  EXPECT_GT(S.SpecializedLoops, 0u);
  EXPECT_GT(S.InnermostFused, 0u);
  EXPECT_EQ(S.GenericLoops, 0u);
}

TEST(MicroKernels, SparseDotScalarWorkspace) {
  // w = sum_i A[i,j] * x[i] accumulated into a scalar workspace, then
  // y[j] += w: the ssymv-style def / inner-loop / tail-assign nest.
  Kernel K;
  K.Name = "dot";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loop(
      "j",
      Stmt::block(
          {Stmt::defScalar("w", Expr::lit(0.0)),
           Stmt::loop("i", Stmt::assign(Expr::scalar("w"), OpKind::Add,
                                        Expr::call(OpKind::Mul,
                                                   {Expr::access("A", {"i", "j"}),
                                                    Expr::access("x", {"i"})}))),
           Stmt::assign(Expr::access("y", {"j"}), OpKind::Add,
                        Expr::scalar("w"))}));
  Tensor A = gappyCsc();
  Tensor X = denseVec({1, 2, 3, 4});
  MicroKernelStats S = compareEngines(
      K,
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("x", &X).bind("y", &Out);
      },
      Tensor::dense({4}), "sparse dot");
  EXPECT_EQ(S.SpecializedLoops, 2u); // fused nest over fused inner loop
  EXPECT_EQ(S.InnermostFused, 1u);
}

TEST(MicroKernels, MinPlusFillRespected) {
  // Bellman-Ford shape: y[i] min= A[i,j] + d[j] with fill = inf.
  Tensor A = gappyCsc(Inf);
  Tensor D = denseVec({0.5, 10, 2, 1});
  Tensor Out = Tensor::dense({4});
  Out.setAllValues(Inf);
  MicroKernelStats S = compareEngines(
      spmvKernel(OpKind::Min, OpKind::Add),
      [&](Executor &E, Tensor &O) {
        E.bind("A", &A).bind("x", &D).bind("y", &O);
      },
      std::move(Out), "min-plus");
  EXPECT_GT(S.SpecializedLoops, 0u);
}

TEST(MicroKernels, SparseSparseMergeIntersects) {
  // O[j] += A[i,j] * B[i,j]: both operands sparse, so the inner loop
  // is a two-walker intersection (two-finger merge in the fused path,
  // per-element locate in the generic one). Includes empty fibers and
  // partial overlap.
  Einsum E = parseEinsum("merge", "O[j] += A[i,j] * B[i,j]");
  E.LoopOrder = {"j", "i"};
  E.declare("A", TensorFormat::csf(2));
  E.declare("B", TensorFormat::csf(2));
  CompileResult R = compileEinsum(E);

  Tensor A = gappyCsc();
  Coo BC({4, 4});
  BC.add({0, 0}, 2);   // overlaps (0,0)
  BC.add({1, 0}, 7);   // A has no (1,0)
  BC.add({3, 2}, -1);  // overlaps (3,2)
  BC.add({1, 1}, 4);   // column empty in A
  Tensor B = Tensor::fromCoo(std::move(BC), TensorFormat::csf(2));

  MicroKernelStats S = compareEngines(
      R.Naive,
      [&](Executor &Ex, Tensor &Out) {
        Ex.bind("A", &A).bind("B", &B).bind("O", &Out);
      },
      Tensor::dense({4}), "sparse-sparse merge");
  EXPECT_GT(S.SpecializedLoops, 0u);
  EXPECT_GT(S.InnermostFused, 0u);
}

TEST(MicroKernels, DenseScaleAccumulateStrided) {
  // ttm-style innermost dense loop with strided output and several
  // statements per iteration, via the real ttm pipeline (covers nest
  // fusion over a dense range driver and invariant guards in the
  // diagonal kernel).
  Rng R(11);
  CompileResult C = compileEinsum(makeTtm());
  Tensor A = generateSymmetricTensor(3, 12, 150, R, TensorFormat::csf(3));
  Tensor B = generateDenseMatrix(12, 5, R);
  MicroKernelStats S = compareEngines(
      C.Optimized,
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("B", &B).bind("C", &Out);
      },
      Tensor::dense({5, 12, 12}), "ttm scale-accumulate");
  EXPECT_GT(S.InnermostFused, 0u);
}

TEST(MicroKernels, MultiplicityFoldsIntoFusedPath) {
  // Mult=2 with an additive reduction folds into the program (y += 2*e)
  // and fuses; outputs must match the generic engine exactly.
  Kernel K;
  K.Name = "mult2";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loops(
      {"j", "i"},
      Stmt::assign(Expr::access("y", {"i"}), OpKind::Add,
                   Expr::call(OpKind::Mul, {Expr::access("A", {"i", "j"}),
                                            Expr::access("x", {"j"})}),
                   /*Multiplicity=*/2));
  Tensor A = gappyCsc();
  Tensor X = denseVec({1, 2, 3, 4});
  MicroKernelStats S = compareEngines(
      K,
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("x", &X).bind("y", &Out);
      },
      Tensor::dense({4}), "multiplicity 2");
  EXPECT_GT(S.SpecializedLoops, 0u);
}

TEST(MicroKernels, GeneralMultiplicityFallsBack) {
  // Mult=3 under a Mul-reduction cannot fold; the specializer must
  // leave the loop interpreted and results must still agree.
  Kernel K;
  K.Name = "mult3";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loops(
      {"j", "i"},
      Stmt::assign(Expr::access("y", {"i"}), OpKind::Mul,
                   Expr::access("A", {"i", "j"}),
                   /*Multiplicity=*/3));
  Tensor A = gappyCsc();
  Tensor Out = Tensor::dense({4});
  Out.setAllValues(1.0);
  MicroKernelStats S = compareEngines(
      K,
      [&](Executor &E, Tensor &O) { E.bind("A", &A).bind("y", &O); },
      std::move(Out), "multiplicity 3 fallback");
  EXPECT_GT(S.GenericLoops, 0u);
  EXPECT_EQ(S.InnermostFused, 0u);
}

TEST(MicroKernels, AblationSwitchReportsStats) {
  Tensor A = gappyCsc();
  Tensor X = denseVec({1, 1, 1, 1});
  Tensor Y = Tensor::dense({4});
  ExecOptions Off;
  Off.Engines = {Engine::Interp};
  Executor EOff(spmvKernel(), Off);
  EOff.bind("A", &A).bind("x", &X).bind("y", &Y);
  EOff.prepare();
  EXPECT_EQ(EOff.microKernelStats().SpecializedLoops, 0u);
  EXPECT_EQ(EOff.microKernelStats().GenericLoops, 2u);

  Executor EOn(spmvKernel());
  EOn.bind("A", &A).bind("x", &X).bind("y", &Y);
  EOn.prepare();
  EXPECT_EQ(EOn.microKernelStats().SpecializedLoops, 2u);
  EXPECT_EQ(EOn.microKernelStats().GenericLoops, 0u);
}

//===----------------------------------------------------------------------===//
// Expression VM: deep stacks and the stateful locator
//===----------------------------------------------------------------------===//

TEST(ExpressionVm, DeepExpressionUsesHeapStack) {
  // A 40-factor product needs a 40-deep operand stack — beyond the
  // VM's fixed buffer (this crashed before the compile-time depth
  // check). The wide product also exceeds the fused factor cap, so the
  // interpreted path is what executes.
  constexpr unsigned Width = 40;
  std::vector<ExprPtr> Args;
  for (unsigned I = 0; I < Width; ++I)
    Args.push_back(Expr::access("b", {"a"}));
  Kernel K;
  K.Name = "deep";
  K.LoopOrder = {"a"};
  K.OutputName = "y";
  K.Body = Stmt::loop("a", Stmt::assign(Expr::access("y", {}),
                                        OpKind::Add,
                                        Expr::call(OpKind::Mul,
                                                   std::move(Args))));
  Tensor B = denseVec({1.0, 2.0, 0.5});
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("b", &B).bind("y", &Y);
  E.prepare();
  E.run();
  const double Expected = 1.0 + std::pow(2.0, 40) + std::pow(0.5, 40);
  EXPECT_DOUBLE_EQ(Y.at({0}), Expected);
}

TEST(ExpressionVm, LocatorMatchesRandomAccess) {
  // Non-concordant access A[j,i] under loop order (j, i): the value is
  // fetched by SparseLoad, which now runs through the galloping
  // locator. Results and SparseReads must match the walker-free oracle
  // semantics exactly.
  Kernel K;
  K.Name = "locator";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loops(
      {"j", "i"},
      Stmt::assign(Expr::access("y", {}), OpKind::Add,
                   Expr::access("A", {"j", "i"})));
  Tensor A = gappyCsc();
  double Sum = 0;
  A.forEach([&](const std::vector<int64_t> &, double V) { Sum += V; });

  for (bool Walk : {true, false}) {
    ExecOptions O;
    O.EnableSparseWalk = Walk;
    Executor E(K, O);
    Tensor Y = Tensor::dense({1});
    E.bind("A", &A).bind("y", &Y);
    E.prepare();
    E.run();
    EXPECT_DOUBLE_EQ(Y.at({0}), Sum) << "walk=" << Walk;
    EXPECT_GT(E.lastReport().Counters.SparseReads, 0u);
  }
}

TEST(ExpressionVm, LocatorRandomizedAgainstAt) {
  // Hammer locateHinted against locate on random fibers with mixed
  // forward/backward/repeat query patterns.
  Rng R(99);
  Tensor A = generateSymmetricTensor(2, 64, 600, R, TensorFormat::csf(2));
  int64_t Parent = -1, Idx = 0;
  for (int Q = 0; Q < 4000; ++Q) {
    int64_t P = R.nextIndex(64);
    int64_t C = R.nextIndex(64);
    // Bias toward ascending queries under a sticky parent, the pattern
    // the cursor optimizes for.
    if (Q % 4 != 0 && Parent >= 0)
      P = Parent;
    int64_t Want = A.locate(1, P, C);
    int64_t Got = A.locateHinted(1, P, C, Parent, Idx);
    EXPECT_EQ(Want, Got) << "parent " << P << " coord " << C;
  }
}

//===----------------------------------------------------------------------===//
// Paper-kernel nests end to end
//===----------------------------------------------------------------------===//

TEST(MicroKernels, SsymvPipelineBitIdentical) {
  // The full ssymv pipeline: diagonal split, workspace def, fused
  // dense-over-sparse nests, and the replication-free epilogue.
  Rng R(5);
  CompileResult C = compileEinsum(makeSsymv());
  Tensor A = generateSymmetricTensor(2, 30, 120, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(30, R);
  MicroKernelStats S = compareEngines(
      C.Optimized,
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("x", &X).bind("y", &Out);
      },
      Tensor::dense({30}), "ssymv pipeline");
  EXPECT_GT(S.SpecializedLoops, 0u);
  EXPECT_GT(S.InnermostFused, 0u);
}

TEST(MicroKernels, SsyrkTriangleNestBitIdentical) {
  // ssyrk's three-deep nest: aliased dense co-walkers at the top,
  // sparse-over-sparse triangle below, replication epilogue on top.
  Rng R(6);
  CompileResult C = compileEinsum(makeSsyrk());
  Tensor A = generateSymmetricTensor(2, 24, 100, R, TensorFormat::csf(2));
  MicroKernelStats S = compareEngines(
      C.Optimized,
      [&](Executor &E, Tensor &Out) { E.bind("A", &A).bind("C", &Out); },
      Tensor::dense({24, 24}), "ssyrk nest");
  EXPECT_GT(S.SpecializedLoops, 0u);
}

TEST(MicroKernels, MttkrpInlinedDefsBitIdentical) {
  // mttkrp3's inner loop carries single-load scalar defs that the
  // specializer substitutes into the fused statements (and its diagonal
  // kernel guards defs and uses under the same residual conditions).
  Rng R(8);
  CompileResult C = compileEinsum(makeMttkrp(3));
  Tensor A = generateSymmetricTensor(3, 14, 180, R, TensorFormat::csf(3));
  Tensor B = generateDenseMatrix(14, 6, R);
  MicroKernelStats S = compareEngines(
      C.Optimized,
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("B", &B).bind("C", &Out);
      },
      Tensor::dense({14, 6}), "mttkrp3 defs");
  EXPECT_GT(S.InnermostFused, 0u);
}

//===----------------------------------------------------------------------===//
// Format-general drivers and contextual operands (PR 3)
//===----------------------------------------------------------------------===//

TEST(MicroKernels, RunLengthDriverBitIdentical) {
  // A RunLength bottom level drives the fused inner loop run by run,
  // expanding every coordinate exactly like the interpreter (and
  // counting one sparse read per coordinate, not per run).
  Rng R(21);
  TensorFormat Rle{{LevelKind::Dense, LevelKind::RunLength}};
  Tensor A = generateSymmetricTensor(2, 30, 60, R, Rle);
  Tensor X = generateDenseVector(30, R);
  MicroKernelStats S = compareEngines(
      spmvKernel(),
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("x", &X).bind("y", &Out);
      },
      Tensor::dense({30}), "runlength driver");
  EXPECT_GT(S.FusedRunLengthDrivers, 0u);
  EXPECT_EQ(S.GenericLoops, 0u);
}

TEST(MicroKernels, BandedDriverBitIdentical) {
  // A Banded bottom level drives the fused inner loop over its
  // clamped interval, including columns whose band misses [Lo, Hi].
  Rng R(22);
  TensorFormat Band{{LevelKind::Dense, LevelKind::Banded}};
  Tensor A = generateBandedSymmetric(30, 3, R, Band);
  Tensor X = generateDenseVector(30, R);
  MicroKernelStats S = compareEngines(
      spmvKernel(),
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("x", &X).bind("y", &Out);
      },
      Tensor::dense({30}), "banded driver");
  EXPECT_GT(S.FusedBandedDrivers, 0u);
  EXPECT_EQ(S.GenericLoops, 0u);
}

TEST(MicroKernels, SparseLoadOperandFusesWithExactCounters) {
  // y[j] += A[i,j] + s[i]: an additive body over fill-0 operands, so
  // the walker algebra vetoes every coordinate-skipping walker and both
  // sparse accesses compile to SparseLoad. The loops must still fuse —
  // the contextual engine chains the stateful locator — with exact
  // SparseReads parity against the interpreter.
  Kernel K;
  K.Name = "sload";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Decls["A"] = TensorDecl{"A", 2, TensorFormat::csf(2), 0.0,
                            Partition::none(2), false};
  K.Body = Stmt::loops(
      {"j", "i"},
      Stmt::assign(Expr::access("y", {"j"}), OpKind::Add,
                   Expr::call(OpKind::Add, {Expr::access("A", {"i", "j"}),
                                            Expr::access("s", {"i"})})));
  Tensor A = gappyCsc();
  Coo SC({4});
  SC.add({0}, 2.0);
  SC.add({2}, -1.5);
  Tensor S = Tensor::fromCoo(std::move(SC),
                             TensorFormat{{LevelKind::Sparse}});
  MicroKernelStats St = compareEngines(
      K,
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("s", &S).bind("y", &Out);
      },
      Tensor::dense({4}), "sparse-load operand");
  EXPECT_GT(St.FusedSparseLoadFactors, 0u);
  EXPECT_EQ(St.GenericLoops, 0u);
  EXPECT_EQ(St.WalkersRegistered, 1u)
      << "only A's dense level walks: an additive fill-0 body must not "
         "skip coordinates";
}

TEST(MicroKernels, ThreeWalkerIntersectionBitIdentical) {
  // O[j] += A[i,j] * B[i,j] * C[i,j]: three sparse operands intersect
  // on i, so the fused inner loop is an N-way multi-finger merge (one
  // driver plus two sparse co-walkers with galloping catch-up). The
  // generic interpreter resolves the co-walkers with per-element
  // locate; positions, values, and SparseReads must match exactly —
  // including candidates where the first co-walker matches and the
  // second does not (its read is charged, the body is skipped).
  Einsum E = parseEinsum("merge3", "O[j] += A[i,j] * B[i,j] * C[i,j]");
  E.LoopOrder = {"j", "i"};
  E.declare("A", TensorFormat::csf(2));
  E.declare("B", TensorFormat::csf(2));
  E.declare("C", TensorFormat::csf(2));
  CompileResult R = compileEinsum(E);

  Tensor A = gappyCsc();
  Coo BC({4, 4});
  BC.add({0, 0}, 2);  // in A and C
  BC.add({2, 0}, 5);  // in A, not in C
  BC.add({1, 0}, 7);  // not in A
  BC.add({3, 2}, -1); // in A and C
  BC.add({3, 3}, 2);  // in A, not in C
  Tensor B = Tensor::fromCoo(std::move(BC), TensorFormat::csf(2));
  Coo CC({4, 4});
  CC.add({0, 0}, 3);
  CC.add({3, 2}, 4);
  CC.add({1, 1}, 9); // only in C
  Tensor C = Tensor::fromCoo(std::move(CC), TensorFormat::csf(2));

  MicroKernelStats S = compareEngines(
      R.Naive,
      [&](Executor &Ex, Tensor &Out) {
        Ex.bind("A", &A).bind("B", &B).bind("C", &C).bind("O", &Out);
      },
      Tensor::dense({4}), "three-walker merge");
  EXPECT_GT(S.FusedNWalkerLoops, 0u);
  EXPECT_GE(S.FusedCoWalkers, 2u);
  EXPECT_EQ(S.GenericLoops, 0u);
}

TEST(MicroKernels, RunLengthAndBandedCoWalkersBitIdentical) {
  // A sparse driver intersecting a structured co-walker: the co-walker
  // resolves positionally by run containment (RunLength) or interval
  // containment (Banded) exactly as the interpreter's locate, including
  // bands that miss the driver's coordinates entirely.
  for (LevelKind CoKind : {LevelKind::RunLength, LevelKind::Banded}) {
    SCOPED_TRACE(CoKind == LevelKind::RunLength ? "runlength co"
                                                : "banded co");
    Einsum E = parseEinsum("comerge", "O[j] += A[i,j] * B[i,j]");
    E.LoopOrder = {"j", "i"};
    E.declare("A", TensorFormat::csf(2));
    TensorFormat CoFmt{{LevelKind::Dense, CoKind}};
    E.declare("B", CoFmt);
    CompileResult R = compileEinsum(E);

    Rng Rand(31);
    Tensor A = gappyCsc();
    Tensor B = generateSymmetricTensor(2, 4, 6, Rand, CoFmt);
    MicroKernelStats S = compareEngines(
        R.Naive,
        [&](Executor &Ex, Tensor &Out) {
          Ex.bind("A", &A).bind("B", &B).bind("O", &Out);
        },
        Tensor::dense({4}), "structured co-walker");
    if (CoKind == LevelKind::RunLength)
      EXPECT_GT(S.FusedRunLengthCoWalkers, 0u);
    else
      EXPECT_GT(S.FusedBandedCoWalkers, 0u);
    EXPECT_EQ(S.GenericLoops, 0u);
  }
}

TEST(MicroKernels, LutOperandsBindTimeAndContextual) {
  // y[] += lut(...) * A[i,j] twice: a lut whose bits mention the inner
  // loop variable must be re-evaluated per element (contextual engine),
  // one over outer indices only binds once per row. Both fuse with
  // values and counters identical to the interpreter (the VM charges no
  // counters for Lut evaluation, so neither may the fused engines).
  for (bool InnerBits : {true, false}) {
    SCOPED_TRACE(InnerBits ? "contextual lut" : "bind-time lut");
    Kernel K;
    K.Name = "lut";
    K.LoopOrder = {"j", "i"};
    K.OutputName = "y";
    ExprPtr Lut =
        InnerBits
            ? Expr::lut({CmpAtom{CmpKind::EQ, "i", "j"}}, {10, 100})
            : Expr::lut({CmpAtom{CmpKind::LE, "j", "j"}}, {5, 7});
    K.Body = Stmt::loops(
        {"j", "i"},
        Stmt::assign(Expr::access("y", {}), OpKind::Add,
                     Expr::call(OpKind::Mul,
                                {std::move(Lut),
                                 Expr::access("A", {"i", "j"})})));
    Tensor A = gappyCsc();
    MicroKernelStats S = compareEngines(
        K,
        [&](Executor &E, Tensor &Out) { E.bind("A", &A).bind("y", &Out); },
        Tensor::dense({1}), "lut operand");
    EXPECT_GT(S.FusedLutFactors, 0u);
    EXPECT_EQ(S.GenericLoops, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Per-row prebinding (row-invariant SparseLoad prefixes)
//===----------------------------------------------------------------------===//

TEST(MicroKernels, PrebindSparseLoadPrefixBitIdentical) {
  // O[b] += A[b,a] + B[a]: the additive fill-0 body vetoes every
  // coordinate-skipping walker, so both operands evaluate as SparseLoad
  // inside the fused inner loop over b. A's top level is indexed by the
  // outer variable a — a row-invariant prefix the engine resolves once
  // per row (PrebindSlots) — and B prebinds entirely. Rows whose prefix
  // is absent (empty fibers) must read as fill with the same per-element
  // SparseReads as the interpreter.
  Einsum E = parseEinsum("prebind", "O[b] += A[b,a] + B[a]");
  E.LoopOrder = {"a", "b"};
  E.declare("A", TensorFormat::csf(2));
  E.declare("B", TensorFormat{{LevelKind::Sparse}});
  CompileResult R = compileEinsum(E);

  Tensor A = gappyCsc();
  Coo BC({4});
  BC.add({0}, 2.0);
  BC.add({3}, -1.0);
  Tensor B = Tensor::fromCoo(std::move(BC), TensorFormat{{LevelKind::Sparse}});
  MicroKernelStats S = compareEngines(
      R.Naive,
      [&](Executor &Ex, Tensor &Out) {
        Ex.bind("A", &A).bind("B", &B).bind("O", &Out);
      },
      Tensor::dense({4}), "prebound sparse loads");
  EXPECT_GT(S.PrebindSlots, 0u);
  EXPECT_GT(S.FusedSparseLoadFactors, 0u);
  EXPECT_EQ(S.GenericLoops, 0u);
}

TEST(MicroKernels, PrebindDeterministicAcrossTaskRanges) {
  // Per-row prebinding under parallel splits: each task context
  // re-derives the prebound locator state at its own bind, so outputs
  // and counters are bit-identical for Threads in {1, 2, 4} under the
  // triangle-balanced schedule — both when the parallel runtime
  // activates the outer loop (prebinding per row inside each task) and
  // when a tiny privatization budget pushes activation down to the
  // inner disjoint-write loop, splitting the fused loop's own [Lo, Hi]
  // range mid-row.
  Rng Rand(77);
  Einsum E = parseEinsum("prebindpar", "O[b] += A[b,a] + B[a]");
  E.LoopOrder = {"a", "b"};
  E.declare("A", TensorFormat::csf(2));
  E.declare("B", TensorFormat{{LevelKind::Sparse}});
  CompileResult R = compileEinsum(E);
  const int64_t N = 40;
  Tensor A = generateSymmetricTensor(2, N, 3 * N, Rand, TensorFormat::csf(2));
  quantizeIntegers(A);
  Coo BC({N});
  for (int64_t K = 0; K < N; K += 3)
    BC.add({K}, static_cast<double>(1 + K % 5));
  Tensor B = Tensor::fromCoo(std::move(BC), TensorFormat{{LevelKind::Sparse}});

  for (size_t Budget : {size_t(1) << 27, size_t(0)}) {
    SCOPED_TRACE(Budget ? "outer-loop tasks" : "inner range splits");
    Tensor First;
    CounterSnapshot FirstSnap;
    bool Have = false;
    for (unsigned Threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(Threads));
      ExecOptions O;
      O.Threads = Threads;
      O.Schedule = SchedulePolicy::TriangleBalanced;
      O.PrivatizationBudgetBytes = Budget;
      Executor Ex(R.Naive, O);
      Tensor Out = Tensor::dense({N});
      Ex.bind("A", &A).bind("B", &B).bind("O", &Out);
      Ex.prepare();
      EXPECT_GT(Ex.microKernelStats().PrebindSlots, 0u);
      setCountersEnabled(true);
      Ex.run();
      CounterSnapshot Snap = Ex.lastReport().Counters;
      if (!Have) {
        First = std::move(Out);
        FirstSnap = Snap;
        Have = true;
        continue;
      }
      expectBitIdentical(First, Out, "prebind determinism");
      expectCountersEqual(FirstSnap, Snap, "prebind determinism");
    }
  }
}

TEST(MicroKernels, LiveScalarReadAfterGuardedWrite) {
  // A scalar accumulated under a dynamic guard and read by a later
  // statement in the same loop: bind-time substitution is impossible,
  // so the reader must observe the slot live, per element, like the
  // interpreter.
  Kernel K;
  K.Name = "live";
  K.LoopOrder = {"i", "j"};
  K.OutputName = "y";
  Cond Tri = Cond::conj({CmpAtom{CmpKind::LE, "i", "j"}});
  K.Body = Stmt::loops(
      {"i", "j"},
      Stmt::block(
          {Stmt::ifThen(Tri, Stmt::assign(Expr::scalar("acc"), OpKind::Add,
                                          Expr::access("x", {"i"}))),
           Stmt::assign(Expr::access("y", {"j"}), OpKind::Add,
                        Expr::scalar("acc"))}));
  Tensor X = denseVec({1, 2, 3, 4});
  MicroKernelStats St = compareEngines(
      K,
      [&](Executor &E, Tensor &Out) { E.bind("x", &X).bind("y", &Out); },
      Tensor::dense({4}), "live scalar");
  EXPECT_GT(St.SpecializedLoops, 0u);
}

//===----------------------------------------------------------------------===//
// Blocked output engine (register/cache-blocked column panels)
//===----------------------------------------------------------------------===//

namespace {

/// ssyrk bindings over a symmetric matrix whose dimension is not a
/// multiple of any panel width, so every run exercises ragged boundary
/// panels.
struct SsyrkFixture {
  CompileResult R;
  Tensor A;
  int64_t N;
  SsyrkFixture(int64_t Dim, uint64_t Seed, bool Quantize) : N(Dim) {
    Rng Rand(Seed);
    R = compileEinsum(makeSsyrk());
    A = generateSymmetricTensor(2, N, 6 * N, Rand, TensorFormat::csf(2));
    if (Quantize)
      quantizeIntegers(A);
  }
  Tensor run(const Kernel &K, const ExecOptions &O, CounterSnapshot &Snap,
             MicroKernelStats &Stats) {
    Executor E(K, O);
    Tensor Out = Tensor::dense({N, N});
    E.bind("A", &A).bind("C", &Out);
    E.prepare();
    Stats = E.microKernelStats();
    setCountersEnabled(true);
    E.run();
    Snap = E.lastReport().Counters;
    return Out;
  }
};

} // namespace

TEST(BlockedEngine, SsyrkBitIdenticalAcrossPanelWidths) {
  // The ssyrk triangle nest blocks into column panels; every width —
  // including 1, widths that do not divide the extent, and the
  // auto-selected width — must reproduce the interpreter bit for bit
  // with exactly equal counters. Random (non-integer) data on purpose:
  // bit-identity must hold because the per-cell fold order is
  // preserved, not because the sums happen to be exact.
  SsyrkFixture F(37, 99, /*Quantize=*/false);
  for (const Kernel *K : {&F.R.Naive, &F.R.Optimized}) {
    SCOPED_TRACE(K == &F.R.Naive ? "naive" : "optimized");
    ExecOptions Interp;
    Interp.Engines = {Engine::Interp};
    CounterSnapshot SI, SB;
    MicroKernelStats StI, StB;
    Tensor Ref = F.run(*K, Interp, SI, StI);
    for (unsigned W : {0u, 1u, 2u, 3u, 5u, 8u}) {
      SCOPED_TRACE("width " + std::to_string(W));
      ExecOptions O;
      O.BlockWidth = W;
      Tensor Out = F.run(*K, O, SB, StB);
      EXPECT_GT(StB.BlockedLoops, 0u);
      EXPECT_GT(SB.FusedBlockedPanels, 0u);
      expectBitIdentical(Ref, Out, "blocked ssyrk");
      expectCountersEqual(SI, SB, "blocked ssyrk");
    }
    // Ablation: without Engine::Blocked the engine is not installed
    // (and the unblocked nest is still bit-identical — the original
    // contract).
    ExecOptions Off;
    Off.Engines = {Engine::Fused, Engine::Interp};
    Tensor Out = F.run(*K, Off, SB, StB);
    EXPECT_EQ(StB.BlockedLoops, 0u);
    EXPECT_EQ(SB.FusedBlockedPanels, 0u);
    expectBitIdentical(Ref, Out, "unblocked ssyrk");
    expectCountersEqual(SI, SB, "unblocked ssyrk");
  }
}

TEST(BlockedEngine, SsyrkDeterministicAcrossThreadsAndSchedules) {
  // Panel-aligned task splitting: with integer-exact data the blocked
  // ssyrk must be bit-identical and counter-identical for Threads in
  // {1, 2, 4} under both the triangle-balanced and dynamic schedules —
  // each task derives its own panels, and panel boundaries never
  // change per-cell fold order.
  SsyrkFixture F(41, 7, /*Quantize=*/true);
  for (SchedulePolicy Policy :
       {SchedulePolicy::TriangleBalanced, SchedulePolicy::Dynamic}) {
    SCOPED_TRACE(schedulePolicyName(Policy));
    Tensor First;
    CounterSnapshot FirstSnap;
    bool Have = false;
    for (unsigned Threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(Threads));
      ExecOptions O;
      O.Threads = Threads;
      O.Schedule = Policy;
      CounterSnapshot Snap;
      MicroKernelStats Stats;
      Tensor Out = F.run(F.R.Optimized, O, Snap, Stats);
      EXPECT_GT(Stats.BlockedLoops, 0u);
      if (!Have) {
        First = std::move(Out);
        FirstSnap = Snap;
        Have = true;
        continue;
      }
      expectBitIdentical(First, Out, "blocked thread determinism");
      expectCountersEqual(FirstSnap, Snap, "blocked thread determinism");
    }
  }
}

TEST(BlockedEngine, EmptyColumnsAndEmptyFiber) {
  // Empty fibers and all-empty panels: a matrix with empty columns and
  // rows drives panels whose union range is empty. The direct form
  // skips them; the engine must still match the interpreter exactly.
  Tensor A = gappyCsc();
  CompileResult R = compileEinsum(makeSsyrk());
  for (unsigned W : {0u, 2u, 8u}) {
    SCOPED_TRACE("width " + std::to_string(W));
    ExecOptions Interp, Blk;
    Interp.Engines = {Engine::Interp};
    Blk.BlockWidth = W;
    for (const Kernel *K : {&R.Naive, &R.Optimized}) {
      CounterSnapshot SI, SB;
      MicroKernelStats StI, StB;
      Executor EI(*K, Interp), EB(*K, Blk);
      Tensor OutI = Tensor::dense({4, 4}), OutB = Tensor::dense({4, 4});
      EI.bind("A", &A).bind("C", &OutI);
      EB.bind("A", &A).bind("C", &OutB);
      EI.prepare();
      EB.prepare();
      setCountersEnabled(true);
      EI.run();
      SI = EI.lastReport().Counters;
      EB.run();
      SB = EB.lastReport().Counters;
      expectBitIdentical(OutI, OutB, "gappy blocked ssyrk");
      expectCountersEqual(SI, SB, "gappy blocked ssyrk");
    }
  }
}

TEST(BlockedEngine, WorkspaceNestAccumulatesInRegisters) {
  // The SpMM-style shape `C[i,k] += A_row(j) * B[j,k]`: the pipeline
  // emits the workspace triple (w = 0; w += ...; C[i,k] += w), whose
  // blocked form keeps the whole panel of workspace cells in registers
  // across the sparse walk and writes each lane back once — the
  // FusedBlockedStores telemetry equals the per-column writes instead
  // of the per-element traffic. Bit-identical with exact counters, at
  // every width, including an extent (13) the widths do not divide.
  Rng Rand(5);
  Einsum E = parseEinsum("spmm", "C[i,k] += A[i,j] * B[j,k]");
  E.LoopOrder = {"i", "k", "j"};
  E.declare("A", TensorFormat::csf(2));
  CompileResult R = compileEinsum(E);
  const int64_t N = 29, KD = 13;
  Tensor A = generateSymmetricTensor(2, N, 5 * N, Rand,
                                     TensorFormat::csf(2));
  Tensor B = generateDenseMatrix(N, KD, Rand);
  auto RunIt = [&](const ExecOptions &O, CounterSnapshot &Snap,
                   MicroKernelStats &Stats) {
    Executor Ex(R.Optimized, O);
    Tensor Out = Tensor::dense({N, KD});
    Ex.bind("A", &A).bind("B", &B).bind("C", &Out);
    Ex.prepare();
    Stats = Ex.microKernelStats();
    setCountersEnabled(true);
    Ex.run();
    Snap = Ex.lastReport().Counters;
    return Out;
  };
  ExecOptions Interp;
  Interp.Engines = {Engine::Interp};
  CounterSnapshot SI, SB;
  MicroKernelStats StI, StB;
  Tensor Ref = RunIt(Interp, SI, StI);
  for (unsigned W : {0u, 1u, 3u, 8u}) {
    SCOPED_TRACE("width " + std::to_string(W));
    ExecOptions O;
    O.BlockWidth = W;
    Tensor Out = RunIt(O, SB, StB);
    EXPECT_GT(StB.BlockedLoops, 0u);
    EXPECT_GT(StB.BlockedAccumLoops, 0u)
        << "the workspace triple must take the register-accumulator form";
    EXPECT_GT(SB.FusedBlockedPanels, 0u);
    // One writeback per lane (column), not one per element.
    EXPECT_EQ(SB.FusedBlockedStores, SB.OutputWrites);
    expectBitIdentical(Ref, Out, "blocked spmm");
    expectCountersEqual(SI, SB, "blocked spmm");
  }
}
