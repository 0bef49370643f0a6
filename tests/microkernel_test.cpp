//===- tests/microkernel_test.cpp -----------------------------*- C++ -*-===//
///
/// Unit tests for the runtime specialization layer
/// (runtime/MicroKernels.h): each fused shape — sparse axpy/dot, dense
/// scale-accumulate, the straight-line multi-statement leaves,
/// sparse-sparse two-finger merge, blocked panel nests — is checked
/// bit-identical to the generic interpreted path
/// with exact counter parity, including empty rows, non-zero fill
/// (min-plus), multiplicity handling, and the deliberate fallbacks.
/// Also covers the expression-VM deep-stack fix and the stateful
/// SparseLoad locator.
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
#include <map>
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
/// counter parity. Returns the fused executor's specialization stats
/// and, through \p FusedRep, its run's report. Both runs take \p Base's
/// options apart from the engine list.
MicroKernelStats
compareEngines(const Kernel &K,
               const std::function<void(Executor &, Tensor &)> &Bind,
               Tensor OutTemplate, const char *What,
               obs::ExecReport *FusedRep = nullptr,
               const ExecOptions &Base = {}) {
  MicroKernelStats Stats;
  Tensor OutGeneric = OutTemplate, OutFused = std::move(OutTemplate);
  CounterSnapshot SnapGeneric, SnapFused;
  for (bool Fused : {false, true}) {
    ExecOptions O = Base;
    if (!Fused)
      O.Engines = {Engine::Interp};
    Executor E(K, O);
    Tensor &Out = Fused ? OutFused : OutGeneric;
    Bind(E, Out);
    obs::ExecReport Rep;
    EXPECT_TRUE(E.tryPrepare().ok());
    setCountersEnabled(true);
    EXPECT_TRUE(E.tryRun(&Rep).ok());
    (Fused ? SnapFused : SnapGeneric) = Rep.Counters;
    if (Fused) {
      Stats = E.microKernelStats();
      if (FusedRep)
        *FusedRep = std::move(Rep);
    }
  }
  expectBitIdentical(OutGeneric, OutFused, What);
  expectCountersEqual(SnapGeneric, SnapFused, What);
  return Stats;
}

/// Runs \p K once on default engines over \p Bind's bindings and
/// counts the leaves its report shows on the straight-line loop.
unsigned lineLeaves(const Kernel &K,
                    const std::function<void(Executor &, Tensor &)> &Bind,
                    Tensor Out) {
  Executor E(K);
  Bind(E, Out);
  obs::ExecReport Rep;
  EXPECT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(E.tryRun(&Rep).ok());
  unsigned Line = 0;
  for (const obs::LoopStat &L : Rep.Loops)
    Line += L.Form == "line";
  return Line;
}

/// Asserts that every loop over \p Var in \p Rep ran on \p Engine, and
/// that there is one.
void expectLoopEngine(const obs::ExecReport &Rep, const std::string &Var,
                      const char *Engine) {
  bool Seen = false;
  for (const obs::LoopStat &L : Rep.Loops)
    if (L.Label.rfind("loop " + Var + " [", 0) == 0) {
      Seen = true;
      EXPECT_EQ(L.Engine, Engine) << L.Label;
    }
  EXPECT_TRUE(Seen) << "no loop over " << Var << " in the report";
}

/// Asserts that the specializer declined the leaf loop over \p Var: a
/// leaf whose operand cannot bind once per call runs in the
/// interpreter.
void expectLeafDeclined(const MicroKernelStats &S, const obs::ExecReport &Rep,
                        const std::string &Var) {
  EXPECT_GT(S.GenericLoops, 0u);
  expectLoopEngine(Rep, Var, "Interp");
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
  EXPECT_EQ(S.SpecializedLoops, 1u); // fused leaf; the nest is interpreted
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
}

TEST(MicroKernels, DenseScaleAccumulateStrided) {
  // ttm-style innermost dense loop with strided output and several
  // statements per iteration, via the real ttm pipeline (covers fused
  // leaves under interpreted nests and invariant guards in the
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
  EXPECT_GT(S.SpecializedLoops, 0u);
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
  EXPECT_EQ(S.SpecializedLoops, 0u);
}

TEST(MicroKernels, AblationSwitchReportsStats) {
  Tensor A = gappyCsc();
  Tensor X = denseVec({1, 1, 1, 1});
  Tensor Y = Tensor::dense({4});
  ExecOptions Off;
  Off.Engines = {Engine::Interp};
  Executor EOff(spmvKernel(), Off);
  EOff.bind("A", &A).bind("x", &X).bind("y", &Y);
  ASSERT_TRUE(EOff.tryPrepare().ok());
  EXPECT_EQ(EOff.microKernelStats().SpecializedLoops, 0u);
  EXPECT_EQ(EOff.microKernelStats().GenericLoops, 1u); // the leaf

  Executor EOn(spmvKernel());
  EOn.bind("A", &A).bind("x", &X).bind("y", &Y);
  ASSERT_TRUE(EOn.tryPrepare().ok());
  EXPECT_EQ(EOn.microKernelStats().SpecializedLoops, 1u);
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
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
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
    obs::ExecReport Rep;
    ASSERT_TRUE(E.tryPrepare().ok());
    ASSERT_TRUE(E.tryRun(&Rep).ok());
    EXPECT_DOUBLE_EQ(Y.at({0}), Sum) << "walk=" << Walk;
    EXPECT_GT(Rep.Counters.SparseReads, 0u);
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
  // sparse leaves under dense nests, and the replication-free epilogue.
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
  EXPECT_GT(S.SpecializedLoops, 0u);
}

TEST(MicroKernels, PaperKernelsBitIdenticalOnRealData) {
  // The paper kernels the tests above leave out, naive and optimized,
  // on real-valued data: a fused loop must reduce every cell in the
  // interpreter's order, which integer data could not show.
  Rng R(12);
  for (std::string Name : {"bellmanford", "syprd", "ttm", "mttkrp4",
                           "mttkrp5"}) {
    SCOPED_TRACE(Name);
    Einsum E;
    std::map<std::string, Tensor> In;
    std::vector<int64_t> OutDims;
    double Init = 0;
    if (Name == "bellmanford" || Name == "syprd") {
      const bool BF = Name == "bellmanford";
      E = BF ? makeBellmanFord() : makeSyprd();
      In.emplace("A", generateSymmetricTensor(2, 40, 240, R,
                                              TensorFormat::csf(2),
                                              BF ? Inf : 0.0));
      In.emplace(BF ? "d" : "x", generateDenseVector(40, R));
      OutDims = {BF ? 40 : 1};
      Init = BF ? Inf : 0.0;
    } else if (Name == "ttm") {
      E = makeTtm();
      In.emplace("A", generateSymmetricTensor(3, 14, 180, R,
                                              TensorFormat::csf(3)));
      In.emplace("B", generateDenseMatrix(14, 6, R));
      OutDims = {6, 14, 14};
    } else {
      const unsigned Order = Name.back() - '0';
      E = makeMttkrp(Order);
      In.emplace("A", generateSymmetricTensor(Order, 9, 150, R,
                                              TensorFormat::csf(Order)));
      In.emplace("B", generateDenseMatrix(9, 5, R));
      OutDims = {9, 5};
    }
    CompileResult C = compileEinsum(E);
    for (const Kernel *K : {&C.Naive, &C.Optimized}) {
      SCOPED_TRACE(K == &C.Naive ? "naive" : "optimized");
      Tensor Out = Tensor::dense(OutDims);
      Out.setAllValues(Init);
      MicroKernelStats S = compareEngines(
          *K,
          [&](Executor &Ex, Tensor &O) {
            for (auto &[N, T] : In)
              Ex.bind(N, &T);
            Ex.bind(E.Output->tensorName(), &O);
          },
          std::move(Out), Name.c_str());
      EXPECT_EQ(S.GenericLoops, 0u);
    }
  }
}

TEST(MicroKernels, TwoStatementsReduceIntoOneCellInOrder) {
  // for j, i: y[j] += A[i,j] * x[i]; y[j] += A[i,j] * z[i] — both
  // statements of the leaf reduce into one cell. On real data that
  // cell's bits depend on the order of its updates, so this pins the
  // interpreter's element-major order (both updates of an element
  // before the next element's) in the straight-line loop running the
  // leaf; one pass per statement would fail it.
  Kernel K;
  K.Name = "twoupdates";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  auto Update = [](const char *V) {
    return Stmt::assign(
        Expr::access("y", {"j"}), OpKind::Add,
        Expr::call(OpKind::Mul,
                   {Expr::access("A", {"i", "j"}), Expr::access(V, {"i"})}));
  };
  K.Body = Stmt::loops({"j", "i"}, Stmt::block({Update("x"), Update("z")}));
  Rng R(31);
  Tensor A = generateSparseMatrix(30, 30, 300, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(30, R), Z = generateDenseVector(30, R);
  auto Bind = [&](Executor &E, Tensor &Out) {
    E.bind("A", &A).bind("x", &X).bind("z", &Z).bind("y", &Out);
  };
  compareEngines(K, Bind, Tensor::dense({30}), "two updates of one cell");
  EXPECT_EQ(lineLeaves(K, Bind, Tensor::dense({30})), 1u)
      << "the leaf runs the straight-line loop";
}

TEST(MicroKernels, SparseSingleStatementShapesRunStraightLine) {
  // The single-statement sparse shapes no paper kernel has, each a
  // straight-line instantiation of its own: a scalar dot with an
  // invariant factor, and tensor updates with zero, one and two
  // invariant tail factors. Bit-identical to the interpreter on real
  // data, and each leaf reports the straight-line form.
  auto A = [] { return Expr::access("A", {"i", "j"}); };
  auto Xi = [] { return Expr::access("x", {"i"}); };
  auto Xj = [] { return Expr::access("x", {"j"}); };
  auto Yi = [] { return Expr::access("y", {"i"}); };
  auto Leaf = [](StmtPtr S) { return Stmt::loops({"j", "i"}, std::move(S)); };
  const std::pair<const char *, StmtPtr> Bodies[] = {
      {"w += A[i,j] * x[j]",
       Stmt::loop(
           "j",
           Stmt::block(
               {Stmt::defScalar("w", Expr::lit(0.0)),
                Stmt::loop("i", Stmt::assign(Expr::scalar("w"), OpKind::Add,
                                             Expr::call(OpKind::Mul,
                                                        {A(), Xj()}))),
                Stmt::assign(Expr::access("y", {"j"}), OpKind::Add,
                             Expr::scalar("w"))}))},
      {"y[i] += A[i,j] * x[i]",
       Leaf(Stmt::assign(Yi(), OpKind::Add,
                         Expr::call(OpKind::Mul, {A(), Xi()})))},
      {"y[i] += A[i,j] * x[i] * x[j]",
       Leaf(Stmt::assign(Yi(), OpKind::Add,
                         Expr::call(OpKind::Mul, {A(), Xi(), Xj()})))},
      {"y[i] += A[i,j] * x[i] * x[j] * 2",
       Leaf(Stmt::assign(
           Yi(), OpKind::Add,
           Expr::call(OpKind::Mul, {A(), Xi(), Xj(), Expr::lit(2.0)})))},
  };
  Rng R(41);
  Tensor AT = generateSparseMatrix(30, 30, 300, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(30, R);
  auto Bind = [&](Executor &E, Tensor &Out) {
    E.bind("A", &AT).bind("x", &X).bind("y", &Out);
  };
  for (const auto &[What, Body] : Bodies) {
    SCOPED_TRACE(What);
    Kernel K;
    K.Name = "shape";
    K.LoopOrder = {"j", "i"};
    K.OutputName = "y";
    K.Body = Body;
    compareEngines(K, Bind, Tensor::dense({30}), What);
    EXPECT_EQ(lineLeaves(K, Bind, Tensor::dense({30})), 1u);
  }
}

//===----------------------------------------------------------------------===//
// Format-general drivers and operands that decline a leaf
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

TEST(MicroKernels, SparseLoadOperandDeclinesWithExactCounters) {
  // y[j] += A[i,j] + s[i]: an additive body over fill-0 operands, so
  // the walker algebra vetoes every coordinate-skipping walker and both
  // sparse accesses compile to SparseLoad — a locate per element, which
  // cannot bind once per call. The leaf declines and runs in the
  // interpreter, with values and SparseReads identical to an all-
  // interpreted run.
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
  obs::ExecReport Rep;
  MicroKernelStats St = compareEngines(
      K,
      [&](Executor &E, Tensor &Out) {
        E.bind("A", &A).bind("s", &S).bind("y", &Out);
      },
      Tensor::dense({4}), "sparse-load operand", &Rep);
  expectLeafDeclined(St, Rep, "i");
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
  // second does not (its read is charged, the body is skipped). Both
  // forms take the general statement kind, which reads the second
  // co-walker's position per factor; the (min, +) form over fill-inf
  // operands also runs its non-Mul fold and reduction.
  for (bool MinPlus : {false, true}) {
    SCOPED_TRACE(MinPlus ? "(min, +)" : "(+, *)");
    const double Fill = MinPlus ? Inf : 0.0;
    const char *Text = MinPlus ? "O[j] min= A[i,j] + B[i,j] + C[i,j]"
                               : "O[j] += A[i,j] * B[i,j] * C[i,j]";
    Einsum E = parseEinsum("merge3", Text);
    E.LoopOrder = {"j", "i"};
    for (const char *T : {"A", "B", "C"})
      E.declare(T, TensorFormat::csf(2), Fill);
    CompileResult R = compileEinsum(E);

    Tensor A = gappyCsc(Fill);
    Coo BC({4, 4});
    BC.add({0, 0}, 2);  // in A and C
    BC.add({2, 0}, 5);  // in A, not in C
    BC.add({1, 0}, 7);  // not in A
    BC.add({3, 2}, -1); // in A and C
    BC.add({3, 3}, 2);  // in A, not in C
    Tensor B = Tensor::fromCoo(std::move(BC), TensorFormat::csf(2), Fill);
    Coo CC({4, 4});
    CC.add({0, 0}, 3);
    CC.add({3, 2}, 4);
    CC.add({1, 1}, 9); // only in C
    Tensor C = Tensor::fromCoo(std::move(CC), TensorFormat::csf(2), Fill);

    MicroKernelStats S = compareEngines(
        R.Naive,
        [&](Executor &Ex, Tensor &Out) {
          Ex.bind("A", &A).bind("B", &B).bind("C", &C).bind("O", &Out);
        },
        Tensor::dense({4}, Fill), "three-walker merge");
    EXPECT_GT(S.FusedNWalkerLoops, 0u);
    EXPECT_GE(S.FusedCoWalkers, 2u);
    EXPECT_EQ(S.GenericLoops, 0u);
  }
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

TEST(MicroKernels, LutOperandsFuseAtBindTimeDeclinePerElement) {
  // y[] += lut(...) * A[i,j] twice: a lut over outer indices only binds
  // once per row and fuses; one whose bits mention the inner loop
  // variable changes per element, so its leaf declines to the
  // interpreter. Both match the interpreter's values and counters (the
  // VM charges no counters for Lut evaluation, so neither may the fused
  // engines).
  for (bool InnerBits : {true, false}) {
    SCOPED_TRACE(InnerBits ? "per-element lut" : "bind-time lut");
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
    obs::ExecReport Rep;
    MicroKernelStats S = compareEngines(
        K,
        [&](Executor &E, Tensor &Out) { E.bind("A", &A).bind("y", &Out); },
        Tensor::dense({1}), "lut operand", &Rep);
    if (InnerBits) {
      expectLeafDeclined(S, Rep, "i");
      EXPECT_EQ(S.FusedLutFactors, 0u);
    } else {
      EXPECT_GT(S.FusedLutFactors, 0u);
      EXPECT_EQ(S.GenericLoops, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// SparseLoad leaves over an outer index
//===----------------------------------------------------------------------===//

TEST(MicroKernels, SparseLoadOverOuterIndexDeclinesBitIdentical) {
  // O[b] += A[b,a] + B[a]: the additive fill-0 body vetoes every
  // coordinate-skipping walker, so both operands evaluate as SparseLoad
  // in the inner loop over b, and that leaf declines to the
  // interpreter. A's top level is indexed by the outer variable a, and
  // rows whose fiber is absent must read as fill with the same
  // per-element SparseReads as an all-interpreted run.
  Einsum E = parseEinsum("outerload", "O[b] += A[b,a] + B[a]");
  E.LoopOrder = {"a", "b"};
  E.declare("A", TensorFormat::csf(2));
  E.declare("B", TensorFormat{{LevelKind::Sparse}});
  CompileResult R = compileEinsum(E);

  Tensor A = gappyCsc();
  Coo BC({4});
  BC.add({0}, 2.0);
  BC.add({3}, -1.0);
  Tensor B = Tensor::fromCoo(std::move(BC), TensorFormat{{LevelKind::Sparse}});
  obs::ExecReport Rep;
  MicroKernelStats S = compareEngines(
      R.Naive,
      [&](Executor &Ex, Tensor &Out) {
        Ex.bind("A", &A).bind("B", &B).bind("O", &Out);
      },
      Tensor::dense({4}), "outer-index sparse loads", &Rep);
  expectLeafDeclined(S, Rep, "b");
}

TEST(MicroKernels, SparseLoadLeafDeterministicAcrossTaskRanges) {
  // The declined SparseLoad leaf under parallel splits: each task
  // context chains its own locator state, so outputs and counters are
  // bit-identical for Threads in {1, 2, 4} — both when the parallel
  // runtime activates the outer loop and when a tiny privatization
  // budget pushes activation down to the inner disjoint-write loop,
  // splitting the leaf's own [Lo, Hi] range mid-row.
  Rng Rand(77);
  Einsum E = parseEinsum("outerloadpar", "O[b] += A[b,a] + B[a]");
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
      O.PrivatizationBudgetBytes = Budget;
      Executor Ex(R.Naive, O);
      Tensor Out = Tensor::dense({N});
      Ex.bind("A", &A).bind("B", &B).bind("O", &Out);
      ASSERT_TRUE(Ex.tryPrepare().ok());
      setCountersEnabled(true);
      obs::ExecReport Rep;
      ASSERT_TRUE(Ex.tryRun(&Rep).ok());
      expectLeafDeclined(Ex.microKernelStats(), Rep, "b");
      CounterSnapshot Snap = Rep.Counters;
      if (!Have) {
        First = std::move(Out);
        FirstSnap = Snap;
        Have = true;
        continue;
      }
      expectBitIdentical(First, Out, "sparse-load determinism");
      expectCountersEqual(FirstSnap, Snap, "sparse-load determinism");
    }
  }
}

TEST(MicroKernels, LiveScalarReadAfterGuardedWrite) {
  // A scalar accumulated under a dynamic guard and read by a later
  // statement in the same loop: bind-time substitution is impossible
  // and the value changes per element, so the leaf declines and the
  // interpreter's per-element read stays the only one.
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
  obs::ExecReport Rep;
  MicroKernelStats St = compareEngines(
      K,
      [&](Executor &E, Tensor &Out) { E.bind("x", &X).bind("y", &Out); },
      Tensor::dense({4}), "live scalar", &Rep);
  expectLeafDeclined(St, Rep, "j");
}

TEST(MicroKernels, DefUnderDynamicGuardSubstitutesIntoEqualGuard) {
  // Without bound lifting, ssymv's and bellmanford's off-diagonal leaves
  // keep `if i < j` as a per-element guard over `t = A[i,j]` and the
  // two updates that read t. The readers share the def's guard, so the
  // def ran at their own element: t substitutes and the leaf fuses.
  Rng R(8);
  ExecOptions NoLift;
  NoLift.EnableBoundLifting = false;
  for (bool BF : {false, true}) {
    SCOPED_TRACE(BF ? "bellmanford" : "ssymv");
    const double Fill = BF ? Inf : 0.0;
    CompileResult C = compileEinsum(BF ? makeBellmanFord() : makeSsymv());
    Tensor A = generateSymmetricTensor(2, 30, 120, R, TensorFormat::csf(2),
                                       Fill);
    Tensor X = generateDenseVector(30, R);
    MicroKernelStats S = compareEngines(
        C.Optimized,
        [&](Executor &E, Tensor &Out) {
          E.bind("A", &A).bind(BF ? "d" : "x", &X).bind("y", &Out);
        },
        Tensor::dense({30}, Fill), "guarded def", nullptr, NoLift);
    EXPECT_EQ(S.GenericLoops, 0u);
    EXPECT_GT(S.SpecializedLoops, 0u);
  }
}

TEST(MicroKernels, DefOverOutputCellDoesNotSubstitute) {
  // t = y[i] reads the output cell the next statement updates; the
  // interpreter's later read of t sees the def-time value, which a
  // substituted y[i] would not, so the leaf declines.
  Kernel K;
  K.Name = "outdef";
  K.LoopOrder = {"i"};
  K.OutputName = "y";
  K.Body = Stmt::loop(
      "i", Stmt::block({Stmt::defScalar("t", Expr::access("y", {"i"})),
                        Stmt::assign(Expr::access("y", {"i"}), OpKind::Add,
                                     Expr::access("x", {"i"})),
                        Stmt::assign(Expr::access("y", {"i"}), OpKind::Add,
                                     Expr::scalar("t"))}));
  Tensor X = denseVec({10, 11, 12, 13});
  obs::ExecReport Rep;
  MicroKernelStats St = compareEngines(
      K, [&](Executor &E, Tensor &Out) { E.bind("x", &X).bind("y", &Out); },
      denseVec({1, 2, 3, 4}), "def over an output cell", &Rep);
  expectLeafDeclined(St, Rep, "i");
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
    obs::ExecReport Rep;
    EXPECT_TRUE(E.tryPrepare().ok());
    Stats = E.microKernelStats();
    setCountersEnabled(true);
    EXPECT_TRUE(E.tryRun(&Rep).ok());
    Snap = Rep.Counters;
    return Out;
  }
};

} // namespace

TEST(BlockedEngine, SsyrkBitIdenticalAcrossPanelWidths) {
  // The ssyrk triangle nest blocks into column panels whose width the
  // engine derives from the panel mode's extent (4 below 8, else 8).
  // Sweeping the extent over 4..17 covers both widths and every ragged
  // last panel of 1..7 lanes; each must reproduce the interpreter bit
  // for bit with exactly equal counters. Random (non-integer) data on
  // purpose: bit-identity must hold because the per-cell fold order is
  // preserved, not because the sums happen to be exact.
  for (int64_t N = 4; N <= 17; ++N) {
    SCOPED_TRACE("extent " + std::to_string(N));
    SsyrkFixture F(N, 99, /*Quantize=*/false);
    for (const Kernel *K : {&F.R.Naive, &F.R.Optimized}) {
      SCOPED_TRACE(K == &F.R.Naive ? "naive" : "optimized");
      ExecOptions Interp;
      Interp.Engines = {Engine::Interp};
      CounterSnapshot SI, SB;
      MicroKernelStats StI, StB;
      Tensor Ref = F.run(*K, Interp, SI, StI);
      Tensor Out = F.run(*K, ExecOptions(), SB, StB);
      EXPECT_GT(StB.BlockedLoops, 0u);
      EXPECT_GT(SB.FusedBlockedPanels, 0u);
      expectBitIdentical(Ref, Out, "blocked ssyrk");
      expectCountersEqual(SI, SB, "blocked ssyrk");
      // Ablation: without Engine::Blocked the engine is not installed
      // (and the unblocked nest is still bit-identical — the original
      // contract).
      ExecOptions Off;
      Off.Engines = {Engine::Fused, Engine::Interp};
      Out = F.run(*K, Off, SB, StB);
      EXPECT_EQ(StB.BlockedLoops, 0u);
      EXPECT_EQ(SB.FusedBlockedPanels, 0u);
      expectBitIdentical(Ref, Out, "unblocked ssyrk");
      expectCountersEqual(SI, SB, "unblocked ssyrk");
    }
  }
}

TEST(BlockedEngine, SsyrkDeterministicAcrossThreads) {
  // Task splitting: with integer-exact data the blocked ssyrk must be
  // bit-identical and counter-identical for Threads in {1, 2, 3, 4} —
  // each task derives its own panels, and panel boundaries never change
  // per-cell fold order.
  SsyrkFixture F(41, 7, /*Quantize=*/true);
  Tensor First;
  CounterSnapshot FirstSnap;
  bool Have = false;
  for (unsigned Threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    ExecOptions O;
    O.Threads = Threads;
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

TEST(BlockedEngine, EmptyColumnsAndEmptyFiber) {
  // Empty fibers and all-empty panels: a matrix with empty columns and
  // rows drives panels whose union range is empty. The direct form
  // skips them; the engine must still match the interpreter exactly.
  Tensor A = gappyCsc();
  CompileResult R = compileEinsum(makeSsyrk());
  ExecOptions Interp;
  Interp.Engines = {Engine::Interp};
  for (const Kernel *K : {&R.Naive, &R.Optimized}) {
    CounterSnapshot SI, SB;
    Executor EI(*K, Interp), EB(*K);
    Tensor OutI = Tensor::dense({4, 4}), OutB = Tensor::dense({4, 4});
    EI.bind("A", &A).bind("C", &OutI);
    EB.bind("A", &A).bind("C", &OutB);
    ASSERT_TRUE(EI.tryPrepare().ok());
    ASSERT_TRUE(EB.tryPrepare().ok());
    setCountersEnabled(true);
    obs::ExecReport RepI, RepB;
    ASSERT_TRUE(EI.tryRun(&RepI).ok());
    SI = RepI.Counters;
    ASSERT_TRUE(EB.tryRun(&RepB).ok());
    SB = RepB.Counters;
    expectBitIdentical(OutI, OutB, "gappy blocked ssyrk");
    expectCountersEqual(SI, SB, "gappy blocked ssyrk");
  }
}

namespace {

/// spmm `C[i,k] += A[i,j] * B[j,k]` (loops i, k, j) over a sparse A of
/// dimension N and a dense B of KD columns. With the workspace
/// transform the pipeline emits the workspace triple (`w = 0;
/// w += ...; C[i,k] += w`), which blocks in the Workspace mode; without
/// it the leaf accumulates into C[i,k] directly, the Accum mode.
struct SpmmFixture {
  CompileResult R;
  Tensor A, B;
  int64_t N, KD;
  SpmmFixture(int64_t Dim, int64_t Cols, bool Workspace, uint64_t Seed)
      : N(Dim), KD(Cols) {
    Rng Rand(Seed);
    Einsum E = parseEinsum("spmm", "C[i,k] += A[i,j] * B[j,k]");
    E.LoopOrder = {"i", "k", "j"};
    E.declare("A", TensorFormat::csf(2));
    PipelineOptions P;
    P.Workspace = Workspace;
    R = compileEinsum(E, P);
    A = generateSymmetricTensor(2, N, 5 * N, Rand, TensorFormat::csf(2));
    B = generateDenseMatrix(N, KD, Rand);
  }
  Tensor run(const ExecOptions &O, CounterSnapshot &Snap,
             MicroKernelStats &Stats) {
    Executor Ex(R.Optimized, O);
    Tensor Out = Tensor::dense({N, KD});
    Ex.bind("A", &A).bind("B", &B).bind("C", &Out);
    obs::ExecReport Rep;
    EXPECT_TRUE(Ex.tryPrepare().ok());
    Stats = Ex.microKernelStats();
    setCountersEnabled(true);
    EXPECT_TRUE(Ex.tryRun(&Rep).ok());
    Snap = Rep.Counters;
    return Out;
  }

  /// Runs the blocked spmm at Threads 1, 2 and 4. Each run must install
  /// an accumulating blocked nest and match the interpreter at the same
  /// Threads bit for bit with exact counters, and the runs must agree
  /// with each other. Returns the Threads=1 run's counters.
  CounterSnapshot checkAcrossThreads(const char *What) {
    Tensor First;
    CounterSnapshot FirstSnap;
    bool Have = false;
    for (unsigned Threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(Threads));
      ExecOptions Interp;
      Interp.Engines = {Engine::Interp};
      Interp.Threads = Threads;
      ExecOptions Blocked;
      Blocked.Threads = Threads;
      CounterSnapshot SI, SB;
      MicroKernelStats StI, StB;
      Tensor Ref = run(Interp, SI, StI);
      Tensor Out = run(Blocked, SB, StB);
      EXPECT_GT(StB.BlockedLoops, 0u);
      EXPECT_GT(StB.BlockedAccumLoops, 0u)
          << "spmm must take a register-accumulator form";
      EXPECT_GT(SB.FusedBlockedPanels, 0u);
      expectBitIdentical(Ref, Out, What);
      expectCountersEqual(SI, SB, What);
      if (!Have) {
        First = std::move(Out);
        FirstSnap = SB;
        Have = true;
        continue;
      }
      expectBitIdentical(First, Out, What);
      expectCountersEqual(FirstSnap, SB, What);
    }
    return FirstSnap;
  }
};

} // namespace

TEST(BlockedEngine, WorkspaceNestAccumulatesInRegisters) {
  // The workspace triple's blocked form keeps the whole panel of
  // workspace cells in registers across the sparse walk and writes each
  // lane back once — the FusedBlockedStores telemetry equals the
  // per-column writes instead of the per-element traffic. Bit-identical
  // with exact counters, at the derived width (8) over an extent (13)
  // it does not divide.
  SpmmFixture F(29, 13, /*Workspace=*/true, 5);
  CounterSnapshot Snap = F.checkAcrossThreads("blocked spmm");
  // One writeback per lane (column), not one per element.
  EXPECT_EQ(Snap.FusedBlockedStores, Snap.OutputWrites);
}

TEST(BlockedEngine, AccumFormMatchesInterpreter) {
  // Without the workspace transform the leaf adds into C[i,k] itself:
  // the destination is one cell per lane, so the panel keeps it in a
  // register and stores it once per lane (the Accum mode). Ragged
  // extents cover both widths (4 below 8 columns, else 8) and partial
  // last panels.
  for (int64_t N : {5, 23, 100})
    for (int64_t KD : {3, 7, 13}) {
      SCOPED_TRACE("N " + std::to_string(N) + " columns " +
                   std::to_string(KD));
      SpmmFixture F(N, KD, /*Workspace=*/false, 11);
      F.checkAcrossThreads("accum spmm");
    }
}

TEST(BlockedEngine, PanelsWithoutADedicatedWalkStayInterpreted) {
  // Panel nests whose leaf is not `A·f` under (*, +) in one of the
  // dedicated walks decline blocking: the nest runs in the interpreter
  // over its fused leaf, bit-identical to an all-interpreted run with
  // exact counters. The last shape is replay seed 381's. Small ragged
  // extents on both panel widths: the panel variable spans KD, every
  // other index N.
  struct Shape {
    const char *Text;
    std::vector<std::string> Loops;
    std::string Nest, Leaf;
  };
  const Shape Shapes[] = {
      {"C[i,k] += A[i,j] * B[j,k] * D[i,k]", {"i", "k", "j"}, "k", "j"},
      {"C[i,k] += A[i,j] * B[j,k] * x[j]", {"i", "k", "j"}, "k", "j"},
      {"C[i,k] min= A[i,j] + B[j,k]", {"i", "k", "j"}, "k", "j"},
      {"O[d] += A[a,c] * B[c] * C[d]", {"a", "d", "c"}, "d", "c"},
  };
  for (const Shape &Sh : Shapes)
    for (int64_t N : {6, 19})
      for (int64_t KD : {5, 11}) {
        SCOPED_TRACE(std::string(Sh.Text) + " N " + std::to_string(N) +
                     " columns " + std::to_string(KD));
        Rng Rand(3 + N + KD);
        Einsum E = parseEinsum("panel", Sh.Text);
        E.LoopOrder = Sh.Loops;
        const bool MinPlus = E.ReduceOp == OpKind::Min;
        const double Fill = MinPlus ? Inf : 0.0;
        E.declare("A", TensorFormat::csf(2), Fill);
        CompileResult R = compileEinsum(E);
        auto Dims = [&](const ExprPtr &Acc) {
          std::vector<int64_t> Out;
          for (const std::string &I : Acc->indices())
            Out.push_back(I == Sh.Nest ? KD : N);
          return Out;
        };
        std::map<std::string, Tensor> In;
        In.emplace("A", generateSymmetricTensor(2, N, 4 * N, Rand,
                                                TensorFormat::csf(2), Fill));
        std::vector<ExprPtr> Accs;
        Expr::collectAccesses(E.Rhs, Accs);
        for (const ExprPtr &Acc : Accs) {
          if (In.count(Acc->tensorName()))
            continue;
          Tensor T = Tensor::dense(Dims(Acc));
          for (double &V : T.vals())
            V = Rand.nextDouble(-1.0, 1.0);
          In.emplace(Acc->tensorName(), std::move(T));
        }
        Tensor Out = Tensor::dense(Dims(E.Output));
        if (MinPlus)
          Out.setAllValues(Inf);
        obs::ExecReport Rep;
        MicroKernelStats St = compareEngines(
            R.Optimized,
            [&](Executor &Ex, Tensor &O) {
              for (auto &[Name, T] : In)
                Ex.bind(Name, &T);
              Ex.bind(E.Output->tensorName(), &O);
            },
            std::move(Out), Sh.Text, &Rep);
        EXPECT_EQ(St.BlockedLoops, 0u);
        EXPECT_EQ(Rep.Counters.FusedBlockedPanels, 0u);
        expectLoopEngine(Rep, Sh.Nest, "Interp");
        expectLoopEngine(Rep, Sh.Leaf, "Fused");
      }
}
