//===- tests/runtime_test.cpp ---------------------------------*- C++ -*-===//
///
/// Tests for the execution engine: dense loops, sparse walkers,
/// bound lifting (comparisons into loop bounds, paper Section 2.2),
/// residual conditions, scalar workspaces, lookup tables, replication,
/// counters, and the oracle (walker-disabled) mode.
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

#include <cstring>

using namespace systec;

namespace {

/// A tiny CSC matrix:
///   [ 1 0 2 ]
///   [ 0 3 0 ]
///   [ 4 0 5 ]
Tensor smallCsc() {
  Coo C({3, 3});
  C.add({0, 0}, 1);
  C.add({2, 0}, 4);
  C.add({1, 1}, 3);
  C.add({0, 2}, 2);
  C.add({2, 2}, 5);
  return Tensor::fromCoo(std::move(C), TensorFormat::csf(2));
}

Tensor vec3(double A, double B, double C) {
  Tensor T = Tensor::dense({3});
  T.vals() = {A, B, C};
  return T;
}

Kernel spmvKernel() {
  Kernel K;
  K.Name = "spmv";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.ReduceOp = OpKind::Add;
  K.Decls["A"] = TensorDecl{"A", 2, TensorFormat::csf(2), 0.0,
                            Partition::none(2), false};
  K.Body = Stmt::loops(
      {"j", "i"},
      Stmt::assign(Expr::access("y", {"i"}), OpKind::Add,
                   Expr::call(OpKind::Mul, {Expr::access("A", {"i", "j"}),
                                            Expr::access("x", {"j"})})));
  return K;
}

} // namespace

TEST(Executor, SpmvWithWalker) {
  Tensor A = smallCsc();
  Tensor X = vec3(1, 2, 3);
  Tensor Y = Tensor::dense({3});
  Executor E(spmvKernel());
  E.bind("A", &A).bind("x", &X).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 1 * 1 + 2 * 3.0);
  EXPECT_EQ(Y.at({1}), 3 * 2.0);
  EXPECT_EQ(Y.at({2}), 4 * 1 + 5 * 3.0);
}

TEST(Executor, SpmvOracleModeMatches) {
  Tensor A = smallCsc();
  Tensor X = vec3(1, 2, 3);
  Tensor Y1 = Tensor::dense({3}), Y2 = Tensor::dense({3});
  Executor E1(spmvKernel());
  E1.bind("A", &A).bind("x", &X).bind("y", &Y1);
  ASSERT_TRUE(E1.tryPrepare().ok());
  ASSERT_TRUE(E1.tryRun().ok());
  ExecOptions NoWalk;
  NoWalk.EnableSparseWalk = false;
  Executor E2(spmvKernel(), NoWalk);
  E2.bind("A", &A).bind("x", &X).bind("y", &Y2);
  ASSERT_TRUE(E2.tryPrepare().ok());
  ASSERT_TRUE(E2.tryRun().ok());
  EXPECT_EQ(Tensor::maxAbsDiff(Y1, Y2), 0.0);
}

TEST(Executor, WalkerCountsSparseReads) {
  Tensor A = smallCsc();
  Tensor X = vec3(1, 1, 1);
  Tensor Y = Tensor::dense({3});
  setCountersEnabled(true);
  Executor E(spmvKernel());
  E.bind("A", &A).bind("x", &X).bind("y", &Y);
  obs::ExecReport Rep;
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun(&Rep).ok());
  EXPECT_EQ(Rep.Counters.SparseReads, 5u);
  EXPECT_EQ(Rep.Counters.Reductions, 5u);
}

TEST(Executor, CountersCanBeDisabled) {
  Tensor A = smallCsc();
  Tensor X = vec3(1, 1, 1);
  Tensor Y = Tensor::dense({3});
  setCountersEnabled(false);
  Executor E(spmvKernel());
  E.bind("A", &A).bind("x", &X).bind("y", &Y);
  obs::ExecReport Rep;
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun(&Rep).ok());
  setCountersEnabled(true);
  EXPECT_EQ(Rep.Counters.SparseReads, 0u);
}

TEST(Executor, BoundLiftingUpperTriangle) {
  // for j, i: if i <= j: count A entries -> only upper triangle visited.
  Kernel K;
  K.Name = "tri";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loop(
      "j",
      Stmt::loop("i", Stmt::ifThen(Cond::atom(CmpKind::LE, "i", "j"),
                                   Stmt::assign(Expr::access("y", {}),
                                                OpKind::Add,
                                                Expr::access("A",
                                                             {"i", "j"})))));
  Tensor A = smallCsc();
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("A", &A).bind("y", &Y);
  obs::ExecReport Rep;
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun(&Rep).ok());
  // Upper entries: (0,0)=1, (1,1)=3, (0,2)=2, (2,2)=5 -> sum 11.
  EXPECT_EQ(Y.at({0}), 11.0);
  // The walker visited only the four upper-triangle entries.
  EXPECT_EQ(Rep.Counters.SparseReads, 4u);
}

TEST(Executor, BoundLiftingDisabledStillCorrect) {
  Kernel K;
  K.Name = "tri";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loop(
      "j",
      Stmt::loop("i", Stmt::ifThen(Cond::atom(CmpKind::LE, "i", "j"),
                                   Stmt::assign(Expr::access("y", {}),
                                                OpKind::Add,
                                                Expr::access("A",
                                                             {"i", "j"})))));
  Tensor A = smallCsc();
  Tensor Y = Tensor::dense({1});
  ExecOptions NoLift;
  NoLift.EnableBoundLifting = false;
  Executor E(K, NoLift);
  E.bind("A", &A).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 11.0);
}

TEST(Executor, EqualityPointLoop) {
  // for j, i: if i == j: y[] += A[i,j]  (trace).
  Kernel K;
  K.Name = "trace";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loop(
      "j",
      Stmt::loop("i", Stmt::ifThen(Cond::atom(CmpKind::EQ, "i", "j"),
                                   Stmt::assign(Expr::access("y", {}),
                                                OpKind::Add,
                                                Expr::access("A",
                                                             {"i", "j"})))));
  Tensor A = smallCsc();
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("A", &A).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 1 + 3 + 5.0);
}

TEST(Executor, ConditionSinkingSafetyNet) {
  // An If wrapping the loop that binds its variable is sunk inward.
  Kernel K;
  K.Name = "sink";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loop(
      "j", Stmt::ifThen(Cond::atom(CmpKind::LE, "i", "j"),
                        Stmt::loop("i", Stmt::assign(
                                            Expr::access("y", {}),
                                            OpKind::Add,
                                            Expr::access("A", {"i", "j"})))));
  Tensor A = smallCsc();
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("A", &A).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 11.0);
}

TEST(Executor, ScalarWorkspace) {
  // for j: w = 0; for i: w += A[i,j]; y[j] += w.
  Kernel K;
  K.Name = "colsum";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loop(
      "j",
      Stmt::block(
          {Stmt::defScalar("w", Expr::lit(0)),
           Stmt::loop("i", Stmt::assign(Expr::scalar("w"), OpKind::Add,
                                        Expr::access("A", {"i", "j"}))),
           Stmt::assign(Expr::access("y", {"j"}), OpKind::Add,
                        Expr::scalar("w"))}));
  Tensor A = smallCsc();
  Tensor Y = Tensor::dense({3});
  Executor E(K);
  E.bind("A", &A).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 5.0);
  EXPECT_EQ(Y.at({1}), 3.0);
  EXPECT_EQ(Y.at({2}), 7.0);
}

TEST(Executor, MultiplicityAdd) {
  Kernel K;
  K.Name = "mult";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loops({"j", "i"},
                       Stmt::assign(Expr::access("y", {}), OpKind::Add,
                                    Expr::access("A", {"i", "j"}), 3));
  Tensor A = smallCsc();
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("A", &A).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 3 * 15.0);
}

TEST(Executor, MultiplicityIdempotentCollapses) {
  // min-reduction over a fill-inf matrix (the (min, +) data model:
  // missing coordinates annihilate, so results are the same whether or
  // not the runtime walks the sparse level). Duplicate updates must
  // collapse without a scale factor.
  Kernel K;
  K.Name = "multmin";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.ReduceOp = OpKind::Min;
  K.Body = Stmt::loops({"j", "i"},
                       Stmt::assign(Expr::access("y", {}), OpKind::Min,
                                    Expr::access("A", {"i", "j"}), 2));
  Coo C({3, 3});
  C.add({0, 0}, 1);
  C.add({2, 0}, 4);
  C.add({1, 1}, 3);
  C.add({0, 2}, 2);
  C.add({2, 2}, 5);
  Tensor A = Tensor::fromCoo(std::move(C), TensorFormat::csf(2),
                             std::numeric_limits<double>::infinity());
  Tensor Y = Tensor::dense({1}, 0.0);
  Y.setAllValues(std::numeric_limits<double>::infinity());
  Executor E(K);
  E.bind("A", &A).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 1.0);
}

TEST(Executor, LutSelectsFactor) {
  // y[] += lut[i==j](10, 100) * A[i,j]: off-diagonal entries weighted
  // 10, diagonal 100.
  Kernel K;
  K.Name = "lut";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  ExprPtr Lut = Expr::lut({CmpAtom{CmpKind::EQ, "i", "j"}}, {10, 100});
  K.Body = Stmt::loops(
      {"j", "i"},
      Stmt::assign(Expr::access("y", {}), OpKind::Add,
                   Expr::call(OpKind::Mul,
                              {Lut, Expr::access("A", {"i", "j"})})));
  Tensor A = smallCsc();
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("A", &A).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  // Off-diagonal: 4 + 2 = 6; diagonal: 1 + 3 + 5 = 9.
  EXPECT_EQ(Y.at({0}), 10 * 6 + 100 * 9.0);
}

TEST(Executor, ReplicateEpilogue) {
  Kernel K;
  K.Name = "rep";
  K.LoopOrder = {};
  K.OutputName = "C";
  K.Body = Stmt::block({});
  K.Epilogue = Stmt::replicate("C", Partition::full(2));
  Tensor C = Tensor::dense({3, 3});
  C.denseRef({0, 1}) = 7;
  C.denseRef({0, 2}) = 8;
  C.denseRef({1, 2}) = 9;
  C.denseRef({1, 1}) = 4;
  Executor E(K);
  E.bind("C", &C);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRunEpilogue().ok());
  EXPECT_EQ(C.at({1, 0}), 7.0);
  EXPECT_EQ(C.at({2, 0}), 8.0);
  EXPECT_EQ(C.at({2, 1}), 9.0);
  EXPECT_EQ(C.at({1, 1}), 4.0);
}

TEST(Executor, TransposeRequestMaterializes) {
  Kernel K = spmvKernel();
  // Rewrite to use the transposed alias: A_T[j,i] with loops i outer.
  K.Name = "spmv_t";
  K.LoopOrder = {"i", "j"};
  K.Body = Stmt::loops(
      {"i", "j"},
      Stmt::assign(Expr::access("y", {"i"}), OpKind::Add,
                   Expr::call(OpKind::Mul, {Expr::access("A_T", {"j", "i"}),
                                            Expr::access("x", {"j"})})));
  K.Transposes.push_back(TransposeRequest{"A_T", "A", {1, 0}});
  K.Decls["A_T"] = TensorDecl{"A_T", 2, TensorFormat::csf(2), 0.0,
                              Partition::none(2), false};
  Tensor A = smallCsc();
  Tensor X = vec3(1, 2, 3);
  Tensor Y = Tensor::dense({3});
  Executor E(K);
  E.bind("A", &A).bind("x", &X).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 7.0);
  EXPECT_EQ(Y.at({1}), 6.0);
  EXPECT_EQ(Y.at({2}), 19.0);
}

TEST(Executor, SplitRequestMaterializes) {
  Kernel K;
  K.Name = "diagsum";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Decls["A"] = TensorDecl{"A", 2, TensorFormat::csf(2), 0.0,
                            Partition::full(2), false};
  K.Splits.push_back(SplitRequest{"A_diag", "A", true});
  K.Splits.push_back(SplitRequest{"A_nondiag", "A", false});
  K.Body = Stmt::block(
      {Stmt::loops({"j", "i"},
                   Stmt::assign(Expr::access("y", {}), OpKind::Add,
                                Expr::access("A_diag", {"i", "j"}))),
       Stmt::loops({"j", "i"},
                   Stmt::assign(Expr::access("y", {}), OpKind::Add,
                                Expr::call(OpKind::Mul,
                                           {Expr::lit(100),
                                            Expr::access("A_nondiag",
                                                         {"i", "j"})})))});
  Tensor A = smallCsc();
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("A", &A).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 9.0 + 100 * 6.0);
}

TEST(Executor, FailedPrepareLeavesTheRetryClientBindingsOnly) {
  // ssymv's plan compilation fails while x is unbound, after the
  // diagonal split of A was materialized. The retry must record only
  // the client's names, so a later rebind of {A, x, y} succeeds and
  // runs exactly like a fresh executor over the same tensors.
  const CompileResult R = compileEinsum(makeSsymv());
  Rng Gen(7);
  Tensor A = generateSymmetricTensor(2, 12, 30, Gen, TensorFormat::csf(2));
  Tensor X = generateDenseVector(12, Gen);
  Tensor A2 = generateSymmetricTensor(2, 12, 40, Gen, TensorFormat::csf(2));
  Tensor X2 = generateDenseVector(12, Gen);
  Tensor Y = Tensor::dense({12});
  Executor E(R.Optimized);
  E.bind("A", &A).bind("y", &Y);
  Status First = E.tryPrepare();
  ASSERT_EQ(First.code(), ErrCode::UnboundTensor) << First.str();
  E.bind("x", &X);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());

  const bool CountersWereOn = countersEnabled();
  setCountersEnabled(true);
  Tensor Y2 = Tensor::dense({12});
  Status Re = E.rebind({{"A", &A2}, {"x", &X2}, {"y", &Y2}}, ExecOptions());
  ASSERT_TRUE(Re.ok()) << Re.str();
  obs::ExecReport Rep;
  ASSERT_TRUE(E.tryRun(&Rep).ok());

  Tensor Y3 = Tensor::dense({12});
  Executor Fresh(R.Optimized);
  Fresh.bind("A", &A2).bind("x", &X2).bind("y", &Y3);
  ASSERT_TRUE(Fresh.tryPrepare().ok());
  obs::ExecReport FreshRep;
  ASSERT_TRUE(Fresh.tryRun(&FreshRep).ok());
  setCountersEnabled(CountersWereOn);

  ASSERT_EQ(Y2.vals().size(), Y3.vals().size());
  EXPECT_EQ(std::memcmp(Y2.vals().data(), Y3.vals().data(),
                        Y2.vals().size() * sizeof(double)),
            0);
  EXPECT_EQ(Rep.Counters.SparseReads, FreshRep.Counters.SparseReads);
  EXPECT_EQ(Rep.Counters.Reductions, FreshRep.Counters.Reductions);
  EXPECT_EQ(Rep.Counters.ScalarOps, FreshRep.Counters.ScalarOps);
  EXPECT_EQ(Rep.Counters.OutputWrites, FreshRep.Counters.OutputWrites);
  EXPECT_GT(Rep.Counters.SparseReads, 0u);
}

TEST(Executor, TwoWalkersIntersect) {
  // y[] += A[i,j] * B[i,j]: both sparse, co-iterated.
  Kernel K;
  K.Name = "dot";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loops(
      {"j", "i"},
      Stmt::assign(Expr::access("y", {}), OpKind::Add,
                   Expr::call(OpKind::Mul, {Expr::access("A", {"i", "j"}),
                                            Expr::access("B", {"i", "j"})})));
  Tensor A = smallCsc();
  Coo CB({3, 3});
  CB.add({0, 0}, 10); // overlaps A(0,0)=1
  CB.add({1, 0}, 99); // no overlap
  CB.add({2, 2}, 2);  // overlaps A(2,2)=5
  Tensor B = Tensor::fromCoo(std::move(CB), TensorFormat::csf(2));
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("A", &A).bind("B", &B).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 1 * 10 + 5 * 2.0);
}

TEST(Executor, NonConcordantSparseAccessFallsBackToLocate) {
  // Loops i (outer), j (inner) with CSC A[i,j]: top level j binds
  // second -> random access per element, still correct.
  Kernel K;
  K.Name = "rowmajor";
  K.LoopOrder = {"i", "j"};
  K.OutputName = "y";
  K.Body = Stmt::loops(
      {"i", "j"},
      Stmt::assign(Expr::access("y", {"i"}), OpKind::Add,
                   Expr::call(OpKind::Mul, {Expr::access("A", {"i", "j"}),
                                            Expr::access("x", {"j"})})));
  Tensor A = smallCsc();
  Tensor X = vec3(1, 2, 3);
  Tensor Y = Tensor::dense({3});
  Executor E(K);
  E.bind("A", &A).bind("x", &X).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 7.0);
  EXPECT_EQ(Y.at({1}), 6.0);
  EXPECT_EQ(Y.at({2}), 19.0);
}

TEST(Executor, MinPlusSemiring) {
  // y[i] min= A[i,j] + d[j] with fill = inf.
  Kernel K;
  K.Name = "bf";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.ReduceOp = OpKind::Min;
  K.Body = Stmt::loops(
      {"j", "i"},
      Stmt::assign(Expr::access("y", {"i"}), OpKind::Min,
                   Expr::call(OpKind::Add, {Expr::access("A", {"i", "j"}),
                                            Expr::access("d", {"j"})})));
  double Inf = std::numeric_limits<double>::infinity();
  Coo C({3, 3});
  C.add({1, 0}, 2.0);
  C.add({2, 1}, 1.0);
  Tensor A = Tensor::fromCoo(std::move(C), TensorFormat::csf(2), Inf);
  Tensor D = vec3(0, 10, 20);
  Tensor Y = vec3(Inf, Inf, Inf);
  Executor E(K);
  E.bind("A", &A).bind("d", &D).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), Inf);
  EXPECT_EQ(Y.at({1}), 2.0);
  EXPECT_EQ(Y.at({2}), 11.0);
}

TEST(Executor, RleInputDrivesLoop) {
  Kernel K;
  K.Name = "rlesum";
  K.LoopOrder = {"i"};
  K.OutputName = "y";
  K.Body = Stmt::loop("i", Stmt::assign(Expr::access("y", {}), OpKind::Add,
                                        Expr::access("r", {"i"})));
  Coo C({6});
  C.add({1}, 2.0);
  C.add({2}, 2.0);
  C.add({4}, 7.0);
  TensorFormat F;
  F.Levels = {LevelKind::RunLength};
  Tensor Rle = Tensor::fromCoo(std::move(C), F);
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("r", &Rle).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), 11.0);
}

TEST(Executor, BandedInputDrivesLoop) {
  Kernel K;
  K.Name = "bandsum";
  K.LoopOrder = {"j", "i"};
  K.OutputName = "y";
  K.Body = Stmt::loops({"j", "i"},
                       Stmt::assign(Expr::access("y", {}), OpKind::Add,
                                    Expr::access("A", {"i", "j"})));
  Coo C({5, 5});
  double Total = 0;
  for (int64_t I = 0; I < 5; ++I) {
    C.add({I, I}, 1.0 + I);
    Total += 1.0 + I;
  }
  TensorFormat F;
  F.Levels = {LevelKind::Dense, LevelKind::Banded};
  Tensor A = Tensor::fromCoo(std::move(C), F);
  Tensor Y = Tensor::dense({1});
  Executor E(K);
  E.bind("A", &A).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRun().ok());
  EXPECT_EQ(Y.at({0}), Total);
}
