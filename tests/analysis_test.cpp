//===- tests/analysis_test.cpp --------------------------------*- C++ -*-===//
///
/// Tests for symmetry analysis: chain discovery from input partitions,
/// rhs-invariance detection (visible output symmetry like SSYRK and
/// invisible contraction symmetry), and the normalizer.
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/Normalize.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

using namespace systec;

TEST(Analysis, SsymvChain) {
  SymmetryAnalysis A = analyzeSymmetry(makeSsymv());
  ASSERT_EQ(A.Chains.size(), 1u);
  std::vector<std::string> Expect{"i", "j"};
  EXPECT_EQ(A.Chains[0].Names, Expect);
  EXPECT_FALSE(A.OutputSymmetry.hasSymmetry());
}

TEST(Analysis, BellmanFordChainOverMinPlus) {
  SymmetryAnalysis A = analyzeSymmetry(makeBellmanFord());
  ASSERT_EQ(A.Chains.size(), 1u);
  std::vector<std::string> Expect{"i", "j"};
  EXPECT_EQ(A.Chains[0].Names, Expect);
}

TEST(Analysis, SyprdChain) {
  SymmetryAnalysis A = analyzeSymmetry(makeSyprd());
  ASSERT_EQ(A.Chains.size(), 1u);
  EXPECT_EQ(A.Chains[0].Names.size(), 2u);
  EXPECT_FALSE(A.OutputSymmetry.hasSymmetry());
}

TEST(Analysis, SsyrkVisibleOutputSymmetryFromRhsInvariance) {
  // A is NOT symmetric; the chain comes from rhs invariance under the
  // output index swap (paper Example 3.1 / Section 5.2.4).
  SymmetryAnalysis A = analyzeSymmetry(makeSsyrk());
  ASSERT_EQ(A.Chains.size(), 1u);
  std::vector<std::string> Expect{"i", "j"};
  EXPECT_EQ(A.Chains[0].Names, Expect);
  EXPECT_TRUE(A.OutputSymmetry.hasSymmetry());
  EXPECT_TRUE(A.OutputSymmetry.samePart(0, 1));
}

TEST(Analysis, TtmChainAndVisibleOutput) {
  SymmetryAnalysis A = analyzeSymmetry(makeTtm());
  ASSERT_EQ(A.Chains.size(), 1u);
  std::vector<std::string> Expect{"j", "k", "l"};
  EXPECT_EQ(A.Chains[0].Names, Expect);
  // C[i,j,l]: positions 1 and 2 are symmetric ({{j,l}} in the paper).
  EXPECT_TRUE(A.OutputSymmetry.hasSymmetry());
  EXPECT_TRUE(A.OutputSymmetry.samePart(1, 2));
  EXPECT_FALSE(A.OutputSymmetry.samePart(0, 1));
}

TEST(Analysis, MttkrpChains) {
  for (unsigned Ord = 3; Ord <= 5; ++Ord) {
    SymmetryAnalysis A = analyzeSymmetry(makeMttkrp(Ord));
    ASSERT_EQ(A.Chains.size(), 1u) << "order " << Ord;
    EXPECT_EQ(A.Chains[0].Names.size(), Ord);
    EXPECT_EQ(A.Chains[0].Names[0], "i");
    EXPECT_FALSE(A.OutputSymmetry.hasSymmetry());
  }
}

TEST(Analysis, InvisibleContractionSymmetryWithoutSymmetricInput) {
  // B[i] += A[i,j] * A[i,k]: swapping j,k leaves the rhs invariant even
  // though A is asymmetric (paper Example 3.1, invisible case).
  Einsum E = parseEinsum("rowsq", "B[i] += A[i,j] * A[i,k]");
  E.LoopOrder = {"i", "k", "j"};
  SymmetryAnalysis A = analyzeSymmetry(E);
  ASSERT_EQ(A.Chains.size(), 1u);
  std::vector<std::string> Expect{"j", "k"};
  EXPECT_EQ(A.Chains[0].Names, Expect);
}

TEST(Analysis, OutputSymmetryRequiresRhsInvariancePerPair) {
  // Regression (found by the einsum fuzzer): in
  // O[d,c,b] += A[d,c,b] * B[b] all three output names share A's
  // chain, but only the pair not touching B's operand is a visible
  // output symmetry.
  Einsum E = parseEinsum("fuzz37", "O[d,c,b] += A[d,c,b] * B[b]");
  E.LoopOrder = {"b", "d", "c"};
  E.declare("A", TensorFormat::csf(3));
  E.setSymmetry("A", Partition::full(3));
  E.declare("B", TensorFormat::dense(1));
  SymmetryAnalysis A = analyzeSymmetry(E);
  ASSERT_EQ(A.Chains.size(), 1u);
  EXPECT_TRUE(A.OutputSymmetry.samePart(0, 1));  // d <-> c invariant
  EXPECT_FALSE(A.OutputSymmetry.samePart(1, 2)); // c <-> b changes B
  EXPECT_FALSE(A.OutputSymmetry.samePart(0, 2));
}

TEST(Analysis, NoSymmetryNoChains) {
  Einsum E = parseEinsum("spmm", "C[i,j] += A[i,k] * B[k,j]");
  E.LoopOrder = {"j", "k", "i"};
  SymmetryAnalysis A = analyzeSymmetry(E);
  EXPECT_TRUE(A.Chains.empty());
  EXPECT_FALSE(A.hasSymmetry());
}

TEST(Analysis, AsymmetricMatrixNoSpuriousChain) {
  // SYPRD-shaped kernel without the symmetry annotation: no chain
  // (A[i,j] != A[j,i] in general).
  Einsum E = parseEinsum("quad", "y[] += x[i] * A[i,j] * x[j]");
  E.LoopOrder = {"j", "i"};
  SymmetryAnalysis A = analyzeSymmetry(E);
  EXPECT_TRUE(A.Chains.empty());
}

TEST(Analysis, PartialSymmetryTwoChains) {
  // A with {{0,1},{2,3}} symmetry yields two independent chains.
  Einsum E = parseEinsum("p4", "y[] += A[i,j,k,l]");
  E.LoopOrder = {"l", "k", "j", "i"};
  E.declare("A", TensorFormat::dense(4));
  E.setSymmetry("A", Partition::parse(4, "{0,1}{2,3}"));
  SymmetryAnalysis A = analyzeSymmetry(E);
  ASSERT_EQ(A.Chains.size(), 2u);
  EXPECT_EQ(A.Chains[0].Names.size(), 2u);
  EXPECT_EQ(A.Chains[1].Names.size(), 2u);
}

TEST(Analysis, ChainOrderFollowsLoopDepth) {
  // The chain ascends toward inner loops regardless of name order.
  Einsum E = parseEinsum("s", "y[b] += A[b,a] * x[a]");
  E.LoopOrder = {"a", "b"};
  E.declare("A", TensorFormat::csf(2));
  E.setSymmetry("A", Partition::full(2));
  SymmetryAnalysis A = analyzeSymmetry(E);
  ASSERT_EQ(A.Chains.size(), 1u);
  // b is the inner loop -> first chain element.
  std::vector<std::string> Expect{"b", "a"};
  EXPECT_EQ(A.Chains[0].Names, Expect);
}

TEST(Analysis, IndexRankMatchesChainPosition) {
  SymmetryAnalysis A = analyzeSymmetry(makeMttkrp(3));
  EXPECT_EQ(A.IndexRank.at("i"), 0);
  EXPECT_EQ(A.IndexRank.at("k"), 1);
  EXPECT_EQ(A.IndexRank.at("l"), 2);
  EXPECT_EQ(A.IndexRank.count("j"), 0u);
}

TEST(Analysis, StrSummary) {
  SymmetryAnalysis A = analyzeSymmetry(makeSsymv());
  EXPECT_NE(A.str().find("i <= j"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Normalizer
//===----------------------------------------------------------------------===//

TEST(Normalizer, SortsSymmetricModes) {
  Einsum E = makeMttkrp(3);
  SymmetryAnalysis A = analyzeSymmetry(E);
  FormTable N(E, A.IndexRank);
  ExprPtr Acc = Expr::access("A", {"l", "i", "k"});
  EXPECT_EQ(N.expr(N.normalize(N.intern(Acc)))->str(), "A[i, k, l]");
}

TEST(Normalizer, LeavesAsymmetricModesAlone) {
  Einsum E = parseEinsum("s", "C[i,j] += A[i,k] * B[k,j]");
  FormTable N(E, {});
  ExprPtr Acc = Expr::access("A", {"k", "i"});
  EXPECT_EQ(N.expr(N.normalize(N.intern(Acc)))->str(), "A[k, i]");
}

TEST(Normalizer, SortsCommutativeOperands) {
  Einsum E = makeMttkrp(3);
  SymmetryAnalysis A = analyzeSymmetry(E);
  FormTable N(E, A.IndexRank);
  ExprPtr Ex = Expr::call(OpKind::Mul, {Expr::access("B", {"l", "j"}),
                                        Expr::access("B", {"k", "j"}),
                                        Expr::access("A", {"i", "k", "l"})});
  EXPECT_EQ(N.expr(N.normalize(N.intern(Ex)))->str(),
            "A[i, k, l] * B[k, j] * B[l, j]");
}

TEST(Normalizer, OperandSortUsesChainRanks) {
  // B[k,j] sorts before B[l,j] because rank(k) < rank(l).
  Einsum E = makeMttkrp(3);
  SymmetryAnalysis A = analyzeSymmetry(E);
  FormTable N(E, A.IndexRank);
  const FormTable::Id K = N.intern(Expr::access("B", {"k", "j"}));
  const FormTable::Id L = N.intern(Expr::access("B", {"l", "j"}));
  EXPECT_LT(N.sortKey(K), N.sortKey(L));
}

TEST(Normalizer, SwappedFormsCollapse) {
  // The SYPRD invariance: x[j]*A[j,i]*x[i] normalizes to the same form
  // as x[i]*A[i,j]*x[j].
  Einsum E = makeSyprd();
  SymmetryAnalysis A = analyzeSymmetry(E);
  FormTable N(E, A.IndexRank);
  ExprPtr F1 = Expr::call(OpKind::Mul, {Expr::access("x", {"i"}),
                                        Expr::access("A", {"i", "j"}),
                                        Expr::access("x", {"j"})});
  ExprPtr F2 = Expr::call(OpKind::Mul, {Expr::access("x", {"j"}),
                                        Expr::access("A", {"j", "i"}),
                                        Expr::access("x", {"i"})});
  EXPECT_EQ(N.normalize(N.intern(F1)), N.normalize(N.intern(F2)));
}

TEST(Normalizer, InterningIsStructural) {
  // Equal structures share an id whatever tree they come from; literals
  // are told apart by value, also below six significant digits.
  Einsum E = makeSsymv();
  FormTable N(E, {});
  EXPECT_EQ(N.intern(Expr::access("A", {"i", "j"})),
            N.intern(Expr::access("A", {"i", "j"})));
  EXPECT_NE(N.intern(Expr::access("A", {"i", "j"})),
            N.intern(Expr::access("A", {"j", "i"})));
  const FormTable::Id L1 = N.intern(Expr::lit(1.0000001));
  const FormTable::Id L2 = N.intern(Expr::lit(1.0000049));
  EXPECT_NE(L1, L2);
  EXPECT_NE(N.sortKey(L1), N.sortKey(L2));
  // A literal that prints exactly keeps its six-digit key.
  EXPECT_EQ(N.sortKey(N.intern(Expr::lit(0.5))), "0:0.5");
}

TEST(Normalizer, SubstitutionIsSimultaneous) {
  // ssyrk's rhs under the swap i <-> j: A[j,k] * A[i,k], which sorts
  // back to the original operand order.
  Einsum E = makeSsyrk();
  FormTable N(E, {});
  const FormTable::Id Rhs = N.intern(E.Rhs);
  const FormTable::Id I = N.name("i"), J = N.name("j");
  const unsigned Swap = N.substitution({{I, J}, {J, I}});
  EXPECT_EQ(N.normalize(Rhs, Swap), N.normalize(Rhs));
  const unsigned ToJ = N.substitution({{I, J}});
  EXPECT_EQ(N.expr(N.normalize(Rhs, ToJ))->str(), "A[j, k] * A[j, k]");
}
