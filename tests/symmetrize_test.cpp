//===- tests/symmetrize_test.cpp ------------------------------*- C++ -*-===//
///
/// Tests for the symmetrization stage (paper Section 4.1) against the
/// paper's worked examples: Figure 2 (SSYMV), Listings 4-5 (SYPRD),
/// Listing 1 (TTM), Listing 6 (MTTKRP), and the counting identities
/// |S_P|E| = n!/prod(run!).
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/Compiler.h"
#include "core/Symmetrize.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "kernels/Oracle.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace systec;

namespace {

SymKernel symmetrizeKernel(const Einsum &E) {
  return symmetrize(E, analyzeSymmetry(E));
}

/// Total assignments (with multiplicity) in a block.
unsigned totalForms(const SymBlock &B) {
  unsigned N = 0;
  for (const FormStmt &F : B.Forms)
    N += F.Mult;
  return N;
}

/// Finds the block whose exact condition prints as \p CondStr.
const SymBlock *findBlock(const SymKernel &SK, const std::string &CondStr) {
  for (const SymBlock &B : SK.Blocks)
    if (B.Exact.str() == CondStr)
      return &B;
  return nullptr;
}

std::set<std::string> formKeys(const SymBlock &B) {
  std::set<std::string> Keys;
  for (const FormStmt &F : B.Forms)
    Keys.insert(F.key());
  return Keys;
}

} // namespace

TEST(Symmetrize, SsymvMatchesFigure2) {
  SymKernel SK = symmetrizeKernel(makeSsymv());
  ASSERT_EQ(SK.Blocks.size(), 2u);

  const SymBlock *Off = findBlock(SK, "i < j");
  ASSERT_NE(Off, nullptr);
  EXPECT_TRUE(Off->isOffDiagonal());
  std::set<std::string> Keys = formKeys(*Off);
  EXPECT_TRUE(Keys.count("y[i] <- A[i, j] * x[j]"));
  EXPECT_TRUE(Keys.count("y[j] <- A[i, j] * x[i]"));

  const SymBlock *Diag = findBlock(SK, "i == j");
  ASSERT_NE(Diag, nullptr);
  ASSERT_EQ(Diag->Forms.size(), 1u);
  EXPECT_EQ(Diag->Forms[0].key(), "y[i] <- A[i, j] * x[j]");
}

TEST(Symmetrize, SyprdMatchesListing4) {
  SymKernel SK = symmetrizeKernel(makeSyprd());
  ASSERT_EQ(SK.Blocks.size(), 2u);
  const SymBlock *Off = findBlock(SK, "i < j");
  ASSERT_NE(Off, nullptr);
  // Listing 4: two equivalent assignments off-diagonal (one normal form
  // emitted twice), one on the diagonal.
  EXPECT_EQ(totalForms(*Off), 2u);
  EXPECT_EQ(Off->Forms.size(), 1u); // both collapse to one normal form
  const SymBlock *Diag = findBlock(SK, "i == j");
  ASSERT_NE(Diag, nullptr);
  EXPECT_EQ(totalForms(*Diag), 1u);
}

TEST(Symmetrize, ChainConditionCoversAllChains) {
  SymKernel SK = symmetrizeKernel(makeMttkrp(4));
  ASSERT_EQ(SK.ChainAtoms.size(), 3u);
  EXPECT_EQ(SK.ChainAtoms[0].str(), "i <= k");
  EXPECT_EQ(SK.ChainAtoms[1].str(), "k <= l");
  EXPECT_EQ(SK.ChainAtoms[2].str(), "l <= m");
}

TEST(Symmetrize, BlockCountIsCompositions) {
  // 2^(n-1) equivalence groups for a single chain of n indices.
  EXPECT_EQ(symmetrizeKernel(makeSsymv()).Blocks.size(), 2u);
  EXPECT_EQ(symmetrizeKernel(makeMttkrp(3)).Blocks.size(), 4u);
  EXPECT_EQ(symmetrizeKernel(makeMttkrp(4)).Blocks.size(), 8u);
  EXPECT_EQ(symmetrizeKernel(makeMttkrp(5)).Blocks.size(), 16u);
}

TEST(Symmetrize, BlockTotalsMatchUniquePermutationCounts) {
  // Every block performs |S_P|E| assignments (paper Section 3.1:
  // n!/m! per diagonal).
  SymKernel SK = symmetrizeKernel(makeMttkrp(3));
  std::map<std::string, unsigned> Expect{
      {"i < k && k < l", 6},
      {"i == k && k < l", 3},
      {"i < k && k == l", 3},
      {"i == k && k == l", 1},
  };
  for (const SymBlock &B : SK.Blocks) {
    auto It = Expect.find(B.Exact.str());
    ASSERT_NE(It, Expect.end()) << "unexpected block " << B.Exact.str();
    EXPECT_EQ(totalForms(B), It->second) << B.Exact.str();
  }
}

TEST(Symmetrize, Mttkrp3OffDiagonalMatchesListing6) {
  // Listing 6 lines 4-10: three distinct forms, each twice.
  SymKernel SK = symmetrizeKernel(makeMttkrp(3));
  const SymBlock *Off = findBlock(SK, "i < k && k < l");
  ASSERT_NE(Off, nullptr);
  ASSERT_EQ(Off->Forms.size(), 3u);
  for (const FormStmt &F : Off->Forms)
    EXPECT_EQ(F.Mult, 2u);
  std::set<std::string> Keys = formKeys(*Off);
  EXPECT_TRUE(Keys.count("C[i, j] <- A[i, k, l] * B[k, j] * B[l, j]"));
  EXPECT_TRUE(Keys.count("C[k, j] <- A[i, k, l] * B[i, j] * B[l, j]"));
  EXPECT_TRUE(Keys.count("C[l, j] <- A[i, k, l] * B[i, j] * B[k, j]"));
}

TEST(Symmetrize, Mttkrp3DiagonalsAreDiversified) {
  // The diagonal blocks share the off-diagonal support (Listing 7's
  // merged diagonal handling), thanks to equality-aware redistribution.
  SymKernel SK = symmetrizeKernel(makeMttkrp(3));
  std::set<std::string> OffKeys =
      formKeys(*findBlock(SK, "i < k && k < l"));
  const SymBlock *D1 = findBlock(SK, "i == k && k < l");
  const SymBlock *D2 = findBlock(SK, "i < k && k == l");
  ASSERT_NE(D1, nullptr);
  ASSERT_NE(D2, nullptr);
  EXPECT_EQ(formKeys(*D1), OffKeys);
  EXPECT_EQ(formKeys(*D2), OffKeys);
  for (const FormStmt &F : D1->Forms)
    EXPECT_EQ(F.Mult, 1u);
}

TEST(Symmetrize, Mttkrp3FullDiagonalSingleForm) {
  SymKernel SK = symmetrizeKernel(makeMttkrp(3));
  const SymBlock *Full = findBlock(SK, "i == k && k == l");
  ASSERT_NE(Full, nullptr);
  ASSERT_EQ(Full->Forms.size(), 1u);
  EXPECT_EQ(Full->Forms[0].key(),
            "C[i, j] <- A[i, k, l] * B[k, j] * B[l, j]");
}

TEST(Symmetrize, TtmMatchesListing1) {
  SymKernel SK = symmetrizeKernel(makeTtm());
  // Off-diagonal block: the six transpositions (Listing 1 lines 3-10).
  const SymBlock *Off = findBlock(SK, "j < k && k < l");
  ASSERT_NE(Off, nullptr);
  std::set<std::string> Keys = formKeys(*Off);
  EXPECT_EQ(Keys.size(), 6u);
  EXPECT_TRUE(Keys.count("C[i, j, l] <- A[j, k, l] * B[k, i]"));
  EXPECT_TRUE(Keys.count("C[i, j, k] <- A[j, k, l] * B[l, i]"));
  EXPECT_TRUE(Keys.count("C[i, k, l] <- A[j, k, l] * B[j, i]"));
  EXPECT_TRUE(Keys.count("C[i, k, j] <- A[j, k, l] * B[l, i]"));
  EXPECT_TRUE(Keys.count("C[i, l, k] <- A[j, k, l] * B[j, i]"));
  EXPECT_TRUE(Keys.count("C[i, l, j] <- A[j, k, l] * B[k, i]"));

  // Diagonal j == k (Listing 1 lines 11-15).
  const SymBlock *D1 = findBlock(SK, "j == k && k < l");
  ASSERT_NE(D1, nullptr);
  std::set<std::string> D1Keys = formKeys(*D1);
  EXPECT_EQ(D1Keys.size(), 3u);
  EXPECT_TRUE(D1Keys.count("C[i, j, l] <- A[j, k, l] * B[k, i]"));
  EXPECT_TRUE(D1Keys.count("C[i, j, k] <- A[j, k, l] * B[l, i]"));
  EXPECT_TRUE(D1Keys.count("C[i, l, k] <- A[j, k, l] * B[j, i]"));

  // Diagonal k == l (Listing 1 lines 16-20).
  const SymBlock *D2 = findBlock(SK, "j < k && k == l");
  ASSERT_NE(D2, nullptr);
  std::set<std::string> D2Keys = formKeys(*D2);
  EXPECT_EQ(D2Keys.size(), 3u);
  EXPECT_TRUE(D2Keys.count("C[i, j, l] <- A[j, k, l] * B[k, i]"));
  EXPECT_TRUE(D2Keys.count("C[i, k, l] <- A[j, k, l] * B[j, i]"));
  EXPECT_TRUE(D2Keys.count("C[i, k, j] <- A[j, k, l] * B[l, i]"));

  // Full diagonal (Listing 1 lines 21-22).
  const SymBlock *Full = findBlock(SK, "j == k && k == l");
  ASSERT_NE(Full, nullptr);
  ASSERT_EQ(Full->Forms.size(), 1u);
  EXPECT_EQ(Full->Forms[0].key(), "C[i, j, l] <- A[j, k, l] * B[k, i]");
}

TEST(Symmetrize, SsyrkBothTriangleWrites) {
  SymKernel SK = symmetrizeKernel(makeSsyrk());
  const SymBlock *Off = findBlock(SK, "i < j");
  ASSERT_NE(Off, nullptr);
  std::set<std::string> Keys = formKeys(*Off);
  EXPECT_TRUE(Keys.count("C[i, j] <- A[i, k] * A[j, k]"));
  EXPECT_TRUE(Keys.count("C[j, i] <- A[i, k] * A[j, k]"));
}

TEST(Symmetrize, Mttkrp5OffDiagonalMultiplicity) {
  // 5-d: five forms each with multiplicity 4! = 24 (the 1/4!
  // computation saving of Section 5.2.6).
  SymKernel SK = symmetrizeKernel(makeMttkrp(5));
  const SymBlock *Off =
      findBlock(SK, "i < k && k < l && l < m && m < n");
  ASSERT_NE(Off, nullptr);
  EXPECT_EQ(Off->Forms.size(), 5u);
  for (const FormStmt &F : Off->Forms)
    EXPECT_EQ(F.Mult, 24u);
}

TEST(Symmetrize, TotalAssignmentsAcrossBlocksIsNFactorialPerBlock) {
  // Sum over blocks of |S_P|E| equals sum over equivalence groups,
  // which for n=4 is sum over compositions of 4!/prod(run!) = 75? No:
  // each block's total is its own |S_P|E|; verify against the
  // combinatorial formula directly.
  SymKernel SK = symmetrizeKernel(makeMttkrp(4));
  unsigned Sum = 0;
  for (const SymBlock &B : SK.Blocks)
    Sum += totalForms(B);
  // Compositions of 4: 24+12+12+12+6+4+4... compute independently:
  // (1,1,1,1)=24 (1,1,2)=12 (1,2,1)=12 (2,1,1)=12 (2,2)=6 (1,3)=4
  // (3,1)=4 (4)=1 -> 75.
  EXPECT_EQ(Sum, 75u);
}

TEST(Symmetrize, NoChainsSingleBlock) {
  Einsum E = parseEinsum("spmm", "C[i,j] += A[i,k] * B[k,j]");
  E.LoopOrder = {"j", "k", "i"};
  SymKernel SK = symmetrizeKernel(E);
  ASSERT_EQ(SK.Blocks.size(), 1u);
  EXPECT_TRUE(SK.Blocks[0].Exact.isAlways());
  EXPECT_EQ(SK.Blocks[0].Forms.size(), 1u);
  EXPECT_TRUE(SK.ChainAtoms.empty());
}

TEST(Symmetrize, PartialSymmetryProductBlocks) {
  // Two chains of two indices: 2x2 equivalence-group combinations.
  Einsum E = parseEinsum("p4", "y[] += A[i,j,k,l]");
  E.LoopOrder = {"l", "k", "j", "i"};
  E.declare("A", TensorFormat::dense(4));
  E.setSymmetry("A", Partition::parse(4, "{0,1}{2,3}"));
  SymKernel SK = symmetrizeKernel(E);
  EXPECT_EQ(SK.Blocks.size(), 4u);
  unsigned Sum = 0;
  for (const SymBlock &B : SK.Blocks)
    Sum += totalForms(B);
  // (2,2): 4; (2,1)+(1,2): 2+2; (1,1): 1 -> total 9.
  EXPECT_EQ(Sum, 9u);
}

TEST(Symmetrize, StrRendersBlocks) {
  SymKernel SK = symmetrizeKernel(makeSsymv());
  std::string S = SK.str();
  EXPECT_NE(S.find("block if i < j"), std::string::npos);
  EXPECT_NE(S.find("block if i == j"), std::string::npos);
}

TEST(Symmetrize, LiteralsEqualToSixDigitsStayDistinct) {
  // The two permuted forms differ only past a literal's sixth
  // significant digit, so both print as "... * 1". They are still two
  // forms: merging them into one with multiplicity 2 computes the wrong
  // sum, and ordering their operands by printed literals would tie.
  Einsum E = parseEinsum("lit", "y[k] += A[i,j] * x[j] * B[k] * 1.0000001 + "
                                "A[i,j] * x[i] * B[k] * 1.0000049");
  E.LoopOrder = {"k", "j", "i"};
  E.declare("A", TensorFormat::csf(2));
  E.setSymmetry("A", Partition::full(2));
  E.declare("x", TensorFormat::dense(1));
  E.declare("B", TensorFormat::dense(1));
  E.declare("y", TensorFormat::dense(1));

  SymKernel SK = symmetrizeKernel(E);
  const SymBlock *Off = findBlock(SK, "i < j");
  ASSERT_NE(Off, nullptr);
  EXPECT_EQ(Off->Forms.size(), 2u);

  Rng R(5);
  Tensor A = generateSymmetricTensor(2, 30, 200, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(30, R);
  Tensor B = generateDenseVector(30, R);
  const Tensor Ref = oracleEval(E, {{"A", &A}, {"x", &X}, {"B", &B}});
  CompileResult C = compileEinsum(E);
  Tensor Y = Tensor::dense({30}, 0.0);
  Executor Ex(C.Optimized);
  Ex.bind("A", &A);
  Ex.bind("x", &X);
  Ex.bind("B", &B);
  Ex.bind("y", &Y);
  ASSERT_TRUE(Ex.tryPrepare().ok());
  ASSERT_TRUE(Ex.tryRun().ok());
  const double Scale = Tensor::maxAbsDiff(Ref, Tensor::dense({30}, 0.0));
  ASSERT_GT(Scale, 0.0);
  EXPECT_LE(Tensor::maxAbsDiff(Y, Ref), 1e-12 * Scale);
}
