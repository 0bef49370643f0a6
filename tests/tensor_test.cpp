//===- tests/tensor_test.cpp ----------------------------------*- C++ -*-===//
///
/// Tests for COO staging and the fibertree level formats (Dense,
/// Sparse, RunLength, Banded), including property sweeps that build the
/// same random tensor in every format and compare element-wise, and the
/// level builder's bit-identity sweep against the sort-then-group
/// oracle of TensorOracle.h.
///
//===----------------------------------------------------------------------===//

#include "TensorOracle.h"
#include "support/Random.h"
#include "tensor/Tensor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <set>

using namespace systec;

//===----------------------------------------------------------------------===//
// Coo
//===----------------------------------------------------------------------===//

TEST(Coo, AddAndQuery) {
  Coo C({4, 5});
  C.add({1, 2}, 3.0);
  C.add({0, 4}, 1.5);
  EXPECT_EQ(C.size(), 2u);
  EXPECT_EQ(C.coord(0, 0), 1);
  EXPECT_EQ(C.coord(0, 1), 2);
  EXPECT_EQ(C.value(1), 1.5);
}

TEST(Coo, SortOrderIsColumnMajor) {
  Coo C({4, 4});
  C.add({3, 0}, 1);
  C.add({0, 2}, 2);
  C.add({1, 0}, 3);
  C.sortAndCombine();
  // Sorted by last mode first: (1,0), (3,0), (0,2).
  EXPECT_EQ(C.coord(0, 0), 1);
  EXPECT_EQ(C.coord(1, 0), 3);
  EXPECT_EQ(C.coord(2, 1), 2);
}

TEST(Coo, CombineDuplicatesWithAdd) {
  Coo C({3, 3});
  C.add({1, 1}, 2.0);
  C.add({1, 1}, 3.0);
  C.sortAndCombine(OpKind::Add);
  EXPECT_EQ(C.size(), 1u);
  EXPECT_EQ(C.value(0), 5.0);
}

TEST(Coo, CombineDuplicatesWithMin) {
  Coo C({3, 3});
  C.add({1, 1}, 2.0);
  C.add({1, 1}, 3.0);
  C.sortAndCombine(OpKind::Min);
  EXPECT_EQ(C.value(0), 2.0);
}

TEST(Coo, DuplicatesCombineInInsertionOrder) {
  // Interleaved with other entries, so the sort has to move them. In
  // insertion order (1e16 + 1.0) + -1e16 absorbs the 1.0 and gives 0.0;
  // the order (1e16 + -1e16) + 1.0 would give 1.0.
  Coo C({3, 3});
  C.add({1, 1}, 1e16);
  C.add({2, 0}, 5.0);
  C.add({1, 1}, 1.0);
  C.add({0, 2}, 6.0);
  C.add({1, 1}, -1e16);
  Coo Sorted = C;
  Sorted.sortAndCombine(OpKind::Add);
  ASSERT_EQ(Sorted.size(), 3u);
  EXPECT_EQ(Sorted.coord(1, 0), 1);
  EXPECT_EQ(Sorted.coord(1, 1), 1);
  EXPECT_EQ(Sorted.value(1), 0.0);
  EXPECT_EQ(Tensor::fromCoo(C, TensorFormat::csf(2)).at({1, 1}), 0.0);
}

TEST(Coo, HugeExtentsBuildAndTransposeWithoutExtentSizedMemory) {
  // 2^40 x 2^40: any allocation that grows with an extent (a counting
  // table per coordinate value, a Ptr per coordinate) would need
  // terabytes; the radix sort's table stays at 2^16 + 1 slots.
  const int64_t Huge = int64_t(1) << 40;
  TensorFormat F;
  F.Levels = {LevelKind::Sparse, LevelKind::Sparse};
  Coo C({Huge, Huge});
  C.add({Huge - 1, 3}, 1.0);
  C.add({5, Huge - 1}, 2.0);
  C.add({7, 3}, 3.0);
  Tensor T = Tensor::fromCoo(std::move(C), F);
  ASSERT_TRUE(T.validate(ValidationLevel::Deep).ok());
  EXPECT_EQ(T.level(0).Crd, (std::vector<int64_t>{3, Huge - 1}));
  EXPECT_EQ(T.level(1).Crd, (std::vector<int64_t>{7, Huge - 1, 5}));
  Tensor U = T.transposed({1, 0}, F);
  ASSERT_TRUE(U.validate(ValidationLevel::Deep).ok());
  EXPECT_EQ(U.level(0).Crd, (std::vector<int64_t>{5, 7, Huge - 1}));
  EXPECT_EQ(U.level(1).Crd, (std::vector<int64_t>{Huge - 1, 3, 3}));
  EXPECT_EQ(U.vals(), (std::vector<double>{2.0, 3.0, 1.0}));
  EXPECT_EQ(U.at({3, Huge - 1}), 1.0);
}

//===----------------------------------------------------------------------===//
// Dense tensors
//===----------------------------------------------------------------------===//

TEST(TensorDense, ZerosAndRef) {
  Tensor T = Tensor::dense({3, 4});
  EXPECT_EQ(T.storedCount(), 12u);
  T.denseRef({2, 3}) = 5.0;
  EXPECT_EQ(T.at({2, 3}), 5.0);
  EXPECT_EQ(T.at({0, 0}), 0.0);
}

TEST(TensorDense, ColumnMajorLayout) {
  // Mode 0 is contiguous (Fortran order), like Finch.
  Tensor T = Tensor::dense({2, 2});
  T.denseRef({1, 0}) = 1.0;
  EXPECT_EQ(T.vals()[1], 1.0);
  T.denseRef({0, 1}) = 2.0;
  EXPECT_EQ(T.vals()[2], 2.0);
}

TEST(TensorDense, FillValue) {
  Tensor T = Tensor::dense({2}, 9.0);
  EXPECT_EQ(T.at({1}), 9.0);
}

//===----------------------------------------------------------------------===//
// Sparse formats
//===----------------------------------------------------------------------===//

TEST(TensorSparse, CscBuild) {
  // A[i,j] in Dense(Sparse(Element)): top level j.
  Coo C({4, 3});
  C.add({2, 0}, 1.0);
  C.add({0, 1}, 2.0);
  C.add({3, 1}, 3.0);
  Tensor T = Tensor::fromCoo(std::move(C), TensorFormat::csf(2));
  EXPECT_EQ(T.storedCount(), 3u);
  const Level &Rows = T.level(1);
  // Column pointers over 3 columns.
  ASSERT_EQ(T.level(0).Kind, LevelKind::Dense);
  ASSERT_EQ(Rows.Kind, LevelKind::Sparse);
  EXPECT_EQ(Rows.Ptr[0], 0);
  EXPECT_EQ(Rows.Ptr[1], 1);
  EXPECT_EQ(Rows.Ptr[2], 3);
  EXPECT_EQ(Rows.Ptr[3], 3);
  EXPECT_EQ(T.at({2, 0}), 1.0);
  EXPECT_EQ(T.at({0, 1}), 2.0);
  EXPECT_EQ(T.at({1, 1}), 0.0);
}

TEST(TensorSparse, Csf3Build) {
  Coo C({3, 3, 3});
  C.add({0, 1, 2}, 1.0);
  C.add({1, 1, 2}, 2.0);
  C.add({0, 0, 1}, 3.0);
  Tensor T = Tensor::fromCoo(std::move(C), TensorFormat::csf(3));
  EXPECT_EQ(T.at({0, 1, 2}), 1.0);
  EXPECT_EQ(T.at({1, 1, 2}), 2.0);
  EXPECT_EQ(T.at({0, 0, 1}), 3.0);
  EXPECT_EQ(T.at({2, 2, 2}), 0.0);
  EXPECT_EQ(T.storedCount(), 3u);
}

TEST(TensorSparse, FillPropagates) {
  Coo C({3, 3});
  C.add({0, 0}, 5.0);
  double Inf = std::numeric_limits<double>::infinity();
  Tensor T = Tensor::fromCoo(std::move(C), TensorFormat::csf(2), Inf);
  EXPECT_EQ(T.at({1, 1}), Inf);
  EXPECT_EQ(T.at({0, 0}), 5.0);
}

TEST(TensorSparse, LocateOnLevels) {
  Coo C({4, 4});
  C.add({1, 2}, 1.0);
  C.add({3, 2}, 2.0);
  Tensor T = Tensor::fromCoo(std::move(C), TensorFormat::csf(2));
  // Level 0 dense: position = coordinate.
  EXPECT_EQ(T.locate(0, 0, 2), 2);
  // Level 1 sparse under column 2.
  int64_t P1 = T.locate(1, 2, 1);
  ASSERT_GE(P1, 0);
  EXPECT_EQ(T.val(P1), 1.0);
  EXPECT_EQ(T.locate(1, 2, 0), -1);
}

TEST(TensorSparse, ForEachVisitsInOrder) {
  Coo C({3, 3});
  C.add({2, 1}, 1.0);
  C.add({0, 0}, 2.0);
  C.add({1, 1}, 3.0);
  Tensor T = Tensor::fromCoo(std::move(C), TensorFormat::csf(2));
  std::vector<double> Vals;
  T.forEach([&Vals](const std::vector<int64_t> &, double V) {
    Vals.push_back(V);
  });
  std::vector<double> Expect{2.0, 3.0, 1.0}; // column-major order
  EXPECT_EQ(Vals, Expect);
}

TEST(TensorSparse, RoundTripThroughCoo) {
  Rng R(5);
  Coo C({10, 10});
  std::set<std::pair<int64_t, int64_t>> Seen;
  for (int K = 0; K < 30; ++K) {
    int64_t I = R.nextIndex(10), J = R.nextIndex(10);
    if (Seen.insert({I, J}).second)
      C.add({I, J}, R.nextDouble());
  }
  Tensor T = Tensor::fromCoo(C, TensorFormat::csf(2));
  Tensor U = Tensor::fromCoo(T.toCoo(), TensorFormat::csf(2));
  EXPECT_EQ(Tensor::maxAbsDiff(T, U), 0.0);
}

TEST(TensorSparse, Transpose) {
  Coo C({3, 4});
  C.add({2, 3}, 7.0);
  C.add({0, 1}, 1.0);
  Tensor T = Tensor::fromCoo(std::move(C), TensorFormat::csf(2));
  Tensor U = T.transposed({1, 0}, TensorFormat::csf(2));
  EXPECT_EQ(U.dim(0), 4);
  EXPECT_EQ(U.dim(1), 3);
  EXPECT_EQ(U.at({3, 2}), 7.0);
  EXPECT_EQ(U.at({1, 0}), 1.0);
}

TEST(TensorSparse, SplitDiagonal) {
  Coo C({3, 3});
  C.add({0, 0}, 1.0);
  C.add({1, 2}, 2.0);
  C.add({2, 1}, 2.0);
  C.add({2, 2}, 3.0);
  Tensor T = Tensor::fromCoo(std::move(C), TensorFormat::csf(2));
  auto [Off, Diag] = T.splitDiagonal(Partition::full(2));
  EXPECT_EQ(Off.storedCount(), 2u);
  EXPECT_EQ(Diag.storedCount(), 2u);
  EXPECT_EQ(Diag.at({0, 0}), 1.0);
  EXPECT_EQ(Off.at({0, 0}), 0.0);
  EXPECT_EQ(Off.at({1, 2}), 2.0);
}

TEST(TensorSparse, SplitDiagonalPartial) {
  // Only equalities within a part count as diagonal.
  Coo C({3, 3, 3});
  C.add({1, 1, 2}, 1.0); // modes 0,1 equal
  C.add({1, 2, 2}, 2.0); // modes 1,2 equal (different parts)
  Tensor T = Tensor::fromCoo(std::move(C), TensorFormat::csf(3));
  auto [Off, Diag] = T.splitDiagonal(Partition::parse(3, "{0,1}"));
  EXPECT_EQ(Diag.storedCount(), 1u);
  EXPECT_EQ(Off.storedCount(), 1u);
  EXPECT_EQ(Diag.at({1, 1, 2}), 1.0);
}

TEST(TensorSparse, SplitDiagonalOrderZero) {
  // A 0-d tensor has no pair of modes to compare: its one value is off
  // the diagonal, and the diagonal half holds the fill value.
  Tensor T = Tensor::dense({}, 0.5);
  T.vals()[0] = 3.0;
  auto [Off, Diag] = T.splitDiagonal(Partition::none(0));
  EXPECT_EQ(Off.vals(), std::vector<double>{3.0});
  EXPECT_EQ(Diag.vals(), std::vector<double>{0.5});
}

//===----------------------------------------------------------------------===//
// Structured formats
//===----------------------------------------------------------------------===//

TEST(TensorRle, RunsCompress) {
  // Vector 0 0 5 5 5 0: three runs.
  Coo C({6});
  C.add({2}, 5.0);
  C.add({3}, 5.0);
  C.add({4}, 5.0);
  TensorFormat F;
  F.Levels = {LevelKind::RunLength};
  Tensor T = Tensor::fromCoo(std::move(C), F);
  EXPECT_EQ(T.storedCount(), 3u); // [0,2) fill, [2,5) 5s, [5,6) fill
  EXPECT_EQ(T.at({0}), 0.0);
  EXPECT_EQ(T.at({3}), 5.0);
  EXPECT_EQ(T.at({5}), 0.0);
}

TEST(TensorRle, MatrixRleRows) {
  // Dense(RunLength): each column stored as runs.
  Coo C({4, 2});
  for (int64_t I = 0; I < 4; ++I)
    C.add({I, 0}, 2.0);
  C.add({1, 1}, 3.0);
  TensorFormat F;
  F.Levels = {LevelKind::Dense, LevelKind::RunLength};
  Tensor T = Tensor::fromCoo(std::move(C), F);
  // Column 0 is one run; column 1 is three.
  EXPECT_EQ(T.storedCount(), 4u);
  EXPECT_EQ(T.at({2, 0}), 2.0);
  EXPECT_EQ(T.at({1, 1}), 3.0);
  EXPECT_EQ(T.at({2, 1}), 0.0);
}

TEST(TensorRle, ForEachExpandsRuns) {
  Coo C({5});
  C.add({1}, 4.0);
  C.add({2}, 4.0);
  TensorFormat F;
  F.Levels = {LevelKind::RunLength};
  Tensor T = Tensor::fromCoo(std::move(C), F);
  int Count = 0;
  T.forEach([&Count](const std::vector<int64_t> &, double) { ++Count; });
  EXPECT_EQ(Count, 5); // RLE covers the full extent
}

TEST(TensorBanded, BandStorage) {
  // Tridiagonal 5x5: banded rows under dense columns.
  Coo C({5, 5});
  for (int64_t I = 0; I < 5; ++I)
    for (int64_t J = std::max<int64_t>(0, I - 1);
         J <= std::min<int64_t>(4, I + 1); ++J)
      C.add({I, J}, 1.0 + I + J);
  TensorFormat F;
  F.Levels = {LevelKind::Dense, LevelKind::Banded};
  Tensor T = Tensor::fromCoo(std::move(C), F);
  EXPECT_EQ(T.at({2, 3}), 6.0);
  EXPECT_EQ(T.at({0, 4}), 0.0); // outside the band
  EXPECT_EQ(T.level(1).Lo[2], 1);
  EXPECT_EQ(T.level(1).Hi[2], 4);
}

TEST(TensorBanded, EmptyColumns) {
  Coo C({4, 4});
  C.add({1, 2}, 5.0);
  TensorFormat F;
  F.Levels = {LevelKind::Dense, LevelKind::Banded};
  Tensor T = Tensor::fromCoo(std::move(C), F);
  EXPECT_EQ(T.at({0, 0}), 0.0);
  EXPECT_EQ(T.at({1, 2}), 5.0);
}

//===----------------------------------------------------------------------===//
// Cross-format property sweep
//===----------------------------------------------------------------------===//

struct FormatCase {
  const char *Name;
  std::vector<LevelKind> Levels;
};

class FormatEquivalence : public ::testing::TestWithParam<FormatCase> {};

TEST_P(FormatEquivalence, MatchesDenseReference) {
  Rng R(11);
  const int64_t N = 12;
  Coo C({N, N});
  Tensor Ref = Tensor::dense({N, N});
  std::set<std::pair<int64_t, int64_t>> Seen;
  for (int K = 0; K < 40; ++K) {
    int64_t I = R.nextIndex(N), J = R.nextIndex(N);
    if (!Seen.insert({I, J}).second)
      continue;
    double V = R.nextDouble();
    C.add({I, J}, V);
    Ref.denseRef({I, J}) = V;
  }
  TensorFormat F;
  F.Levels = GetParam().Levels;
  Tensor T = Tensor::fromCoo(std::move(C), F);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J)
      EXPECT_EQ(T.at({I, J}), Ref.at({I, J}))
          << GetParam().Name << " at (" << I << "," << J << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, FormatEquivalence,
    ::testing::Values(
        FormatCase{"DenseDense", {LevelKind::Dense, LevelKind::Dense}},
        FormatCase{"Csc", {LevelKind::Dense, LevelKind::Sparse}},
        FormatCase{"Dcsc", {LevelKind::Sparse, LevelKind::Sparse}},
        FormatCase{"SparseDense", {LevelKind::Sparse, LevelKind::Dense}},
        FormatCase{"DenseRle", {LevelKind::Dense, LevelKind::RunLength}},
        FormatCase{"DenseBanded", {LevelKind::Dense, LevelKind::Banded}},
        FormatCase{"SparseBanded", {LevelKind::Sparse, LevelKind::Banded}}),
    [](const ::testing::TestParamInfo<FormatCase> &Info) {
      return Info.param.Name;
    });

TEST(TensorMisc, MaxAbsDiffSeesBothSides) {
  Coo A({3}), B({3});
  A.add({0}, 1.0);
  B.add({2}, 4.0);
  Tensor TA = Tensor::fromCoo(std::move(A), TensorFormat::csf(1));
  Tensor TB = Tensor::fromCoo(std::move(B), TensorFormat::csf(1));
  EXPECT_EQ(Tensor::maxAbsDiff(TA, TB), 4.0);
}

TEST(TensorMisc, Summary) {
  Tensor T = Tensor::dense({2, 3});
  EXPECT_EQ(T.summary(), "2-d 2x3, 6 stored, Dense(Dense(Element(0.0)))");
}

//===----------------------------------------------------------------------===//
// Level builder: bit identity with the sort-then-group oracle
//===----------------------------------------------------------------------===//

namespace {

/// Every format the fuzz harness's randomFormat can draw for \p Order
/// modes: Dense, Sparse or Banded at every level, RunLength as well at
/// the bottom.
std::vector<TensorFormat> everyFuzzFormat(unsigned Order) {
  std::vector<TensorFormat> Out(1);
  for (unsigned L = 0; L < Order; ++L) {
    std::vector<TensorFormat> Next;
    for (const TensorFormat &F : Out)
      for (LevelKind K : {LevelKind::Dense, LevelKind::Sparse,
                          LevelKind::Banded, LevelKind::RunLength}) {
        if (K == LevelKind::RunLength && L + 1 < Order)
          continue;
        TensorFormat G = F;
        G.Levels.push_back(K);
        Next.push_back(std::move(G));
      }
    Out = std::move(Next);
  }
  return Out;
}

/// Whether \p T holds exactly \p O's level arrays, and its values bit
/// for bit.
::testing::AssertionResult sameArrays(const Tensor &T,
                                      const oracle::Built &O) {
  if (O.Levels.size() != T.order())
    return ::testing::AssertionFailure() << "level count differs";
  for (unsigned L = 0; L < T.order(); ++L) {
    const Level &A = T.level(L), &B = O.Levels[L];
    if (A.Kind != B.Kind || A.Dim != B.Dim || A.Ptr != B.Ptr ||
        A.Crd != B.Crd || A.RunEnd != B.RunEnd || A.Lo != B.Lo ||
        A.Hi != B.Hi || A.Off != B.Off)
      return ::testing::AssertionFailure() << "level " << L << " differs";
  }
  if (T.vals().size() != O.Vals.size() ||
      (!O.Vals.empty() &&
       std::memcmp(T.vals().data(), O.Vals.data(),
                   O.Vals.size() * sizeof(double)) != 0))
    return ::testing::AssertionFailure() << "values differ";
  return ::testing::AssertionSuccess();
}

enum class Shape { Random, Empty, Single, AllDiagonal, NoDiagonal };

/// The entries of one order-\p N test tensor of shape \p S. Values come
/// from a small pool holding the fill, both zeros and small integers,
/// so RunLength neighbours merge and explicit fill values appear;
/// Random repeats coordinates, and its duplicates combine exactly in
/// any order. The diagonal shapes use a cube of extent N + 1, room for
/// N distinct coordinates.
Coo drawEntries(Shape S, unsigned N, double Fill, Rng &R) {
  const bool Cube = S == Shape::AllDiagonal || S == Shape::NoDiagonal;
  std::vector<int64_t> Dims(N);
  int64_t Cells = 1;
  for (int64_t &D : Dims) {
    D = Cube ? N + 1 : 1 + R.nextIndex(4);
    Cells *= D;
  }
  Coo C(Dims);
  const double Pool[] = {Fill, 0.0, -0.0, 1.0, 2.0, -3.0};
  auto Value = [&] { return Pool[R.nextIndex(6)]; };
  std::vector<int64_t> X(N);
  switch (S) {
  case Shape::Empty:
    break;
  case Shape::Single:
  case Shape::Random: {
    const int64_t Count =
        S == Shape::Single ? 1 : R.nextIndex(std::min<int64_t>(Cells, 48)) + 1;
    for (int64_t K = 0; K < Count; ++K) {
      for (unsigned M = 0; M < N; ++M)
        X[M] = R.nextIndex(Dims[M]);
      C.add(X, Value());
    }
    break;
  }
  case Shape::AllDiagonal:
    for (int64_t V = 0; V <= N; ++V)
      if (V == 0 || R.nextBool(0.6))
        C.add(std::vector<int64_t>(N, V), Value());
    break;
  case Shape::NoDiagonal: {
    std::set<std::vector<int64_t>> Seen;
    std::vector<int64_t> Values(N + 1);
    std::iota(Values.begin(), Values.end(), int64_t(0));
    for (int K = 0; K < 8; ++K) {
      std::shuffle(Values.begin(), Values.end(), R.engine());
      X.assign(Values.begin(), Values.begin() + N);
      if (Seen.insert(X).second)
        C.add(X, Value());
    }
    break;
  }
  }
  return C;
}

/// Every permutation of N modes up to order 4; identity and one
/// rotation above.
std::vector<std::vector<unsigned>> modePerms(unsigned N) {
  std::vector<unsigned> P(N);
  std::iota(P.begin(), P.end(), 0u);
  std::vector<std::vector<unsigned>> Out;
  if (N > 4) {
    Out.push_back(P);
    std::rotate(P.begin(), P.begin() + 1, P.end());
    Out.push_back(P);
    return Out;
  }
  do
    Out.push_back(P);
  while (std::next_permutation(P.begin(), P.end()));
  return Out;
}

/// A random format a fuzz case could declare for N modes.
TensorFormat drawFormat(unsigned N, Rng &R) {
  const std::vector<TensorFormat> All = everyFuzzFormat(N);
  return All[R.nextIndex(static_cast<int64_t>(All.size()))];
}

} // namespace

TEST(LevelBuilder, MatchesSortThenGroupOracle) {
  // fromCoo, the forEach walk, splitDiagonal under the full and the
  // trivial partition and under partial ones, and transposed into
  // random formats, on every fuzz format of orders 1-5 with fill 0 and
  // inf. The partial partitions cover an adjacent pair, a non-adjacent
  // pair and two-part partitions: a level-wise split decides a pair at
  // the level that binds its second mode, so each takes its own path.
  // The Empty shape in the order-1 Banded format is the empty third
  // operand of tests/seeds/empty-banded-operand.seed.
  const double Inf = std::numeric_limits<double>::infinity();
  Rng R(20261019);
  for (unsigned N = 1; N <= 5; ++N) {
    std::vector<Partition> Parts = {Partition::full(N), Partition::none(N)};
    if (N >= 2)
      Parts.push_back(Partition::parse(N, "{0,1}"));
    if (N >= 3)
      Parts.push_back(Partition::parse(N, "{0,2}"));
    if (N >= 4) {
      Parts.push_back(Partition::parse(N, "{0,2}{1,3}"));
      Parts.push_back(Partition::parse(N, "{0,1}{2,3}"));
    }
    const std::vector<std::vector<unsigned>> Perms = modePerms(N);
    for (const TensorFormat &F : everyFuzzFormat(N))
      for (double Fill : {0.0, Inf})
        for (Shape S : {Shape::Random, Shape::Empty, Shape::Single,
                        Shape::AllDiagonal, Shape::NoDiagonal}) {
          SCOPED_TRACE(F.str() + " fill " + std::to_string(Fill) +
                       " shape " + std::to_string(static_cast<int>(S)));
          const Coo C = drawEntries(S, N, Fill, R);
          const Tensor T = Tensor::fromCoo(C, F, Fill);
          ASSERT_TRUE(sameArrays(T, oracle::fromCoo(C, F, Fill)));
          std::vector<std::pair<std::vector<int64_t>, double>> Walk, Ref;
          T.forEach([&Walk](const std::vector<int64_t> &X, double V) {
            Walk.push_back({X, V});
          });
          oracle::walk(T, [&Ref](const std::vector<int64_t> &X, double V) {
            Ref.push_back({X, V});
          });
          EXPECT_EQ(Walk, Ref);
          for (const Partition &P : Parts) {
            SCOPED_TRACE("split " + P.str());
            const auto [Off, Diag] = T.splitDiagonal(P);
            const auto [ROff, RDiag] = oracle::splitDiagonal(T, P);
            EXPECT_TRUE(sameArrays(Off, ROff));
            EXPECT_TRUE(sameArrays(Diag, RDiag));
          }
          for (const std::vector<unsigned> &Perm : Perms) {
            const TensorFormat G = drawFormat(N, R);
            SCOPED_TRACE("transpose into " + G.str());
            EXPECT_TRUE(sameArrays(T.transposed(Perm, G),
                                   oracle::transposed(T, Perm, G)));
          }
        }
  }
}

TEST(LevelBuilderDeathTest, OutOfOrderWalkAborts) {
  // A fiber whose coordinates descend fails validate(Deep); splitting
  // it unvalidated would feed the builder out of order, which aborts
  // rather than indexing the level arrays out of bounds.
  Coo C({4, 4});
  C.add({1, 0}, 1.0);
  C.add({3, 0}, 2.0);
  Tensor T = Tensor::fromCoo(std::move(C), TensorFormat::csf(2));
  std::swap(T.mutableLevel(1).Crd[0], T.mutableLevel(1).Crd[1]);
  ASSERT_FALSE(T.validate(ValidationLevel::Deep).ok());
  EXPECT_DEATH(T.splitDiagonal(Partition::full(2)), "fibertree order");
}
