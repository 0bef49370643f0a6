//===- tests/support_test.cpp ---------------------------------*- C++ -*-===//

#include "support/Counters.h"
#include "support/Error.h"
#include "support/Random.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "tensor/Tensor.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

using namespace systec;

TEST(StringUtils, JoinEmpty) { EXPECT_EQ(join({}, ", "), ""); }

TEST(StringUtils, JoinSingle) { EXPECT_EQ(join({"a"}, ", "), "a"); }

TEST(StringUtils, JoinMany) {
  EXPECT_EQ(join({"i", "j", "k"}, ", "), "i, j, k");
}

TEST(StringUtils, JoinAnyInts) {
  EXPECT_EQ(joinAny(std::vector<int>{1, 2, 3}, "-"), "1-2-3");
}

TEST(StringUtils, FormatDoubleInteger) {
  EXPECT_EQ(formatDouble(2.0), "2");
  EXPECT_EQ(formatDouble(-17.0), "-17");
  EXPECT_EQ(formatDouble(0.0), "0");
}

TEST(StringUtils, FormatDoubleFraction) {
  EXPECT_EQ(formatDouble(0.5), "0.5");
}

TEST(StringUtils, FormatDoubleInfinity) {
  EXPECT_EQ(formatDouble(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(formatDouble(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, SplitAndTrim) {
  std::vector<std::string> Out = splitAndTrim(" a, b ,c ", ',');
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0], "a");
  EXPECT_EQ(Out[1], "b");
  EXPECT_EQ(Out[2], "c");
}

TEST(StringUtils, SplitKeepsEmptyPieces) {
  std::vector<std::string> Out = splitAndTrim("a,,b", ',');
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[1], "");
}

TEST(Random, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.nextIndex(1000), B.nextIndex(1000));
}

TEST(Random, IndexInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.nextIndex(17);
    EXPECT_GE(V, 0);
    EXPECT_LT(V, 17);
  }
}

TEST(Random, DoubleInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble(2.0, 3.0);
    EXPECT_GE(V, 2.0);
    EXPECT_LT(V, 3.0);
  }
}

TEST(Counters, EnableDisable) {
  setCountersEnabled(false);
  EXPECT_FALSE(countersEnabled());
  setCountersEnabled(true);
  EXPECT_TRUE(countersEnabled());
}

//===----------------------------------------------------------------------===//
// Status / Expected (support/Status.h)
//===----------------------------------------------------------------------===//

TEST(Status, SuccessCarriesNothing) {
  Status S = Status::success();
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), ErrCode::Ok);
  EXPECT_EQ(S.message(), "");
  EXPECT_TRUE(S.context().empty());
  EXPECT_EQ(S.str(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status S = Status::error(ErrCode::InvalidTensor, "ptr not monotone");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrCode::InvalidTensor);
  EXPECT_EQ(S.message(), "ptr not monotone");
  EXPECT_EQ(S.str(), "invalid-tensor: ptr not monotone");
}

TEST(Status, ContextChainsOutermostFirst) {
  // withContext prepends, so a status threaded up a call stack renders
  // like one: outermost frame first, root message last.
  Status S = Status::error(ErrCode::InvalidTensor, "bad level")
                 .withContext("tensor 'A'")
                 .withContext("kernel 'ssymv'");
  ASSERT_EQ(S.context().size(), 2u);
  EXPECT_EQ(S.context()[0], "kernel 'ssymv'");
  EXPECT_EQ(S.context()[1], "tensor 'A'");
  EXPECT_EQ(S.str(), "invalid-tensor: kernel 'ssymv': tensor 'A': bad level");
}

TEST(Status, ContextOnSuccessIsNoOp) {
  Status S = Status::success().withContext("kernel 'x'");
  EXPECT_TRUE(S.ok());
  EXPECT_TRUE(S.context().empty());
}

TEST(Status, MoveTransfersPayload) {
  Status A = Status::error(ErrCode::Cancelled, "stop");
  Status B = std::move(A);
  EXPECT_FALSE(B.ok());
  EXPECT_EQ(B.code(), ErrCode::Cancelled);
  EXPECT_TRUE(A.ok()) << "moved-from status must read as success";
}

TEST(Status, ErrCodeNamesAreStable) {
  // The names are API: tests match codes by name and
  // ExecReport::AbortReason surfaces them verbatim.
  EXPECT_STREQ(errCodeName(ErrCode::Ok), "ok");
  EXPECT_STREQ(errCodeName(ErrCode::InvalidTensor), "invalid-tensor");
  EXPECT_STREQ(errCodeName(ErrCode::Cancelled), "cancelled");
  EXPECT_STREQ(errCodeName(ErrCode::DeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(errCodeName(ErrCode::ResourceExhausted), "resource-exhausted");
}

TEST(Expected, HoldsValue) {
  Expected<int> E = 42;
  ASSERT_TRUE(E.ok());
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(*E, 42);
  EXPECT_EQ(E.value(), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> E = Status::error(ErrCode::InvalidArgument, "nope");
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.status().code(), ErrCode::InvalidArgument);
  Status S = E.takeStatus();
  EXPECT_EQ(S.code(), ErrCode::InvalidArgument);
  EXPECT_EQ(S.message(), "nope");
}

TEST(Expected, MoveOnlyPayloadWorks) {
  Expected<std::unique_ptr<int>> E = std::make_unique<int>(7);
  ASSERT_TRUE(E.ok());
  std::unique_ptr<int> P = std::move(*E);
  EXPECT_EQ(*P, 7);
}

TEST(CancelTokenApi, CancelAndResetRoundTrip) {
  CancelToken T;
  EXPECT_FALSE(T.cancelled());
  T.cancel();
  EXPECT_TRUE(T.cancelled());
  T.cancel(); // idempotent
  EXPECT_TRUE(T.cancelled());
  T.reset();
  EXPECT_FALSE(T.cancelled());
}

//===----------------------------------------------------------------------===//
// Abort boundary: the fatalError/unreachable paths that deliberately
// remain non-recoverable (tool input and internal invariants) must
// still die loudly — with the message on stderr — never return or
// corrupt state. The recoverable twins of the fromCoo/parseEinsum
// deaths are covered in fault_test.cpp via tryFromCoo/tryParseEinsum.
//===----------------------------------------------------------------------===//

#if GTEST_HAS_DEATH_TEST

TEST(AbortBoundaryDeathTest, FatalErrorDies) {
  EXPECT_DEATH(fatalError("boom message"), "boom message");
}

TEST(AbortBoundaryDeathTest, UnreachableDies) {
  EXPECT_DEATH(unreachable("impossible state"), "impossible state");
}

TEST(AbortBoundaryDeathTest, FromCooFormatOrderMismatchDies) {
  EXPECT_DEATH(
      {
        Coo C({3, 3});
        C.add({0, 0}, 1.0);
        Tensor::fromCoo(std::move(C), TensorFormat::csf(3));
      },
      "order");
}

TEST(AbortBoundaryDeathTest, ParseEinsumSyntaxErrorDies) {
  EXPECT_DEATH(parseEinsum("bad", "O[i += A[i"), "");
}

#endif // GTEST_HAS_DEATH_TEST
