//===- tensor/LevelBuilder.cpp --------------------------------*- C++ -*-===//

#include "tensor/LevelBuilder.h"

#include "support/Error.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace systec {

namespace {

/// Total child positions of a Banded level so far: the open fiber's
/// offset plus its width.
int64_t bandTotal(const Level &Lev) {
  return Lev.Off.empty() ? 0 : Lev.Off.back() + Lev.Hi.back() - Lev.Lo.back();
}

} // namespace

Status checkBuildFormat(unsigned Order, const TensorFormat &Format) {
  if (Format.order() != Order)
    return Status::error(ErrCode::InvalidArgument,
                         "format order " + std::to_string(Format.order()) +
                             " does not match coordinate order " +
                             std::to_string(Order));
  for (unsigned L = 0; L + 1 < Order; ++L)
    if (Format.Levels[L] == LevelKind::RunLength)
      return Status::error(ErrCode::InvalidArgument,
                           "RunLength levels are only supported at the "
                           "bottom");
  return Status::success();
}

LevelBuilder::LevelBuilder(std::vector<int64_t> Dims, TensorFormat Format,
                           double Fill) {
  const unsigned N = static_cast<unsigned>(Dims.size());
  T.Dims = std::move(Dims);
  T.Format = std::move(Format);
  T.Fill = Fill;
  T.Levels.resize(N);
  for (unsigned L = 0; L < N; ++L) {
    T.Levels[L].Kind = T.Format.Levels[L];
    T.Levels[L].Dim = T.Dims[N - 1 - L];
  }
  Prev.assign(N, 0);
  Pos.assign(N, 0);
  Parent.assign(N, -1);
}

void LevelBuilder::pushRun(Level &Lev, int64_t End, double Val) {
  if (static_cast<int64_t>(Lev.RunEnd.size()) > Lev.Ptr.back() &&
      T.Vals.back() == Val) {
    Lev.RunEnd.back() = End;
    return;
  }
  Lev.RunEnd.push_back(End);
  T.Vals.push_back(Val);
}

void LevelBuilder::closeFibers(unsigned L, int64_t UpTo) {
  Level &Lev = T.Levels[L];
  switch (Lev.Kind) {
  case LevelKind::Dense:
    return;
  case LevelKind::Sparse:
    Lev.Ptr.resize(static_cast<size_t>(UpTo),
                   static_cast<int64_t>(Lev.Crd.size()));
    return;
  case LevelKind::RunLength:
    if (Parent[L] >= 0 && NextC < Lev.Dim)
      pushRun(Lev, Lev.Dim, T.Fill);
    for (int64_t P = Parent[L] + 1; P < UpTo; ++P) {
      Lev.Ptr.push_back(static_cast<int64_t>(Lev.RunEnd.size()));
      if (Lev.Dim > 0) {
        Lev.RunEnd.push_back(Lev.Dim);
        T.Vals.push_back(T.Fill);
      }
    }
    return;
  case LevelKind::Banded: {
    const int64_t Total = bandTotal(Lev);
    Lev.Lo.resize(static_cast<size_t>(UpTo), 0);
    Lev.Hi.resize(static_cast<size_t>(UpTo), 0);
    Lev.Off.resize(static_cast<size_t>(UpTo), Total);
    return;
  }
  }
  unreachable("unknown level kind");
}

void LevelBuilder::append(const int64_t *Coords, double Val) {
  const unsigned N = T.order();
  // The first level whose coordinate moved: the levels above keep their
  // fibers and positions.
  unsigned D = 0;
  if (!First) {
    while (D < N && Coords[N - 1 - D] == Prev[D])
      ++D;
    if (D == N || Coords[N - 1 - D] < Prev[D])
      fatalError("level builder: entries not in strictly increasing "
                 "fibertree order");
  }
  First = false;
  for (unsigned L = D; L < N; ++L) {
    Level &Lev = T.Levels[L];
    const int64_t C = Coords[N - 1 - L];
    if (C < 0 || C >= Lev.Dim)
      fatalError("level builder: coordinate " + std::to_string(C) +
                 " outside level " + std::to_string(L) + " extent " +
                 std::to_string(Lev.Dim));
    Prev[L] = C;
    const int64_t P = L ? Pos[L - 1] : 0;
    const bool NewFiber = P != Parent[L];
    if (NewFiber) {
      closeFibers(L, P);
      Parent[L] = P;
    }
    switch (Lev.Kind) {
    case LevelKind::Dense:
      Pos[L] = P * Lev.Dim + C;
      break;
    case LevelKind::Sparse:
      if (NewFiber)
        Lev.Ptr.push_back(static_cast<int64_t>(Lev.Crd.size()));
      Pos[L] = static_cast<int64_t>(Lev.Crd.size());
      Lev.Crd.push_back(C);
      break;
    case LevelKind::RunLength:
      if (NewFiber) {
        Lev.Ptr.push_back(static_cast<int64_t>(Lev.RunEnd.size()));
        NextC = 0;
      }
      if (C > NextC)
        pushRun(Lev, C, T.Fill);
      pushRun(Lev, C + 1, Val);
      NextC = C + 1;
      return; // bottom level: the value went in with its run
    case LevelKind::Banded:
      if (NewFiber) {
        Lev.Off.push_back(bandTotal(Lev));
        Lev.Lo.push_back(C);
        Lev.Hi.push_back(C + 1);
      } else {
        Lev.Hi.back() = C + 1;
      }
      Pos[L] = Lev.Off.back() + (C - Lev.Lo.back());
      break;
    }
  }
  // Bottom value: Sparse positions are dense in append order; Dense and
  // Banded positions skip the cells that hold the fill value.
  T.Vals.resize(static_cast<size_t>(Pos[N - 1]), T.Fill);
  T.Vals.push_back(Val);
}

Expected<Tensor> LevelBuilder::finish() && {
  const unsigned N = T.order();
  int64_t PosCount = 1; // parents of the current level
  for (unsigned L = 0; L < N; ++L) {
    Level &Lev = T.Levels[L];
    closeFibers(L, PosCount);
    switch (Lev.Kind) {
    case LevelKind::Dense:
      PosCount *= Lev.Dim;
      break;
    case LevelKind::Sparse:
      PosCount = static_cast<int64_t>(Lev.Crd.size());
      Lev.Ptr.push_back(PosCount);
      break;
    case LevelKind::RunLength:
      PosCount = static_cast<int64_t>(Lev.RunEnd.size());
      Lev.Ptr.push_back(PosCount);
      break;
    case LevelKind::Banded:
      PosCount = bandTotal(Lev);
      Lev.Off.push_back(PosCount);
      break;
    }
  }
  if (N > 0 && T.Levels[N - 1].Kind != LevelKind::RunLength)
    T.Vals.resize(static_cast<size_t>(PosCount), T.Fill);
  // A shallow failure here is a builder bug; surfacing it as a status
  // keeps the recoverable entry points abort-free.
  if (Status S = T.validate(ValidationLevel::Shallow); !S.ok())
    return std::move(S).withContext("level builder self-check");
  return std::move(T);
}

std::vector<size_t> fibertreeOrder(const int64_t *Coords, size_t Count,
                                   const std::vector<int64_t> &Dims) {
  constexpr unsigned DigitBits = 16;
  const size_t N = Dims.size();
  std::vector<size_t> Perm(Count);
  std::iota(Perm.begin(), Perm.end(), size_t(0));
  if (Count < 2)
    return Perm;
  std::vector<size_t> Next(Count), Slot;
  std::vector<uint32_t> Digit(Count);
  for (size_t M = 0; M < N; ++M) {
    const uint64_t MaxC = Dims[M] > 1 ? static_cast<uint64_t>(Dims[M] - 1) : 0;
    const unsigned Bits = static_cast<unsigned>(std::bit_width(MaxC));
    for (unsigned Shift = 0; Shift < Bits; Shift += DigitBits) {
      const unsigned Width = std::min(DigitBits, Bits - Shift);
      const uint64_t Mask = (uint64_t(1) << Width) - 1;
      Slot.assign((size_t(1) << Width) + 1, 0);
      bool Ascending = true;
      uint32_t Last = 0;
      for (size_t I = 0; I < Count; ++I) {
        const uint32_t D = static_cast<uint32_t>(
            (static_cast<uint64_t>(Coords[Perm[I] * N + M]) >> Shift) & Mask);
        Digit[I] = D;
        ++Slot[D + 1];
        Ascending &= Last <= D;
        Last = D;
      }
      if (Ascending)
        continue; // a stable pass would leave the order as it is
      std::partial_sum(Slot.begin(), Slot.end(), Slot.begin());
      for (size_t I = 0; I < Count; ++I)
        Next[Slot[Digit[I]]++] = Perm[I];
      Perm.swap(Next);
    }
  }
  return Perm;
}

} // namespace systec
