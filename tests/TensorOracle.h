//===- tests/TensorOracle.h - Sort-then-group reference build --*- C++ -*-===//
///
/// \file
/// An independent implementation of the tensor library's builds, used
/// by tensor_test as the bit-identity oracle for the streaming level
/// builder (src/tensor/LevelBuilder.h): a recursive walk collects a
/// tensor's entries as COO, std::sort over an index permutation puts
/// them in fibertree order, and a segment builder groups each level's
/// entries by coordinate, one level at a time. It shares no code with
/// the library's walk, sort or builder. Its comparison sort and
/// per-level segment lists cost several times the library's build,
/// which is why the library does not use it.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_TESTS_TENSORORACLE_H
#define SYSTEC_TESTS_TENSORORACLE_H

#include "tensor/Tensor.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

namespace systec {
namespace oracle {

/// The level arrays and values of a built tensor.
struct Built {
  std::vector<Level> Levels;
  std::vector<double> Vals;
};

/// Recursive descent over the levels, in fibertree order.
inline void walk(
    const Tensor &T,
    const std::function<void(const std::vector<int64_t> &, double)> &Fn) {
  if (T.order() == 0)
    return;
  std::vector<int64_t> Coords(T.order());
  std::function<void(unsigned, int64_t)> Walk = [&](unsigned L,
                                                    int64_t Pos) {
    const Level &Lev = T.level(L);
    const unsigned Mode = T.modeOfLevel(L);
    auto Visit = [&](int64_t C, int64_t Child) {
      Coords[Mode] = C;
      if (L + 1 == T.order())
        Fn(Coords, T.val(Child));
      else
        Walk(L + 1, Child);
    };
    switch (Lev.Kind) {
    case LevelKind::Dense:
      for (int64_t C = 0; C < Lev.Dim; ++C)
        Visit(C, Pos * Lev.Dim + C);
      return;
    case LevelKind::Sparse:
      for (int64_t K = Lev.Ptr[Pos]; K < Lev.Ptr[Pos + 1]; ++K)
        Visit(Lev.Crd[K], K);
      return;
    case LevelKind::RunLength: {
      int64_t Start = 0;
      for (int64_t K = Lev.Ptr[Pos]; K < Lev.Ptr[Pos + 1]; ++K) {
        for (int64_t C = Start; C < Lev.RunEnd[K]; ++C)
          Visit(C, K);
        Start = Lev.RunEnd[K];
      }
      return;
    }
    case LevelKind::Banded:
      for (int64_t C = Lev.Lo[Pos]; C < Lev.Hi[Pos]; ++C)
        Visit(C, Lev.Off[Pos] + (C - Lev.Lo[Pos]));
      return;
    }
  };
  Walk(0, 0);
}

inline Coo toCoo(const Tensor &T) {
  Coo Out(T.dims());
  walk(T, [&Out](const std::vector<int64_t> &C, double V) { Out.add(C, V); });
  return Out;
}

/// std::sort over an index permutation, last mode most significant;
/// duplicates are combined in sorted order. Callers give distinct
/// coordinates, or duplicates whose combination is exact in any order:
/// std::sort leaves the order of equal keys unspecified.
inline Coo sortAndCombine(const Coo &In, OpKind Combine) {
  const unsigned N = In.order();
  std::vector<size_t> Perm(In.size());
  std::iota(Perm.begin(), Perm.end(), size_t(0));
  std::sort(Perm.begin(), Perm.end(), [&](size_t A, size_t B) {
    for (unsigned M = N; M-- > 0;)
      if (In.coord(A, M) != In.coord(B, M))
        return In.coord(A, M) < In.coord(B, M);
    return false;
  });
  Coo Out(In.dims());
  std::vector<int64_t> Last;
  double Acc = 0;
  auto Flush = [&] {
    if (!Last.empty())
      Out.add(Last, Acc);
  };
  for (size_t I : Perm) {
    std::vector<int64_t> C(In.coords(I), In.coords(I) + N);
    if (C == Last) {
      Acc = evalOp(Combine, Acc, In.value(I));
      continue;
    }
    Flush();
    Last = std::move(C);
    Acc = In.value(I);
  }
  Flush();
  return Out;
}

/// A contiguous range of sorted entries sharing all coordinates above
/// the current level, tagged with the parent position it belongs to.
struct Segment {
  int64_t ParentPos;
  size_t Begin, End;
};

/// Builds the levels of \p Sorted (sorted, no duplicates) top-down,
/// splitting each segment of entries by the level's coordinate.
inline Built build(const Coo &Sorted, const TensorFormat &Format,
                   double Fill) {
  const unsigned N = Sorted.order();
  assert(Format.order() == N && "format order mismatch");
  Built T;
  T.Levels.resize(N);
  std::vector<Segment> Segments;
  if (Sorted.size() > 0)
    Segments.push_back({0, 0, Sorted.size()});
  int64_t PosCount = 1;
  for (unsigned L = 0; L < N; ++L) {
    const unsigned Mode = N - 1 - L;
    const int64_t Dim = Sorted.dims()[Mode];
    Level &Lev = T.Levels[L];
    Lev.Kind = Format.Levels[L];
    Lev.Dim = Dim;
    const bool Bottom = L == N - 1;
    std::vector<Segment> NewSegments;
    auto ForEachGroup = [&](const Segment &Seg, auto &&Fn) {
      size_t I = Seg.Begin;
      while (I < Seg.End) {
        int64_t C = Sorted.coord(I, Mode);
        size_t J = I;
        while (J < Seg.End && Sorted.coord(J, Mode) == C)
          ++J;
        Fn(C, I, J);
        I = J;
      }
    };
    switch (Lev.Kind) {
    case LevelKind::Dense:
      for (const Segment &Seg : Segments)
        ForEachGroup(Seg, [&](int64_t C, size_t B, size_t E) {
          NewSegments.push_back({Seg.ParentPos * Dim + C, B, E});
        });
      PosCount *= Dim;
      if (Bottom) {
        T.Vals.assign(static_cast<size_t>(PosCount), Fill);
        for (const Segment &Seg : NewSegments)
          T.Vals[Seg.ParentPos] = Sorted.value(Seg.Begin);
      }
      break;
    case LevelKind::Sparse: {
      Lev.Ptr.assign(static_cast<size_t>(PosCount) + 1, 0);
      size_t SegIdx = 0;
      for (int64_t P = 0; P < PosCount; ++P) {
        Lev.Ptr[P] = static_cast<int64_t>(Lev.Crd.size());
        if (SegIdx < Segments.size() && Segments[SegIdx].ParentPos == P) {
          ForEachGroup(Segments[SegIdx], [&](int64_t C, size_t B, size_t E) {
            NewSegments.push_back({static_cast<int64_t>(Lev.Crd.size()), B, E});
            Lev.Crd.push_back(C);
          });
          ++SegIdx;
        }
      }
      Lev.Ptr[PosCount] = static_cast<int64_t>(Lev.Crd.size());
      PosCount = static_cast<int64_t>(Lev.Crd.size());
      if (Bottom) {
        T.Vals.resize(static_cast<size_t>(PosCount));
        for (const Segment &Seg : NewSegments)
          T.Vals[Seg.ParentPos] = Sorted.value(Seg.Begin);
      }
      break;
    }
    case LevelKind::RunLength: {
      assert(Bottom && "RunLength is bottom-only");
      Lev.Ptr.assign(static_cast<size_t>(PosCount) + 1, 0);
      size_t SegIdx = 0;
      for (int64_t P = 0; P < PosCount; ++P) {
        Lev.Ptr[P] = static_cast<int64_t>(Lev.RunEnd.size());
        auto PushRun = [&](int64_t EndC, double V) {
          if (static_cast<int64_t>(Lev.RunEnd.size()) > Lev.Ptr[P] &&
              T.Vals.back() == V) {
            Lev.RunEnd.back() = EndC;
            return;
          }
          Lev.RunEnd.push_back(EndC);
          T.Vals.push_back(V);
        };
        int64_t NextC = 0;
        if (SegIdx < Segments.size() && Segments[SegIdx].ParentPos == P) {
          ForEachGroup(Segments[SegIdx], [&](int64_t C, size_t B, size_t) {
            if (C > NextC)
              PushRun(C, Fill);
            PushRun(C + 1, Sorted.value(B));
            NextC = C + 1;
          });
          ++SegIdx;
        }
        if (NextC < Dim)
          PushRun(Dim, Fill);
      }
      Lev.Ptr[PosCount] = static_cast<int64_t>(Lev.RunEnd.size());
      PosCount = static_cast<int64_t>(Lev.RunEnd.size());
      break;
    }
    case LevelKind::Banded: {
      Lev.Lo.assign(static_cast<size_t>(PosCount), 0);
      Lev.Hi.assign(static_cast<size_t>(PosCount), 0);
      Lev.Off.assign(static_cast<size_t>(PosCount) + 1, 0);
      size_t SegIdx = 0;
      int64_t Total = 0;
      for (int64_t P = 0; P < PosCount; ++P) {
        Lev.Off[P] = Total;
        if (SegIdx < Segments.size() && Segments[SegIdx].ParentPos == P) {
          const Segment &Seg = Segments[SegIdx];
          const int64_t LoC = Sorted.coord(Seg.Begin, Mode);
          const int64_t HiC = Sorted.coord(Seg.End - 1, Mode) + 1;
          Lev.Lo[P] = LoC;
          Lev.Hi[P] = HiC;
          ForEachGroup(Seg, [&](int64_t C, size_t B, size_t E) {
            NewSegments.push_back({Total + (C - LoC), B, E});
          });
          Total += HiC - LoC;
          ++SegIdx;
        }
      }
      Lev.Off[PosCount] = Total;
      PosCount = Total;
      if (Bottom) {
        T.Vals.assign(static_cast<size_t>(PosCount), Fill);
        for (const Segment &Seg : NewSegments)
          T.Vals[Seg.ParentPos] = Sorted.value(Seg.Begin);
      }
      break;
    }
    }
    Segments = std::move(NewSegments);
  }
  return T;
}

inline Built fromCoo(const Coo &Entries, const TensorFormat &Format,
                     double Fill, OpKind Combine = OpKind::Add) {
  return build(sortAndCombine(Entries, Combine), Format, Fill);
}

inline Built transposed(const Tensor &T, const std::vector<unsigned> &Perm,
                        const TensorFormat &Format) {
  const Coo Src = toCoo(T);
  std::vector<int64_t> Dims(T.order()), C(T.order());
  for (unsigned M = 0; M < T.order(); ++M)
    Dims[M] = T.dim(Perm[M]);
  Coo Out(Dims);
  for (size_t I = 0; I < Src.size(); ++I) {
    for (unsigned M = 0; M < T.order(); ++M)
      C[M] = Src.coord(I, Perm[M]);
    Out.add(C, Src.value(I));
  }
  return fromCoo(Out, Format, T.fill());
}

/// (off-diagonal, diagonal) parts of \p T under \p Sym.
inline std::pair<Built, Built> splitDiagonal(const Tensor &T,
                                             const Partition &Sym) {
  Coo OffDiag(T.dims()), Diag(T.dims());
  walk(T, [&](const std::vector<int64_t> &C, double V) {
    (Sym.isOnDiagonal(C) ? Diag : OffDiag).add(C, V);
  });
  return {fromCoo(OffDiag, T.format(), T.fill()),
          fromCoo(Diag, T.format(), T.fill())};
}

} // namespace oracle
} // namespace systec

#endif // SYSTEC_TESTS_TENSORORACLE_H
