//===- tensor/Tensor.cpp --------------------------------------*- C++ -*-===//

#include "tensor/Tensor.h"

#include "parallel/Schedule.h"
#include "parallel/ThreadPool.h"
#include "support/Error.h"
#include "support/StringUtils.h"
#include "tensor/LevelBuilder.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <sstream>

namespace systec {

namespace {

/// The tensor, or fatalError with the build's status.
Tensor builtOrDie(Expected<Tensor> T) {
  if (!T)
    fatalError(T.status().str());
  return std::move(*T);
}

} // namespace

Tensor Tensor::fromCoo(Coo Entries, TensorFormat Format, double Fill,
                       OpKind Combine) {
  return builtOrDie(
      tryFromCoo(std::move(Entries), std::move(Format), Fill, Combine));
}

Expected<Tensor> Tensor::tryFromCoo(Coo Entries, TensorFormat Format,
                                    double Fill, OpKind Combine) {
  const unsigned N = Entries.order();
  if (Status S = checkBuildFormat(N, Format); !S.ok())
    return S;
  // Entries outside the declared box would index the level arrays out of
  // bounds, and the sort keys only the bits the extents need.
  for (size_t I = 0; I < Entries.size(); ++I)
    for (unsigned M = 0; M < N; ++M) {
      const int64_t C = Entries.coord(I, M);
      if (C < 0 || C >= Entries.dims()[M])
        return Status::error(
            ErrCode::InvalidArgument,
            "entry " + std::to_string(I) + " coordinate " +
                std::to_string(C) + " outside mode " + std::to_string(M) +
                " extent " + std::to_string(Entries.dims()[M]));
    }
  Entries.sortAndCombine(Combine);
  LevelBuilder B(Entries.dims(), std::move(Format), Fill);
  for (size_t I = 0; I < Entries.size(); ++I)
    B.append(Entries.coords(I), Entries.value(I));
  return std::move(B).finish();
}

Tensor Tensor::dense(std::vector<int64_t> Dims, double Fill) {
  Tensor T;
  T.Dims = std::move(Dims);
  const unsigned N = T.order();
  T.Format = TensorFormat::dense(N);
  T.Fill = Fill;
  T.Levels.resize(N);
  size_t Total = 1;
  for (unsigned L = 0; L < N; ++L) {
    T.Levels[L].Kind = LevelKind::Dense;
    T.Levels[L].Dim = T.Dims[N - 1 - L];
    Total *= static_cast<size_t>(T.Levels[L].Dim);
  }
  T.Vals.assign(Total, Fill);
  return T;
}

namespace {

/// Error helper naming the offending level, so a failed validation
/// localizes without a debugger: "level 1 (Sparse): ...".
Status levelError(unsigned L, LevelKind K, const std::string &Message) {
  const char *Name = K == LevelKind::Dense       ? "Dense"
                     : K == LevelKind::Sparse    ? "Sparse"
                     : K == LevelKind::RunLength ? "RunLength"
                                                 : "Banded";
  return Status::error(ErrCode::InvalidTensor,
                       "level " + std::to_string(L) + " (" + Name +
                           "): " + Message);
}

} // namespace

Status Tensor::validate(ValidationLevel VL) const {
  if (VL == ValidationLevel::None)
    return Status::success();
  const unsigned N = order();
  if (Levels.size() != N || Format.order() != N)
    return Status::error(ErrCode::InvalidTensor,
                         "level count disagrees with tensor order");
  const bool Deep = VL == ValidationLevel::Deep;
  // Walk top-down tracking the position count the next level must
  // cover; every per-level array size is a function of it.
  int64_t PosCount = 1;
  for (unsigned L = 0; L < N; ++L) {
    const Level &Lev = Levels[L];
    const int64_t Dim = Dims[N - 1 - L];
    if (Lev.Kind != Format.Levels[L])
      return levelError(L, Lev.Kind, "kind disagrees with the format");
    if (Lev.Dim != Dim)
      return levelError(L, Lev.Kind,
                        "extent " + std::to_string(Lev.Dim) +
                            " disagrees with mode extent " +
                            std::to_string(Dim));
    switch (Lev.Kind) {
    case LevelKind::Dense: {
      if (Dim < 0)
        return levelError(L, Lev.Kind, "negative extent");
      PosCount *= Dim;
      break;
    }
    case LevelKind::Sparse: {
      if (Lev.Ptr.size() != static_cast<size_t>(PosCount) + 1)
        return levelError(L, Lev.Kind,
                          "Ptr size " + std::to_string(Lev.Ptr.size()) +
                              ", expected " + std::to_string(PosCount + 1));
      const int64_t Total = static_cast<int64_t>(Lev.Crd.size());
      if (Lev.Ptr.front() != 0 || Lev.Ptr.back() != Total)
        return levelError(L, Lev.Kind,
                          "Ptr endpoints do not cover the Crd array");
      if (Deep) {
        for (int64_t P = 0; P < PosCount; ++P) {
          // Range before monotonicity: the fiber scan below indexes Crd
          // with Ptr values, so an interior Ptr past the array must be
          // rejected before it is ever used as a bound.
          if (Lev.Ptr[P + 1] < 0 || Lev.Ptr[P + 1] > Total)
            return levelError(L, Lev.Kind,
                              "Ptr value " + std::to_string(Lev.Ptr[P + 1]) +
                                  " outside [0, " + std::to_string(Total) +
                                  "] at position " + std::to_string(P + 1));
          if (Lev.Ptr[P] > Lev.Ptr[P + 1])
            return levelError(L, Lev.Kind,
                              "Ptr not monotone at position " +
                                  std::to_string(P));
          for (int64_t K = Lev.Ptr[P]; K < Lev.Ptr[P + 1]; ++K) {
            if (Lev.Crd[K] < 0 || Lev.Crd[K] >= Dim)
              return levelError(L, Lev.Kind,
                                "coordinate " + std::to_string(Lev.Crd[K]) +
                                    " outside [0, " + std::to_string(Dim) +
                                    ")");
            if (K > Lev.Ptr[P] && Lev.Crd[K] <= Lev.Crd[K - 1])
              return levelError(L, Lev.Kind,
                                "coordinates not strictly increasing in "
                                "the fiber of position " +
                                    std::to_string(P));
          }
        }
      }
      PosCount = Total;
      break;
    }
    case LevelKind::RunLength: {
      if (L + 1 != N)
        return levelError(L, Lev.Kind, "only supported at the bottom");
      if (Lev.Ptr.size() != static_cast<size_t>(PosCount) + 1)
        return levelError(L, Lev.Kind,
                          "Ptr size " + std::to_string(Lev.Ptr.size()) +
                              ", expected " + std::to_string(PosCount + 1));
      const int64_t Total = static_cast<int64_t>(Lev.RunEnd.size());
      if (Lev.Ptr.front() != 0 || Lev.Ptr.back() != Total)
        return levelError(L, Lev.Kind,
                          "Ptr endpoints do not cover the RunEnd array");
      if (Deep) {
        for (int64_t P = 0; P < PosCount; ++P) {
          if (Lev.Ptr[P + 1] < 0 || Lev.Ptr[P + 1] > Total)
            return levelError(L, Lev.Kind,
                              "Ptr value " + std::to_string(Lev.Ptr[P + 1]) +
                                  " outside [0, " + std::to_string(Total) +
                                  "] at position " + std::to_string(P + 1));
          if (Lev.Ptr[P] > Lev.Ptr[P + 1])
            return levelError(L, Lev.Kind,
                              "Ptr not monotone at position " +
                                  std::to_string(P));
          const int64_t Begin = Lev.Ptr[P], End = Lev.Ptr[P + 1];
          if (Dim > 0 && Begin == End)
            return levelError(L, Lev.Kind,
                              "no runs cover the fiber of position " +
                                  std::to_string(P));
          int64_t Prev = 0;
          for (int64_t K = Begin; K < End; ++K) {
            if (Lev.RunEnd[K] <= Prev || Lev.RunEnd[K] > Dim)
              return levelError(
                  L, Lev.Kind,
                  "run ends not strictly increasing within (0, " +
                      std::to_string(Dim) + "] in the fiber of position " +
                      std::to_string(P));
            Prev = Lev.RunEnd[K];
          }
          if (End > Begin && Lev.RunEnd[End - 1] != Dim)
            return levelError(L, Lev.Kind,
                              "runs do not tile [0, " + std::to_string(Dim) +
                                  ") in the fiber of position " +
                                  std::to_string(P));
        }
      }
      PosCount = Total;
      break;
    }
    case LevelKind::Banded: {
      if (Lev.Lo.size() != static_cast<size_t>(PosCount) ||
          Lev.Hi.size() != static_cast<size_t>(PosCount) ||
          Lev.Off.size() != static_cast<size_t>(PosCount) + 1)
        return levelError(L, Lev.Kind, "Lo/Hi/Off sizes disagree with the "
                                       "parent position count");
      if (PosCount > 0 && Lev.Off.front() != 0)
        return levelError(L, Lev.Kind, "Off does not start at 0");
      if (Deep) {
        for (int64_t P = 0; P < PosCount; ++P) {
          const int64_t Lo = Lev.Lo[P], Hi = Lev.Hi[P];
          if (Lo > Hi)
            return levelError(L, Lev.Kind,
                              "inverted interval [" + std::to_string(Lo) +
                                  ", " + std::to_string(Hi) +
                                  ") at position " + std::to_string(P));
          if (Lo < 0 || Hi > Dim)
            return levelError(L, Lev.Kind,
                              "interval [" + std::to_string(Lo) + ", " +
                                  std::to_string(Hi) + ") outside [0, " +
                                  std::to_string(Dim) + ") at position " +
                                  std::to_string(P));
          if (Lev.Off[P + 1] - Lev.Off[P] != Hi - Lo)
            return levelError(L, Lev.Kind,
                              "Off delta disagrees with the band width "
                              "at position " +
                                  std::to_string(P));
        }
      }
      PosCount = Lev.Off[static_cast<size_t>(PosCount)];
      if (PosCount < 0)
        return levelError(L, Lev.Kind, "negative Off endpoint");
      break;
    }
    }
  }
  if (Vals.size() != static_cast<size_t>(PosCount))
    return Status::error(ErrCode::InvalidTensor,
                         "value array holds " + std::to_string(Vals.size()) +
                             " entries, bottom level expects " +
                             std::to_string(PosCount));
  if (Deep)
    for (size_t I = 0; I < Vals.size(); ++I)
      if (std::isnan(Vals[I]))
        return Status::error(ErrCode::InvalidTensor,
                             "NaN value at position " + std::to_string(I) +
                                 " (semiring folds are not NaN-clean)");
  return Status::success();
}

int64_t Tensor::locate(unsigned L, int64_t Pos, int64_t C) const {
  const Level &Lev = Levels[L];
  switch (Lev.Kind) {
  case LevelKind::Dense:
    return Pos * Lev.Dim + C;
  case LevelKind::Sparse: {
    auto Begin = Lev.Crd.begin() + Lev.Ptr[Pos];
    auto End = Lev.Crd.begin() + Lev.Ptr[Pos + 1];
    auto It = std::lower_bound(Begin, End, C);
    if (It == End || *It != C)
      return -1;
    return It - Lev.Crd.begin();
  }
  case LevelKind::RunLength: {
    auto Begin = Lev.RunEnd.begin() + Lev.Ptr[Pos];
    auto End = Lev.RunEnd.begin() + Lev.Ptr[Pos + 1];
    auto It = std::upper_bound(Begin, End, C);
    assert(It != End || C < Lev.Dim ? It != End : true);
    if (It == End)
      return -1;
    return It - Lev.RunEnd.begin();
  }
  case LevelKind::Banded: {
    if (C < Lev.Lo[Pos] || C >= Lev.Hi[Pos])
      return -1;
    return Lev.Off[Pos] + (C - Lev.Lo[Pos]);
  }
  }
  unreachable("unknown level kind");
}

int64_t Tensor::locateHinted(unsigned L, int64_t Pos, int64_t C,
                             int64_t &CachedParent, int64_t &CachedIdx) const {
  const Level &Lev = Levels[L];
  assert((Lev.Kind == LevelKind::Sparse ||
          Lev.Kind == LevelKind::RunLength) &&
         "hinted locate needs a compressed level");
  if (Lev.Kind == LevelKind::RunLength) {
    // Result: the first run k in [B, E) with RunEnd[k] > C (runs tile
    // the extent, so coordinates inside the extent always resolve).
    const int64_t B = Lev.Ptr[Pos], E = Lev.Ptr[Pos + 1];
    const int64_t *RunEnd = Lev.RunEnd.data();
    int64_t Idx;
    if (CachedParent == Pos && CachedIdx >= B && CachedIdx < E &&
        RunEnd[CachedIdx] <= C) {
      // Ascending lookup: gallop forward from the cached run.
      int64_t Step = 1, Lo = CachedIdx + 1;
      while (Lo + Step < E && RunEnd[Lo + Step] <= C)
        Step <<= 1;
      const int64_t HiB = std::min(Lo + Step, E);
      Idx = std::upper_bound(RunEnd + Lo, RunEnd + HiB, C) - RunEnd;
    } else if (CachedParent == Pos && CachedIdx >= B && CachedIdx < E &&
               (CachedIdx == B || RunEnd[CachedIdx - 1] <= C)) {
      Idx = CachedIdx; // still inside the cached run
    } else {
      Idx = std::upper_bound(RunEnd + B, RunEnd + E, C) - RunEnd;
    }
    CachedParent = Pos;
    CachedIdx = Idx;
    return Idx < E ? Idx : -1;
  }
  const int64_t B = Lev.Ptr[Pos], E = Lev.Ptr[Pos + 1];
  const int64_t *Crd = Lev.Crd.data();
  int64_t Start = B;
  if (CachedParent == Pos && CachedIdx >= B && CachedIdx <= E) {
    if (CachedIdx == E || Crd[CachedIdx] >= C) {
      // Coordinate moved backward (or repeated): bisect the prefix,
      // with a fast path for an exact repeat.
      if (CachedIdx < E && Crd[CachedIdx] == C)
        return CachedIdx;
      Start = B;
    } else {
      // Ascending lookup: gallop forward from the previous result.
      int64_t Step = 1, LoB = CachedIdx + 1;
      while (LoB + Step < E && Crd[LoB + Step] < C)
        Step <<= 1;
      int64_t HiB = std::min(LoB + Step, E);
      int64_t Idx = std::lower_bound(Crd + LoB, Crd + HiB, C) - Crd;
      CachedParent = Pos;
      CachedIdx = Idx;
      return (Idx < E && Crd[Idx] == C) ? Idx : -1;
    }
  }
  int64_t Idx = std::lower_bound(Crd + Start, Crd + E, C) - Crd;
  CachedParent = Pos;
  CachedIdx = Idx;
  return (Idx < E && Crd[Idx] == C) ? Idx : -1;
}

double Tensor::at(const std::vector<int64_t> &Coords) const {
  assert(Coords.size() == order() && "coordinate arity mismatch");
  int64_t Pos = 0;
  for (unsigned L = 0; L < order(); ++L) {
    Pos = locate(L, Pos, Coords[modeOfLevel(L)]);
    if (Pos < 0)
      return Fill;
  }
  return Vals[Pos];
}

double &Tensor::denseRef(const std::vector<int64_t> &Coords) {
  assert(Format.isAllDense() && "denseRef requires an all-dense tensor");
  int64_t Pos = 0;
  for (unsigned L = 0; L < order(); ++L)
    Pos = Pos * Levels[L].Dim + Coords[modeOfLevel(L)];
  return Vals[Pos];
}

void Tensor::setAllValues(double V) {
  std::fill(Vals.begin(), Vals.end(), V);
}

namespace {

/// Calls \p Fn(Coords, Val) for every stored entry of \p T in
/// fibertree order (last mode most significant), with RunLength runs
/// expanded per coordinate. Coords holds the access-mode coordinates in
/// one buffer that lives for the whole walk. Iterative, with one cursor
/// per level: O(levels) memory and O(1) work per visited coordinate.
template <typename FnT> void walkEntries(const Tensor &T, FnT &&Fn) {
  const unsigned N = T.order();
  if (N == 0)
    return;
  struct Cursor {
    int64_t K = 0;     ///< Sparse: Crd index; RunLength: run index
    int64_t End = 0;   ///< the fiber's end in K (Sparse, RunLength) or
                       ///< in coordinates (Dense, Banded)
    int64_t Base = 0;  ///< Dense, Banded: position minus coordinate
    int64_t Child = 0; ///< position of the current coordinate
  };
  std::vector<Cursor> Cur(N);
  std::vector<int64_t> Coords(N);
  // Positions level L's cursor on the first coordinate of the fiber
  // under parent position P (Next: on the following one); false when
  // the fiber has none left.
  auto Open = [&](unsigned L, int64_t P) {
    const Level &Lev = T.level(L);
    Cursor &Q = Cur[L];
    int64_t &C = Coords[N - 1 - L];
    switch (Lev.Kind) {
    case LevelKind::Dense:
      Q.Base = P * Lev.Dim;
      Q.End = Lev.Dim;
      C = 0;
      break;
    case LevelKind::Sparse:
      Q.K = Lev.Ptr[P];
      Q.End = Lev.Ptr[P + 1];
      if (Q.K >= Q.End)
        return false;
      C = Lev.Crd[Q.K];
      Q.Child = Q.K;
      return true;
    case LevelKind::RunLength:
      Q.K = Lev.Ptr[P];
      Q.End = Lev.Ptr[P + 1];
      C = 0;
      while (Q.K < Q.End && Lev.RunEnd[Q.K] <= C)
        ++Q.K;
      Q.Child = Q.K;
      return Q.K < Q.End;
    case LevelKind::Banded:
      Q.Base = Lev.Off[P] - Lev.Lo[P];
      Q.End = Lev.Hi[P];
      C = Lev.Lo[P];
      break;
    }
    Q.Child = Q.Base + C;
    return C < Q.End;
  };
  auto Next = [&](unsigned L) {
    const Level &Lev = T.level(L);
    Cursor &Q = Cur[L];
    int64_t &C = Coords[N - 1 - L];
    switch (Lev.Kind) {
    case LevelKind::Sparse:
      if (++Q.K >= Q.End)
        return false;
      C = Lev.Crd[Q.K];
      Q.Child = Q.K;
      return true;
    case LevelKind::RunLength:
      ++C;
      while (Q.K < Q.End && Lev.RunEnd[Q.K] <= C)
        ++Q.K;
      Q.Child = Q.K;
      return Q.K < Q.End;
    case LevelKind::Dense:
    case LevelKind::Banded:
      break;
    }
    Q.Child = Q.Base + ++C;
    return C < Q.End;
  };
  const double *Vals = T.valsData();
  unsigned L = 0;
  bool Ok = Open(0, 0);
  for (;;) {
    if (!Ok) {
      if (L == 0)
        return;
      Ok = Next(--L);
    } else if (L + 1 < N) {
      Ok = Open(L + 1, Cur[L].Child);
      ++L;
    } else {
      Fn(Coords, Vals[Cur[L].Child]);
      Ok = Next(L);
    }
  }
}

} // namespace

void Tensor::forEach(
    const std::function<void(const std::vector<int64_t> &, double)> &Fn)
    const {
  walkEntries(*this, Fn);
}

Coo Tensor::toCoo() const {
  Coo Out(Dims);
  walkEntries(*this, [&Out](const std::vector<int64_t> &Coords, double V) {
    Out.addRaw(Coords.data(), V);
  });
  return Out;
}

Tensor Tensor::transposed(const std::vector<unsigned> &ModePerm,
                          const TensorFormat &NewFormat) const {
  const unsigned N = order();
  assert(ModePerm.size() == N && "mode permutation arity mismatch");
  if (Status S = checkBuildFormat(N, NewFormat); !S.ok())
    fatalError(S.str());
  std::vector<int64_t> NewDims(N);
  for (unsigned M = 0; M < N; ++M)
    NewDims[M] = Dims[ModePerm[M]];
  std::vector<int64_t> Coords;
  std::vector<double> Values;
  Coords.reserve(Vals.size() * N);
  Values.reserve(Vals.size());
  walkEntries(*this, [&](const std::vector<int64_t> &C, double V) {
    for (unsigned M = 0; M < N; ++M)
      Coords.push_back(C[ModePerm[M]]);
    Values.push_back(V);
  });
  LevelBuilder B(NewDims, NewFormat, Fill);
  for (size_t I : fibertreeOrder(Coords.data(), Values.size(), NewDims))
    B.append(&Coords[I * N], Values[I]);
  return builtOrDie(std::move(B).finish());
}

namespace {

/// Which halves of a diagonal split hold an entry at or below a
/// position.
enum : uint8_t { InOff = 1, InDiag = 2 };

/// The diagonal split of a tensor whose levels are all Dense or Sparse,
/// as a filter over its level arrays. Positions are counted by depth:
/// depth 0 is the root (one position) and depth D holds level D-1's
/// positions, so depth N holds the value positions.
///
/// mark() walks the stored positions once: it sets each value
/// position's half from its coordinates, deciding each pair of modes at
/// the level that binds the deeper one, and gives every other position
/// the union of its children's halves. Then each Dense position above
/// the bottom takes its parent's halves instead (a Dense level keeps
/// every coordinate under a kept parent, and both halves keep the
/// root), so every depth above the bottom says which halves keep each
/// position. fill() copies both halves level by level into arrays of
/// exactly their size.
///
/// Which half a position goes to follows the data, not a pattern a
/// branch predictor can learn, so the inner loops do not branch on it:
/// mark() compares a fixed number of partner coordinates per level, and
/// fill() writes every position at each half's cursor and advances only
/// the cursors of the halves that keep it.
class DiagonalFilter {
public:
  DiagonalFilter(const Tensor &T,
                 const std::vector<std::pair<unsigned, unsigned>> &Pairs)
      : T(T), N(T.order()), Count(N + 1, 1), Mask(N + 1), Coord(N + 1, -1),
        Marked(N + 1, {0, 0}), Kept(N + 1) {
    for (unsigned L = 0; L < N; ++L) {
      const Level &Lev = T.level(L);
      Count[L + 1] = Lev.Kind == LevelKind::Dense
                         ? Count[L] * Lev.Dim
                         : static_cast<int64_t>(Lev.Crd.size());
    }
    for (unsigned D = 0; D <= N; ++D)
      Mask[D].resize(static_cast<size_t>(Count[D]));
    // Per level, the modes paired with the level's mode that a level
    // above binds, padded with mode N, whose coordinate stays -1.
    std::vector<std::vector<unsigned>> ByLevel(N);
    for (const auto &[A, B] : Pairs)
      ByLevel[N - 1 - std::min(A, B)].push_back(std::max(A, B));
    for (const std::vector<unsigned> &P : ByLevel)
      Width = std::max(Width, static_cast<unsigned>(P.size()));
    Partners.assign(size_t(N) * Width, N);
    for (unsigned L = 0; L < N; ++L)
      std::copy(ByLevel[L].begin(), ByLevel[L].end(),
                Partners.begin() + L * Width);
    Kept[0] = {1, 1};
    if (N == 0)
      return; // one entry, no modes to compare: see fill()
    mark(0, 0, false);
    Mask[0][0] = InOff | InDiag;
    for (unsigned L = 0; L < N; ++L) {
      const Level &Lev = T.level(L);
      if (Lev.Kind == LevelKind::Sparse) {
        Kept[L + 1] = Marked[L + 1];
        continue;
      }
      Kept[L + 1] = {Kept[L][0] * Lev.Dim, Kept[L][1] * Lev.Dim};
      if (L + 1 == N)
        break; // the bottom keeps its halves; fill() reads its parents
      uint8_t *Below = Mask[L + 1].data();
      for (int64_t Q = 0; Q < Count[L]; ++Q)
        std::fill_n(Below + Q * Lev.Dim, Lev.Dim, Mask[L][Q]);
    }
  }

  /// Both halves' levels and values.
  void fill(std::vector<Level> (&Levels)[2], std::vector<double> (&Vals)[2])
      const {
    for (unsigned H = 0; H < 2; ++H)
      Levels[H].resize(N);
    for (unsigned L = 0; L < N; ++L) {
      const Level &Src = T.level(L);
      for (unsigned H = 0; H < 2; ++H) {
        Levels[H][L].Kind = Src.Kind;
        Levels[H][L].Dim = Src.Dim;
      }
      if (Src.Kind == LevelKind::Dense)
        continue;
      // A Ptr cursor never passes its last slot; a Crd cursor reaches
      // the end only after the half's last coordinate, when the writes
      // stop.
      Cursor<int64_t> Ptr[2], Crd[2];
      for (unsigned H = 0; H < 2; ++H) {
        Ptr[H].open(Levels[H][L].Ptr, Kept[L][H] + 1);
        Crd[H].open(Levels[H][L].Crd, Kept[L + 1][H]);
      }
      const uint8_t *Above = Mask[L].data(), *Below = Mask[L + 1].data();
      for (int64_t Q = 0; Q < Count[L]; ++Q) {
        for (unsigned H = 0; H < 2; ++H)
          Ptr[H].put(Crd[H].N, Above[Q] >> H & 1);
        for (int64_t K = Src.Ptr[Q]; K < Src.Ptr[Q + 1]; ++K)
          for (unsigned H = 0; H < 2; ++H)
            Crd[H].put(Src.Crd[K], Below[K] >> H & 1);
      }
      for (unsigned H = 0; H < 2; ++H)
        Ptr[H].put(Crd[H].N, 1);
    }
    const double *V = T.valsData();
    const double F = T.fill();
    Cursor<double> Out[2];
    for (unsigned H = 0; H < 2; ++H)
      Out[H].open(Vals[H], Kept[N][H]);
    if (N == 0) {
      Out[0].put(V[0], 1);
      Out[1].put(F, 1);
      return;
    }
    const uint8_t *Bottom = Mask[N].data();
    if (T.level(N - 1).Kind == LevelKind::Dense) {
      // Every value position under a kept parent stays, holding the
      // fill value where its entry went to the other half.
      const int64_t Dim = T.level(N - 1).Dim;
      for (int64_t Q = 0; Q < Count[N - 1]; ++Q)
        for (int64_t P = Q * Dim; P < (Q + 1) * Dim; ++P)
          for (unsigned H = 0; H < 2; ++H)
            Out[H].put(Bottom[P] >> H & 1 ? V[P] : F, Mask[N - 1][Q] >> H & 1);
      return;
    }
    for (int64_t P = 0; P < Count[N]; ++P)
      for (unsigned H = 0; H < 2; ++H)
        Out[H].put(V[P], Bottom[P] >> H & 1);
  }

private:
  /// Appends to an array sized up front to exactly what it will hold.
  template <typename Elem> struct Cursor {
    Elem *Data = nullptr;
    int64_t Size = 0, N = 0;
    void open(std::vector<Elem> &Array, int64_t Exact) {
      Array.resize(static_cast<size_t>(Exact));
      Data = Array.data();
      Size = Exact;
    }
    /// Writes \p X at the cursor and moves past it when \p Keep is 1.
    void put(Elem X, unsigned Keep) {
      if (N < Size)
        Data[N] = X;
      N += Keep;
    }
  };

  const Tensor &T;
  const unsigned N;
  std::vector<int64_t> Count;             ///< positions per depth
  std::vector<std::vector<uint8_t>> Mask; ///< halves per depth and position
  /// Width partner modes per level (see the constructor).
  std::vector<unsigned> Partners;
  unsigned Width = 0;
  /// The walk's coordinate of each mode, then the padding mode's -1.
  std::vector<int64_t> Coord;
  /// Per depth, the positions marked with each half, and the positions
  /// each half keeps.
  std::vector<std::array<int64_t, 2>> Marked, Kept;

  /// Marks the positions of level \p L under parent position \p P and
  /// returns the union of their halves; \p Diag says whether a pair
  /// decided above is on the diagonal. Aborts on a Sparse fiber that
  /// does not ascend strictly inside the level's extent or does not
  /// follow its predecessor in the Crd array: the order a walk of the
  /// tensor must see, which validate(Deep) checks.
  uint8_t mark(unsigned L, int64_t P, bool Diag) {
    const Level &Lev = T.level(L);
    const bool Dense = Lev.Kind == LevelKind::Dense;
    const int64_t Begin = Dense ? P * Lev.Dim : Lev.Ptr[P];
    const int64_t End = Dense ? Begin + Lev.Dim : Lev.Ptr[P + 1];
    if (!Dense && (Begin < 0 || Begin > End || End > Count[L + 1]))
      fatalError("diagonal split: level " + std::to_string(L) +
                 " fibers not in fibertree order");
    const unsigned *Pair = Partners.data() + L * Width;
    uint8_t *Out = Mask[L + 1].data();
    int64_t Offs = 0, Diags = 0;
    uint8_t Any = 0;
    for (int64_t K = Begin; K < End; ++K) {
      const int64_t C = Dense ? K - Begin : Lev.Crd[K];
      if (!Dense) {
        if (C < 0 || C >= Lev.Dim)
          fatalError("diagonal split: coordinate " + std::to_string(C) +
                     " outside level " + std::to_string(L) + " extent " +
                     std::to_string(Lev.Dim));
        if (K > Begin && C <= Lev.Crd[K - 1])
          fatalError("diagonal split: level " + std::to_string(L) +
                     " entries not in strictly increasing fibertree "
                     "order");
      }
      bool D = Diag;
      for (unsigned J = 0; J < Width; ++J)
        D |= C == Coord[Pair[J]];
      uint8_t Halves;
      if (L + 1 == N) {
        Halves = D ? InDiag : InOff;
      } else {
        Coord[N - 1 - L] = C;
        Halves = mark(L + 1, K, D);
      }
      Out[K] = Halves;
      Offs += Halves & InOff;
      Diags += Halves >> 1;
      Any |= Halves;
    }
    Marked[L + 1][0] += Offs;
    Marked[L + 1][1] += Diags;
    return Any;
  }
};

} // namespace

std::pair<Tensor, Tensor> Tensor::splitDiagonal(const Partition &Sym) const {
  assert(Sym.order() == order() && "partition order mismatch");
  // The mode pairs Partition::isOnDiagonal compares.
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (const std::vector<unsigned> &Part : Sym.parts())
    for (size_t I = 0; I < Part.size(); ++I)
      for (size_t J = I + 1; J < Part.size(); ++J)
        Pairs.push_back({Part[I], Part[J]});
  const bool Filterable = std::all_of(
      Format.Levels.begin(), Format.Levels.end(), [](LevelKind K) {
        return K == LevelKind::Dense || K == LevelKind::Sparse;
      });
  if (Filterable) {
    std::vector<Level> Levels[2];
    std::vector<double> Values[2];
    DiagonalFilter(*this, Pairs).fill(Levels, Values);
    std::pair<Tensor, Tensor> Out;
    for (unsigned H = 0; H < 2; ++H) {
      Tensor &Half = H ? Out.second : Out.first;
      Half.Dims = Dims;
      Half.Format = Format;
      Half.Fill = Fill;
      Half.Levels = std::move(Levels[H]);
      Half.Vals = std::move(Values[H]);
      if (Status S = Half.validate(ValidationLevel::Shallow); !S.ok())
        fatalError(std::move(S).withContext("diagonal split self-check").str());
    }
    return Out;
  }
  // RunLength and Banded levels change shape with the entries they hold,
  // so those formats rebuild each half from its entries.
  LevelBuilder OffDiag(Dims, Format, Fill), Diag(Dims, Format, Fill);
  walkEntries(*this, [&](const std::vector<int64_t> &Coords, double V) {
    const int64_t *C = Coords.data();
    bool OnDiag = false;
    for (const auto &[A, B] : Pairs)
      OnDiag |= C[A] == C[B];
    (OnDiag ? Diag : OffDiag).append(C, V);
  });
  return {builtOrDie(std::move(OffDiag).finish()),
          builtOrDie(std::move(Diag).finish())};
}

double Tensor::maxAbsDiff(const Tensor &A, const Tensor &B) {
  assert(A.dims() == B.dims() && "shape mismatch");
  double Max = 0;
  A.forEach([&](const std::vector<int64_t> &Coords, double V) {
    Max = std::max(Max, std::fabs(V - B.at(Coords)));
  });
  B.forEach([&](const std::vector<int64_t> &Coords, double V) {
    Max = std::max(Max, std::fabs(V - A.at(Coords)));
  });
  return Max;
}

namespace {

/// Replicates the canonical triangle into every non-canonical cell
/// whose mode-0 coordinate lies in [Lo, Hi] and returns the number of
/// copies. A row is one tuple of coordinates of modes 1..n-1. Once per
/// row, every part fixes its canonical check and its term of the source
/// offset, with mode 0's own part ranking only its other modes (sorted
/// as W). Those coordinates split the row into |part| segments: in
/// segment r, mode 0's coordinate c has rank r in its part, so the
/// canonical source of cell c is Src + c * stride(mode at rank r), one
/// strided copy. Segment 0 (c <= W[0]) of a canonical row is the
/// canonical part of the row and is skipped. Writes touch only
/// non-canonical cells and reads only canonical ones, so disjoint
/// mode-0 ranges never conflict.
uint64_t replicateRange(Tensor &T, const Partition &Sym, int64_t Lo,
                        int64_t Hi) {
  const unsigned N = T.order();
  // Column-major strides, as in Tensor::denseRef: mode 0 is contiguous.
  std::vector<int64_t> Stride(N);
  int64_t Cells = 1;
  for (unsigned M = 0; M < N; ++M) {
    Stride[M] = Cells;
    Cells *= T.dim(M);
  }
  if (Cells == 0 || Lo > Hi)
    return 0;
  const std::vector<std::vector<unsigned>> &Parts = Sym.parts();
  const unsigned HeadPart = Sym.partOf(0);
  const std::vector<unsigned> &Head = Parts[HeadPart]; // Head[0] == 0
  const size_t K = Head.size() - 1;
  std::vector<int64_t> Coords(N, 0), Sorted(N), W(K);
  double *V = T.valsData();
  uint64_t Copies = 0;
  for (int64_t Row = 0; Row < Cells; Row += T.dim(0)) {
    bool Canonical = true;
    int64_t Src = 0;
    for (unsigned P = 0; P < Parts.size(); ++P) {
      // Mode 0's part ranks its other modes into W, at ranks 1..K.
      const size_t Skip = P == HeadPart ? 1 : 0;
      const std::vector<unsigned> &Part = Parts[P];
      int64_t *Out = Skip ? W.data() : Sorted.data();
      const size_t Len = Part.size() - Skip;
      for (size_t I = 0; I < Len; ++I) {
        Out[I] = Coords[Part[I + Skip]];
        if (I && Out[I - 1] > Out[I])
          Canonical = false;
      }
      std::sort(Out, Out + Len);
      for (size_t I = 0; I < Len; ++I)
        Src += Out[I] * Stride[Part[I + Skip]];
    }
    int64_t Begin = Lo;
    for (size_t R = 0; R <= K; ++R) {
      if (R > 0) // W[R-1] moves from rank R down to rank R-1
        Src += W[R - 1] * (Stride[Head[R - 1]] - Stride[Head[R]]);
      const int64_t End = R < K ? std::min(Hi, W[R]) : Hi;
      if (Begin > End)
        continue;
      if (R > 0 || !Canonical) {
        double *Dst = V + Row;
        const double *From = V + Src;
        const int64_t S = Stride[Head[R]];
        for (int64_t C = Begin; C <= End; ++C)
          Dst[C] = From[C * S];
        Copies += static_cast<uint64_t>(End - Begin + 1);
      }
      Begin = End + 1;
    }
    // Odometer over modes 1..n-1, mode 1 fastest (the storage order).
    for (unsigned M = 1; M < N && ++Coords[M] == T.dim(M); ++M)
      Coords[M] = 0;
  }
  return Copies;
}

} // namespace

Status checkReplicateTarget(const Tensor &T, const Partition &Sym) {
  if (!T.format().isAllDense())
    return Status::error(ErrCode::InvalidArgument,
                         "replicate requires a dense output (the tensor is " +
                             T.format().str() + ")");
  if (Sym.order() != T.order())
    return Status::error(ErrCode::InvalidArgument,
                         "replicate partition order mismatch (" + Sym.str() +
                             " has order " + std::to_string(Sym.order()) +
                             ", the tensor has order " +
                             std::to_string(T.order()) + ")");
  for (const std::vector<unsigned> &Part : Sym.parts())
    for (unsigned M : Part)
      if (T.dim(M) != T.dim(Part[0]))
        return Status::error(ErrCode::InvalidArgument,
                             "replicate partition " + Sym.str() +
                                 " groups modes of unequal extent (" +
                                 std::to_string(T.dim(Part[0])) + " vs " +
                                 std::to_string(T.dim(M)) + ")");
  return Status::success();
}

uint64_t replicateSymmetric(Tensor &T, const Partition &Sym,
                            unsigned Threads) {
  if (Status S = checkReplicateTarget(T, Sym); !S.ok())
    fatalError(S.str());
  if (T.order() == 0)
    return 0;
  const int64_t Dim0 = T.dim(0);
  if (Threads <= 1 || Dim0 < 2)
    return replicateRange(T, Sym, 0, Dim0 - 1);
  // Mode-0 chunks run on the shared pool. Each non-canonical cell is
  // written by exactly one chunk and sources are canonical (never
  // written), so the result is independent of the decomposition;
  // per-chunk copy counts sum to the same total.
  std::vector<ChunkRange> Chunks = staticBlocks(0, Dim0 - 1, Threads);
  std::vector<uint64_t> Counts(Chunks.size(), 0);
  ThreadPool::global().parallelFor(
      static_cast<unsigned>(Chunks.size()), [&](unsigned I) {
        Counts[I] = replicateRange(T, Sym, Chunks[I].Lo, Chunks[I].Hi);
      });
  uint64_t Copies = 0;
  for (uint64_t C : Counts)
    Copies += C;
  return Copies;
}

std::string Tensor::summary() const {
  std::ostringstream OS;
  OS << order() << "-d ";
  for (unsigned M = 0; M < order(); ++M) {
    if (M)
      OS << "x";
    OS << Dims[M];
  }
  OS << ", " << Vals.size() << " stored, " << Format.str();
  return OS.str();
}

} // namespace systec
