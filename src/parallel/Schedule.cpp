//===- parallel/Schedule.cpp ----------------------------------*- C++ -*-===//

#include "parallel/Schedule.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace systec {

std::vector<ChunkRange> staticBlocks(int64_t Lo, int64_t Hi,
                                     unsigned Chunks) {
  std::vector<ChunkRange> Out;
  if (Lo > Hi || Chunks == 0)
    return Out;
  const int64_t N = Hi - Lo + 1;
  const int64_t C = std::min<int64_t>(Chunks, N);
  Out.reserve(C);
  for (int64_t K = 0; K < C; ++K) {
    // Boundaries by rounded proportion; consecutive and exhaustive.
    int64_t B = Lo + (N * K) / C;
    int64_t E = Lo + (N * (K + 1)) / C - 1;
    Out.push_back({B, E});
  }
  return Out;
}

double triangleWeight(const ChunkRange &C, int64_t Lo, int64_t Hi,
                      int TriDepth) {
  double W = 0;
  for (int64_t V = C.Lo; V <= C.Hi; ++V) {
    double Base = TriDepth >= 0 ? static_cast<double>(V - Lo + 1)
                                : static_cast<double>(Hi - V + 1);
    W += std::pow(Base, std::abs(TriDepth));
  }
  return W;
}

std::vector<ChunkRange> triangleBalanced(int64_t Lo, int64_t Hi,
                                         unsigned Chunks, int TriDepth) {
  if (TriDepth == 0)
    return staticBlocks(Lo, Hi, Chunks);
  std::vector<ChunkRange> Out;
  if (Lo > Hi || Chunks == 0)
    return Out;
  const int64_t N = Hi - Lo + 1;
  const int64_t C = std::min<int64_t>(Chunks, N);
  const int D = std::abs(TriDepth);

  // Equal-weight boundaries via the continuous model: the cumulative
  // weight of the first x coordinates is ~ x^(d+1)/(d+1), so the k-th
  // boundary sits at N * (k/C)^(1/(d+1)) from the light end. Exact
  // enough for balancing (tests assert <= ~15% spread) and O(C).
  std::vector<int64_t> Sizes(C);
  int64_t Prev = 0;
  for (int64_t K = 1; K <= C; ++K) {
    double Frac = std::pow(static_cast<double>(K) / C,
                           1.0 / (D + 1));
    // Clamp so every chunk (including the ones still to come) keeps at
    // least one coordinate.
    int64_t At = K == C ? N
                        : std::clamp<int64_t>(std::llround(Frac * N),
                                              Prev + 1, N - (C - K));
    Sizes[K - 1] = At - Prev;
    Prev = At;
  }
  // Ascending work: light chunks (large spans) come first. Descending:
  // mirror so the wide chunks cover the light tail.
  if (TriDepth < 0)
    std::reverse(Sizes.begin(), Sizes.end());
  int64_t B = Lo;
  for (int64_t K = 0; K < C; ++K) {
    Out.push_back({B, B + Sizes[K] - 1});
    B += Sizes[K];
  }
  assert(B == Hi + 1 && "triangle chunks must tile the range");
  return Out;
}

} // namespace systec
