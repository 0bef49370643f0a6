//===- tensor/Coo.cpp -----------------------------------------*- C++ -*-===//

#include "tensor/Coo.h"

#include "tensor/LevelBuilder.h"

#include <cassert>

namespace systec {

Coo::Coo(std::vector<int64_t> DimsIn) : Dims(std::move(DimsIn)) {
  assert(!Dims.empty() && "tensors need at least one mode");
}

void Coo::addRaw(const int64_t *CoordsIn, double Val) {
  for (unsigned M = 0; M < order(); ++M) {
    assert(CoordsIn[M] >= 0 && CoordsIn[M] < Dims[M] &&
           "coordinate out of bounds");
    Coords.push_back(CoordsIn[M]);
  }
  Vals.push_back(Val);
}

void Coo::add(const std::vector<int64_t> &CoordsIn, double Val) {
  assert(CoordsIn.size() == order() && "coordinate arity mismatch");
  addRaw(CoordsIn.data(), Val);
}

void Coo::sortAndCombine(OpKind Combine) {
  const unsigned N = order();
  std::vector<int64_t> NewCoords(Coords.size());
  std::vector<double> NewVals(Vals.size());
  size_t Kept = 0;
  for (size_t I : fibertreeOrder(Coords.data(), size(), Dims)) {
    const int64_t *C = coords(I);
    int64_t *Next = NewCoords.data() + Kept * N;
    if (Kept > 0) {
      const int64_t *Last = Next - N;
      unsigned M = 0;
      while (M < N && C[M] == Last[M])
        ++M;
      if (M == N) {
        NewVals[Kept - 1] = evalOp(Combine, NewVals[Kept - 1], Vals[I]);
        continue;
      }
    }
    for (unsigned M = 0; M < N; ++M)
      Next[M] = C[M];
    NewVals[Kept++] = Vals[I];
  }
  NewCoords.resize(Kept * N);
  NewVals.resize(Kept);
  Coords = std::move(NewCoords);
  Vals = std::move(NewVals);
}

} // namespace systec
