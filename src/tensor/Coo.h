//===- tensor/Coo.h - Coordinate-format tensor builder --------*- C++ -*-===//
///
/// \file
/// A flat coordinate-list (COO) staging buffer used to build the level
/// formats: Tensor::fromCoo sorts it with sortAndCombine and feeds the
/// one level builder (tensor/LevelBuilder.h) in that order. Each
/// entry's coordinates are stored contiguously, so million-entry
/// 5-dimensional tensors stay cheap to sort.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_TENSOR_COO_H
#define SYSTEC_TENSOR_COO_H

#include "ir/Ops.h"

#include <cstdint>
#include <vector>

namespace systec {

/// Coordinate-format staging storage for one tensor.
class Coo {
public:
  Coo(std::vector<int64_t> Dims);

  unsigned order() const { return static_cast<unsigned>(Dims.size()); }
  const std::vector<int64_t> &dims() const { return Dims; }
  size_t size() const { return Vals.size(); }

  /// Appends one entry; \p Coords has order() elements.
  void add(const std::vector<int64_t> &Coords, double Val);
  /// Pointer variant for hot loops (named distinctly so brace-initialized
  /// coordinate lists never bind to a null pointer).
  void addRaw(const int64_t *Coords, double Val);

  /// Coordinate \p Mode of entry \p I.
  int64_t coord(size_t I, unsigned Mode) const {
    return Coords[I * order() + Mode];
  }
  /// The order() coordinates of entry \p I, mode 0 first.
  const int64_t *coords(size_t I) const { return Coords.data() + I * order(); }
  double value(size_t I) const { return Vals[I]; }
  void setValue(size_t I, double Val) { Vals[I] = Val; }

  /// Sorts entries lexicographically with the *last* mode most
  /// significant (column-major / fibertree order) and combines
  /// duplicate coordinates with \p Combine.
  ///
  /// Duplicate rule: the sort is stable, so duplicates combine in
  /// insertion order, left to right: entries added as a, b, c at one
  /// coordinate store Combine(Combine(a, b), c). For Add that is the
  /// floating-point sum in that order (1e16, 1.0, -1e16 gives 0.0).
  ///
  /// Cost: a stable LSD radix sort (fibertreeOrder in
  /// tensor/LevelBuilder.h), O(size() * sum over modes of
  /// ceil(bit width of the extent / 16)), plus O(size()) extra memory
  /// and a counting table of at most 2^16 + 1 slots whatever the
  /// extents. Coordinates must lie inside dims(): add() asserts it and
  /// Tensor::tryFromCoo checks it before sorting.
  void sortAndCombine(OpKind Combine = OpKind::Add);

private:
  std::vector<int64_t> Dims;
  std::vector<int64_t> Coords; // order() coordinates per entry
  std::vector<double> Vals;
};

} // namespace systec

#endif // SYSTEC_TENSOR_COO_H
