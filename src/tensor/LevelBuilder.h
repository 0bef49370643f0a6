//===- tensor/LevelBuilder.h - Streaming fibertree construction -*- C++ -*-===//
///
/// \file
/// The one way the tensor library builds level arrays from entries, and
/// the one sort that puts entries in the order it needs. Private to
/// src/tensor: Tensor::tryFromCoo and Tensor::transposed build through
/// LevelBuilder, and so does Tensor::splitDiagonal for formats with a
/// RunLength or Banded level (it filters Dense and Sparse levels
/// directly); Coo::sortAndCombine and Tensor::transposed order through
/// fibertreeOrder. Entries arrive in fibertree order, so every level is
/// built by appending (the level-format assembly of Chou et al.,
/// "Format Abstraction for Sparse Tensor Algebra Compilers").
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_TENSOR_LEVELBUILDER_H
#define SYSTEC_TENSOR_LEVELBUILDER_H

#include "tensor/Tensor.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace systec {

/// Builds one tensor from entries appended in fibertree order.
///
/// Cost: O(levels) per entry plus O(1) per parent position of each
/// compressed level (the Ptr/Off slots and fill runs of empty parents),
/// the same arrays the result holds; nothing else grows with a mode's
/// extent. The result is exactly the tensor a sort-then-group build of
/// the same entries gives:
///  - Dense: positions are parent * extent + coordinate; a Dense bottom
///    level starts filled with the fill value.
///  - Sparse: one Crd slot per distinct coordinate of a fiber.
///  - RunLength (bottom only): a fill run before each gap, one run per
///    entry, neighbours with equal values merged (the first value
///    kept), a fill run to the extent; an empty parent gets one fill
///    run.
///  - Banded: each parent's interval runs from its first coordinate to
///    one past its last; holes inside the band hold the fill value at
///    the bottom level and empty child fibers above it; an empty
///    parent gets the interval [0, 0).
class LevelBuilder {
public:
  /// \p Format must have one level per mode and RunLength only at the
  /// bottom (checkBuildFormat).
  LevelBuilder(std::vector<int64_t> Dims, TensorFormat Format, double Fill);

  /// Appends one entry; \p Coords holds its access-mode coordinates.
  /// Entries must arrive in strictly increasing fibertree order (last
  /// mode most significant, so no duplicates) with every coordinate
  /// inside its extent. A violation would index the level arrays out of
  /// bounds, so it aborts with fatalError in every build: a walk of a
  /// tensor that passes validate(Deep) and the output of
  /// Coo::sortAndCombine always satisfy it.
  void append(const int64_t *Coords, double Val);

  /// Closes every level for the trailing parents that received no
  /// entry and self-checks the result with validate(Shallow).
  Expected<Tensor> finish() &&;

private:
  /// Brings level \p L's arrays to cover parents [0, \p UpTo): closes
  /// the open fiber and gives every parent after it an empty fiber.
  void closeFibers(unsigned L, int64_t UpTo);
  /// Appends a RunLength run ending at \p End, merged into the open
  /// fiber's last run when the values are equal.
  void pushRun(Level &Lev, int64_t End, double Val);

  Tensor T;
  bool First = true;
  std::vector<int64_t> Prev;   ///< per level: the last entry's coordinate
  std::vector<int64_t> Pos;    ///< per level: the last entry's position
  std::vector<int64_t> Parent; ///< per level: the open fiber's parent, or -1
  int64_t NextC = 0; ///< RunLength: first coordinate the open fiber lacks
};

/// InvalidArgument unless \p Format has \p Order levels with RunLength
/// only at the bottom — the formats LevelBuilder can build.
[[nodiscard]] Status checkBuildFormat(unsigned Order,
                                      const TensorFormat &Format);

/// The permutation that puts \p Count entries in fibertree order (last
/// mode most significant). \p Coords holds each entry's access-mode
/// coordinates, Dims.size() per entry, each inside [0, Dims[m]).
///
/// A stable LSD radix sort: counting-sort passes over digits of at
/// most 16 bits, mode 0 (the bottom level) first, as many passes per
/// mode as its extent's bit width needs. Equal entries keep their input
/// order. A pass whose digits already ascend is skipped, so input
/// already sorted by a mode costs one read for it. Memory: the
/// permutation, a scratch copy and a digit array (O(Count)), plus one
/// counting table of at most 2^16 + 1 slots whatever the extents.
std::vector<size_t> fibertreeOrder(const int64_t *Coords, size_t Count,
                                   const std::vector<int64_t> &Dims);

} // namespace systec

#endif // SYSTEC_TENSOR_LEVELBUILDER_H
