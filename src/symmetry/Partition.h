//===- symmetry/Partition.h - Index-set partitions ------------*- C++ -*-===//
///
/// \file
/// A partition of a tensor's mode names describing its (partial) symmetry
/// (paper Definition 2.2). A tensor T with partition Pi is invariant
/// under any permutation of modes that stays within a part of Pi.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_SYMMETRY_PARTITION_H
#define SYSTEC_SYMMETRY_PARTITION_H

#include <cstdint>
#include <string>
#include <vector>

namespace systec {

/// A partition of mode positions {0, ..., order-1}. Parts of size one
/// denote modes that do not participate in any symmetry; parts of size
/// >= 2 are symmetry groups (Definition 2.2).
class Partition {
public:
  Partition() = default;

  /// Builds a partition from explicit parts; validates disjointness and
  /// coverage of {0..Order-1}.
  Partition(unsigned Order, std::vector<std::vector<unsigned>> Parts);

  /// The trivial partition: every mode in its own part (no symmetry).
  static Partition none(unsigned Order);

  /// The full partition: all modes in one part (full symmetry,
  /// Definition 2.1).
  static Partition full(unsigned Order);

  /// Parses compact notation like "{0,1}{2}" or "{1,2,3}" over \p Order
  /// modes; unmentioned modes become singleton parts.
  static Partition parse(unsigned Order, const std::string &Text);

  unsigned order() const { return Order; }
  const std::vector<std::vector<unsigned>> &parts() const { return Parts; }

  /// Whether modes \p A and \p B are in the same part.
  bool samePart(unsigned A, unsigned B) const;

  /// The part index containing mode \p M.
  unsigned partOf(unsigned M) const;

  /// True if some part has size >= 2.
  bool hasSymmetry() const;

  /// True if there is exactly one part covering every mode.
  bool isFull() const;

  /// Number of permutations that fix the tensor: prod over parts of
  /// |part|!.
  uint64_t symmetryOrder() const;

  /// Canonicality of a coordinate tuple (Definition 2.3): within every
  /// part, coordinates must be non-decreasing in mode order.
  bool isCanonical(const std::vector<int64_t> &Coords) const;

  /// Sorts coordinates within each part to produce the canonical
  /// representative of \p Coords under this symmetry.
  std::vector<int64_t> canonicalize(const std::vector<int64_t> &Coords) const;

  /// True if any two modes in one part hold equal coordinates
  /// (Definition 2.4: the tuple lies on a diagonal of the symmetry).
  bool isOnDiagonal(const std::vector<int64_t> &Coords) const;

  /// Number of distinct tuples in the orbit of \p Coords under this
  /// symmetry (n!/m! accounting in Section 3.1).
  uint64_t orbitSize(const std::vector<int64_t> &Coords) const;

  std::string str() const;

  bool operator==(const Partition &Other) const {
    return Order == Other.Order && Parts == Other.Parts;
  }

private:
  unsigned Order = 0;
  std::vector<std::vector<unsigned>> Parts;
  std::vector<unsigned> PartIndex; // mode -> part
};

} // namespace systec

#endif // SYSTEC_SYMMETRY_PARTITION_H
