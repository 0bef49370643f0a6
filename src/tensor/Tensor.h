//===- tensor/Tensor.h - Fibertree level-format tensors -------*- C++ -*-===//
///
/// \file
/// Sparse and structured tensors stored as a stack of per-mode levels
/// (the fibertree abstraction of Finch/TACO; paper Section 2.2). Like
/// Finch, storage is column-major: the *last* access mode is the top
/// level, so CSC is Dense(Sparse(Element)) for A[i,j] and 3-d CSF is
/// Dense(Sparse(Sparse(Element))).
///
/// Supported level kinds:
///  - Dense:     all coordinates present, positions computed.
///  - Sparse:    compressed coordinates (ptr/crd).
///  - RunLength: runs of equal values covering the full extent
///               (structured; bottom level only).
///  - Banded:    one contiguous coordinate interval per parent position
///               (covers banded and triangular structure).
///
/// Every tensor built from entries (fromCoo, transposed) comes out of
/// one streaming level builder (tensor/LevelBuilder.h), which appends
/// to each level as entries arrive in fibertree order. splitDiagonal
/// filters the level arrays of Dense and Sparse levels directly and
/// uses the builder only for RunLength and Banded formats.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_TENSOR_TENSOR_H
#define SYSTEC_TENSOR_TENSOR_H

#include "ir/Einsum.h"
#include "support/Status.h"
#include "symmetry/Partition.h"
#include "tensor/Coo.h"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace systec {

/// Storage for one fibertree level. Level L of an order-n tensor holds
/// access mode n-1-L. Child positions index the next level down (or the
/// value array at the bottom).
struct Level {
  LevelKind Kind = LevelKind::Dense;
  int64_t Dim = 0;

  // Sparse: child k in [Ptr[p], Ptr[p+1]) has coordinate Crd[k].
  std::vector<int64_t> Ptr;
  std::vector<int64_t> Crd;

  // RunLength: runs k in [Ptr[p], Ptr[p+1]); run k covers coordinates
  // [RunEnd[k-1] (or 0), RunEnd[k]). Runs tile [0, Dim).
  std::vector<int64_t> RunEnd;

  // Banded: coordinates [Lo[p], Hi[p]); child position Off[p]+(c-Lo[p]).
  std::vector<int64_t> Lo, Hi, Off;
};

/// How much of a tensor's structural integrity to check (see
/// Tensor::validate and docs/ROBUSTNESS.md for the exact invariants and
/// costs).
enum class ValidationLevel {
  None,    ///< no checks (the hot-path default)
  Shallow, ///< O(levels): array sizes and endpoint agreement
  Deep,    ///< O(nnz): full per-fiber scans plus NaN rejection
};

/// An immutable-shape, mutable-value tensor in a fibertree format.
class Tensor {
public:
  Tensor() = default;

  /// Builds from coordinate data (sorted/combined internally).
  /// \p Combine resolves duplicate coordinates, in insertion order (see
  /// Coo::sortAndCombine). Aborts on malformed input (format/order
  /// mismatch, out-of-range coordinates); use tryFromCoo for the
  /// recoverable path.
  static Tensor fromCoo(Coo Entries, TensorFormat Format, double Fill = 0.0,
                        OpKind Combine = OpKind::Add);

  /// Status-returning construction: rejects a format whose order does
  /// not match the coordinate order, RunLength levels above the bottom,
  /// and entries with coordinates outside the declared dims — with
  /// ErrCode::InvalidArgument — instead of aborting, then sorts the
  /// entries with Coo::sortAndCombine, streams them through the level
  /// builder and self-checks the result with validate(Shallow).
  static Expected<Tensor> tryFromCoo(Coo Entries, TensorFormat Format,
                                     double Fill = 0.0,
                                     OpKind Combine = OpKind::Add);

  /// An all-dense tensor filled with \p Fill (used for outputs,
  /// vectors, and oracle references).
  static Tensor dense(std::vector<int64_t> Dims, double Fill = 0.0);

  unsigned order() const { return static_cast<unsigned>(Dims.size()); }
  const std::vector<int64_t> &dims() const { return Dims; }
  int64_t dim(unsigned Mode) const { return Dims[Mode]; }
  const TensorFormat &format() const { return Format; }
  double fill() const { return Fill; }

  /// Access mode held by level \p L.
  unsigned modeOfLevel(unsigned L) const { return order() - 1 - L; }
  const Level &level(unsigned L) const { return Levels[L]; }

  /// Mutable level access. Exists for test harnesses (fault injection
  /// deliberately breaks the structural invariants that validate()
  /// checks); production code treats level structure as immutable.
  Level &mutableLevel(unsigned L) { return Levels[L]; }

  /// Checks the structural invariants of every level against the
  /// declared dims and format: Ptr monotone and in-bounds, Crd sorted
  /// and deduplicated per fiber and < the mode extent, RunLength runs
  /// tiling [0, Dim), Banded Lo/Hi/Off interval sanity, and the value
  /// array agreeing with the bottom level's position count. Shallow
  /// checks sizes and endpoints in O(levels); Deep scans every fiber in
  /// O(nnz) and additionally rejects NaN values (the semiring fold
  /// order is not NaN-clean). Returns ErrCode::InvalidTensor with a
  /// message naming the offending level.
  [[nodiscard]] Status validate(ValidationLevel VL) const;

  /// Number of stored values (explicit entries / positions at bottom).
  size_t storedCount() const { return Vals.size(); }
  double val(int64_t Pos) const { return Vals[Pos]; }
  const std::vector<double> &vals() const { return Vals; }
  std::vector<double> &vals() { return Vals; }

  /// Raw value-array base for fused micro-kernels. Stable after
  /// construction: level structure and value count never change for a
  /// live tensor, only the stored values themselves.
  const double *valsData() const { return Vals.data(); }
  double *valsData() { return Vals.data(); }

  /// Random access (walks the levels; missing coordinates yield fill).
  double at(const std::vector<int64_t> &Coords) const;

  /// Mutable access for all-dense tensors.
  double &denseRef(const std::vector<int64_t> &Coords);

  /// Resets every stored value to \p V.
  void setAllValues(double V);

  /// Descends one level: child position of coordinate \p C under parent
  /// position \p Pos, or -1 when the coordinate is not stored.
  int64_t locate(unsigned L, int64_t Pos, int64_t C) const;

  /// locate() for a Sparse or RunLength level with a movable cursor.
  /// \p CachedParent and \p CachedIdx persist between calls (initialize
  /// to -1/0): when the parent position repeats and coordinates arrive
  /// in ascending order — the common pattern under sorted loop nests —
  /// the search gallops forward from the previous result instead of
  /// bisecting the whole fiber (for RunLength, re-hitting the cached
  /// run is O(1)). Falls back to a full binary search on any other
  /// pattern, so results are always identical to locate().
  int64_t locateHinted(unsigned L, int64_t Pos, int64_t C,
                       int64_t &CachedParent, int64_t &CachedIdx) const;

  /// Iterates stored entries in fibertree order (last mode most
  /// significant): every coordinate of a Dense level and of a Banded
  /// interval, each stored Sparse coordinate, and each coordinate of a
  /// RunLength run. \p Fn receives access-mode coordinates. One
  /// iterative walk, O(1) per visited coordinate; toCoo, transposed and
  /// the RunLength and Banded splitDiagonal use the same walk.
  void forEach(
      const std::function<void(const std::vector<int64_t> &, double)> &Fn)
      const;

  /// Explicit entries as COO, in forEach order.
  Coo toCoo() const;

  /// Tensor with modes permuted (result mode m = source mode
  /// ModePerm[m]), in format \p NewFormat. Walks this tensor into the
  /// permuted coordinates, orders them with one stable counting-sort
  /// pass per level of the new format (bottom level first, 16-bit
  /// digits; a pass whose keys already ascend is skipped) and streams
  /// them through the level builder: O(visited coordinates * levels)
  /// time, O(visited coordinates) extra memory. Aborts on a format
  /// with RunLength above the bottom, and on a tensor whose fibers are
  /// out of order or out of range (which validate(Deep) rejects). Safe
  /// to call concurrently on one tensor: it shares no scratch.
  Tensor transposed(const std::vector<unsigned> &ModePerm,
                    const TensorFormat &NewFormat) const;

  /// Splits into (off-diagonal, diagonal) parts relative to \p Sym
  /// (paper 4.2.9 / Listing 7's A_nondiag and A_diag), both in this
  /// tensor's format. When every level is Dense or Sparse, the split is
  /// a filter over the level arrays (the level-format assembly of Chou
  /// et al.): one walk marks each stored position with the halves that
  /// hold an entry at or below it, deciding each pair of modes at the
  /// level that binds the deeper one, and each half is then copied
  /// level by level into arrays of exactly its size. O(stored
  /// positions) time and one byte of scratch per stored position,
  /// freed on return. RunLength and Banded formats feed one walk into
  /// two level builders instead. Either way each half passes
  /// validate(Shallow), and a tensor whose fibers are out of order or
  /// out of range (which validate(Deep) rejects) aborts. Safe to call
  /// concurrently on one tensor.
  std::pair<Tensor, Tensor> splitDiagonal(const Partition &Sym) const;

  /// Maximum absolute difference over the union of explicit entries of
  /// two same-shaped tensors (fill-extended).
  static double maxAbsDiff(const Tensor &A, const Tensor &B);

  /// One-line summary "2-d 100x100, 512 stored, Dense(Sparse(...))".
  std::string summary() const;

private:
  friend class LevelBuilder;

  std::vector<int64_t> Dims; // per access mode
  TensorFormat Format;       // per level, top first
  double Fill = 0.0;
  std::vector<Level> Levels; // top first
  std::vector<double> Vals;  // bottom positions
};

/// Copies the canonical triangle of an all-dense tensor to every
/// non-canonical coordinate under \p Sym (the replication
/// post-processing step of paper 4.2.2). Returns the number of copies,
/// which is the number of non-canonical cells.
///
/// Precondition, checked in every build (fatalError on violation):
/// checkReplicateTarget(T, Sym) holds.
///
/// Cost: one pass over the rows (tuples of modes 1..n-1) of the
/// column-major value array. Each row sorts the coordinates of every
/// part once, then copies its non-canonical cells, and only those, in
/// at most |part of mode 0| strided runs. Nothing is allocated per row
/// or per cell.
///
/// \p Threads > 1 splits mode 0 across the shared thread pool; every
/// non-canonical coordinate is written by exactly one task and
/// canonical sources are never written, so the result and the count
/// are the same for any thread count.
uint64_t replicateSymmetric(Tensor &T, const Partition &Sym,
                            unsigned Threads = 1);

/// Whether \p T can be replicated under \p Sym: \p T is all-dense,
/// the partition's order equals the tensor's, and the modes of each
/// part have equal extents. InvalidArgument, naming the broken rule,
/// otherwise.
[[nodiscard]] Status checkReplicateTarget(const Tensor &T,
                                          const Partition &Sym);

} // namespace systec

#endif // SYSTEC_TENSOR_TENSOR_H
