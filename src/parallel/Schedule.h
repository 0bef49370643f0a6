//===- parallel/Schedule.h - Iteration-space partitioning -----*- C++ -*-===//
///
/// \file
/// Chunking of parallel loops. A parallel loop's coordinate range
/// [Lo, Hi] is split into one contiguous chunk per thread; the thread
/// pool then assigns chunk indices to threads dynamically. The split is
/// a function of the loop alone (PlanLoop::makeChunks):
///
///  - Triangle-balanced: equal *work* for triangular nests. The
///    symmetry passes restrict iteration to the canonical triangle
///    (i1 <= i2 <= ... <= x), so the inner work under outer coordinate
///    x grows like x^d where d is the chain depth the parallelism
///    analysis records; equal coordinate blocks would give the last
///    thread ~d+1 times the mean load. Chunk bounds equalize the
///    cumulative weight sum instead.
///  - Static blocks: equal coordinate counts, which is what the
///    triangle-balanced split degenerates to at depth 0 (loops that are
///    not triangular).
///
/// Both are pure functions of (range, chunk count, depth): results
/// never depend on measured time or thread identity, which keeps
/// parallel execution reproducible run to run.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_PARALLEL_SCHEDULE_H
#define SYSTEC_PARALLEL_SCHEDULE_H

#include <cstdint>
#include <vector>

namespace systec {

/// One contiguous coordinate chunk (inclusive bounds).
struct ChunkRange {
  int64_t Lo;
  int64_t Hi;
};

/// Splits [Lo, Hi] into at most \p Chunks non-empty equal blocks.
std::vector<ChunkRange> staticBlocks(int64_t Lo, int64_t Hi,
                                     unsigned Chunks);

/// Splits [Lo, Hi] into at most \p Chunks blocks with equal cumulative
/// weight, where coordinate v weighs (v - Lo + 1)^d for \p TriDepth
/// d > 0 (work grows toward Hi) or (Hi - v + 1)^|d| for d < 0 (work
/// shrinks). d == 0 degenerates to static blocks.
std::vector<ChunkRange> triangleBalanced(int64_t Lo, int64_t Hi,
                                         unsigned Chunks, int TriDepth);

/// The weight of chunk [C.Lo, C.Hi] under the triangle model (used by
/// tests to assert balance).
double triangleWeight(const ChunkRange &C, int64_t Lo, int64_t Hi,
                      int TriDepth);

} // namespace systec

#endif // SYSTEC_PARALLEL_SCHEDULE_H
