//===- parallel/ParallelAnalysis.h - Loop parallelism analysis *- C++ -*-===//
///
/// \file
/// Decides whether the iterations of one loop can run concurrently and
/// how. The plan compiler (`setUpParallel`) asks at prepare, at
/// Threads > 1, for each loop it reaches: outermost first, and never
/// inside a loop it has already made parallel. The kernel IR carries
/// no parallel marking. A loop over x is parallelizable when every
/// write in its body falls into one of two classes:
///
///  - Disjoint: a tensor whose every assignment in the body carries x
///    in the target index set — different iterations touch different
///    elements, so threads write the shared output directly.
///  - Reduction: a tensor or scalar accumulated with one associative
///    reduction operator whose definition (for scalars) lies outside
///    the body — the runtime gives each task a privatized accumulator
///    initialized to the operator's identity and merges task results
///    in task order ("reduction privatization", cf. Bik et al.,
///    Compiler Support for Sparse Tensor Computations in MLIR).
///
/// Anything else — overwrites of shared elements, reads of a written
/// tensor, replication statements — blocks parallelization of that
/// loop (inner loops are still considered).
///
/// The analysis also classifies the workload shape: canonical-triangle
/// conditions (inner <= x chains produced by the symmetry passes) make
/// the work under x grow polynomially, which the contract records so
/// the scheduler can pick triangle-balanced partitioning.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_PARALLEL_PARALLELANALYSIS_H
#define SYSTEC_PARALLEL_PARALLELANALYSIS_H

#include "ir/Stmt.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace systec {

/// How one write target behaves under parallelization of a given loop.
enum class WriteClass {
  Disjoint,  ///< every write indexed by the loop variable
  Reduction, ///< privatize and merge with the recorded operator
};

/// The parallelization contract for one loop.
struct LoopParallelism {
  bool Safe = false;
  /// Tensor targets written in the body: name -> class; Reduction
  /// entries also appear in MergeOps.
  std::map<std::string, WriteClass> Tensors;
  /// Merge operator per privatized tensor target.
  std::map<std::string, OpKind> TensorMergeOps;
  /// Scalar slots accumulated in the body but defined outside it:
  /// name -> merge operator. (Scalars defined inside the body are
  /// iteration-private and need no treatment.)
  std::map<std::string, OpKind> ScalarMergeOps;
  /// Workload shape across the iteration space: 0 for uniform, +d when
  /// the inner work grows like v^d toward high coordinates (canonical
  /// triangle with a d-long chain below this loop), -d when it shrinks.
  /// Drives the triangle-balanced schedule.
  int TriangleDepth = 0;

  bool needsPrivatization() const {
    return !TensorMergeOps.empty() || !ScalarMergeOps.empty();
  }
};

/// Analyzes one Loop statement (kind must be Loop) in isolation: one
/// walk collects its body's facts, keyed by name ids, and classifies
/// them. An unsafe loop's contract is empty apart from Safe == false.
LoopParallelism analyzeLoopParallelism(const StmtPtr &Loop);

} // namespace systec

#endif // SYSTEC_PARALLEL_PARALLELANALYSIS_H
