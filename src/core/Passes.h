//===- core/Passes.h - Symmetry optimization passes -----------*- C++ -*-===//
///
/// \file
/// The transforms of paper Section 4.2, each as a standalone pass over
/// the structured SymKernel so they can be tested and ablated
/// individually:
///
///   4.2.1 Common tensor access elimination   passCommonAccessElimination
///   4.2.2 Restrict output to canonical       passVisibleOutputRestriction
///   4.2.3 Concordize tensors                 (lowering; SymKernel flag)
///   4.2.4 Consolidate conditional blocks     passConsolidateBlocks
///   4.2.5 Simplicial lookup table            passSimplicialLut
///   4.2.6 Group assignments across branches  passGroupAcrossBranches
///   4.2.7 Distributive assignment grouping   passDistributiveGrouping
///   4.2.8 Workspace transformation           (lowering; SymKernel flag)
///   4.2.9 Diagonal splitting                 (lowering; SymKernel flag)
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_CORE_PASSES_H
#define SYSTEC_CORE_PASSES_H

#include "core/SymKernel.h"

namespace systec {

/// Pipeline configuration; each switch disables one transform for
/// ablation studies.
struct PipelineOptions {
  bool VisibleOutputRestriction = true;
  bool DistributiveGrouping = true;
  bool CommonAccessElimination = true;
  bool ConsolidateBlocks = true;
  bool GroupAcrossBranches = true;
  bool SimplicialLut = true;
  bool DiagonalSplit = true;
  bool Concordize = true;
  bool Workspace = true;
};

/// Keeps only assignments writing the canonical triangle of a
/// symmetric output and schedules the replication epilogue
/// (paper 4.2.2 / Listing 3).
void passVisibleOutputRestriction(SymKernel &SK);

/// Merges duplicate assignments within each block into one assignment
/// with a multiplicity (paper 4.2.7 / Listing 5).
void passDistributiveGrouping(SymKernel &SK);

/// Hoists repeated tensor reads into scalar temporaries
/// (paper 4.2.1; also Listing 7's `A = A_nondiag[i,k,l]`).
void passCommonAccessElimination(SymKernel &SK);

/// Merges blocks with identical assignments by unioning their
/// conditions (paper 4.2.4).
void passConsolidateBlocks(SymKernel &SK);

/// Extracts assignments shared by several blocks into a block guarded
/// by the union of the conditions (paper 4.2.6). When
/// \p AcrossDiagonal is false, only blocks on the same side of the
/// diagonal split participate (so the split lowering can still separate
/// the nests).
void passGroupAcrossBranches(SymKernel &SK, bool AcrossDiagonal = false);

/// Merges blocks whose assignments differ only in constant factors,
/// selecting the factor at runtime from a lookup table indexed by the
/// equality pattern (paper 4.2.5).
void passSimplicialLut(SymKernel &SK);

/// Runs the configured passes in the standard order and records the
/// lowering flags (concordize / workspace / diagonal split).
void runPasses(SymKernel &SK, const PipelineOptions &Options);

} // namespace systec

#endif // SYSTEC_CORE_PASSES_H
