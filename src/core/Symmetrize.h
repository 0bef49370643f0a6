//===- core/Symmetrize.h - Symmetrization stage ---------------*- C++ -*-===//
///
/// \file
/// The symmetrization stage (paper Section 4.1, Figures 3 and 5):
/// restrict iteration to the canonical triangle of every chain and, for
/// each equivalence group E, emit the unique triangular assignments that
/// reconstruct the full iteration space.
///
/// The enumeration works on normal forms: all products of chain
/// permutations are applied to the assignment and normalized; for each
/// equivalence group the forms are grouped into equality classes (forms
/// identical once equal indices are collapsed), each class receives
/// (sum of its member counts) / (stabilizer size) assignments, and those
/// are distributed round-robin over the class's distinct members. The
/// round-robin diversification is what turns the duplicated diagonal
/// assignments of Listing 6 into the shared-pattern diagonal blocks of
/// Listing 7 ("we may need to swap around a few indices in the blocks
/// accounting for the diagonals", Section 3.2.2).
///
/// Every form is an (output id, rhs id) pair in the kernel's FormTable
/// (core/Normalize.h): a permutation or an equality collapse is a
/// substitution over interned index names, applied while normalizing,
/// and raw forms and equality classes are bucketed by id pairs in hash
/// maps. Forms keep their first-seen order, so each block lists its
/// forms in the order the enumeration first meets them.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_CORE_SYMMETRIZE_H
#define SYSTEC_CORE_SYMMETRIZE_H

#include "core/SymKernel.h"

namespace systec {

/// Builds the symmetrized kernel for \p E under \p Analysis. The result
/// has one block per combination of per-chain equivalence groups,
/// guarded by exact equality patterns, with all assignments normalized.
SymKernel symmetrize(const Einsum &E, const SymmetryAnalysis &Analysis);

} // namespace systec

#endif // SYSTEC_CORE_SYMMETRIZE_H
