//===- core/SymKernel.h - Structured symmetrized kernel -------*- C++ -*-===//
///
/// \file
/// The structured intermediate the optimization passes (paper Section
/// 4.2) operate on: a guarded list of *blocks*, one per equivalence
/// group (Definition 4.1), each holding the normalized triangular
/// assignments to perform when that group's equality pattern holds. The
/// final lowering assembles the loop nest(s), placing the canonical
/// chain conditions at their binding loops and emitting the replication
/// epilogue, workspaces, transposes and diagonal splits.
///
/// Forms hold trees for lowering and display, but the front end
/// compares them by id: the kernel owns the FormTable (core/Normalize.h)
/// that symmetrize interned its forms in, and every pass buckets forms,
/// blocks and temporaries by tuples of that table's ids. A pass run on
/// a hand-built kernel gets a fresh table on first use.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_CORE_SYMKERNEL_H
#define SYSTEC_CORE_SYMKERNEL_H

#include "core/Analysis.h"
#include "ir/Kernel.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace systec {

class FormTable;

/// One triangular assignment inside a block.
struct FormStmt {
  ExprPtr Out;          ///< output access (normalized)
  ExprPtr Rhs;          ///< normalized right-hand side
  unsigned Mult = 1;    ///< duplicate count (invisible symmetry)
  ExprPtr Factor;       ///< optional runtime factor (lookup table)

  /// Display text for tests; passes compare forms by interned ids.
  std::string key() const { return Out->str() + " <- " + Rhs->str(); }
};

/// One conditional block: the exact equality/inequality pattern over
/// the canonical chains, plus its assignments and hoisted temporaries.
struct SymBlock {
  /// Exact condition distinguishing this diagonal (DNF after
  /// consolidation).
  Cond Exact;
  /// The equivalence-group run pattern per chain (empty after blocks
  /// with different patterns are consolidated).
  std::vector<std::vector<unsigned>> Runs;
  /// Hoisted scalar temporaries (common tensor access elimination).
  std::vector<StmtPtr> Defs;
  /// Triangular assignments.
  std::vector<FormStmt> Forms;

  /// Whether no chain index equals another (the pure-triangle block).
  /// Stored at construction because consolidation erases Runs.
  bool OffDiag = false;

  bool isOffDiagonal() const { return OffDiag; }
};

/// The symmetrized kernel prior to lowering.
struct SymKernel {
  Einsum Source;
  SymmetryAnalysis Analysis;

  /// Canonical chain atoms p1 <= p2, p2 <= p3, ... across all chains.
  std::vector<CmpAtom> ChainAtoms;
  std::vector<SymBlock> Blocks;

  /// Output restriction state (visible output symmetry, paper 4.2.2).
  bool RestrictedOutput = false;

  /// Workspace insertion decisions (paper 4.2.8): block/form positions
  /// are resolved during lowering.
  bool UseWorkspaces = false;

  /// Diagonal splitting (paper 4.2.9): lower off-diagonal and diagonal
  /// blocks as separate loop nests over split tensors.
  bool SplitDiagonal = false;

  /// Concordization (paper 4.2.3): transpose inputs so accesses iterate
  /// in loop order.
  bool Concordize = false;

  /// The compilation's interned forms. Copies of the kernel share it;
  /// it is not thread-safe, so a kernel and its copies stay on one
  /// thread while passes run.
  std::shared_ptr<FormTable> Table;
  /// The table, created over Source and Analysis on first use.
  FormTable &forms();

  std::string str() const;
};

} // namespace systec

#endif // SYSTEC_CORE_SYMKERNEL_H
