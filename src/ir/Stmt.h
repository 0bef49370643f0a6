//===- ir/Stmt.h - Statement trees ----------------------------*- C++ -*-===//
///
/// \file
/// Immutable statement trees for kernels: loop nests, conditional
/// blocks, reductions, scalar temporaries, and the symmetric-output
/// replication epilogue (paper 4.2.2). Statements print in a Finch-like
/// surface syntax (paper Figure 1) so generated kernels can be compared
/// against the paper's listings.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_IR_STMT_H
#define SYSTEC_IR_STMT_H

#include "ir/Expr.h"
#include "symmetry/Partition.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace systec {

class Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

/// Statement node kinds.
enum class StmtKind {
  Block,     ///< sequence of statements
  Loop,      ///< for i = _ : body
  If,        ///< if cond : body
  Assign,    ///< lhs op= rhs (or lhs = rhs)
  DefScalar, ///< scalar temporary definition
  Replicate, ///< copy canonical triangle of an output to all triangles
};

/// An immutable statement node.
class Stmt {
public:
  static StmtPtr block(std::vector<StmtPtr> Stmts);
  static StmtPtr loop(std::string Index, StmtPtr Body);
  /// Nested loops, outermost first.
  static StmtPtr loops(const std::vector<std::string> &Indices,
                       StmtPtr Body);
  static StmtPtr ifThen(Cond Condition, StmtPtr Body);
  /// Reduction `Lhs ReduceOp= Multiplicity x Rhs`; Lhs must be an Access
  /// or Scalar expression. A std::nullopt ReduceOp overwrites.
  static StmtPtr assign(ExprPtr Lhs, std::optional<OpKind> ReduceOp,
                        ExprPtr Rhs, unsigned Multiplicity = 1);
  static StmtPtr defScalar(std::string Name, ExprPtr Init);
  static StmtPtr replicate(std::string Tensor, Partition OutputSymmetry);

  StmtKind kind() const { return Kind; }

  // Block.
  const std::vector<StmtPtr> &stmts() const;
  // Loop.
  const std::string &loopIndex() const;
  const StmtPtr &body() const;
  // If.
  const Cond &condition() const;
  // Assign.
  const ExprPtr &lhs() const;
  std::optional<OpKind> reduceOp() const;
  const ExprPtr &rhs() const;
  unsigned multiplicity() const;
  // DefScalar.
  const std::string &scalarName() const;
  const ExprPtr &init() const;
  // Replicate.
  const std::string &tensorName() const;
  const Partition &outputSymmetry() const;

  /// Pretty-prints with \p Indent leading double-spaces per level.
  std::string str(unsigned Indent = 0) const;

  /// Structural equality.
  static bool equal(const StmtPtr &A, const StmtPtr &B);

  /// Renames index variables via simultaneous substitution (loop
  /// indices, conditions, accesses).
  static StmtPtr renameIndices(
      const StmtPtr &S,
      const std::function<std::string(const std::string &)> &Map);

  /// Renames tensors everywhere.
  static StmtPtr renameTensors(
      const StmtPtr &S,
      const std::function<std::string(const std::string &)> &Map);

  /// Visits all statements in preorder.
  static void walk(const StmtPtr &S,
                   const std::function<void(const StmtPtr &)> &Fn);

private:
  Stmt() = default;

  StmtKind Kind = StmtKind::Block;
  std::vector<StmtPtr> Stmts;     // Block
  std::string Index;              // Loop index / DefScalar name /
                                  // Replicate tensor
  StmtPtr Body;                   // Loop / If
  Cond Condition;                 // If
  ExprPtr Lhs, Rhs;               // Assign (Rhs also DefScalar init)
  std::optional<OpKind> ReduceOp; // Assign
  unsigned Multiplicity = 1;      // Assign
  Partition OutputSym;            // Replicate
};

} // namespace systec

#endif // SYSTEC_IR_STMT_H
