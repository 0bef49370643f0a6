//===- runtime/Annihilation.cpp - Walker soundness algebra ----*- C++ -*-===//

#include "runtime/Annihilation.h"

#include "ir/Ops.h"
#include "support/Error.h"

#include <cmath>
#include <map>
#include <optional>
#include <vector>

namespace systec {

namespace {

//===----------------------------------------------------------------------===//
// Algebraic analysis
//===----------------------------------------------------------------------===//

/// Abstract scalar value under the hypothesis: a known constant or
/// unknown (std::nullopt).
using AbsVal = std::optional<double>;

/// Joins the state after a conditionally-executed region (\p A, which
/// evolved from \p B) with the fall-through state \p B: scalars whose
/// value changed across the region become unknown. A scalar first
/// defined inside the region keeps its value: the lowering defines
/// every block temporary before its reads and guards the reads with the
/// defining block's condition, so a read never observes the
/// never-defined fall-through path.
void joinInto(std::map<std::string, AbsVal> &A,
              const std::map<std::string, AbsVal> &B) {
  for (auto &[Name, V] : A) {
    auto It = B.find(Name);
    if (It == B.end())
      continue; // first definition: adopt the defined value
    if (!V || !It->second || *V != *It->second)
      V = std::nullopt;
  }
}

/// One annihilation query: walks the subtree in program order
/// maintaining abstract scalar state, and records a failure for every
/// assignment that is not provably a no-op under the hypothesis.
class AnnihilationQuery {
public:
  AnnihilationQuery(const std::string &Key, double Fill)
      : Key(Key), Fill(Fill) {}

  bool run(const StmtPtr &Body) {
    walk(Body);
    return !Failed;
  }

private:
  const std::string &Key;
  double Fill;
  bool Failed = false;
  std::map<std::string, AbsVal> Scalars;

  AbsVal eval(const ExprPtr &E) {
    switch (E->kind()) {
    case ExprKind::Literal:
      return E->literalValue();
    case ExprKind::Scalar: {
      auto It = Scalars.find(E->scalarName());
      return It == Scalars.end() ? std::nullopt : It->second;
    }
    case ExprKind::Access:
      // The hypothesis binds exactly this access; any other access —
      // including other accesses of the same tensor — varies freely.
      return E->str() == Key ? AbsVal(Fill) : std::nullopt;
    case ExprKind::Call: {
      std::vector<AbsVal> Args;
      bool AllKnown = true;
      for (const ExprPtr &A : E->args()) {
        Args.push_back(eval(A));
        AllKnown &= Args.back().has_value();
      }
      if (AllKnown) {
        // evalOp folds left-to-right exactly like the expression VM, so
        // the folded constant is the value the runtime would compute.
        double Acc = *Args[0];
        for (size_t I = 1; I < Args.size(); ++I)
          Acc = evalOp(E->op(), Acc, *Args[I]);
        if (std::isnan(Acc))
          return std::nullopt;
        return Acc;
      }
      // Per-operand absorption: a known operand that annihilates the
      // operator forces the whole call regardless of the unknown
      // co-operands. Two known operands forcing different results
      // (inf + -inf) stay unknown.
      AbsVal Forced;
      for (const AbsVal &A : Args) {
        if (!A)
          continue;
        if (std::isnan(*A))
          return std::nullopt;
        if (AbsVal F = opAbsorbingResult(E->op(), *A)) {
          if (Forced && *Forced != *F)
            return std::nullopt;
          Forced = F;
        }
      }
      return Forced;
    }
    case ExprKind::Lut:
      return std::nullopt;
    }
    unreachable("unknown expression kind");
  }

  void walk(const StmtPtr &S) {
    switch (S->kind()) {
    case StmtKind::Block:
      for (const StmtPtr &Child : S->stmts())
        walk(Child);
      return;
    case StmtKind::If: {
      // The branch may or may not execute: statements inside still need
      // to annihilate (guards only shrink the iteration set), and
      // definitions merge with the fall-through state afterwards.
      auto Before = Scalars;
      walk(S->body());
      joinInto(Scalars, Before);
      return;
    }
    case StmtKind::Loop: {
      // Iterate the body to a state fixpoint so loop-carried scalar
      // reads see the widened value. Failure verdicts are sticky and
      // monotone under widening (a constant degrading to unknown can
      // only turn no-ops into failures), so the final, stable pass
      // decides soundly. The lattice has height one per scalar, which
      // bounds the iteration; the cap is sheer paranoia.
      for (unsigned Pass = 0; Pass < 16; ++Pass) {
        auto Before = Scalars;
        walk(S->body());
        joinInto(Scalars, Before);
        if (Scalars == Before)
          break;
      }
      return;
    }
    case StmtKind::DefScalar:
      // Definitions are iteration-local temporaries (the lowering
      // defines every workspace before its reads): their stores are not
      // observable effects, only the value they feed to later reads.
      Scalars[S->scalarName()] = eval(S->rhs());
      return;
    case StmtKind::Assign: {
      AbsVal V = eval(S->rhs());
      // A reduction by the operator's identity is a no-op at any
      // multiplicity; anything else — including plain overwrites, whose
      // effect on the destination is unknowable — fails the query.
      const bool NoOp =
          S->reduceOp() && V && *V == opInfo(*S->reduceOp()).Identity;
      if (!NoOp) {
        Failed = true;
        if (S->lhs()->kind() == ExprKind::Scalar)
          Scalars[S->lhs()->scalarName()] = std::nullopt;
      }
      return;
    }
    case StmtKind::Replicate:
      Failed = true; // whole-tensor effect; never skippable
      return;
    }
    unreachable("unknown statement kind");
  }
};

} // namespace

bool accessAnnihilatesSubtree(const StmtPtr &Body,
                              const std::string &AccessKey, double Fill) {
  return AnnihilationQuery(AccessKey, Fill).run(Body);
}

} // namespace systec
