//===- runtime/Annihilation.cpp - Walker soundness algebra ----*- C++ -*-===//

#include "runtime/Annihilation.h"

#include "ir/Ops.h"
#include "support/Error.h"

#include <cmath>
#include <optional>
#include <span>
#include <vector>

namespace systec {

namespace {

//===----------------------------------------------------------------------===//
// Algebraic analysis
//===----------------------------------------------------------------------===//

/// Abstract scalar value under the hypothesis: a known constant or
/// unknown (std::nullopt).
using AbsVal = std::optional<double>;

/// One scalar's abstract state: undefined until the walk meets its
/// first definition, then a value.
struct ScalarState {
  bool Defined = false;
  AbsVal V;
  bool operator==(const ScalarState &O) const {
    return Defined == O.Defined && V == O.V;
  }
};

/// Joins the state after a conditionally-executed region (\p A, which
/// evolved from \p B) with the fall-through state \p B: scalars whose
/// value changed across the region become unknown. A scalar first
/// defined inside the region keeps its value: the lowering defines
/// every block temporary before its reads and guards the reads with the
/// defining block's condition, so a read never observes the
/// never-defined fall-through path.
void joinInto(std::vector<ScalarState> &A, const std::vector<ScalarState> &B) {
  for (size_t I = 0; I < A.size(); ++I) {
    if (!A[I].Defined || !B[I].Defined)
      continue; // first definition: adopt the defined value
    if (!A[I].V || !B[I].V || *A[I].V != *B[I].V)
      A[I].V = std::nullopt;
  }
}

/// One annihilation query: walks the subtree in program order
/// maintaining abstract scalar state, and records a failure for every
/// assignment that is not provably a no-op under the hypothesis.
class AnnihilationQuery {
public:
  AnnihilationQuery(const TreeIds &Ids, unsigned Key, double Fill)
      : Ids(Ids), Key(Key), Fill(Fill), Scalars(Ids.scalarCount()) {}

  bool run(const StmtPtr &Body) {
    walk(Body);
    return !Failed;
  }

private:
  const TreeIds &Ids;
  unsigned Key;
  double Fill;
  bool Failed = false;
  std::vector<ScalarState> Scalars; // by scalar id
  std::vector<AbsVal> Operands;     // see eval(Call)

  /// A loop body walked without failing: the state the walk started
  /// from and the state it ended in.
  struct Walked {
    const Stmt *Body;
    std::vector<ScalarState> From, To;
  };
  /// A walk is a function of the state it starts from, and every pass of
  /// an enclosing loop's fixpoint re-walks the loops inside it, mostly
  /// from states seen before: when every level of a nest takes two
  /// passes, the innermost body is otherwise walked 2^depth times.
  std::vector<Walked> Memo;

  void walkBody(const StmtPtr &Body) {
    for (const Walked &W : Memo)
      if (W.Body == Body.get() && W.From == Scalars) {
        Scalars = W.To;
        return;
      }
    std::vector<ScalarState> From = Scalars;
    walk(Body);
    if (!Failed)
      Memo.push_back({Body.get(), std::move(From), Scalars});
  }

  /// The abstract value of \p Op applied to \p Args.
  static AbsVal fold(OpKind Op, std::span<const AbsVal> Args) {
    bool AllKnown = true;
    for (const AbsVal &A : Args)
      AllKnown &= A.has_value();
    if (AllKnown) {
      // evalOp folds left-to-right exactly like the expression VM, so
      // the folded constant is the value the runtime would compute.
      double Acc = *Args[0];
      for (size_t I = 1; I < Args.size(); ++I)
        Acc = evalOp(Op, Acc, *Args[I]);
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
      if (AbsVal F = opAbsorbingResult(Op, *A)) {
        if (Forced && *Forced != *F)
          return std::nullopt;
        Forced = F;
      }
    }
    return Forced;
  }

  AbsVal eval(const ExprPtr &E) {
    switch (E->kind()) {
    case ExprKind::Literal:
      return E->literalValue();
    case ExprKind::Scalar:
      return Scalars[Ids.scalarId(*E)].V;
    case ExprKind::Access:
      // The hypothesis binds exactly this access; any other access —
      // including other accesses of the same tensor — varies freely.
      return Ids.accessId(*E) == Key ? AbsVal(Fill) : std::nullopt;
    case ExprKind::Call: {
      // The operands' values wait on one stack while the call folds
      // them, so evaluating a call allocates nothing.
      const size_t Base = Operands.size();
      for (const ExprPtr &A : E->args()) {
        const AbsVal V = eval(A);
        Operands.push_back(V);
      }
      const AbsVal R =
          fold(E->op(), std::span<const AbsVal>(Operands).subspan(Base));
      Operands.resize(Base);
      return R;
    }
    case ExprKind::Lut:
      return std::nullopt;
    }
    unreachable("unknown expression kind");
  }

  void walk(const StmtPtr &S) {
    if (Failed)
      return; // the verdict is sticky; nothing later can clear it
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
        walkBody(S->body());
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
      Scalars[Ids.scalarId(*S)] = ScalarState{true, eval(S->rhs())};
      return;
    case StmtKind::Assign: {
      AbsVal V = eval(S->rhs());
      // A reduction by the operator's identity is a no-op at any
      // multiplicity; anything else — including plain overwrites, whose
      // effect on the destination is unknowable — fails the query.
      const bool NoOp =
          S->reduceOp() && V && *V == opInfo(*S->reduceOp()).Identity;
      if (!NoOp)
        Failed = true;
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

bool accessAnnihilatesSubtree(const StmtPtr &Body, const TreeIds &Ids,
                              unsigned AccessId, double Fill) {
  return AnnihilationQuery(Ids, AccessId, Fill).run(Body);
}

} // namespace systec
