//===- core/Lower.cpp -----------------------------------------*- C++ -*-===//

#include "core/Lower.h"

#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <sstream>

namespace systec {

namespace {

/// One pending workspace accumulator (paper 4.2.8).
struct Workspace {
  unsigned Depth;   ///< loop depth at which to init/flush
  std::string Name;
  ExprPtr Out;      ///< original output access
  OpKind Reduce;
};

std::map<std::string, int> loopDepths(const std::vector<std::string> &Order) {
  std::map<std::string, int> Depth;
  for (size_t D = 0; D < Order.size(); ++D)
    Depth[Order[D]] = static_cast<int>(D);
  return Depth;
}

/// Applies a tensor rename to an expression (identity when absent).
ExprPtr renameTensorsIn(const ExprPtr &E,
                        const std::map<std::string, std::string> &Map) {
  if (Map.empty())
    return E;
  return Expr::renameTensors(E, [&Map](const std::string &N) {
    auto It = Map.find(N);
    return It == Map.end() ? N : It->second;
  });
}

/// Builds one loop nest over \p Blocks.
///
/// \p Strict emits the chain conditions as strict inequalities and
/// omits block conditions equal to the full strict chain (the
/// off-diagonal nest after splitting).
StmtPtr buildNest(const SymKernel &SK,
                  const std::vector<const SymBlock *> &Blocks, bool Strict,
                  const std::map<std::string, std::string> &TensorRename,
                  unsigned &WsCounter) {
  const std::vector<std::string> &Order = SK.Source.LoopOrder;
  std::map<std::string, int> Depth = loopDepths(Order);
  const unsigned NLoops = static_cast<unsigned>(Order.size());

  // Chain atoms with this nest's strictness, indexed by the depth at
  // which both sides are bound.
  std::map<unsigned, std::vector<CmpAtom>> ReadyAt;
  std::vector<CmpAtom> AllChain;
  for (const CmpAtom &A : SK.ChainAtoms) {
    CmpAtom Atom = A;
    if (Strict)
      Atom.Kind = CmpKind::LT;
    auto DL = Depth.find(Atom.Lhs), DR = Depth.find(Atom.Rhs);
    if (DL == Depth.end() || DR == Depth.end())
      fatalError("chain index missing from loop order");
    ReadyAt[static_cast<unsigned>(std::max(DL->second, DR->second))]
        .push_back(Atom);
    AllChain.push_back(Atom);
  }
  const Cond FullStrict =
      AllChain.empty() ? Cond::always() : Cond::conj(AllChain);

  // Innermost statements: per-block guarded temporaries + assignments,
  // with workspace redirection. Temporaries whose indices are bound
  // before the innermost loops hoist out of them (Listing 7 reads
  // A_nondiag once per stored element, not once per rank column).
  std::vector<Workspace> Pending;
  std::map<unsigned, std::vector<StmtPtr>> PreAt;
  std::vector<StmtPtr> Inner;
  for (const SymBlock *B : Blocks) {
    const bool BlockCondOmitted =
        B->Exact.isAlways() || (Strict && B->Exact == FullStrict);
    std::vector<StmtPtr> Stmts;
    for (const StmtPtr &D : B->Defs) {
      StmtPtr Def = Stmt::renameTensors(D, [&](const std::string &N) {
        auto It = TensorRename.find(N);
        return It == TensorRename.end() ? N : It->second;
      });
      // Depth at which the init's indices and the guarding condition's
      // variables are all bound.
      unsigned DefDepth = 0;
      std::vector<std::string> Used;
      Expr::collectIndices(Def->init(), Used);
      if (!BlockCondOmitted)
        for (const Conj &Dj : B->Exact.disjuncts())
          for (const CmpAtom &A : Dj.Atoms) {
            Used.push_back(A.Lhs);
            Used.push_back(A.Rhs);
          }
      for (const std::string &I : Used) {
        auto It = Depth.find(I);
        if (It != Depth.end())
          DefDepth = std::max(DefDepth,
                              static_cast<unsigned>(It->second) + 1);
      }
      if (DefDepth < NLoops) {
        PreAt[DefDepth].push_back(
            BlockCondOmitted ? Def : Stmt::ifThen(B->Exact, Def));
      } else {
        Stmts.push_back(Def);
      }
    }
    for (const FormStmt &F : B->Forms) {
      ExprPtr Rhs = renameTensorsIn(F.Rhs, TensorRename);
      if (F.Factor)
        Rhs = Expr::call(OpKind::Mul, {F.Factor, Rhs});
      // Workspace decision: accumulate in a register when some loop
      // deeper than every output index exists.
      unsigned D = 0;
      for (const std::string &I : F.Out->indices()) {
        auto It = Depth.find(I);
        if (It != Depth.end())
          D = std::max(D, static_cast<unsigned>(It->second) + 1);
      }
      ExprPtr Target = F.Out;
      if (SK.UseWorkspaces && D < NLoops) {
        std::string Ws = "w_" + std::to_string(WsCounter++);
        Pending.push_back(Workspace{D, Ws, F.Out, SK.Source.ReduceOp});
        Target = Expr::scalar(Ws);
      }
      Stmts.push_back(
          Stmt::assign(Target, SK.Source.ReduceOp, Rhs, F.Mult));
    }
    StmtPtr Body = Stmt::block(std::move(Stmts));
    Inner.push_back(BlockCondOmitted ? Body
                                     : Stmt::ifThen(B->Exact, Body));
  }

  // Assemble loops outside-in.
  std::function<StmtPtr(unsigned)> Build = [&](unsigned D) -> StmtPtr {
    if (D == NLoops)
      return Stmt::block(Inner);
    StmtPtr Content = Build(D + 1);
    auto It = ReadyAt.find(D);
    if (It != ReadyAt.end())
      Content = Stmt::ifThen(Cond::conj(It->second), Content);
    StmtPtr LoopStmt = Stmt::loop(Order[D], Content);
    // Wrap with workspace init/flush and hoisted temporaries scheduled
    // at this depth.
    std::vector<StmtPtr> Wrapped;
    for (const Workspace &W : Pending)
      if (W.Depth == D)
        Wrapped.push_back(Stmt::defScalar(
            W.Name, Expr::lit(opInfo(W.Reduce).Identity)));
    auto PreIt = PreAt.find(D);
    if (PreIt != PreAt.end())
      for (const StmtPtr &S : PreIt->second)
        Wrapped.push_back(S);
    Wrapped.push_back(LoopStmt);
    for (const Workspace &W : Pending)
      if (W.Depth == D)
        Wrapped.push_back(
            Stmt::assign(W.Out, W.Reduce, Expr::scalar(W.Name)));
    return Wrapped.size() == 1 ? LoopStmt : Stmt::block(std::move(Wrapped));
  };
  return Build(0);
}

} // namespace

void concordizeKernel(Kernel &K) {
  std::map<std::string, int> Depth = loopDepths(K.LoopOrder);
  std::map<std::string, ExprPtr> Replacement; // access key -> new access
  std::set<std::string> AliasMade;

  auto FixAccess = [&](const ExprPtr &A) -> ExprPtr {
    const std::vector<std::string> &Idx = A->indices();
    const unsigned N = static_cast<unsigned>(Idx.size());
    if (N < 2)
      return A;
    auto Known = Replacement.find(A->str());
    if (Known != Replacement.end())
      return Known->second;
    // Concordant when depth decreases from mode 0 to mode n-1 (the last
    // mode is the top level and must bind outermost).
    std::set<std::string> Distinct(Idx.begin(), Idx.end());
    if (Distinct.size() != N)
      return A; // repeated index; cannot fix by transposition
    bool Concordant = true;
    for (unsigned M = 0; M + 1 < N; ++M) {
      auto DA = Depth.find(Idx[M]), DB = Depth.find(Idx[M + 1]);
      if (DA == Depth.end() || DB == Depth.end())
        return A; // free index (epilogue etc.); leave alone
      if (DA->second < DB->second)
        Concordant = false;
    }
    if (Concordant)
      return A;
    // Modes sorted by loop depth descending become the new mode order.
    std::vector<unsigned> Perm(N);
    for (unsigned M = 0; M < N; ++M)
      Perm[M] = M;
    std::sort(Perm.begin(), Perm.end(), [&](unsigned X, unsigned Y) {
      return Depth[Idx[X]] > Depth[Idx[Y]];
    });
    std::string Alias = A->tensorName() + "_T";
    if (N > 2 || Perm != std::vector<unsigned>{1, 0}) {
      Alias = A->tensorName() + "_p";
      for (unsigned M : Perm)
        Alias += std::to_string(M);
    }
    std::vector<std::string> NewIdx(N);
    for (unsigned M = 0; M < N; ++M)
      NewIdx[M] = Idx[Perm[M]];
    ExprPtr NewAccess = Expr::access(Alias, NewIdx);
    Replacement[A->str()] = NewAccess;
    if (AliasMade.insert(Alias).second) {
      K.Transposes.push_back(TransposeRequest{Alias, A->tensorName(), Perm});
      auto SrcDecl = K.Decls.find(A->tensorName());
      if (SrcDecl != K.Decls.end()) {
        TensorDecl D = SrcDecl->second;
        D.Name = Alias;
        D.Symmetry = Partition::none(N);
        D.IsOutput = false;
        K.Decls[Alias] = D;
      }
    }
    return NewAccess;
  };

  std::function<ExprPtr(const ExprPtr &)> FixExpr =
      [&](const ExprPtr &E) -> ExprPtr {
    if (E->kind() == ExprKind::Access)
      return FixAccess(E);
    if (E->kind() == ExprKind::Call) {
      std::vector<ExprPtr> Args;
      for (const ExprPtr &A : E->args())
        Args.push_back(FixExpr(A));
      return Expr::call(E->op(), std::move(Args));
    }
    return E;
  };

  std::function<StmtPtr(const StmtPtr &)> FixStmt =
      [&](const StmtPtr &S) -> StmtPtr {
    switch (S->kind()) {
    case StmtKind::Block: {
      std::vector<StmtPtr> Stmts;
      for (const StmtPtr &C : S->stmts())
        Stmts.push_back(FixStmt(C));
      return Stmt::block(std::move(Stmts));
    }
    case StmtKind::Loop:
      return Stmt::loop(S->loopIndex(), FixStmt(S->body()));
    case StmtKind::If:
      return Stmt::ifThen(S->condition(), FixStmt(S->body()));
    case StmtKind::Assign:
      return Stmt::assign(S->lhs(), S->reduceOp(), FixExpr(S->rhs()),
                          S->multiplicity());
    case StmtKind::DefScalar:
      return Stmt::defScalar(S->scalarName(), FixExpr(S->rhs()));
    case StmtKind::Replicate:
      return S;
    }
    unreachable("unknown statement kind");
  };

  K.Body = FixStmt(K.Body);
}

Kernel lowerNaive(const Einsum &E) {
  Kernel K;
  K.Name = E.Name + "_naive";
  K.Decls = E.Decls;
  K.LoopOrder = E.LoopOrder;
  K.ReduceOp = E.ReduceOp;
  K.OutputName = E.Output->tensorName();

  std::map<std::string, int> Depth = loopDepths(E.LoopOrder);
  unsigned D = 0;
  for (const std::string &I : E.Output->indices()) {
    auto It = Depth.find(I);
    if (It != Depth.end())
      D = std::max(D, static_cast<unsigned>(It->second) + 1);
  }
  const unsigned NLoops = static_cast<unsigned>(E.LoopOrder.size());
  if (D < NLoops) {
    // Accumulate in a register across the loops the output does not
    // index (e.g. the scalar output of SYPRD).
    std::vector<std::string> InnerLoops(E.LoopOrder.begin() + D,
                                        E.LoopOrder.end());
    std::vector<std::string> OuterLoops(E.LoopOrder.begin(),
                                        E.LoopOrder.begin() + D);
    StmtPtr Acc = Stmt::assign(Expr::scalar("w_0"), E.ReduceOp, E.Rhs);
    StmtPtr Nest = Stmt::block(
        {Stmt::defScalar("w_0", Expr::lit(opInfo(E.ReduceOp).Identity)),
         Stmt::loops(InnerLoops, Acc),
         Stmt::assign(E.Output, E.ReduceOp, Expr::scalar("w_0"))});
    K.Body = Stmt::loops(OuterLoops, Nest);
  } else {
    K.Body = Stmt::loops(E.LoopOrder,
                         Stmt::assign(E.Output, E.ReduceOp, E.Rhs));
  }
  concordizeKernel(K);
  return K;
}

Kernel lowerSymmetric(const SymKernel &SK) {
  Kernel K;
  K.Name = SK.Source.Name + "_systec";
  K.Decls = SK.Source.Decls;
  K.LoopOrder = SK.Source.LoopOrder;
  K.ReduceOp = SK.Source.ReduceOp;
  K.OutputName = SK.Source.Output->tensorName();

  std::vector<const SymBlock *> Off, Diag;
  for (const SymBlock &B : SK.Blocks)
    (B.isOffDiagonal() ? Off : Diag).push_back(&B);

  const bool Split =
      SK.SplitDiagonal && SK.Analysis.hasSymmetry() && !Diag.empty();

  unsigned WsCounter = 0;
  std::vector<StmtPtr> Nests;
  if (!Split) {
    std::vector<const SymBlock *> All;
    for (const SymBlock &B : SK.Blocks)
      All.push_back(&B);
    Nests.push_back(buildNest(SK, All, /*Strict=*/false, {}, WsCounter));
  } else {
    // Split each symmetric sparse input into off-diagonal and diagonal
    // parts (Listing 7's A_nondiag / A_diag).
    std::map<std::string, std::string> RenameOff, RenameDiag;
    for (const auto &[Name, Decl] : SK.Source.Decls) {
      if (Decl.IsOutput || !Decl.Symmetry.hasSymmetry() ||
          Decl.Format.isAllDense())
        continue;
      std::string OffName = Name + "_nondiag";
      std::string DiagName = Name + "_diag";
      RenameOff[Name] = OffName;
      RenameDiag[Name] = DiagName;
      K.Splits.push_back(SplitRequest{OffName, Name, false});
      K.Splits.push_back(SplitRequest{DiagName, Name, true});
      TensorDecl DOff = Decl;
      DOff.Name = OffName;
      DOff.IsOutput = false;
      K.Decls[OffName] = DOff;
      TensorDecl DDiag = Decl;
      DDiag.Name = DiagName;
      DDiag.IsOutput = false;
      K.Decls[DiagName] = DDiag;
    }
    if (!Off.empty())
      Nests.push_back(
          buildNest(SK, Off, /*Strict=*/true, RenameOff, WsCounter));
    Nests.push_back(
        buildNest(SK, Diag, /*Strict=*/false, RenameDiag, WsCounter));
  }
  K.Body = Stmt::block(std::move(Nests));

  if (SK.RestrictedOutput)
    K.Epilogue =
        Stmt::replicate(K.OutputName, SK.Analysis.OutputSymmetry);
  if (SK.Concordize)
    concordizeKernel(K);
  return K;
}

} // namespace systec
