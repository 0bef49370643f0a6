//===- ir/TreeIds.cpp -----------------------------------------*- C++ -*-===//

#include "ir/TreeIds.h"

#include "support/Error.h"

#include <algorithm>

namespace systec {

namespace {

/// Appends the ids of \p More that \p Out does not hold yet, in order.
void appendNew(std::vector<unsigned> &Out, const std::vector<unsigned> &More) {
  for (unsigned Id : More)
    if (std::find(Out.begin(), Out.end(), Id) == Out.end())
      Out.push_back(Id);
}

} // namespace

unsigned NameIds::intern(const std::string &Name) {
  auto [It, New] = Ids.emplace(Name, unsigned(Names.size()));
  if (New)
    Names.push_back(Name);
  return It->second;
}

std::optional<unsigned> NameIds::find(const std::string &Name) const {
  auto It = Ids.find(Name);
  if (It == Ids.end())
    return std::nullopt;
  return It->second;
}

void TreeIds::add(const StmtPtr &Root) { internStmt(*Root); }

void TreeIds::listLoopReads(const StmtPtr &Root) { recordLoopReads(*Root); }

unsigned TreeIds::node(const void *N) const {
  auto It = NodeIds.find(N);
  if (It == NodeIds.end())
    fatalError("tree ids: node outside the interned trees");
  return It->second;
}

void TreeIds::internExpr(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::Literal:
    return;
  case ExprKind::Scalar:
    NodeIds.emplace(&E, Scalars.intern(E.scalarName()));
    return;
  case ExprKind::Access: {
    if (NodeIds.count(&E))
      return; // a shared node, interned already
    Key.assign(1, Tensors.intern(E.tensorName()));
    for (const std::string &I : E.indices())
      Key.push_back(Indices.intern(I));
    auto It = AccessIndex.find(Key);
    if (It == AccessIndex.end()) {
      It = AccessIndex.emplace(Key, unsigned(Accesses.size())).first;
      Accesses.push_back(Key);
    }
    NodeIds.emplace(&E, It->second);
    return;
  }
  case ExprKind::Call:
    for (const ExprPtr &A : E.args())
      internExpr(*A);
    return;
  case ExprKind::Lut:
    for (const CmpAtom &B : E.lutBits()) {
      Indices.intern(B.Lhs);
      Indices.intern(B.Rhs);
    }
    return;
  }
  unreachable("unknown expression kind");
}

void TreeIds::internStmt(const Stmt &S) {
  switch (S.kind()) {
  case StmtKind::Block:
    for (const StmtPtr &C : S.stmts())
      internStmt(*C);
    return;
  case StmtKind::Loop:
    Indices.intern(S.loopIndex());
    internStmt(*S.body());
    return;
  case StmtKind::If:
    internStmt(*S.body());
    return;
  case StmtKind::Assign:
    internExpr(*S.lhs());
    internExpr(*S.rhs());
    return;
  case StmtKind::DefScalar:
    NodeIds.emplace(&S, Scalars.intern(S.scalarName()));
    internExpr(*S.rhs());
    return;
  case StmtKind::Replicate:
    return;
  }
  unreachable("unknown statement kind");
}

namespace {

/// Appends the accesses of \p E not in \p Out yet, in preorder.
void addExprReads(const TreeIds &Ids, const Expr &E,
                  std::vector<unsigned> &Out) {
  if (E.kind() == ExprKind::Access) {
    const unsigned Id = Ids.accessId(E);
    if (std::find(Out.begin(), Out.end(), Id) == Out.end())
      Out.push_back(Id);
  } else if (E.kind() == ExprKind::Call) {
    for (const ExprPtr &A : E.args())
      addExprReads(Ids, *A, Out);
  }
}

} // namespace

std::vector<unsigned> TreeIds::reads(const Stmt &S) const {
  std::vector<unsigned> Out;
  switch (S.kind()) {
  case StmtKind::Block:
    for (const StmtPtr &C : S.stmts())
      appendNew(Out, reads(*C));
    break;
  case StmtKind::Loop:
    if (auto It = LoopReads.find(&S); It != LoopReads.end())
      return It->second;
    return reads(*S.body());
  case StmtKind::If:
    return reads(*S.body());
  case StmtKind::Assign:
  case StmtKind::DefScalar:
    addExprReads(*this, *S.rhs(), Out);
    break;
  case StmtKind::Replicate:
    break;
  }
  return Out;
}

void TreeIds::recordLoopReads(const Stmt &S) {
  switch (S.kind()) {
  case StmtKind::Block:
    for (const StmtPtr &C : S.stmts())
      recordLoopReads(*C);
    return;
  case StmtKind::Loop:
    if (LoopReads.count(&S))
      return;
    recordLoopReads(*S.body());
    LoopReads.emplace(&S, reads(*S.body()));
    return;
  case StmtKind::If:
    recordLoopReads(*S.body());
    return;
  default:
    return;
  }
}

} // namespace systec
