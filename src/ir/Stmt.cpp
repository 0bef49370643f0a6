//===- ir/Stmt.cpp --------------------------------------------*- C++ -*-===//

#include "ir/Stmt.h"

#include "support/Error.h"

#include <cassert>
#include <sstream>

namespace systec {

StmtPtr Stmt::block(std::vector<StmtPtr> StmtsIn) {
  auto S = std::shared_ptr<Stmt>(new Stmt());
  S->Kind = StmtKind::Block;
  // Flatten nested blocks for stable printing and comparison.
  for (StmtPtr &Child : StmtsIn) {
    if (Child->kind() == StmtKind::Block)
      S->Stmts.insert(S->Stmts.end(), Child->stmts().begin(),
                      Child->stmts().end());
    else
      S->Stmts.push_back(std::move(Child));
  }
  return S;
}

StmtPtr Stmt::loop(std::string Index, StmtPtr Body) {
  assert(!Index.empty() && "loop needs an index");
  auto S = std::shared_ptr<Stmt>(new Stmt());
  S->Kind = StmtKind::Loop;
  S->Index = std::move(Index);
  S->Body = std::move(Body);
  return S;
}

StmtPtr Stmt::loops(const std::vector<std::string> &Indices, StmtPtr Body) {
  StmtPtr S = std::move(Body);
  for (auto It = Indices.rbegin(); It != Indices.rend(); ++It)
    S = loop(*It, S);
  return S;
}

StmtPtr Stmt::ifThen(Cond Condition, StmtPtr Body) {
  auto S = std::shared_ptr<Stmt>(new Stmt());
  S->Kind = StmtKind::If;
  S->Condition = std::move(Condition);
  S->Body = std::move(Body);
  return S;
}

StmtPtr Stmt::assign(ExprPtr Lhs, std::optional<OpKind> ReduceOp, ExprPtr Rhs,
                     unsigned Multiplicity) {
  assert((Lhs->kind() == ExprKind::Access ||
          Lhs->kind() == ExprKind::Scalar) &&
         "assignment target must be an access or scalar");
  assert(Multiplicity >= 1 && "assignments have positive multiplicity");
  auto S = std::shared_ptr<Stmt>(new Stmt());
  S->Kind = StmtKind::Assign;
  S->Lhs = std::move(Lhs);
  S->ReduceOp = ReduceOp;
  S->Rhs = std::move(Rhs);
  S->Multiplicity = Multiplicity;
  return S;
}

StmtPtr Stmt::defScalar(std::string Name, ExprPtr Init) {
  assert(!Name.empty() && "scalar needs a name");
  auto S = std::shared_ptr<Stmt>(new Stmt());
  S->Kind = StmtKind::DefScalar;
  S->Index = std::move(Name);
  S->Rhs = std::move(Init);
  return S;
}

StmtPtr Stmt::replicate(std::string Tensor, Partition OutputSymmetry) {
  assert(!Tensor.empty() && "replicate needs a tensor");
  auto S = std::shared_ptr<Stmt>(new Stmt());
  S->Kind = StmtKind::Replicate;
  S->Index = std::move(Tensor);
  S->OutputSym = std::move(OutputSymmetry);
  return S;
}

const std::vector<StmtPtr> &Stmt::stmts() const {
  assert(Kind == StmtKind::Block && "not a block");
  return Stmts;
}

const std::string &Stmt::loopIndex() const {
  assert(Kind == StmtKind::Loop && "not a loop");
  return Index;
}

const StmtPtr &Stmt::body() const {
  assert((Kind == StmtKind::Loop || Kind == StmtKind::If) &&
         "statement has no body");
  return Body;
}

const Cond &Stmt::condition() const {
  assert(Kind == StmtKind::If && "not an if");
  return Condition;
}

const ExprPtr &Stmt::lhs() const {
  assert(Kind == StmtKind::Assign && "not an assignment");
  return Lhs;
}

std::optional<OpKind> Stmt::reduceOp() const {
  assert(Kind == StmtKind::Assign && "not an assignment");
  return ReduceOp;
}

const ExprPtr &Stmt::rhs() const {
  assert((Kind == StmtKind::Assign || Kind == StmtKind::DefScalar) &&
         "statement has no rhs");
  return Rhs;
}

unsigned Stmt::multiplicity() const {
  assert(Kind == StmtKind::Assign && "not an assignment");
  return Multiplicity;
}

const std::string &Stmt::scalarName() const {
  assert(Kind == StmtKind::DefScalar && "not a scalar definition");
  return Index;
}

const ExprPtr &Stmt::init() const {
  assert(Kind == StmtKind::DefScalar && "not a scalar definition");
  return Rhs;
}

const std::string &Stmt::tensorName() const {
  assert(Kind == StmtKind::Replicate && "not a replicate");
  return Index;
}

const Partition &Stmt::outputSymmetry() const {
  assert(Kind == StmtKind::Replicate && "not a replicate");
  return OutputSym;
}

std::string Stmt::str(unsigned Indent) const {
  std::string Pad(2 * Indent, ' ');
  std::ostringstream OS;
  switch (Kind) {
  case StmtKind::Block:
    for (const StmtPtr &S : Stmts)
      OS << S->str(Indent);
    return OS.str();
  case StmtKind::Loop: {
    // Collapse consecutive loops into one "for a=_, b=_" header like the
    // paper's listings.
    std::vector<std::string> Chain;
    const Stmt *Cur = this;
    while (Cur->Kind == StmtKind::Loop) {
      Chain.push_back(Cur->Index);
      if (Cur->Body->Kind != StmtKind::Loop)
        break;
      Cur = Cur->Body.get();
    }
    OS << Pad << "for ";
    for (size_t I = 0; I < Chain.size(); ++I) {
      if (I)
        OS << ", ";
      OS << Chain[I] << "=_";
    }
    OS << "\n" << Cur->Body->str(Indent + 1);
    return OS.str();
  }
  case StmtKind::If:
    OS << Pad << "if " << Condition.str() << "\n" << Body->str(Indent + 1);
    return OS.str();
  case StmtKind::Assign: {
    OS << Pad << Lhs->str() << " ";
    if (ReduceOp) {
      const OpInfo &Info = opInfo(*ReduceOp);
      if (*ReduceOp == OpKind::Add)
        OS << "+=";
      else if (*ReduceOp == OpKind::Mul)
        OS << "*=";
      else
        OS << Info.Name << "=";
    } else {
      OS << "=";
    }
    OS << " ";
    if (Multiplicity != 1)
      OS << Multiplicity << " * ";
    OS << Rhs->str() << "\n";
    return OS.str();
  }
  case StmtKind::DefScalar:
    OS << Pad << Index << " = " << Rhs->str() << "\n";
    return OS.str();
  case StmtKind::Replicate:
    OS << Pad << "replicate " << Index << " over " << OutputSym.str()
       << "\n";
    return OS.str();
  }
  unreachable("unknown statement kind");
}

bool Stmt::equal(const StmtPtr &A, const StmtPtr &B) {
  if (A.get() == B.get())
    return true;
  if (A->Kind != B->Kind)
    return false;
  switch (A->Kind) {
  case StmtKind::Block: {
    if (A->Stmts.size() != B->Stmts.size())
      return false;
    for (size_t I = 0; I < A->Stmts.size(); ++I)
      if (!equal(A->Stmts[I], B->Stmts[I]))
        return false;
    return true;
  }
  case StmtKind::Loop:
    return A->Index == B->Index && equal(A->Body, B->Body);
  case StmtKind::If:
    return A->Condition == B->Condition && equal(A->Body, B->Body);
  case StmtKind::Assign:
    return Expr::equal(A->Lhs, B->Lhs) && A->ReduceOp == B->ReduceOp &&
           A->Multiplicity == B->Multiplicity && Expr::equal(A->Rhs, B->Rhs);
  case StmtKind::DefScalar:
    return A->Index == B->Index && Expr::equal(A->Rhs, B->Rhs);
  case StmtKind::Replicate:
    return A->Index == B->Index && A->OutputSym == B->OutputSym;
  }
  unreachable("unknown statement kind");
}

StmtPtr Stmt::renameIndices(
    const StmtPtr &S,
    const std::function<std::string(const std::string &)> &Map) {
  switch (S->Kind) {
  case StmtKind::Block: {
    std::vector<StmtPtr> NewStmts;
    for (const StmtPtr &Child : S->Stmts)
      NewStmts.push_back(renameIndices(Child, Map));
    return block(std::move(NewStmts));
  }
  case StmtKind::Loop:
    return loop(Map(S->Index), renameIndices(S->Body, Map));
  case StmtKind::If:
    return ifThen(S->Condition.renamed(Map), renameIndices(S->Body, Map));
  case StmtKind::Assign:
    return assign(Expr::renameIndices(S->Lhs, Map), S->ReduceOp,
                  Expr::renameIndices(S->Rhs, Map), S->Multiplicity);
  case StmtKind::DefScalar:
    return defScalar(S->Index, Expr::renameIndices(S->Rhs, Map));
  case StmtKind::Replicate:
    return S;
  }
  unreachable("unknown statement kind");
}

StmtPtr Stmt::renameTensors(
    const StmtPtr &S,
    const std::function<std::string(const std::string &)> &Map) {
  switch (S->Kind) {
  case StmtKind::Block: {
    std::vector<StmtPtr> NewStmts;
    for (const StmtPtr &Child : S->Stmts)
      NewStmts.push_back(renameTensors(Child, Map));
    return block(std::move(NewStmts));
  }
  case StmtKind::Loop:
    return loop(S->Index, renameTensors(S->Body, Map));
  case StmtKind::If:
    return ifThen(S->Condition, renameTensors(S->Body, Map));
  case StmtKind::Assign:
    return assign(Expr::renameTensors(S->Lhs, Map), S->ReduceOp,
                  Expr::renameTensors(S->Rhs, Map), S->Multiplicity);
  case StmtKind::DefScalar:
    return defScalar(S->Index, Expr::renameTensors(S->Rhs, Map));
  case StmtKind::Replicate: {
    auto New = std::shared_ptr<Stmt>(new Stmt());
    New->Kind = StmtKind::Replicate;
    New->Index = Map(S->Index);
    New->OutputSym = S->OutputSym;
    return New;
  }
  }
  unreachable("unknown statement kind");
}

void Stmt::walk(const StmtPtr &S,
                const std::function<void(const StmtPtr &)> &Fn) {
  Fn(S);
  switch (S->Kind) {
  case StmtKind::Block:
    for (const StmtPtr &Child : S->Stmts)
      walk(Child, Fn);
    return;
  case StmtKind::Loop:
  case StmtKind::If:
    walk(S->Body, Fn);
    return;
  default:
    return;
  }
}

} // namespace systec
