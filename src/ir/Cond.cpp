//===- ir/Cond.cpp --------------------------------------------*- C++ -*-===//

#include "ir/Cond.h"

#include "support/Error.h"

#include <algorithm>
#include <sstream>

namespace systec {

const char *cmpKindName(CmpKind Kind) {
  switch (Kind) {
  case CmpKind::LT:
    return "<";
  case CmpKind::LE:
    return "<=";
  case CmpKind::EQ:
    return "==";
  case CmpKind::NE:
    return "!=";
  case CmpKind::GT:
    return ">";
  case CmpKind::GE:
    return ">=";
  }
  unreachable("unknown comparison kind");
}

bool evalCmp(CmpKind Kind, int64_t A, int64_t B) {
  switch (Kind) {
  case CmpKind::LT:
    return A < B;
  case CmpKind::LE:
    return A <= B;
  case CmpKind::EQ:
    return A == B;
  case CmpKind::NE:
    return A != B;
  case CmpKind::GT:
    return A > B;
  case CmpKind::GE:
    return A >= B;
  }
  unreachable("unknown comparison kind");
}

CmpKind swapCmp(CmpKind Kind) {
  switch (Kind) {
  case CmpKind::LT:
    return CmpKind::GT;
  case CmpKind::LE:
    return CmpKind::GE;
  case CmpKind::GT:
    return CmpKind::LT;
  case CmpKind::GE:
    return CmpKind::LE;
  case CmpKind::EQ:
  case CmpKind::NE:
    return Kind;
  }
  unreachable("unknown comparison kind");
}

CmpKind negateCmp(CmpKind Kind) {
  switch (Kind) {
  case CmpKind::LT:
    return CmpKind::GE;
  case CmpKind::LE:
    return CmpKind::GT;
  case CmpKind::EQ:
    return CmpKind::NE;
  case CmpKind::NE:
    return CmpKind::EQ;
  case CmpKind::GT:
    return CmpKind::LE;
  case CmpKind::GE:
    return CmpKind::LT;
  }
  unreachable("unknown comparison kind");
}

std::string CmpAtom::str() const {
  return Lhs + " " + cmpKindName(Kind) + " " + Rhs;
}

std::string Conj::str() const {
  if (Atoms.empty())
    return "true";
  std::ostringstream OS;
  for (size_t I = 0; I < Atoms.size(); ++I) {
    if (I)
      OS << " && ";
    OS << Atoms[I].str();
  }
  return OS.str();
}

Cond Cond::always() {
  Cond C;
  C.Disjuncts.push_back(Conj());
  return C;
}

Cond Cond::atom(CmpKind Kind, std::string Lhs, std::string Rhs) {
  Cond C;
  C.Disjuncts.push_back(Conj{{CmpAtom{Kind, std::move(Lhs), std::move(Rhs)}}});
  return C;
}

Cond Cond::conj(std::vector<CmpAtom> Atoms) {
  Cond C;
  C.Disjuncts.push_back(Conj{std::move(Atoms)});
  return C;
}

bool Cond::isAlways() const {
  for (const Conj &D : Disjuncts)
    if (D.Atoms.empty())
      return true;
  return false;
}

Cond Cond::withAtom(CmpKind Kind, const std::string &Lhs,
                    const std::string &Rhs) const {
  Cond C;
  for (const Conj &D : Disjuncts) {
    Conj NewD = D;
    NewD.Atoms.push_back(CmpAtom{Kind, Lhs, Rhs});
    C.Disjuncts.push_back(std::move(NewD));
  }
  return C;
}

Cond Cond::unionOf(Cond A, const Cond &B) {
  for (const Conj &D : B.Disjuncts) {
    if (std::find(A.Disjuncts.begin(), A.Disjuncts.end(), D) ==
        A.Disjuncts.end())
      A.Disjuncts.push_back(D);
  }
  return A;
}

bool Cond::eval(
    const std::function<int64_t(const std::string &)> &Env) const {
  for (const Conj &D : Disjuncts) {
    bool Ok = true;
    for (const CmpAtom &A : D.Atoms) {
      if (!evalCmp(A.Kind, Env(A.Lhs), Env(A.Rhs))) {
        Ok = false;
        break;
      }
    }
    if (Ok)
      return true;
  }
  return false;
}

Cond Cond::renamed(
    const std::function<std::string(const std::string &)> &Map) const {
  Cond C;
  for (const Conj &D : Disjuncts) {
    Conj NewD;
    for (const CmpAtom &A : D.Atoms)
      NewD.Atoms.push_back(CmpAtom{A.Kind, Map(A.Lhs), Map(A.Rhs)});
    C.Disjuncts.push_back(std::move(NewD));
  }
  return C;
}

Cond simplifyCond(const Cond &C) {
  // Deduplicate disjuncts: the union with `false` keeps each first
  // occurrence.
  const Cond Dedup = Cond::unionOf(Cond::never(), C);
  // Merge only when every disjunct is a single atom over one ordered
  // variable pair.
  if (Dedup.disjuncts().size() < 2)
    return Dedup;
  std::string Lhs, Rhs;
  bool Mergeable = true;
  bool SawLT = false, SawEQ = false, SawGT = false, SawLE = false,
       SawGE = false, SawNE = false;
  for (const Conj &D : Dedup.disjuncts()) {
    if (D.Atoms.size() != 1) {
      Mergeable = false;
      break;
    }
    CmpAtom A = D.Atoms[0];
    if (A.Rhs < A.Lhs) {
      std::swap(A.Lhs, A.Rhs);
      A.Kind = swapCmp(A.Kind);
    }
    if (Lhs.empty()) {
      Lhs = A.Lhs;
      Rhs = A.Rhs;
    } else if (Lhs != A.Lhs || Rhs != A.Rhs) {
      Mergeable = false;
      break;
    }
    switch (A.Kind) {
    case CmpKind::LT:
      SawLT = true;
      break;
    case CmpKind::EQ:
      SawEQ = true;
      break;
    case CmpKind::GT:
      SawGT = true;
      break;
    case CmpKind::LE:
      SawLE = true;
      break;
    case CmpKind::GE:
      SawGE = true;
      break;
    case CmpKind::NE:
      SawNE = true;
      break;
    }
  }
  if (!Mergeable)
    return Dedup;
  bool HasLT = SawLT || SawLE || SawNE;
  bool HasEQ = SawEQ || SawLE || SawGE;
  bool HasGT = SawGT || SawGE || SawNE;
  if (HasLT && HasEQ && HasGT)
    return Cond::always();
  if (HasLT && HasEQ)
    return Cond::atom(CmpKind::LE, Lhs, Rhs);
  if (HasGT && HasEQ)
    return Cond::atom(CmpKind::GE, Lhs, Rhs);
  if (HasLT && HasGT)
    return Cond::atom(CmpKind::NE, Lhs, Rhs);
  return Dedup;
}

std::string Cond::str() const {
  if (Disjuncts.empty())
    return "false";
  if (Disjuncts.size() == 1)
    return Disjuncts[0].str();
  std::ostringstream OS;
  for (size_t I = 0; I < Disjuncts.size(); ++I) {
    if (I)
      OS << " || ";
    OS << "(" << Disjuncts[I].str() << ")";
  }
  return OS.str();
}

} // namespace systec
