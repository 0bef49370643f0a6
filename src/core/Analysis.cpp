//===- core/Analysis.cpp --------------------------------------*- C++ -*-===//

#include "core/Analysis.h"

#include "core/Normalize.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>
#include <sstream>

namespace systec {

namespace {

/// Plain union-find over index names.
class NameUnion {
public:
  void ensure(const std::string &Name) {
    Parent.insert({Name, Name});
  }

  std::string find(const std::string &Name) {
    ensure(Name);
    std::string Cur = Name;
    while (Parent[Cur] != Cur)
      Cur = Parent[Cur];
    Parent[Name] = Cur;
    return Cur;
  }

  void unite(const std::string &A, const std::string &B) {
    Parent[find(A)] = find(B);
  }

  std::map<std::string, std::vector<std::string>> components() {
    std::map<std::string, std::vector<std::string>> Out;
    for (const auto &[Name, _] : Parent)
      Out[find(Name)].push_back(Name);
    return Out;
  }

private:
  std::map<std::string, std::string> Parent;
};

} // namespace

std::string SymmetryAnalysis::str() const {
  std::ostringstream OS;
  OS << "chains:";
  if (Chains.empty())
    OS << " (none)";
  for (const Chain &C : Chains)
    OS << " [" << join(C.Names, " <= ") << "]";
  OS << "; output symmetry: " << OutputSymmetry.str();
  return OS.str();
}

SymmetryAnalysis analyzeSymmetry(const Einsum &E) {
  SymmetryAnalysis Result;

  std::map<std::string, int> Depth;
  for (size_t D = 0; D < E.LoopOrder.size(); ++D)
    Depth[E.LoopOrder[D]] = static_cast<int>(D);

  NameUnion Union;
  std::set<std::string> FromInputs;

  // Stage 1 (paper 4.1): indices in symmetric parts of input tensors.
  std::vector<ExprPtr> Accesses;
  Expr::collectAccesses(E.Rhs, Accesses);
  for (const ExprPtr &A : Accesses) {
    auto DeclIt = E.Decls.find(A->tensorName());
    if (DeclIt == E.Decls.end())
      continue;
    const Partition &Sym = DeclIt->second.Symmetry;
    if (!Sym.hasSymmetry())
      continue;
    for (const std::vector<unsigned> &Part : Sym.parts()) {
      if (Part.size() < 2)
        continue;
      std::vector<std::string> Names;
      for (unsigned M : Part)
        Names.push_back(A->indices()[M]);
      std::set<std::string> Distinct(Names.begin(), Names.end());
      if (Distinct.size() != Names.size())
        continue; // degenerate diagonal access; nothing to permute
      for (size_t I = 1; I < Names.size(); ++I)
        Union.unite(Names[0], Names[I]);
      FromInputs.insert(Names.begin(), Names.end());
    }
  }

  // Rhs-invariance chains: index pairs under which the normalized rhs
  // is unchanged (visible output symmetry like SSYRK, and invisible
  // contraction symmetry with asymmetric inputs).
  FormTable Pre(E, {});
  const FormTable::Id Rhs = Pre.intern(E.Rhs);
  const FormTable::Id RhsNorm = Pre.normalize(Rhs);
  std::vector<std::string> All = E.allIndices();
  for (size_t I = 0; I < All.size(); ++I) {
    for (size_t J = I + 1; J < All.size(); ++J) {
      const std::string &A = All[I], &B = All[J];
      if (FromInputs.count(A) || FromInputs.count(B))
        continue; // already covered by an input symmetry chain
      const FormTable::Id NA = Pre.name(A), NB = Pre.name(B);
      if (Pre.normalize(Rhs, Pre.substitution({{NA, NB}, {NB, NA}})) ==
          RhsNorm)
        Union.unite(A, B);
    }
  }

  // Build chains: one per component of size >= 2, ordered innermost
  // loop first (so p1 <= ... <= pn nests concordantly).
  for (auto &[Root, Names] : Union.components()) {
    (void)Root;
    if (Names.size() < 2)
      continue;
    for (const std::string &N : Names)
      if (!Depth.count(N))
        fatalError("permutable index " + N + " missing from loop order");
    std::sort(Names.begin(), Names.end(),
              [&Depth](const std::string &X, const std::string &Y) {
                return Depth[X] > Depth[Y];
              });
    Chain C;
    C.Names = Names;
    Result.Chains.push_back(std::move(C));
  }
  // Deterministic chain order: by first name's loop depth.
  std::sort(Result.Chains.begin(), Result.Chains.end(),
            [&Depth](const Chain &X, const Chain &Y) {
              return Depth[X.Names[0]] < Depth[Y.Names[0]];
            });

  for (unsigned CI = 0; CI < Result.Chains.size(); ++CI) {
    const Chain &C = Result.Chains[CI];
    for (unsigned P = 0; P < C.Names.size(); ++P) {
      Result.IndexRank[C.Names[P]] = static_cast<int>(P);
      Result.ChainOf[C.Names[P]] = CI;
    }
  }

  // Visible output symmetry: output positions are symmetric when their
  // names share a chain (so the canonical order is derivable) AND the
  // rhs is invariant under swapping them. Chain co-membership alone is
  // not enough: in O[d,c,b] += A[d,c,b] * B[b] all three names share
  // A's chain, but swapping b with c changes B's operand, so only the
  // first two output positions are symmetric.
  const std::vector<std::string> &Outs = E.outputIndices();
  FormTable Post(E, Result.IndexRank);
  const FormTable::Id PostRhs = Post.intern(E.Rhs);
  const FormTable::Id PostRhsNorm = Post.normalize(PostRhs);
  std::vector<unsigned> PartOf(Outs.size());
  for (unsigned P = 0; P < Outs.size(); ++P)
    PartOf[P] = P;
  for (unsigned P = 0; P < Outs.size(); ++P) {
    for (unsigned Q = P + 1; Q < Outs.size(); ++Q) {
      const std::string &A = Outs[P], &B = Outs[Q];
      auto CA = Result.ChainOf.find(A), CB = Result.ChainOf.find(B);
      if (CA == Result.ChainOf.end() || CB == Result.ChainOf.end() ||
          CA->second != CB->second)
        continue;
      const FormTable::Id NA = Post.name(A), NB = Post.name(B);
      if (Post.normalize(PostRhs, Post.substitution({{NA, NB}, {NB, NA}})) !=
          PostRhsNorm)
        continue;
      // Union the two positions' groups.
      unsigned Root = PartOf[P];
      for (unsigned K = 0; K < Outs.size(); ++K)
        if (PartOf[K] == PartOf[Q])
          PartOf[K] = Root;
    }
  }
  std::map<unsigned, std::vector<unsigned>> Groups;
  for (unsigned P = 0; P < Outs.size(); ++P)
    Groups[PartOf[P]].push_back(P);
  std::vector<std::vector<unsigned>> Parts;
  for (auto &[Root, Positions] : Groups) {
    (void)Root;
    Parts.push_back(Positions);
  }
  Result.OutputSymmetry =
      Partition(static_cast<unsigned>(Outs.size()), std::move(Parts));
  return Result;
}

} // namespace systec
