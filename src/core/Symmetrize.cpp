//===- core/Symmetrize.cpp ------------------------------------*- C++ -*-===//

#include "core/Symmetrize.h"

#include "core/Normalize.h"
#include "support/Error.h"
#include "symmetry/EquivalenceGroup.h"
#include "symmetry/Permutation.h"

#include <sstream>
#include <unordered_map>

namespace systec {

namespace {

/// Odometer over the cartesian product of per-chain choice counts.
class ProductCounter {
public:
  explicit ProductCounter(std::vector<size_t> Sizes)
      : Sizes(std::move(Sizes)), Digits(this->Sizes.size(), 0) {
    for (size_t S : this->Sizes)
      if (S == 0)
        Done = true;
  }

  bool done() const { return Done; }
  const std::vector<size_t> &digits() const { return Digits; }

  void advance() {
    for (size_t C = 0; C < Digits.size(); ++C) {
      if (++Digits[C] < Sizes[C])
        return;
      Digits[C] = 0;
    }
    Done = true;
  }

private:
  std::vector<size_t> Sizes;
  std::vector<size_t> Digits;
  bool Done = false;
};

/// A raw normalized form with its permutation count.
struct RawForm {
  FormTable::Id Out;
  FormTable::Id Rhs;
  unsigned Count = 0;
};

} // namespace

std::string SymKernel::str() const {
  std::ostringstream OS;
  OS << "symmetrized " << Source.Name << " (" << Analysis.str() << ")\n";
  OS << "chain condition: ";
  if (ChainAtoms.empty())
    OS << "true";
  for (size_t I = 0; I < ChainAtoms.size(); ++I) {
    if (I)
      OS << " && ";
    OS << ChainAtoms[I].str();
  }
  OS << "\n";
  for (const SymBlock &B : Blocks) {
    OS << "block if " << B.Exact.str() << "\n";
    for (const StmtPtr &D : B.Defs)
      OS << "  " << D->str(0);
    for (const FormStmt &F : B.Forms) {
      OS << "  " << F.Out->str() << " "
         << (Source.ReduceOp == OpKind::Add
                 ? "+="
                 : std::string(opInfo(Source.ReduceOp).Name) + "=")
         << " ";
      if (F.Mult != 1)
        OS << F.Mult << " * ";
      if (F.Factor)
        OS << F.Factor->str() << " * ";
      OS << F.Rhs->str() << "\n";
    }
  }
  return OS.str();
}

FormTable &SymKernel::forms() {
  if (!Table)
    Table = std::make_shared<FormTable>(Source, Analysis.IndexRank);
  return *Table;
}

SymKernel symmetrize(const Einsum &E, const SymmetryAnalysis &Analysis) {
  SymKernel SK;
  SK.Source = E;
  SK.Analysis = Analysis;
  FormTable &T = SK.forms();
  const FormTable::Id Out0 = T.intern(E.Output), Rhs0 = T.intern(E.Rhs);

  // Canonical chain conditions p1 <= ... <= pn.
  for (const Chain &C : Analysis.Chains)
    for (size_t P = 0; P + 1 < C.Names.size(); ++P)
      SK.ChainAtoms.push_back(
          CmpAtom{CmpKind::LE, C.Names[P], C.Names[P + 1]});

  if (Analysis.Chains.empty()) {
    SymBlock B;
    B.Exact = Cond::always();
    B.OffDiag = true;
    B.Forms.push_back(FormStmt{T.expr(T.normalize(Out0)),
                               T.expr(T.normalize(Rhs0)), 1, nullptr});
    SK.Blocks.push_back(std::move(B));
    return SK;
  }

  // A form, (output id, rhs id), packed into one hash key.
  auto Packed = [](FormTable::Id Out, FormTable::Id Rhs) {
    return (static_cast<uint64_t>(Out) << 32) | Rhs;
  };
  std::vector<std::vector<FormTable::Id>> ChainIds;
  for (const Chain &C : Analysis.Chains) {
    ChainIds.emplace_back();
    for (const std::string &N : C.Names)
      ChainIds.back().push_back(T.name(N));
  }

  // Enumerate all products of chain permutations, apply them to the
  // assignment, and bucket the normal forms with counts.
  std::vector<std::vector<Permutation>> ChainPerms;
  std::vector<size_t> PermCounts;
  for (const Chain &C : Analysis.Chains) {
    ChainPerms.push_back(
        allPermutations(static_cast<unsigned>(C.Names.size())));
    PermCounts.push_back(ChainPerms.back().size());
  }

  std::vector<RawForm> Raw;
  std::unordered_map<uint64_t, size_t> RawIdx;
  for (ProductCounter PC(PermCounts); !PC.done(); PC.advance()) {
    std::vector<std::pair<FormTable::Id, FormTable::Id>> Rename;
    for (size_t CI = 0; CI < ChainIds.size(); ++CI) {
      const std::vector<FormTable::Id> &C = ChainIds[CI];
      const Permutation &Sigma = ChainPerms[CI][PC.digits()[CI]];
      // Paper Figure 5: the loop tuple becomes sigma applied to the
      // names; index at chain position P is renamed to the name at
      // position Sigma[P].
      for (unsigned P = 0; P < C.size(); ++P)
        Rename.emplace_back(C[P], C[Sigma[P]]);
    }
    const unsigned S = T.substitution(Rename);
    const FormTable::Id Out = T.normalize(Out0, S);
    const FormTable::Id Rhs = T.normalize(Rhs0, S);
    auto [It, New] = RawIdx.try_emplace(Packed(Out, Rhs), Raw.size());
    if (New)
      Raw.push_back(RawForm{Out, Rhs, 1});
    else
      ++Raw[It->second].Count;
  }

  // One block per combination of per-chain equivalence groups.
  std::vector<std::vector<EquivalenceGroup>> ChainGroups;
  std::vector<size_t> GroupCounts;
  for (const Chain &C : Analysis.Chains) {
    ChainGroups.push_back(
        EquivalenceGroup::enumerate(static_cast<unsigned>(C.Names.size())));
    GroupCounts.push_back(ChainGroups.back().size());
  }

  for (ProductCounter GC(GroupCounts); !GC.done(); GC.advance()) {
    std::vector<const EquivalenceGroup *> Groups;
    for (size_t CI = 0; CI < Analysis.Chains.size(); ++CI)
      Groups.push_back(&ChainGroups[CI][GC.digits()[CI]]);

    // Stabilizer size: product of run factorials across chains.
    uint64_t Stab = 1;
    for (const EquivalenceGroup *G : Groups)
      for (unsigned Len : G->runs())
        for (uint64_t K = 2; K <= Len; ++K)
          Stab *= K;

    // Equality-collapse rename: each run's names map to the run's first
    // (representative) name.
    std::vector<std::pair<FormTable::Id, FormTable::Id>> Collapse;
    for (size_t CI = 0; CI < ChainIds.size(); ++CI) {
      const std::vector<FormTable::Id> &C = ChainIds[CI];
      const EquivalenceGroup *G = Groups[CI];
      for (unsigned R = 0; R < G->runs().size(); ++R) {
        auto [B, End] = G->runRange(R);
        for (unsigned P = B; P < End; ++P)
          Collapse.emplace_back(C[P], C[B]);
      }
    }
    const unsigned S = T.substitution(Collapse);

    // Group raw forms into equality classes under the collapse.
    std::unordered_map<uint64_t, size_t> ClassIdx;
    struct EqClass {
      std::vector<size_t> Members; // raw indices, in order
      uint64_t Total = 0;
    };
    std::vector<EqClass> Classes;
    for (size_t RI = 0; RI < Raw.size(); ++RI) {
      auto [It, New] = ClassIdx.try_emplace(
          Packed(T.normalize(Raw[RI].Out, S), T.normalize(Raw[RI].Rhs, S)),
          Classes.size());
      if (New)
        Classes.emplace_back();
      Classes[It->second].Members.push_back(RI);
      Classes[It->second].Total += Raw[RI].Count;
    }

    // Each class contributes Total / Stab assignments, distributed
    // round-robin over its distinct members (diversification).
    std::vector<unsigned> Emit(Raw.size(), 0);
    for (const EqClass &Cls : Classes) {
      if (Cls.Total % Stab != 0)
        fatalError("symmetrization: class count " +
                   std::to_string(Cls.Total) +
                   " not divisible by stabilizer " + std::to_string(Stab));
      uint64_t Need = Cls.Total / Stab;
      for (uint64_t K = 0; K < Need; ++K)
        ++Emit[Cls.Members[K % Cls.Members.size()]];
    }

    SymBlock Block;
    Block.OffDiag = true;
    for (size_t CI = 0; CI < Analysis.Chains.size(); ++CI) {
      Block.Runs.push_back(Groups[CI]->runs());
      if (!Groups[CI]->isOffDiagonal())
        Block.OffDiag = false;
    }
    // Exact condition: adjacent chain indices equal within runs,
    // strictly increasing across run boundaries.
    std::vector<CmpAtom> Atoms;
    for (size_t CI = 0; CI < Analysis.Chains.size(); ++CI) {
      const Chain &C = Analysis.Chains[CI];
      const EquivalenceGroup *G = Groups[CI];
      for (unsigned P = 0; P + 1 < C.Names.size(); ++P)
        Atoms.push_back(CmpAtom{G->sameRun(P, P + 1) ? CmpKind::EQ
                                                     : CmpKind::LT,
                                C.Names[P], C.Names[P + 1]});
    }
    Block.Exact = Atoms.empty() ? Cond::always() : Cond::conj(Atoms);

    for (size_t RI = 0; RI < Raw.size(); ++RI)
      if (Emit[RI])
        Block.Forms.push_back(FormStmt{T.expr(Raw[RI].Out),
                                       T.expr(Raw[RI].Rhs), Emit[RI],
                                       nullptr});
    SK.Blocks.push_back(std::move(Block));
  }
  return SK;
}

} // namespace systec
