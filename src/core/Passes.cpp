//===- core/Passes.cpp ----------------------------------------*- C++ -*-===//

#include "core/Passes.h"

#include "core/Normalize.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <unordered_map>

namespace systec {

namespace {

using Id = FormTable::Id;
/// A signature: a tuple of interned ids, multiplicities and counts.
using IdTuple = std::vector<Id>;

/// Signature -> bucket number, numbered in first-seen order.
using Buckets = std::unordered_map<IdTuple, size_t, IdTupleHash>;

/// A form's identity as one word: its output and right-hand side.
uint64_t formKey(FormTable &T, const FormStmt &F) {
  return (static_cast<uint64_t>(T.intern(F.Out)) << 32) | T.intern(F.Rhs);
}

/// Appends a temporary's identity: its name and initializer.
void pushDef(FormTable &T, IdTuple &Sig, const StmtPtr &D) {
  Sig.push_back(T.name(D->scalarName()));
  Sig.push_back(T.intern(D->init()));
}

/// Appends a form's identity: output, right-hand side, multiplicity and
/// factor.
void pushForm(FormTable &T, IdTuple &Sig, const FormStmt &F) {
  Sig.push_back(T.intern(F.Out));
  Sig.push_back(T.intern(F.Rhs));
  Sig.push_back(F.Mult);
  Sig.push_back(F.Factor ? T.intern(F.Factor) : FormTable::None);
}

/// Stably orders new blocks by their signature's display text, the
/// order these passes have always emitted them in. Text is rendered
/// only when there are at least two blocks to order.
template <typename TextFn>
void orderByText(std::vector<size_t> &Order, TextFn Text) {
  if (Order.size() < 2)
    return;
  std::vector<std::pair<std::string, size_t>> Keyed;
  for (size_t I : Order)
    Keyed.emplace_back(Text(I), I);
  std::stable_sort(Keyed.begin(), Keyed.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = Keyed[I].second;
}

/// Whether two chained names are provably equal inside a block (same
/// run of the block's equivalence group).
bool sameRunInBlock(const SymKernel &SK, const SymBlock &B,
                    const std::string &A, const std::string &C) {
  auto ChA = SK.Analysis.ChainOf.find(A);
  auto ChC = SK.Analysis.ChainOf.find(C);
  if (ChA == SK.Analysis.ChainOf.end() || ChC == SK.Analysis.ChainOf.end())
    return false;
  if (ChA->second != ChC->second)
    return false;
  if (B.Runs.empty())
    return false;
  const std::vector<unsigned> &Runs = B.Runs[ChA->second];
  int PA = SK.Analysis.IndexRank.at(A);
  int PC = SK.Analysis.IndexRank.at(C);
  unsigned Pos = 0;
  for (unsigned Len : Runs) {
    bool HasA = PA >= static_cast<int>(Pos) &&
                PA < static_cast<int>(Pos + Len);
    bool HasC = PC >= static_cast<int>(Pos) &&
                PC < static_cast<int>(Pos + Len);
    if (HasA && HasC)
      return true;
    if (HasA || HasC)
      return false;
    Pos += Len;
  }
  return false;
}

/// Scalar names referenced by an expression.
void collectScalarRefs(const ExprPtr &E, std::set<std::string> &Out) {
  if (E->kind() == ExprKind::Scalar) {
    Out.insert(E->scalarName());
    return;
  }
  if (E->kind() == ExprKind::Call)
    for (const ExprPtr &A : E->args())
      collectScalarRefs(A, Out);
}

/// Drops temporaries no longer referenced by any form in the block.
void pruneUnusedDefs(SymBlock &B) {
  std::set<std::string> Used;
  for (const FormStmt &F : B.Forms)
    collectScalarRefs(F.Rhs, Used);
  // Defs may reference earlier defs.
  for (auto It = B.Defs.rbegin(); It != B.Defs.rend(); ++It)
    if (Used.count((*It)->scalarName()))
      collectScalarRefs((*It)->init(), Used);
  std::vector<StmtPtr> Kept;
  for (const StmtPtr &D : B.Defs)
    if (Used.count(D->scalarName()))
      Kept.push_back(D);
  B.Defs = std::move(Kept);
}

} // namespace

void passVisibleOutputRestriction(SymKernel &SK) {
  const Partition &OutSym = SK.Analysis.OutputSymmetry;
  if (!OutSym.hasSymmetry())
    return;
  for (SymBlock &B : SK.Blocks) {
    std::vector<FormStmt> Kept;
    for (const FormStmt &F : B.Forms) {
      bool Canonical = true;
      const std::vector<std::string> &Outs = F.Out->indices();
      for (const std::vector<unsigned> &Part : OutSym.parts()) {
        if (Part.size() < 2)
          continue;
        for (size_t I = 0; I + 1 < Part.size() && Canonical; ++I) {
          for (size_t J = I + 1; J < Part.size() && Canonical; ++J) {
            const std::string &NA = Outs[Part[I]];
            const std::string &NB = Outs[Part[J]];
            int RA = SK.Analysis.IndexRank.count(NA)
                         ? SK.Analysis.IndexRank.at(NA)
                         : -1;
            int RB = SK.Analysis.IndexRank.count(NB)
                         ? SK.Analysis.IndexRank.at(NB)
                         : -1;
            // Non-canonical when provably strictly descending: higher
            // chain rank first and not equal under this block's
            // equivalence pattern.
            if (RA > RB && !sameRunInBlock(SK, B, NA, NB))
              Canonical = false;
          }
        }
      }
      if (Canonical)
        Kept.push_back(F);
    }
    B.Forms = std::move(Kept);
  }
  SK.RestrictedOutput = true;
}

void passDistributiveGrouping(SymKernel &SK) {
  FormTable &T = SK.forms();
  for (SymBlock &B : SK.Blocks) {
    std::vector<FormStmt> Merged;
    std::unordered_map<uint64_t, size_t> Index;
    for (const FormStmt &F : B.Forms) {
      auto [It, New] = Index.try_emplace(formKey(T, F), Merged.size());
      if (New)
        Merged.push_back(F);
      else
        Merged[It->second].Mult += F.Mult;
    }
    B.Forms = std::move(Merged);
  }
}

void passCommonAccessElimination(SymKernel &SK) {
  FormTable &T = SK.forms();
  for (SymBlock &B : SK.Blocks) {
    // Count access occurrences across the block's assignments.
    std::vector<std::pair<ExprPtr, Id>> Order;
    std::unordered_map<Id, unsigned> Counts;
    for (const FormStmt &F : B.Forms) {
      std::vector<ExprPtr> Accesses;
      Expr::collectAccesses(F.Rhs, Accesses);
      for (const ExprPtr &A : Accesses) {
        const Id AI = T.intern(A);
        if (++Counts[AI] == 1)
          Order.emplace_back(A, AI);
      }
    }
    for (const auto &[A, AI] : Order) {
      if (Counts[AI] < 2)
        continue;
      std::string Temp = "t_" + A->tensorName();
      for (const std::string &I : A->indices())
        Temp += "_" + I;
      B.Defs.push_back(Stmt::defScalar(Temp, A));
      ExprPtr Ref = Expr::scalar(Temp);
      for (FormStmt &F : B.Forms)
        F.Rhs = Expr::replace(F.Rhs, A, Ref);
    }
  }
}

void passSimplicialLut(SymKernel &SK) {
  // Factor scaling is only meaningful for additive reductions.
  if (SK.Source.ReduceOp != OpKind::Add)
    return;
  // The lookup index bits: one equality test per chain adjacency.
  std::vector<CmpAtom> Bits;
  for (const Chain &C : SK.Analysis.Chains)
    for (size_t T = 0; T + 1 < C.Names.size(); ++T)
      Bits.push_back(CmpAtom{CmpKind::EQ, C.Names[T], C.Names[T + 1]});
  if (Bits.empty() || Bits.size() > 16)
    return;

  auto BlockMask = [&](const SymBlock &B) -> unsigned {
    unsigned Mask = 0;
    unsigned BitIdx = 0;
    for (size_t CI = 0; CI < SK.Analysis.Chains.size(); ++CI) {
      const std::vector<unsigned> &Runs = B.Runs[CI];
      unsigned Pos = 0;
      std::vector<bool> Eq;
      for (size_t R = 0; R < Runs.size(); ++R) {
        for (unsigned I = 0; I + 1 < Runs[R]; ++I)
          Eq.push_back(true);
        if (R + 1 < Runs.size())
          Eq.push_back(false);
        Pos += Runs[R];
      }
      for (bool E : Eq) {
        if (E)
          Mask |= 1u << BitIdx;
        ++BitIdx;
      }
    }
    return Mask;
  };

  // Group diagonal blocks by their temporaries and the multiset of
  // their forms (the support; multiplicities may differ).
  FormTable &T = SK.forms();
  Buckets Support;
  std::vector<std::vector<size_t>> Groups;
  for (size_t I = 0; I < SK.Blocks.size(); ++I) {
    const SymBlock &B = SK.Blocks[I];
    if (B.OffDiag || B.Runs.empty())
      continue;
    bool HasFactor = false;
    for (const FormStmt &F : B.Forms)
      HasFactor |= F.Factor != nullptr;
    if (HasFactor)
      continue;
    IdTuple Sig{static_cast<Id>(B.Defs.size())};
    for (const StmtPtr &D : B.Defs)
      pushDef(T, Sig, D);
    std::vector<uint64_t> Forms;
    for (const FormStmt &F : B.Forms)
      Forms.push_back(formKey(T, F));
    std::sort(Forms.begin(), Forms.end());
    for (uint64_t F : Forms) {
      Sig.push_back(static_cast<Id>(F >> 32));
      Sig.push_back(static_cast<Id>(F));
    }
    auto [It, New] = Support.try_emplace(std::move(Sig), Support.size());
    if (New)
      Groups.emplace_back();
    Groups[It->second].push_back(I);
  }

  std::vector<size_t> Merging;
  for (size_t G = 0; G < Groups.size(); ++G)
    if (Groups[G].size() >= 2)
      Merging.push_back(G);
  orderByText(Merging, [&](size_t G) {
    const SymBlock &B = SK.Blocks[Groups[G][0]];
    std::string Text;
    for (const StmtPtr &D : B.Defs)
      Text += D->str(0) + ";";
    std::vector<std::string> Keys;
    for (const FormStmt &F : B.Forms)
      Keys.push_back(F.key());
    std::sort(Keys.begin(), Keys.end());
    for (const std::string &K : Keys)
      Text += K + ";";
    return Text;
  });

  std::set<size_t> Remove;
  std::vector<SymBlock> NewBlocks;
  for (size_t G : Merging) {
    const std::vector<size_t> &Members = Groups[G];
    SymBlock Merged;
    Merged.OffDiag = false;
    Merged.Defs = SK.Blocks[Members[0]].Defs;
    Merged.Exact = Cond::never();
    // Per-form factor tables; a form listed twice keeps its first slot.
    std::vector<FormStmt> Forms = SK.Blocks[Members[0]].Forms;
    std::unordered_map<uint64_t, size_t> Slot;
    for (size_t FI = 0; FI < Forms.size(); ++FI)
      Slot.try_emplace(formKey(T, Forms[FI]), FI);
    std::vector<std::vector<double>> Tables(
        Forms.size(), std::vector<double>(1ull << Bits.size(), 0.0));
    bool AllEqual = true;
    double FirstVal = -1;
    for (size_t MI : Members) {
      const SymBlock &B = SK.Blocks[MI];
      unsigned Mask = BlockMask(B);
      Merged.Exact = Cond::unionOf(std::move(Merged.Exact), B.Exact);
      for (const FormStmt &F : B.Forms) {
        auto It = Slot.find(formKey(T, F));
        assert(It != Slot.end() && "support signature mismatch");
        Tables[It->second][Mask] = F.Mult;
        if (FirstVal < 0)
          FirstVal = F.Mult;
        AllEqual &= F.Mult == FirstVal;
      }
    }
    Merged.Exact = simplifyCond(Merged.Exact);
    for (size_t FI = 0; FI < Forms.size(); ++FI) {
      Forms[FI].Mult = 1;
      if (AllEqual)
        Forms[FI].Mult = static_cast<unsigned>(FirstVal);
      else
        Forms[FI].Factor = Expr::lut(Bits, Tables[FI]);
    }
    Merged.Forms = std::move(Forms);
    NewBlocks.push_back(std::move(Merged));
    Remove.insert(Members.begin(), Members.end());
  }
  if (NewBlocks.empty())
    return;
  std::vector<SymBlock> Result;
  for (size_t I = 0; I < SK.Blocks.size(); ++I)
    if (!Remove.count(I))
      Result.push_back(std::move(SK.Blocks[I]));
  for (SymBlock &B : NewBlocks)
    Result.push_back(std::move(B));
  SK.Blocks = std::move(Result);
}

void passConsolidateBlocks(SymKernel &SK) {
  FormTable &T = SK.forms();
  std::vector<SymBlock> Result;
  Buckets Contents;
  for (SymBlock &B : SK.Blocks) {
    IdTuple Sig{B.OffDiag, static_cast<Id>(B.Defs.size())};
    for (const StmtPtr &D : B.Defs)
      pushDef(T, Sig, D);
    for (const FormStmt &F : B.Forms)
      pushForm(T, Sig, F);
    auto [It, New] = Contents.try_emplace(std::move(Sig), Contents.size());
    if (New) {
      Result.push_back(std::move(B));
    } else {
      SymBlock &Target = Result[It->second];
      Target.Exact =
          simplifyCond(Cond::unionOf(std::move(Target.Exact), B.Exact));
      if (!(Target.Runs == B.Runs))
        Target.Runs.clear();
    }
  }
  SK.Blocks = std::move(Result);
}

void passGroupAcrossBranches(SymKernel &SK, bool AcrossDiagonal) {
  // Bucket forms by (side, form, the temporaries they reference): forms
  // reading block temporaries merge only in identical contexts.
  struct Occurrence {
    std::vector<size_t> BlockIdx;
    FormStmt Form;
    bool OffDiag;
    std::vector<StmtPtr> Defs; ///< the first block's referenced defs
  };
  FormTable &T = SK.forms();
  Buckets Shared;
  std::vector<Occurrence> Occs;
  std::vector<std::vector<size_t>> BucketOf(SK.Blocks.size());
  for (size_t BI = 0; BI < SK.Blocks.size(); ++BI) {
    const SymBlock &B = SK.Blocks[BI];
    for (const FormStmt &F : B.Forms) {
      std::set<std::string> Refs;
      collectScalarRefs(F.Rhs, Refs);
      std::vector<StmtPtr> Defs;
      for (const StmtPtr &D : B.Defs)
        if (Refs.count(D->scalarName()))
          Defs.push_back(D);
      IdTuple Sig{AcrossDiagonal ? 2u : static_cast<Id>(B.OffDiag)};
      pushForm(T, Sig, F);
      for (const StmtPtr &D : Defs)
        pushDef(T, Sig, D);
      auto [It, New] = Shared.try_emplace(std::move(Sig), Shared.size());
      if (New)
        Occs.push_back(Occurrence{{}, F, B.OffDiag, std::move(Defs)});
      Occs[It->second].BlockIdx.push_back(BI);
      BucketOf[BI].push_back(It->second);
    }
  }

  std::vector<size_t> Extract;
  for (size_t S = 0; S < Occs.size(); ++S)
    if (Occs[S].BlockIdx.size() >= 2)
      Extract.push_back(S);
  if (Extract.empty())
    return;
  orderByText(Extract, [&](size_t S) {
    const Occurrence &O = Occs[S];
    std::string Text = AcrossDiagonal ? "any;" : O.OffDiag ? "off;" : "diag;";
    Text += O.Form.key() + " x" + std::to_string(O.Form.Mult);
    if (O.Form.Factor)
      Text += " f:" + O.Form.Factor->str();
    Text += ";";
    for (const StmtPtr &D : O.Defs)
      Text += D->str(0) + ";";
    return Text;
  });

  std::vector<SymBlock> NewBlocks;
  std::vector<bool> Extracted(Occs.size(), false);
  for (size_t S : Extract) {
    Occurrence &O = Occs[S];
    Extracted[S] = true;
    SymBlock NB;
    NB.OffDiag = O.OffDiag;
    NB.Exact = Cond::never();
    for (size_t BI : O.BlockIdx)
      NB.Exact = Cond::unionOf(std::move(NB.Exact), SK.Blocks[BI].Exact);
    NB.Exact = simplifyCond(NB.Exact);
    NB.Defs = std::move(O.Defs);
    NB.Forms.push_back(O.Form);
    NewBlocks.push_back(std::move(NB));
  }

  // Remove extracted forms from their original blocks.
  for (size_t BI = 0; BI < SK.Blocks.size(); ++BI) {
    SymBlock &B = SK.Blocks[BI];
    std::vector<FormStmt> Kept;
    for (size_t FI = 0; FI < B.Forms.size(); ++FI)
      if (!Extracted[BucketOf[BI][FI]])
        Kept.push_back(B.Forms[FI]);
    B.Forms = std::move(Kept);
    pruneUnusedDefs(B);
  }
  std::vector<SymBlock> Result;
  // Grouped blocks first (they typically carry the union condition that
  // simplifies, e.g. i <= j), then surviving originals.
  for (SymBlock &B : NewBlocks)
    Result.push_back(std::move(B));
  for (SymBlock &B : SK.Blocks)
    if (!B.Forms.empty())
      Result.push_back(std::move(B));
  SK.Blocks = std::move(Result);
}

void runPasses(SymKernel &SK, const PipelineOptions &Options) {
  if (Options.VisibleOutputRestriction)
    passVisibleOutputRestriction(SK);
  if (Options.DistributiveGrouping)
    passDistributiveGrouping(SK);
  if (Options.SimplicialLut)
    passSimplicialLut(SK);
  if (Options.ConsolidateBlocks)
    passConsolidateBlocks(SK);
  if (Options.GroupAcrossBranches)
    passGroupAcrossBranches(SK, /*AcrossDiagonal=*/!Options.DiagonalSplit);
  // Hoist repeated reads last so earlier passes compare raw forms.
  if (Options.CommonAccessElimination)
    passCommonAccessElimination(SK);
  SK.SplitDiagonal = Options.DiagonalSplit;
  SK.Concordize = Options.Concordize;
  SK.UseWorkspaces = Options.Workspace;
}

} // namespace systec
