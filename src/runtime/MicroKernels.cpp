//===- runtime/MicroKernels.cpp - Fused plan micro-kernels ----*- C++ -*-===//
///
/// The PlanSpecializer matcher and the fused execution engines. See
/// MicroKernels.h for the contract: bit-identical values and exact
/// counter parity with the interpreted path, which stays as fallback
/// and oracle.
///
//===----------------------------------------------------------------------===//

#include "runtime/MicroKernels.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>

namespace systec {
namespace detail {

namespace {

//===----------------------------------------------------------------------===//
// Condition helpers
//===----------------------------------------------------------------------===//

bool atomEq(const CAtom &X, const CAtom &Y) {
  return X.Kind == Y.Kind && X.A == Y.A && X.B == Y.B;
}

bool condEq(const CCond &X, const CCond &Y) {
  if (X.Disjuncts.size() != Y.Disjuncts.size())
    return false;
  for (size_t D = 0; D < X.Disjuncts.size(); ++D) {
    if (X.Disjuncts[D].size() != Y.Disjuncts[D].size())
      return false;
    for (size_t A = 0; A < X.Disjuncts[D].size(); ++A)
      if (!atomEq(X.Disjuncts[D][A], Y.Disjuncts[D][A]))
        return false;
  }
  return true;
}

/// Conjunction of two DNF conditions (cross product of disjuncts).
CCond condAnd(const CCond &X, const CCond &Y) {
  if (X.Disjuncts.empty())
    return Y;
  if (Y.Disjuncts.empty())
    return X;
  CCond Out;
  for (const std::vector<CAtom> &DX : X.Disjuncts)
    for (const std::vector<CAtom> &DY : Y.Disjuncts) {
      std::vector<CAtom> D = DX;
      D.insert(D.end(), DY.begin(), DY.end());
      Out.Disjuncts.push_back(std::move(D));
    }
  return Out;
}

bool condMentions(const CCond &C, unsigned Slot) {
  for (const std::vector<CAtom> &D : C.Disjuncts)
    for (const CAtom &A : D)
      if (A.A == Slot || A.B == Slot)
        return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Matcher
//===----------------------------------------------------------------------===//

struct MatchState {
  const PlanLoop &L;
  const std::vector<AccessState> &Accesses;
  MKDriver D;
  bool Nest = false;
  /// Innermost mode only: scalar slots written by items of this loop.
  /// Reads of a written slot must substitute a preceding single-factor
  /// def under a compatible guard; anything else rejects the loop
  /// (bind-time reads would otherwise observe stale values).
  std::set<unsigned> Written;
  std::map<unsigned, std::pair<MKOperand, std::optional<CCond>>> DefMap;
};

bool buildDriver(MatchState &M) {
  const auto &Ws = M.L.Walkers;
  MKDriver &D = M.D;
  if (Ws.empty()) {
    D.K = MKDriver::Kind::Range;
    return true;
  }
  if (Ws.size() > 1 + MKDriver::MaxCoWalkers)
    return false;
  const AccessState &A = M.Accesses[Ws[0].AccessId];
  const Level &Lev = A.T->level(Ws[0].Level);
  switch (Lev.Kind) {
  case LevelKind::Sparse:
    D.K = MKDriver::Kind::SparseWalk;
    break;
  case LevelKind::Dense:
    D.K = MKDriver::Kind::DenseWalk;
    break;
  case LevelKind::RunLength:
    D.K = MKDriver::Kind::RunLengthWalk;
    break;
  case LevelKind::Banded:
    D.K = MKDriver::Kind::BandedWalk;
    break;
  }
  D.AccessId = Ws[0].AccessId;
  D.Level = Ws[0].Level;
  D.Bottom = Ws[0].Bottom;
  D.CountReads = Ws[0].Bottom && A.SparseFormat;
  D.Ptr = Lev.Ptr.data();
  D.Crd = Lev.Crd.data();
  D.RunEnd = Lev.RunEnd.data();
  D.BLo = Lev.Lo.data();
  D.BHi = Lev.Hi.data();
  D.BOff = Lev.Off.data();
  D.Vals = A.T->valsData();
  D.Dim = Lev.Dim;
  for (size_t W = 1; W < Ws.size(); ++W) {
    const AccessState &B = M.Accesses[Ws[W].AccessId];
    const Level &CoLev = B.T->level(Ws[W].Level);
    MKCoWalker Co;
    Co.Kind = CoLev.Kind;
    // Mirrors the interpreter's per-element aliasing test against the
    // *driving* walker (co-walkers never alias each other there
    // either); parent equality resolves at bind time.
    Co.SameFiber = B.T == A.T && Ws[W].Level == Ws[0].Level;
    Co.AccessId = Ws[W].AccessId;
    Co.Level = Ws[W].Level;
    Co.Bottom = Ws[W].Bottom;
    Co.CountReads = Ws[W].Bottom && B.SparseFormat;
    Co.Ptr = CoLev.Ptr.data();
    Co.Crd = CoLev.Crd.data();
    Co.RunEnd = CoLev.RunEnd.data();
    Co.BLo = CoLev.Lo.data();
    Co.BHi = CoLev.Hi.data();
    Co.BOff = CoLev.Off.data();
    Co.Vals = B.T->valsData();
    Co.Dim = CoLev.Dim;
    D.Cos.push_back(std::move(Co));
  }
  return true;
}

/// Classifies one load instruction into an operand, applying the
/// written-scalar substitution rules for innermost loops.
std::optional<MKOperand>
operandFor(const VInstr &I, MatchState &M,
           const std::optional<CCond> &Guard) {
  MKOperand Op;
  switch (I.Kind) {
  case VKind::Lit:
    Op.K = MKOperand::Kind::Const;
    Op.Lit = I.Lit;
    return Op;
  case VKind::Scalar: {
    if (!M.Nest && M.Written.count(I.Id)) {
      // Prefer bind-time substitution of a preceding single-factor def
      // under a compatible guard (keeps the statement on the prebound
      // fast paths); otherwise read the slot live per element through
      // the contextual engine — exactly what the interpreter observes,
      // since the writing item runs earlier in the same iteration.
      auto It = M.DefMap.find(I.Id);
      if (It != M.DefMap.end()) {
        const std::optional<CCond> &DefGuard = It->second.second;
        if (!DefGuard || (Guard && condEq(*DefGuard, *Guard)))
          return It->second.first;
      }
      Op.K = MKOperand::Kind::Scalar;
      Op.Slot = I.Id;
      Op.Live = true;
      return Op;
    }
    Op.K = MKOperand::Kind::Scalar;
    Op.Slot = I.Id;
    return Op;
  }
  case VKind::Walked: {
    const MKDriver &D = M.D;
    if (D.K != MKDriver::Kind::Range && I.Id == D.AccessId) {
      if (!D.Bottom)
        return std::nullopt;
      Op.K = MKOperand::Kind::Driver;
      return Op;
    }
    for (size_t Co = 0; Co < D.Cos.size(); ++Co)
      if (I.Id == D.Cos[Co].AccessId) {
        if (!D.Cos[Co].Bottom)
          return std::nullopt;
        Op.K = MKOperand::Kind::CoDriver;
        Op.Slot = static_cast<unsigned>(Co);
        return Op;
      }
    Op.K = MKOperand::Kind::Walked;
    Op.Slot = I.Id; // access id, driven by an enclosing loop
    return Op;
  }
  case VKind::DenseLoad: {
    Op.K = MKOperand::Kind::Dense;
    Op.Arr = I.T->valsData();
    Op.ArrT = I.T;
    for (const auto &[Slot, Stride] : I.SlotStride) {
      if (Slot == M.L.Slot)
        Op.VStride += Stride;
      else
        Op.BaseTerms.push_back({Slot, Stride});
    }
    return Op;
  }
  case VKind::SparseLoad: {
    Op.K = MKOperand::Kind::SparseLoad;
    Op.Slot = I.Id;
    Op.LevelSlots = I.LevelSlots;
    Op.Fill = M.Accesses[I.Id].T->fill();
    if (!M.Nest) {
      // Per-row prebinding: the leading levels whose coordinate slots
      // are bound by enclosing loops are invariant across this loop's
      // execution, so the engine resolves them once at bind time.
      unsigned P = 0;
      while (P < Op.LevelSlots.size() && Op.LevelSlots[P] != M.L.Slot)
        ++P;
      Op.PrebindLevels = static_cast<uint8_t>(P);
    }
    return Op;
  }
  case VKind::Lut: {
    Op.K = MKOperand::Kind::Lut;
    Op.LutBits = I.LutBits;
    Op.LutTable = I.LutTable;
    for (const CAtom &A : I.LutBits)
      Op.LutDynamic |= A.A == M.L.Slot || A.B == M.L.Slot;
    return Op;
  }
  case VKind::Op:
    return std::nullopt; // Op is handled by the program classifier
  }
  return std::nullopt;
}

/// Whether \p Op must be evaluated through the execution context per
/// element (cannot prebind into a BoundVal).
bool contextualOperand(const MKOperand &Op) {
  return Op.K == MKOperand::Kind::SparseLoad ||
         (Op.K == MKOperand::Kind::Scalar && Op.Live) ||
         (Op.K == MKOperand::Kind::Lut && Op.LutDynamic);
}

/// Classifies a whole program into a factor list folded left-to-right
/// with a single operator. Accepts flat n-ary ops and left-deep chains
/// (every non-first operand of an op must be a single factor), which
/// are exactly the shapes whose fold order equals the factor-list fold.
bool classifyProgram(const VProgram &P, MatchState &M,
                     const std::optional<CCond> &Guard,
                     std::vector<MKOperand> &Factors, OpKind &Combine) {
  std::vector<std::vector<MKOperand>> Stack;
  std::optional<OpKind> Op;
  for (const VInstr &I : P.Code) {
    if (I.Kind == VKind::Op) {
      if (Stack.size() < I.NArgs || I.NArgs == 0)
        return false;
      if (!Op)
        Op = I.Op;
      else if (*Op != I.Op)
        return false;
      std::vector<MKOperand> Merged =
          std::move(Stack[Stack.size() - I.NArgs]);
      for (size_t K = Stack.size() - I.NArgs + 1; K < Stack.size(); ++K) {
        if (Stack[K].size() != 1)
          return false; // right operand of a fold must be a leaf
        Merged.push_back(std::move(Stack[K][0]));
      }
      Stack.resize(Stack.size() - I.NArgs);
      Stack.push_back(std::move(Merged));
      continue;
    }
    std::optional<MKOperand> O = operandFor(I, M, Guard);
    if (!O)
      return false;
    Stack.push_back({std::move(*O)});
  }
  if (Stack.size() != 1)
    return false;
  Factors = std::move(Stack[0]);
  if (Factors.empty() || Factors.size() > MicroKernel::MaxFactors)
    return false;
  Combine = Op.value_or(OpKind::Mul);
  return true;
}

bool containsLoop(const PlanNode *N) {
  if (dynamic_cast<const PlanLoop *>(N))
    return true;
  if (auto *Seq = dynamic_cast<const PlanSeq *>(N)) {
    for (const PlanPtr &Child : Seq->Children)
      if (containsLoop(Child.get()))
        return true;
    return false;
  }
  if (auto *If = dynamic_cast<const PlanIf *>(N))
    return containsLoop(If->Body.get());
  return false;
}

void attachGuard(MKItem &Item, const std::optional<CCond> &Guard,
                 const MatchState &M) {
  if (!Guard)
    return;
  Item.HasGuard = true;
  Item.Guard = *Guard;
  Item.GuardDynamic = condMentions(*Guard, M.L.Slot);
}

/// A write to \p Slot invalidates bind-time substitutions that read it:
/// a def like `t = s` substituted into readers after `s` changes would
/// observe a different value than the interpreter's `t` (computed at
/// def time). Readers of such defs fall back to live reads of the def's
/// own slot, which is always current.
void invalidateDefsReading(MatchState &M, unsigned Slot) {
  for (auto It = M.DefMap.begin(); It != M.DefMap.end();) {
    const MKOperand &F = It->second.first;
    if (F.K == MKOperand::Kind::Scalar && F.Slot == Slot)
      It = M.DefMap.erase(It);
    else
      ++It;
  }
}

bool gatherItems(PlanNode *N, std::optional<CCond> Guard, MatchState &M,
                 std::vector<MKItem> &Out) {
  if (auto *Seq = dynamic_cast<PlanSeq *>(N)) {
    for (PlanPtr &Child : Seq->Children)
      if (!gatherItems(Child.get(), Guard, M, Out))
        return false;
    return true;
  }
  if (auto *If = dynamic_cast<PlanIf *>(N)) {
    std::optional<CCond> Inner =
        Guard ? condAnd(*Guard, If->Cond) : If->Cond;
    return gatherItems(If->Body.get(), std::move(Inner), M, Out);
  }
  if (auto *Def = dynamic_cast<PlanDef *>(N)) {
    MKItem Item;
    Item.K = MKItem::Kind::Def;
    if (!classifyProgram(Def->Init, M, Guard, Item.S.Factors,
                         Item.S.Combine))
      return false;
    Item.S.ScalarDst = true;
    Item.S.ScalarSlot = Def->Slot;
    attachGuard(Item, Guard, M);
    if (!M.Nest) {
      // A per-element dynamic guard makes the def's value
      // data-dependent in a way bind-time substitution cannot express,
      // and contextual factors (SparseLoad, live scalars, dynamic Luts)
      // must not be duplicated into readers — re-evaluating a
      // SparseLoad per use would double its counter and cursor traffic.
      // Later reads of such defs fall back to live scalar reads.
      M.Written.insert(Def->Slot);
      invalidateDefsReading(M, Def->Slot);
      if (Item.S.Factors.size() == 1 && !Item.GuardDynamic &&
          !contextualOperand(Item.S.Factors[0]))
        M.DefMap[Def->Slot] = {Item.S.Factors[0], Guard};
      else
        M.DefMap.erase(Def->Slot);
    }
    Out.push_back(std::move(Item));
    return true;
  }
  if (auto *As = dynamic_cast<PlanAssign *>(N)) {
    if (As->Mult > 1)
      return false; // rare general-multiplicity case stays interpreted
    MKItem Item;
    Item.K = MKItem::Kind::Stmt;
    if (!classifyProgram(As->Rhs, M, Guard, Item.S.Factors,
                         Item.S.Combine))
      return false;
    Item.S.Reduce = As->Reduce;
    if (As->ScalarTarget) {
      Item.S.ScalarDst = true;
      Item.S.ScalarSlot = As->ScalarSlot;
      if (!M.Nest) {
        M.Written.insert(As->ScalarSlot);
        M.DefMap.erase(As->ScalarSlot);
        invalidateDefsReading(M, As->ScalarSlot);
      }
    } else {
      Item.S.OutId = As->OutId;
      for (const auto &[Slot, Stride] : As->SlotStride) {
        if (Slot == M.L.Slot)
          Item.S.DstVStride += Stride;
        else
          Item.S.DstBaseTerms.push_back({Slot, Stride});
      }
    }
    attachGuard(Item, Guard, M);
    Out.push_back(std::move(Item));
    return true;
  }
  if (auto *Loop = dynamic_cast<PlanLoop *>(N)) {
    MKItem Item;
    Item.K = MKItem::Kind::Loop;
    Item.Child = Loop;
    attachGuard(Item, Guard, M);
    Out.push_back(std::move(Item));
    return true;
  }
  return false; // PlanReplicate or unknown nodes stay interpreted
}

//===----------------------------------------------------------------------===//
// Blocked-output-shape matcher
//===----------------------------------------------------------------------===//

/// Attempts to install the register/cache-blocked output engine on the
/// freshly fused nest \p MK of loop \p L (see MKBlockedEngine in the
/// header for the shape contract). Any mismatch simply leaves the nest
/// on the generic dispatch — both paths are bit-identical to the
/// interpreter, so this is purely a performance decision.
void tryInstallBlocked(PlanLoop &L, MicroKernel &MK,
                       const MKSpecializeOptions &Opts) {
  if (MK.Innermost)
    return;
  // The nest driver supplies the panel lanes: a plain Range (ssyrk's
  // dense output columns under bound lifting off) or a single sparse
  // walk with no co-walkers (ssyrk's annihilation-driven column walk —
  // the panel variable then takes stored coordinates and the walked
  // factor reads the lane's fiber value). Either way the panel
  // variable must not advance any state the child's bind depends on
  // beyond what the lane bind re-derives (IndexVal + the nest access's
  // own position).
  if (MK.D.K != MKDriver::Kind::Range &&
      MK.D.K != MKDriver::Kind::SparseWalk)
    return;
  if (!MK.D.Cos.empty())
    return;
  // Two accepted item shapes: the direct nest [Loop] and the workspace
  // triple [Def w = <const>, Loop, dst R= w] the pipeline emits for
  // sparse-row-times-dense-panel kernels (spmm/ttm-style nests).
  const bool Ws = MK.Items.size() == 3;
  if (Ws) {
    if (MK.Items[0].K != MKItem::Kind::Def ||
        MK.Items[1].K != MKItem::Kind::Loop ||
        MK.Items[2].K != MKItem::Kind::Stmt || MK.Items[0].HasGuard ||
        MK.Items[1].HasGuard || MK.Items[2].HasGuard)
      return;
  } else if (MK.Items.size() != 1 ||
             MK.Items[0].K != MKItem::Kind::Loop ||
             MK.Items[0].HasGuard) {
    return;
  }
  PlanLoop *Ch = MK.Items[Ws ? 1 : 0].Child;
  if (!Ch || !Ch->Fused || !Ch->Fused->Innermost || Ch->Par.Enabled)
    return;
  const MicroKernel &CMK = *Ch->Fused;
  if (CMK.D.K != MKDriver::Kind::SparseWalk || !CMK.D.Cos.empty())
    return;
  // The child's fiber must be invariant across the panel variable: the
  // nest walking the same access would re-position the child driver's
  // parent per lane.
  if (MK.D.K == MKDriver::Kind::SparseWalk &&
      MK.D.AccessId == CMK.D.AccessId)
    return;
  if (CMK.Items.size() != 1 || CMK.Items[0].K != MKItem::Kind::Stmt ||
      CMK.Items[0].HasGuard)
    return;
  const MKStmt &S = CMK.Items[0].S;
  auto B = std::make_unique<MKBlockedEngine>();
  int64_t PS = 0;
  std::vector<std::pair<unsigned, int64_t>> InvTerms;
  if (Ws) {
    // Workspace triple: `w` seeded from a literal, reduced by the
    // child per element, folded into a `u`-strided cell once per lane.
    const MKStmt &Def = MK.Items[0].S, &Fin = MK.Items[2].S;
    if (Def.Factors.size() != 1 ||
        Def.Factors[0].K != MKOperand::Kind::Const)
      return;
    if (!S.ScalarDst || S.ScalarSlot != Def.ScalarSlot)
      return;
    if (Fin.ScalarDst || Fin.Factors.size() != 1 ||
        Fin.Factors[0].K != MKOperand::Kind::Scalar ||
        Fin.Factors[0].Slot != Def.ScalarSlot)
      return;
    InvTerms = Fin.DstBaseTerms;
    PS = Fin.DstVStride; // the final store's loop variable is `u`
    if (PS == 0)
      return; // lanes must reach distinct cells
    B->Mode = MKBlockedEngine::BMode::Workspace;
    B->WsSlot = Def.ScalarSlot;
    B->WsInit = Def.Factors[0].Lit;
    B->FinalReduce = Fin.Reduce;
    B->OutId = Fin.OutId;
  } else {
    if (S.ScalarDst)
      return;
    // Destination: the nest variable `u` must stride a dense output
    // mode (the panel stride), and lanes must write provably disjoint
    // cells — the child driver's span under one lane may not reach the
    // next lane — so visiting elements panel-by-panel cannot reorder
    // any per-cell reduction.
    for (const auto &[Slot, Stride] : S.DstBaseTerms) {
      if (Slot == L.Slot)
        PS += Stride;
      else
        InvTerms.push_back({Slot, Stride});
    }
    if (PS <= 0 || S.DstVStride < 0)
      return;
    if (S.DstVStride > 0 && S.DstVStride * (CMK.D.Dim - 1) >= PS)
      return;
    B->Mode = S.DstVStride == 0 ? MKBlockedEngine::BMode::Accum
                                : MKBlockedEngine::BMode::Stream;
    B->OutId = S.OutId;
  }
  for (const MKOperand &Op : S.Factors) {
    MKBlockedEngine::FClass FC = MKBlockedEngine::FClass::LaneImm;
    switch (Op.K) {
    case MKOperand::Kind::Const:
    case MKOperand::Kind::Walked:
      break; // invariant in the child driver: binds once per lane
    case MKOperand::Kind::Scalar:
      if (Op.Live)
        return; // unreachable with one statement; stay conservative
      break;
    case MKOperand::Kind::Driver:
      FC = MKBlockedEngine::FClass::Driver;
      break;
    case MKOperand::Kind::CoDriver:
      return; // the accepted driver has no co-walkers
    case MKOperand::Kind::Dense:
      // A dense factor reading an output array would observe the
      // loop's own stores, and the panel visit order could then change
      // what it reads. Outputs are never inputs in the einsums the
      // pipeline produces, but decline rather than assume.
      if (Opts.OutputTensors)
        for (Tensor *T : *Opts.OutputTensors)
          if (T->valsData() == Op.Arr)
            return;
      if (Op.VStride != 0)
        FC = MKBlockedEngine::FClass::LaneDense;
      break;
    case MKOperand::Kind::SparseLoad:
      // The access must be row-invariant (no level slot names the
      // child variable): it then resolves once per panel lane instead
      // of once per element — the blocked engine's main arithmetic
      // saving on ssyrk, whose A[j,k] factor the unblocked engine
      // re-evaluates for every stored element of every column.
      for (unsigned LvSlot : Op.LevelSlots)
        if (LvSlot == CMK.Slot)
          return;
      ++B->SparseLoadFactors;
      break;
    case MKOperand::Kind::Lut:
      if (Op.LutDynamic)
        return; // bits mention the child variable
      break;
    }
    B->Classes.push_back(FC);
  }
  B->USlot = L.Slot;
  B->Child = Ch;
  B->ChildSlot = CMK.Slot;
  B->Nest = MK.D;
  B->D = CMK.D;
  B->Combine = S.Combine;
  B->ElemReduce = S.Reduce;
  B->PanelStride = PS;
  B->DstVStride = B->Mode == MKBlockedEngine::BMode::Stream
                      ? S.DstVStride
                      : 0;
  B->DstInvTerms = std::move(InvTerms);
  B->Factors = S.Factors;
  // Width: explicit option clamped to the engine's lane arrays, or
  // chosen from the panel mode's extent (narrow modes take 4-wide
  // panels; everything else 8). Values and counters are width-independent.
  const unsigned W =
      Opts.BlockWidth
          ? std::min(Opts.BlockWidth, MKBlockedEngine::MaxWidth)
          : (L.Extent >= 8 ? 8u : 4u);
  B->Width = std::max(1u, W);
  const bool MulAdd =
      (S.Factors.size() == 1 || S.Combine == OpKind::Mul) &&
      S.Reduce == OpKind::Add;
  if (MulAdd && S.Factors.size() == 2 &&
      B->Classes[0] == MKBlockedEngine::FClass::Driver) {
    if (B->Mode == MKBlockedEngine::BMode::Stream &&
        B->Classes[1] == MKBlockedEngine::FClass::LaneImm)
      B->FastPath = MKBlockedEngine::Fast::Axpy2;
    else if (B->Mode != MKBlockedEngine::BMode::Stream &&
             B->Classes[1] == MKBlockedEngine::FClass::LaneDense)
      B->FastPath = MKBlockedEngine::Fast::Accum2;
  }
  // Task-boundary panel alignment only means something when lanes are
  // coordinates (Range nests); a sparse nest's lanes are fiber entries.
  if (MK.D.K == MKDriver::Kind::Range)
    L.BlockAlign = B->Width;
  MK.Blocked = std::move(B);
}

} // namespace

bool specializeLoop(PlanLoop &L, const std::vector<AccessState> &Accesses,
                    const MKSpecializeOptions &Opts) {
  MatchState M{L, Accesses, MKDriver{}, false, {}, {}};
  if (!buildDriver(M))
    return false;
  M.Nest = containsLoop(L.Body.get());
  std::vector<MKItem> Items;
  if (!gatherItems(L.Body.get(), std::nullopt, M, Items))
    return false;
  if (Items.empty() || Items.size() > MicroKernel::MaxItems)
    return false;
  // Innermost loops prebind Scalar factors once per execution, so no
  // prebound Scalar factor may name a slot any item of this loop
  // writes. Reads *after* a write were resolved during gathering
  // (substituted or marked live); this final pass catches reads that
  // precede a later write, where the interpreter observes the previous
  // iteration's value (loop-carried scalar dependence) — those become
  // live reads too, which is exactly the interpreter's semantics.
  if (!M.Nest)
    for (MKItem &I : Items)
      for (MKOperand &Op : I.S.Factors)
        if (Op.K == MKOperand::Kind::Scalar && M.Written.count(Op.Slot))
          Op.Live = true;
  bool HasStmt = false, HasFusedChild = false, HasLoop = false;
  for (const MKItem &I : Items) {
    HasStmt |= I.K == MKItem::Kind::Stmt;
    if (I.K == MKItem::Kind::Loop) {
      HasLoop = true;
      HasFusedChild |= I.Child->Fused != nullptr;
    }
  }
  // Only fuse where it pays: a leaf loop must do real assignments, and
  // a nest must contain at least one already-fused core (otherwise the
  // generic dispatch is just as good and the specialization counter
  // would overstate coverage).
  if (!HasLoop && !HasStmt)
    return false;
  if (HasLoop && !HasFusedChild && !HasStmt)
    return false;
  // Hand out prebind slots for the innermost engine's bind-time array;
  // operands past the cap simply resolve every level per element (same
  // values, same counters).
  if (!HasLoop) {
    unsigned NPre = 0;
    for (MKItem &I : Items)
      for (MKOperand &Op : I.S.Factors)
        if (Op.K == MKOperand::Kind::SparseLoad && Op.PrebindLevels) {
          if (NPre < MicroKernel::MaxPrebinds)
            Op.PrebindIdx = NPre++;
          else
            Op.PrebindLevels = 0;
        }
  } else {
    // The nest engine evaluates operands fresh per element; prebinding
    // is the innermost engine's contract only.
    for (MKItem &I : Items)
      for (MKOperand &Op : I.S.Factors)
        Op.PrebindLevels = 0;
  }
  auto MK = std::make_unique<MicroKernel>();
  MK->Slot = L.Slot;
  MK->Innermost = !HasLoop;
  MK->D = M.D;
  MK->Items = std::move(Items);
  L.Fused = std::move(MK);
  if (Opts.UseBlocked)
    tryInstallBlocked(L, *L.Fused, Opts);
  return true;
}

//===----------------------------------------------------------------------===//
// Execution: shared driver iteration
//===----------------------------------------------------------------------===//

namespace {

/// Per-run co-walker state: parent position, the per-execution alias
/// decision, and the forward finger for compressed kinds. Plain
/// aggregate with no default initialization — binding runs once per
/// *row* of a nest, and bindDriver writes exactly the entries the
/// driver's co-walker list uses (unused slots are never read).
struct CoBind {
  int64_t Parent;
  bool Aliased;
  int64_t K, E;
};

/// Per-run driver state (the level arrays themselves are cached in the
/// MKDriver at specialization; only positions resolve per run).
struct DriverBind {
  int64_t Parent = 0;
  CoBind Co[MKDriver::MaxCoWalkers];
};

DriverBind bindDriver(ExecCtx &C, const MKDriver &D) {
  DriverBind B;
  if (D.K == MKDriver::Kind::Range)
    return B;
  B.Parent = C.Accesses[D.AccessId].Pos[D.Level];
  for (size_t I = 0; I < D.Cos.size(); ++I) {
    const MKCoWalker &Co = D.Cos[I];
    CoBind &CB = B.Co[I];
    CB.Parent = C.Accesses[Co.AccessId].Pos[Co.Level];
    // Mirror the interpreter's per-execution aliasing test: the same
    // fiber walked twice advances in lockstep instead of re-locating.
    CB.Aliased = Co.SameFiber && CB.Parent == B.Parent;
    if (!CB.Aliased && (Co.Kind == LevelKind::Sparse ||
                        Co.Kind == LevelKind::RunLength)) {
      CB.K = Co.Ptr[CB.Parent];
      CB.E = Co.Ptr[CB.Parent + 1];
    } else {
      CB.K = CB.E = 0;
    }
  }
  return B;
}

/// Per-execution iteration tallies, flushed into the context counters
/// once per loop run. Visited counts driver candidates; CoMatched[i]
/// counts candidates where co-walkers 0..i all matched — exactly the
/// points where the interpreter's Step charges walker i's SparseRead.
struct IterCounts {
  uint64_t Visited = 0;
  uint64_t CoMatched[MKDriver::MaxCoWalkers] = {};
};

/// Iterates the fused loop's elements, invoking Body(v, k1, coPos) for
/// every intersection element, in exactly the interpreter's order.
/// UpdateState additionally maintains IndexVal and walker positions for
/// nested consumers (positions are written as each walker resolves —
/// including for candidates a later co-walker rejects — mirroring the
/// interpreter's Step). Instantiated separately for loops without
/// co-walkers (WithCos = false) so the plain driver walks keep the
/// tight pre-intersection codegen — the resolution machinery folds
/// away entirely.
template <bool WithCos, typename Fn>
void iterateDriverImpl(ExecCtx &C, const MKDriver &D, unsigned Slot,
                       DriverBind &B, int64_t Lo, int64_t Hi,
                       bool UpdateState, IterCounts &N, Fn &&Body) {
  const size_t NCo = WithCos ? D.Cos.size() : 0;
  int64_t CoPos[MKDriver::MaxCoWalkers];
  CoPos[0] = 0; // factors without a co stride index slot 0

  // Resolves every co-walker for candidate (V, K1) in registration
  // order. Coordinates arrive in ascending order, so compressed
  // co-walkers are forward fingers (multi-finger merge): a sparse
  // finger catches up by galloping then bisecting the overshoot
  // window, a RunLength finger steps run by run. Returns false when
  // the candidate is missing from the intersection.
  auto ResolveCos = [&](int64_t V, int64_t K1) -> bool {
    for (size_t I = 0; I < NCo; ++I) {
      const MKCoWalker &Co = D.Cos[I];
      CoBind &CB = B.Co[I];
      int64_t P = 0; // every level kind assigns; init pacifies -Wmaybe-
      if (CB.Aliased) {
        P = K1;
      } else {
        switch (Co.Kind) {
        case LevelKind::Dense:
          P = CB.Parent * Co.Dim + V;
          break;
        case LevelKind::Sparse: {
          int64_t K = CB.K;
          const int64_t *Crd = Co.Crd;
          if (K < CB.E && Crd[K] < V) {
            int64_t Step = 1;
            while (K + Step < CB.E && Crd[K + Step] < V)
              Step <<= 1;
            const int64_t HiB = std::min(K + Step + 1, CB.E);
            K = std::lower_bound(Crd + K + 1, Crd + HiB, V) - Crd;
          }
          CB.K = K;
          if (K >= CB.E || Crd[K] != V)
            return false;
          P = K;
          break;
        }
        case LevelKind::RunLength: {
          int64_t K = CB.K;
          const int64_t *RunEnd = Co.RunEnd;
          while (K < CB.E && RunEnd[K] <= V)
            ++K;
          CB.K = K;
          if (K >= CB.E)
            return false; // past the last run (V outside the extent)
          P = K;
          break;
        }
        case LevelKind::Banded: {
          const int64_t BLo = Co.BLo[CB.Parent];
          if (V < BLo || V >= Co.BHi[CB.Parent])
            return false;
          P = Co.BOff[CB.Parent] + (V - BLo);
          break;
        }
        }
      }
      CoPos[I] = P;
      if (UpdateState)
        C.Accesses[Co.AccessId].Pos[Co.Level + 1] = P;
      ++N.CoMatched[I];
    }
    return true;
  };

  auto Emit = [&](int64_t V, int64_t K1) {
    ++N.Visited;
    if (UpdateState)
      C.Accesses[D.AccessId].Pos[D.Level + 1] = K1;
    if constexpr (WithCos) {
      if (NCo && !ResolveCos(V, K1))
        return;
    }
    if (UpdateState)
      C.IndexVal[Slot] = V;
    // The first co position travels as a scalar so bound loads keep
    // register addressing; without co-walkers it is a literal 0 the
    // compiler folds out of the strides entirely.
    const int64_t K2 = WithCos ? CoPos[0] : 0;
    Body(V, K1, K2, static_cast<const int64_t *>(CoPos));
  };

  switch (D.K) {
  case MKDriver::Kind::Range:
    for (int64_t V = Lo; V <= Hi; ++V) {
      ++N.Visited;
      if (UpdateState)
        C.IndexVal[Slot] = V;
      Body(V, 0, 0, static_cast<const int64_t *>(CoPos));
    }
    return;
  case MKDriver::Kind::DenseWalk: {
    const int64_t Base = B.Parent * D.Dim;
    for (int64_t V = Lo; V <= Hi; ++V)
      Emit(V, Base + V);
    return;
  }
  case MKDriver::Kind::SparseWalk: {
    int64_t K = D.Ptr[B.Parent], E = D.Ptr[B.Parent + 1];
    const int64_t *Crd = D.Crd;
    if (Lo > 0)
      K = std::lower_bound(Crd + K, Crd + E, Lo) - Crd;
    for (; K < E; ++K) {
      const int64_t V = Crd[K];
      if (V > Hi)
        break;
      Emit(V, K);
    }
    return;
  }
  case MKDriver::Kind::RunLengthWalk: {
    // Runs tile [0, Dim): every coordinate in [Lo, Hi] is visited, with
    // the run index as position — the same expansion order as the
    // generic interpreter.
    int64_t Start = 0;
    const int64_t KE = D.Ptr[B.Parent + 1];
    for (int64_t K = D.Ptr[B.Parent]; K < KE; ++K) {
      const int64_t End = D.RunEnd[K];
      for (int64_t V = std::max(Start, Lo); V < End; ++V) {
        if (V > Hi)
          return;
        Emit(V, K);
      }
      Start = End;
      if (Start > Hi)
        return;
    }
    return;
  }
  case MKDriver::Kind::BandedWalk: {
    const int64_t BB = std::max(Lo, D.BLo[B.Parent]);
    const int64_t BE = std::min(Hi, D.BHi[B.Parent] - 1);
    for (int64_t V = BB; V <= BE; ++V)
      Emit(V, D.BOff[B.Parent] + (V - D.BLo[B.Parent]));
    return;
  }
  }
}

/// Dispatches to the co-walker-free or intersecting instantiation.
template <typename Fn>
inline void iterateDriver(ExecCtx &C, const MKDriver &D, unsigned Slot,
                          DriverBind &B, int64_t Lo, int64_t Hi,
                          bool UpdateState, IterCounts &N, Fn &&Body) {
  if (D.Cos.empty())
    iterateDriverImpl<false>(C, D, Slot, B, Lo, Hi, UpdateState, N,
                             std::forward<Fn>(Body));
  else
    iterateDriverImpl<true>(C, D, Slot, B, Lo, Hi, UpdateState, N,
                            std::forward<Fn>(Body));
}

/// Flushes the iteration's SparseRead tallies: the driver charges per
/// candidate, co-walker i per candidate it (and every co before it)
/// matched — exactly the interpreter's Step accounting.
inline void flushIterReads(ExecCtx &C, const MKDriver &D,
                           const IterCounts &N) {
  if (D.CountReads)
    C.Local.SparseReads += N.Visited;
  for (size_t I = 0; I < D.Cos.size(); ++I)
    if (D.Cos[I].CountReads)
      C.Local.SparseReads += N.CoMatched[I];
}

//===----------------------------------------------------------------------===//
// Execution: operand evaluation (nest items and contextual statements)
//===----------------------------------------------------------------------===//

inline double evalOperand(ExecCtx &C, const MKDriver &D,
                          const MKOperand &Op, int64_t V, int64_t K1,
                          const int64_t *CoPos, const int64_t *PreBase) {
  switch (Op.K) {
  case MKOperand::Kind::Const:
    return Op.Lit;
  case MKOperand::Kind::Scalar:
    return C.ScalarVal[Op.Slot];
  case MKOperand::Kind::Walked: {
    const AccessState &A = C.Accesses[Op.Slot];
    return A.T->val(A.Pos[A.T->order()]);
  }
  case MKOperand::Kind::Dense: {
    int64_t Pos = Op.VStride * V;
    for (const auto &[Slot, Stride] : Op.BaseTerms)
      Pos += C.IndexVal[Slot] * Stride;
    return Op.Arr[Pos];
  }
  case MKOperand::Kind::Driver:
    return D.Vals[K1];
  case MKOperand::Kind::CoDriver:
    return D.Cos[Op.Slot].Vals[CoPos[Op.Slot]];
  case MKOperand::Kind::SparseLoad:
    // Same counter and cursor discipline as the expression VM's
    // SparseLoad instruction: one SparseRead per evaluation, locator
    // state chained through the context. A prebound row-invariant
    // prefix resumes from its cached position (or yields the fill
    // outright when the prefix is absent) — same value, same counter.
    if (C.CountersOn)
      ++C.Local.SparseReads;
    if (PreBase && Op.PrebindLevels) {
      const int64_t Base = PreBase[Op.PrebindIdx];
      if (Base < 0)
        return Op.Fill;
      return sparseLoadValueFrom(C, Op.Slot, Op.LevelSlots,
                                 Op.PrebindLevels, Base);
    }
    return sparseLoadValue(C, Op.Slot, Op.LevelSlots);
  case MKOperand::Kind::Lut: {
    // Same mask evaluation as the expression VM's Lut instruction (no
    // counter contribution there either).
    unsigned Mask = 0;
    for (size_t Bit = 0; Bit < Op.LutBits.size(); ++Bit)
      if (Op.LutBits[Bit].eval(C))
        Mask |= 1u << Bit;
    return Op.LutTable[Mask];
  }
  }
  return 0;
}

inline double foldFactors(ExecCtx &C, const MKDriver &D, const MKStmt &S,
                          int64_t V, int64_t K1, const int64_t *CoPos,
                          const int64_t *PreBase) {
  double Acc = evalOperand(C, D, S.Factors[0], V, K1, CoPos, PreBase);
  for (size_t I = 1; I < S.Factors.size(); ++I)
    Acc = evalOp(S.Combine, Acc,
                 evalOperand(C, D, S.Factors[I], V, K1, CoPos, PreBase));
  return Acc;
}

} // namespace

//===----------------------------------------------------------------------===//
// Execution: nest engine
//===----------------------------------------------------------------------===//

void MicroKernel::runNest(ExecCtx &C, int64_t Lo, int64_t Hi) {
  DriverBind B = bindDriver(C, D);
  IterCounts N;
  iterateDriver(
      C, D, Slot, B, Lo, Hi, /*UpdateState=*/true, N,
      [&](int64_t V, int64_t K1, int64_t, const int64_t *CoPos) {
        // Cancellation drains the remaining driver elements without
        // executing them; the aborted run's partial output is discarded
        // by the executor, so skipping is safe.
        if (checkpointStop(C))
          return;
        for (MKItem &Item : Items) {
          if (Item.HasGuard && !Item.Guard.eval(C))
            continue;
          switch (Item.K) {
          case MKItem::Kind::Def:
            C.ScalarVal[Item.S.ScalarSlot] =
                foldFactors(C, D, Item.S, V, K1, CoPos, nullptr);
            if (C.CountersOn)
              C.Local.ScalarOps += Item.S.Factors.size() - 1;
            break;
          case MKItem::Kind::Stmt: {
            const MKStmt &S = Item.S;
            const double Val = foldFactors(C, D, S, V, K1, CoPos, nullptr);
            if (S.ScalarDst) {
              double &Dst = C.ScalarVal[S.ScalarSlot];
              Dst = S.Reduce ? evalOp(*S.Reduce, Dst, Val) : Val;
            } else {
              int64_t Pos = S.DstVStride * V;
              for (const auto &[TSlot, Stride] : S.DstBaseTerms)
                Pos += C.IndexVal[TSlot] * Stride;
              double &Dst = C.OutPtr[S.OutId][Pos];
              Dst = S.Reduce ? evalOp(*S.Reduce, Dst, Val) : Val;
            }
            if (C.CountersOn) {
              C.Local.ScalarOps += S.Factors.size() - 1;
              ++C.Local.Reductions;
              if (!S.ScalarDst)
                ++C.Local.OutputWrites;
            }
            break;
          }
          case MKItem::Kind::Loop:
            Item.Child->exec(C);
            break;
          }
        }
      });
  if (C.CountersOn)
    flushIterReads(C, D, N);
}

//===----------------------------------------------------------------------===//
// Execution: innermost engine (prebound)
//===----------------------------------------------------------------------===//

namespace {

/// One prebound value source, loaded branchlessly as
/// P[SV * v + SK1 * k1 + SK2 * k2]: dense-affine factors set SV,
/// driver/first-co factors set SK1/SK2 with P at the value array, and
/// immediates (literals, bind-time scalar/walked/lut reads) point P at
/// their own Imm slot with all strides zero. k2 is the *first*
/// co-walker's matched position — statements reading a later
/// co-walker's value run through the contextual engine instead, so the
/// hot bound loads keep their three-term register addressing. Plain
/// aggregate with no default initialization: binding runs once per
/// loop execution, often once per *row* of a nest, so constructing
/// this state must cost nothing beyond the fields actually written.
struct BoundVal {
  const double *P;
  int64_t SV, SK1, SK2;
  double Imm;
};

struct BoundStmt {
  BoundVal F[MicroKernel::MaxFactors];
  unsigned NF;
  /// 0: fast tensor (Mul-fold, Add-reduce), 1: fast scalar accumulate
  /// (Mul-fold, Add-reduce), 2: def store, 3: general (any ops, guard),
  /// 4: contextual (factors evaluated through the execution context:
  /// SparseLoad operands, live scalar reads, dynamic Luts).
  uint8_t Kind;
  OpKind Combine;
  int8_t Reduce; // -1: overwrite
  uint8_t Mode;  // 0: def store; 1: scalar dst; 2: tensor dst
  double *Dst;
  int64_t DstS;
  const CCond *Guard;     // dynamic guard, evaluated per element
  const MKStmt *Src;      // contextual: the statement's operand list
  uint64_t Execs;
  unsigned Ops; // ScalarOps contributed per execution
};

inline double loadBound(const BoundVal &F, int64_t V, int64_t K1,
                        int64_t K2) {
  return F.P[F.SV * V + F.SK1 * K1 + F.SK2 * K2];
}

inline double foldBound(const BoundStmt &S, int64_t V, int64_t K1,
                        int64_t K2) {
  double Acc = loadBound(S.F[0], V, K1, K2);
  switch (S.NF) {
  case 1:
    break;
  case 2:
    Acc *= loadBound(S.F[1], V, K1, K2);
    break;
  case 3:
    Acc *= loadBound(S.F[1], V, K1, K2);
    Acc *= loadBound(S.F[2], V, K1, K2);
    break;
  default:
    for (unsigned I = 1; I < S.NF; ++I)
      Acc *= loadBound(S.F[I], V, K1, K2);
    break;
  }
  return Acc;
}

/// Executes one bound statement for one element. Instantiated twice:
/// WithCtx = false omits the contextual engine entirely (no statement
/// of the loop is Kind 4), keeping the common all-prebound loops on
/// the slim pre-PR4 codegen — the extra operand machinery only costs
/// where a contextual statement actually exists.
template <bool WithCtx>
inline void execBound(ExecCtx &C, const MKDriver &D, BoundStmt &S,
                      int64_t V, int64_t K1, int64_t K2,
                      const int64_t *Co, const int64_t *PreBase) {
  switch (S.Kind) {
  case 0: // tensor dst, Mul-fold, Add-reduce (the sparse axpy core)
    S.Dst[S.DstS * V] += foldBound(S, V, K1, K2);
    break;
  case 1: // scalar accumulate, Mul-fold, Add-reduce (the dot core)
    *S.Dst += foldBound(S, V, K1, K2);
    break;
  case 2: // scalar def store
    *S.Dst = foldBound(S, V, K1, K2);
    break;
  case 4: {
    // Contextual: operands evaluated through the context per element
    // (SparseLoad chains the locator from its prebound row prefix;
    // live scalars read current ScalarVal; dynamic Luts test the
    // current IndexVal; CoDriver reads of later co-walkers index the
    // full position array), in the exact factor order of the VM.
    if constexpr (WithCtx) {
      if (S.Guard && !S.Guard->eval(C))
        return;
      const MKStmt &Src = *S.Src;
      double Acc = foldFactors(C, D, Src, V, K1, Co, PreBase);
      if (S.Mode == 0) {
        *S.Dst = Acc;
        ++S.Execs;
        return;
      }
      double &Dst = S.Mode == 1 ? *S.Dst : S.Dst[S.DstS * V];
      Dst = S.Reduce < 0
                ? Acc
                : evalOp(static_cast<OpKind>(S.Reduce), Dst, Acc);
      ++S.Execs;
    }
    return;
  }
  default: {
    if (S.Guard && !S.Guard->eval(C))
      return;
    double Acc = loadBound(S.F[0], V, K1, K2);
    for (unsigned I = 1; I < S.NF; ++I)
      Acc = evalOp(S.Combine, Acc, loadBound(S.F[I], V, K1, K2));
    if (S.Mode == 0) {
      *S.Dst = Acc;
      ++S.Execs;
      return;
    }
    double &Dst = S.Mode == 1 ? *S.Dst : S.Dst[S.DstS * V];
    Dst = S.Reduce < 0
              ? Acc
              : evalOp(static_cast<OpKind>(S.Reduce), Dst, Acc);
    ++S.Execs;
    return;
  }
  }
  ++S.Execs;
}

} // namespace

void MicroKernel::runInner(ExecCtx &C, int64_t Lo, int64_t Hi) {
  DriverBind B = bindDriver(C, D);

  // Bind: resolve invariant guards and operand bases against the
  // current context. All bind state is on the stack so one MicroKernel
  // can run from many task contexts concurrently; the array is left
  // uninitialized and every used field written explicitly, because a
  // nest re-binds its inner loop once per row. Row-invariant SparseLoad
  // prefixes resolve here too (per-row prebinding): each task range
  // re-derives them from its own context, so parallel splits stay
  // bit-reproducible.
  BoundStmt BS[MaxItems];
  int64_t PreBase[MaxPrebinds];
  unsigned NS = 0;
  bool AnyDynamic = false;
  for (MKItem &Item : Items) {
    if (Item.HasGuard && !Item.GuardDynamic && !Item.Guard.eval(C))
      continue; // invariant guard: decided once per loop execution
    BoundStmt &S = BS[NS];
    const MKStmt &Src = Item.S;
    S.NF = static_cast<unsigned>(Src.Factors.size());
    S.Ops = S.NF - 1;
    S.Combine = Src.Combine;
    S.Execs = 0;
    S.Guard = nullptr;
    S.Src = &Item.S;
    S.DstS = 0;
    bool MulFold = S.NF == 1 || Src.Combine == OpKind::Mul;
    // Statements with operands that cannot prebind (SparseLoad, live
    // scalar reads, dynamic Luts) run through the contextual engine,
    // which evaluates factors from the execution context per element.
    // Reads of a co-walker past the first go contextual too: the bound
    // loads keep a single scalar co position (register addressing on
    // the hot paths), and multi-co statements are rare.
    bool Contextual = false;
    for (const MKOperand &Op : Src.Factors)
      Contextual |= contextualOperand(Op) ||
                    (Op.K == MKOperand::Kind::CoDriver && Op.Slot > 0);
    if (Contextual) {
      // Per-row prebinding: resolve each SparseLoad's row-invariant
      // level prefix once for this execution. -1 marks an absent
      // prefix (the whole row reads as fill). Uses plain locate — the
      // hinted cursors are a per-element performance device and never
      // change results.
      for (const MKOperand &Op : Src.Factors)
        if (Op.K == MKOperand::Kind::SparseLoad && Op.PrebindLevels) {
          const AccessState &A = C.Accesses[Op.Slot];
          int64_t Pos = 0;
          for (unsigned L = 0; L < Op.PrebindLevels && Pos >= 0; ++L)
            Pos = A.T->locate(L, Pos, C.IndexVal[Op.LevelSlots[L]]);
          PreBase[Op.PrebindIdx] = Pos;
        }
    }
    for (unsigned I = 0; !Contextual && I < S.NF; ++I) {
      const MKOperand &Op = Src.Factors[I];
      BoundVal &F = S.F[I];
      F.SV = F.SK1 = F.SK2 = 0;
      switch (Op.K) {
      case MKOperand::Kind::Const:
        F.Imm = Op.Lit;
        F.P = &F.Imm;
        break;
      case MKOperand::Kind::Scalar:
        F.Imm = C.ScalarVal[Op.Slot];
        F.P = &F.Imm;
        break;
      case MKOperand::Kind::Walked: {
        const AccessState &A = C.Accesses[Op.Slot];
        F.Imm = A.T->val(A.Pos[A.T->order()]);
        F.P = &F.Imm;
        break;
      }
      case MKOperand::Kind::Dense: {
        int64_t Base = 0;
        for (const auto &[TSlot, Stride] : Op.BaseTerms)
          Base += C.IndexVal[TSlot] * Stride;
        F.P = Op.Arr + Base;
        F.SV = Op.VStride;
        break;
      }
      case MKOperand::Kind::Driver:
        F.P = D.Vals;
        F.SK1 = 1;
        break;
      case MKOperand::Kind::CoDriver:
        // Only the first co-walker binds (Slot > 0 forced contextual
        // above); its position is the K2 every bound load receives.
        F.P = D.Cos[0].Vals;
        F.SK2 = 1;
        break;
      case MKOperand::Kind::Lut: {
        // Bits never mention the loop variable here (dynamic Luts are
        // contextual), so the table entry is a bind-time constant.
        unsigned Mask = 0;
        for (size_t Bit = 0; Bit < Op.LutBits.size(); ++Bit)
          if (Op.LutBits[Bit].eval(C))
            Mask |= 1u << Bit;
        F.Imm = Op.LutTable[Mask];
        F.P = &F.Imm;
        break;
      }
      case MKOperand::Kind::SparseLoad:
        break; // unreachable: Contextual statements skip prebinding
      }
    }
    if (Item.K == MKItem::Kind::Def) {
      S.Mode = 0;
      S.Dst = &C.ScalarVal[Src.ScalarSlot];
      S.Reduce = -1;
    } else if (Src.ScalarDst) {
      S.Mode = 1;
      S.Dst = &C.ScalarVal[Src.ScalarSlot];
      S.Reduce = Src.Reduce ? static_cast<int8_t>(*Src.Reduce) : -1;
    } else {
      S.Mode = 2;
      int64_t Base = 0;
      for (const auto &[TSlot, Stride] : Src.DstBaseTerms)
        Base += C.IndexVal[TSlot] * Stride;
      S.Dst = C.OutPtr[Src.OutId] + Base;
      S.DstS = Src.DstVStride;
      S.Reduce = Src.Reduce ? static_cast<int8_t>(*Src.Reduce) : -1;
    }
    if (Item.HasGuard && Item.GuardDynamic) {
      S.Guard = &Item.Guard;
      AnyDynamic = true;
    }
    // Fast-path selection: the Mul-fold / Add-reduce cores the paper
    // kernels hit; everything else takes the general switch, and
    // context-dependent operands take the contextual engine (which also
    // needs IndexVal maintained for its level-slot and lut-bit
    // lookups).
    const bool AddReduce = S.Reduce == static_cast<int8_t>(OpKind::Add);
    if (Contextual) {
      S.Kind = 4;
      AnyDynamic = true;
    } else if (!S.Guard && MulFold && AddReduce && S.Mode == 2)
      S.Kind = 0;
    else if (!S.Guard && MulFold && AddReduce && S.Mode == 1)
      S.Kind = 1;
    else if (!S.Guard && MulFold && S.Mode == 0)
      S.Kind = 2;
    else
      S.Kind = 3;
    ++NS;
  }

  IterCounts N;

  // Dedicated loops for the single-statement sparse axpy / dot shapes:
  // the driver value times one coordinate-indexed or invariant factor,
  // optionally followed by up to two loop-invariant factors (ssyrk's
  // triangle kernel, plain SpMV rows, and syprd's
  // `w += (A.val * x[i]) * x[j] * 2` chain). Same fold and iteration
  // order as the generic path below — the invariant tails still load
  // per element, in chain position — just with the per-stmt dispatch
  // peeled away.
  if (NS == 1 && !AnyDynamic && D.K == MKDriver::Kind::SparseWalk &&
      D.Cos.empty() && BS[0].NF >= 2 && BS[0].NF <= 4 &&
      (BS[0].Kind == 0 || BS[0].Kind == 1)) {
    const BoundVal &F0 = BS[0].F[0], &F1 = BS[0].F[1];
    bool TailInvariant = true;
    for (unsigned I = 2; I < BS[0].NF; ++I) {
      const BoundVal &FI = BS[0].F[I];
      TailInvariant &= FI.SV == 0 && FI.SK1 == 0 && FI.SK2 == 0;
    }
    if (TailInvariant && F0.SV == 0 && F0.SK1 == 1 && F0.SK2 == 0 &&
        F1.SK1 == 0 && F1.SK2 == 0) {
      const double *DV = D.Vals, *P1 = F1.P;
      const int64_t S1 = F1.SV;
      const int64_t *Crd = D.Crd;
      int64_t K0 = D.Ptr[B.Parent], E = D.Ptr[B.Parent + 1];
      if (Lo > 0)
        K0 = std::lower_bound(Crd + K0, Crd + E, Lo) - Crd;
      uint64_t Cnt = 0;
      auto Drive = [&](auto &&Term) {
        if (BS[0].Kind == 0) {
          double *Dst = BS[0].Dst;
          const int64_t DS = BS[0].DstS;
          for (int64_t K = K0; K < E; ++K) {
            const int64_t V = Crd[K];
            if (V > Hi)
              break;
            Dst[DS * V] += Term(V, K);
            ++Cnt;
          }
        } else {
          double Acc = *BS[0].Dst;
          for (int64_t K = K0; K < E; ++K) {
            const int64_t V = Crd[K];
            if (V > Hi)
              break;
            Acc += Term(V, K);
            ++Cnt;
          }
          *BS[0].Dst = Acc;
        }
      };
      switch (BS[0].NF) {
      case 2:
        Drive([&](int64_t V, int64_t K) { return DV[K] * P1[S1 * V]; });
        break;
      case 3: {
        const double *P2 = BS[0].F[2].P;
        Drive([&](int64_t V, int64_t K) {
          return (DV[K] * P1[S1 * V]) * *P2;
        });
        break;
      }
      default: {
        const double *P2 = BS[0].F[2].P, *P3 = BS[0].F[3].P;
        Drive([&](int64_t V, int64_t K) {
          return ((DV[K] * P1[S1 * V]) * *P2) * *P3;
        });
        break;
      }
      }
      BS[0].Execs = Cnt;
      if (C.CountersOn) {
        if (D.CountReads)
          C.Local.SparseReads += Cnt;
        C.Local.ScalarOps += Cnt * BS[0].Ops;
        C.Local.Reductions += Cnt;
        if (BS[0].Kind == 0)
          C.Local.OutputWrites += Cnt;
      }
      return;
    }
  }

  bool AnyContextual = false;
  for (unsigned I = 0; I < NS; ++I)
    AnyContextual |= BS[I].Kind == 4;
  if (!AnyContextual)
    iterateDriver(C, D, Slot, B, Lo, Hi, /*UpdateState=*/false, N,
                  [&](int64_t V, int64_t K1, int64_t K2,
                      const int64_t *CoPos) {
                    if (AnyDynamic)
                      C.IndexVal[Slot] = V;
                    for (unsigned I = 0; I < NS; ++I)
                      execBound<false>(C, D, BS[I], V, K1, K2, CoPos,
                                       PreBase);
                  });
  else
    iterateDriver(C, D, Slot, B, Lo, Hi, /*UpdateState=*/false, N,
                  [&](int64_t V, int64_t K1, int64_t K2,
                      const int64_t *CoPos) {
                    if (AnyDynamic)
                      C.IndexVal[Slot] = V;
                    for (unsigned I = 0; I < NS; ++I)
                      execBound<true>(C, D, BS[I], V, K1, K2, CoPos,
                                      PreBase);
                  });

  // Flush counter deltas once per loop execution (the whole point: no
  // per-element flag checks or atomic traffic in the loops above).
  if (C.CountersOn) {
    flushIterReads(C, D, N);
    for (unsigned I = 0; I < NS; ++I) {
      const BoundStmt &S = BS[I];
      C.Local.ScalarOps += S.Execs * S.Ops;
      if (S.Mode != 0) {
        C.Local.Reductions += S.Execs;
        if (S.Mode == 2)
          C.Local.OutputWrites += S.Execs;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Execution: blocked output engine
//===----------------------------------------------------------------------===//

namespace {

/// Resolves one child-driver-invariant operand against the current
/// context (the caller sets IndexVal[USlot] to the lane's coordinate
/// first). SparseLoad resolution uses plain locate — cursorless, so
/// lane binds cannot disturb the shared hinted-locator state and the
/// result is independent of any cursor history — and charges nothing
/// here: the engine charges one SparseRead per element-lane execution,
/// exactly like the interpreter's per-element evaluation of the same
/// row-invariant access.
double bindLaneOperand(ExecCtx &C, const MKOperand &Op) {
  switch (Op.K) {
  case MKOperand::Kind::Const:
    return Op.Lit;
  case MKOperand::Kind::Scalar:
    return C.ScalarVal[Op.Slot];
  case MKOperand::Kind::Walked: {
    const AccessState &A = C.Accesses[Op.Slot];
    return A.T->val(A.Pos[A.T->order()]);
  }
  case MKOperand::Kind::Dense: {
    int64_t Pos = 0;
    for (const auto &[Slot, Stride] : Op.BaseTerms)
      Pos += C.IndexVal[Slot] * Stride;
    return Op.Arr[Pos];
  }
  case MKOperand::Kind::SparseLoad: {
    const AccessState &A = C.Accesses[Op.Slot];
    const unsigned Order = A.T->order();
    int64_t Pos = 0;
    for (unsigned Lv = 0; Lv < Order; ++Lv) {
      Pos = A.T->locate(Lv, Pos, C.IndexVal[Op.LevelSlots[Lv]]);
      if (Pos < 0)
        return Op.Fill;
    }
    return A.T->val(Pos);
  }
  case MKOperand::Kind::Lut: {
    unsigned Mask = 0;
    for (size_t Bit = 0; Bit < Op.LutBits.size(); ++Bit)
      if (Op.LutBits[Bit].eval(C))
        Mask |= 1u << Bit;
    return Op.LutTable[Mask];
  }
  default:
    return 0; // Driver / CoDriver never reach lane binding
  }
}

} // namespace

void MKBlockedEngine::run(ExecCtx &C, int64_t Lo, int64_t Hi) {
  const unsigned NF = static_cast<unsigned>(Factors.size());
  const int64_t Parent = C.Accesses[D.AccessId].Pos[D.Level];
  const int64_t KB = D.Ptr[Parent], KE = D.Ptr[Parent + 1];
  const int64_t *Crd = D.Crd;
  const double *DV = D.Vals;
  int64_t DstBase = 0;
  for (const auto &[Slot, Stride] : DstInvTerms)
    DstBase += C.IndexVal[Slot] * Stride;
  double *const OutArr = C.OutPtr[OutId] + DstBase;

  // Panel lane state, rebound per panel. Everything lives on the stack:
  // one engine may run from many task contexts concurrently, and each
  // task range derives its own panels.
  int64_t LaneLo[MaxWidth], LaneHi[MaxWidth];
  double *LaneDst[MaxWidth];
  double LaneVal[MicroKernel::MaxFactors][MaxWidth];
  const double *LanePtr[MicroKernel::MaxFactors][MaxWidth];
  int64_t UnionLo = 0, UnionHi = -1;

  uint64_t Panels = 0, Stores = 0, Execs = 0, Lanes = 0;

  // Binds lane Wi at panel coordinate U: per-lane child bounds (the
  // child's Lo/Hi terms may reference the panel variable — ssyrk's
  // triangle bounds do), the destination pointer, and every
  // child-invariant operand value. This replaces one full child
  // re-bind per column with one per panel, and per-element SparseLoad
  // evaluation with one locate per lane. Mirrors the generic nest's
  // per-iteration state updates (IndexVal; the caller updates the nest
  // access's position for sparse nests before calling) so walked
  // factors of the nest access read the lane's fiber value.
  auto BindLane = [&](unsigned Wi, int64_t U) {
    C.IndexVal[USlot] = U;
    ++Lanes;
    int64_t CLo = 0, CHi = Child->Extent - 1;
    for (const auto &[Slot, Delta] : Child->LoTerms)
      CLo = std::max(CLo, C.IndexVal[Slot] + Delta);
    for (const auto &[Slot, Delta] : Child->HiTerms)
      CHi = std::min(CHi, C.IndexVal[Slot] + Delta);
    LaneLo[Wi] = CLo;
    LaneHi[Wi] = CHi;
    if (CLo <= CHi) {
      UnionLo = std::min(UnionLo, CLo);
      UnionHi = std::max(UnionHi, CHi);
    }
    LaneDst[Wi] = OutArr + PanelStride * U;
    for (unsigned F = 0; F < NF; ++F) {
      switch (Classes[F]) {
      case FClass::LaneImm:
        LaneVal[F][Wi] = bindLaneOperand(C, Factors[F]);
        break;
      case FClass::LaneDense: {
        int64_t Base = 0;
        for (const auto &[Slot, Stride] : Factors[F].BaseTerms)
          Base += C.IndexVal[Slot] * Stride;
        LanePtr[F][Wi] = Factors[F].Arr + Base;
        break;
      }
      case FClass::Driver:
        break;
      }
    }
  };

  // Executes one bound panel: one shared fiber walk over the union of
  // the lane ranges; each element updates exactly the lanes whose
  // range contains it — the same element-lane set the interpreter
  // executes column by column, with each cell's contributions arriving
  // in fiber order.
  auto ExecPanel = [&](unsigned W) {
    ++Panels;
    // An all-empty panel has nothing to walk, but workspace panels
    // still owe the def + final store per lane (`w = 0; dst R= w` runs
    // even when the inner loop is empty — and R= of the identity is
    // not always a bitwise no-op, e.g. -0.0 + 0.0).
    const bool Empty = UnionLo > UnionHi;
    if (Empty && Mode != BMode::Workspace)
      return;
    int64_t K = KB;
    if (!Empty && UnionLo > 0)
      K = std::lower_bound(Crd + KB, Crd + KE, UnionLo) - Crd;

    // Lane-bound structure: identical ranges need no per-element lane
    // test at all; shared lower bounds with ascending upper bounds
    // (ssyrk's canonical triangle) keep the dead lanes a prefix that
    // only grows as the coordinates ascend.
    bool SharedLo = true, SharedHi = true, MonoHi = true;
    for (unsigned Wi = 1; Wi < W; ++Wi) {
      SharedLo &= LaneLo[Wi] == LaneLo[0];
      SharedHi &= LaneHi[Wi] == LaneHi[0];
      MonoHi &= LaneHi[Wi] >= LaneHi[Wi - 1];
    }

    if (FastPath == Fast::Axpy2) {
      // dst[lane][DS * V] += driver * per-lane-value: the ssyrk panel.
      const double *L1 = LaneVal[1];
      const int64_t DS = DstVStride;
      if (SharedLo && MonoHi) {
        unsigned WLo = 0;
        for (; K < KE; ++K) {
          const int64_t V = Crd[K];
          if (V > UnionHi)
            break;
          while (WLo < W && LaneHi[WLo] < V)
            ++WLo;
          if (WLo == W)
            break;
          const double T = DV[K];
          for (unsigned Wi = WLo; Wi < W; ++Wi)
            LaneDst[Wi][DS * V] += T * L1[Wi];
          Execs += W - WLo;
        }
      } else {
        for (; K < KE; ++K) {
          const int64_t V = Crd[K];
          if (V > UnionHi)
            break;
          const double T = DV[K];
          for (unsigned Wi = 0; Wi < W; ++Wi) {
            if (V < LaneLo[Wi] || V > LaneHi[Wi])
              continue;
            LaneDst[Wi][DS * V] += T * L1[Wi];
            ++Execs;
          }
        }
      }
    } else if (FastPath == Fast::Accum2) {
      // acc[lane] += driver * dense[lane][V]: the SpMM-style panel.
      // The accumulators live in registers across the whole walk and
      // write back once per lane — the "streaming panel store".
      double Acc[MaxWidth];
      for (unsigned Wi = 0; Wi < W; ++Wi)
        Acc[Wi] = Mode == BMode::Workspace ? WsInit : LaneDst[Wi][0];
      const double *const *P1 = LanePtr[1];
      const int64_t S1 = Factors[1].VStride;
      if (Empty) {
        // no elements: fall through to the per-lane writeback
      } else if (SharedLo && SharedHi) {
        for (; K < KE; ++K) {
          const int64_t V = Crd[K];
          if (V > UnionHi)
            break;
          const double T = DV[K];
          for (unsigned Wi = 0; Wi < W; ++Wi)
            Acc[Wi] += T * P1[Wi][S1 * V];
          Execs += W;
        }
      } else {
        for (; K < KE; ++K) {
          const int64_t V = Crd[K];
          if (V > UnionHi)
            break;
          const double T = DV[K];
          for (unsigned Wi = 0; Wi < W; ++Wi) {
            if (V < LaneLo[Wi] || V > LaneHi[Wi])
              continue;
            Acc[Wi] += T * P1[Wi][S1 * V];
            ++Execs;
          }
        }
      }
      if (Mode == BMode::Workspace) {
        for (unsigned Wi = 0; Wi < W; ++Wi) {
          double &Ds = *LaneDst[Wi];
          Ds = FinalReduce ? evalOp(*FinalReduce, Ds, Acc[Wi]) : Acc[Wi];
          // Leave the workspace slot exactly as the interpreter would
          // (its last column's accumulated value).
          C.ScalarVal[WsSlot] = Acc[Wi];
        }
      } else {
        for (unsigned Wi = 0; Wi < W; ++Wi)
          LaneDst[Wi][0] = Acc[Wi];
      }
      Stores += W;
    } else {
      // Generic panel: any accepted factor mix / combine / reduce, in
      // the exact VM fold order per element-lane. Accumulating shapes
      // still keep their lanes in registers across the walk.
      const bool Reg = Mode != BMode::Stream;
      double Acc[MaxWidth];
      if (Reg)
        for (unsigned Wi = 0; Wi < W; ++Wi)
          Acc[Wi] = Mode == BMode::Workspace ? WsInit : LaneDst[Wi][0];
      if (!Empty) {
        for (; K < KE; ++K) {
          const int64_t V = Crd[K];
          if (V > UnionHi)
            break;
          for (unsigned Wi = 0; Wi < W; ++Wi) {
            if (V < LaneLo[Wi] || V > LaneHi[Wi])
              continue;
            auto Eval = [&](unsigned F) -> double {
              switch (Classes[F]) {
              case FClass::Driver:
                return DV[K];
              case FClass::LaneDense:
                return LanePtr[F][Wi][Factors[F].VStride * V];
              case FClass::LaneImm:
                return LaneVal[F][Wi];
              }
              return 0;
            };
            double Val = Eval(0);
            for (unsigned F = 1; F < NF; ++F)
              Val = evalOp(Combine, Val, Eval(F));
            if (Reg) {
              Acc[Wi] =
                  ElemReduce ? evalOp(*ElemReduce, Acc[Wi], Val) : Val;
            } else {
              double &Dst = LaneDst[Wi][DstVStride * V];
              Dst = ElemReduce ? evalOp(*ElemReduce, Dst, Val) : Val;
            }
            ++Execs;
          }
        }
      }
      if (Mode == BMode::Workspace) {
        for (unsigned Wi = 0; Wi < W; ++Wi) {
          double &Ds = *LaneDst[Wi];
          Ds = FinalReduce ? evalOp(*FinalReduce, Ds, Acc[Wi]) : Acc[Wi];
          C.ScalarVal[WsSlot] = Acc[Wi];
        }
        Stores += W;
      } else if (Reg) {
        for (unsigned Wi = 0; Wi < W; ++Wi)
          LaneDst[Wi][0] = Acc[Wi];
        Stores += W;
      }
    }
  };

  if (Nest.K == MKDriver::Kind::Range) {
    // Panels anchor at absolute multiples of the width, so a task-range
    // split at a panel boundary reproduces exactly the panels of the
    // unsplit run (and any other split is still bit-identical: lanes
    // write disjoint cells, and each cell's contribution order is the
    // fiber order regardless of the panel partition).
    const int64_t WP = Width;
    for (int64_t P0 = Lo; P0 <= Hi;) {
      if (checkpointStop(C))
        break;
      const int64_t PEnd = std::min(Hi, (P0 / WP + 1) * WP - 1);
      const unsigned W = static_cast<unsigned>(PEnd - P0 + 1);
      UnionLo = std::numeric_limits<int64_t>::max();
      UnionHi = -1;
      for (unsigned Wi = 0; Wi < W; ++Wi)
        BindLane(Wi, P0 + Wi);
      ExecPanel(W);
      P0 = PEnd + 1;
    }
  } else {
    // Sparse nest: lanes are consecutive stored coordinates of the
    // nest fiber within [Lo, Hi]. Each lane updates the nest access's
    // position before binding, so walked factors of the nest access
    // read the lane's fiber value — the state the generic nest
    // maintains per candidate.
    AccessState &NA = C.Accesses[Nest.AccessId];
    const int64_t NParent = NA.Pos[Nest.Level];
    int64_t NK = Nest.Ptr[NParent];
    const int64_t NE = Nest.Ptr[NParent + 1];
    const int64_t *NCrd = Nest.Crd;
    if (Lo > 0)
      NK = std::lower_bound(NCrd + NK, NCrd + NE, Lo) - NCrd;
    while (NK < NE && NCrd[NK] <= Hi) {
      if (checkpointStop(C))
        break;
      unsigned W = 0;
      UnionLo = std::numeric_limits<int64_t>::max();
      UnionHi = -1;
      while (W < Width && NK + W < NE) {
        const int64_t U = NCrd[NK + W];
        if (U > Hi)
          break;
        NA.Pos[Nest.Level + 1] = NK + W;
        BindLane(W, U);
        ++W;
      }
      ExecPanel(W);
      NK += W;
    }
  }

  // Flush once per run: per element-lane charges are exactly the
  // interpreter's (driver read, row-invariant SparseLoad reads, the
  // fold's scalar ops, one reduction and one output write), plus the
  // nest driver's per-candidate read for sparse nests; the panel and
  // store tallies are the blocked engine's own telemetry.
  if (C.CountersOn) {
    C.Local.FusedBlockedPanels += Panels;
    C.Local.FusedBlockedStores +=
        Mode == BMode::Stream ? Execs : Stores;
    C.Local.SparseReads +=
        Execs * ((D.CountReads ? 1 : 0) + SparseLoadFactors);
    if (Nest.CountReads)
      C.Local.SparseReads += Lanes;
    C.Local.ScalarOps += Execs * (NF - 1);
    if (Mode == BMode::Workspace) {
      // Child reductions per element plus the final store per lane —
      // exactly the interpreter's def / loop / store accounting.
      C.Local.Reductions += Execs + Lanes;
      C.Local.OutputWrites += Lanes;
    } else {
      C.Local.Reductions += Execs;
      C.Local.OutputWrites += Execs;
    }
  }
}

void MicroKernel::run(ExecCtx &C, int64_t Lo, int64_t Hi) {
  if (C.Ctrl && C.Ctrl->stopped())
    return;
  if (Blocked) {
    Blocked->run(C, Lo, Hi);
    return;
  }
  if (Innermost)
    runInner(C, Lo, Hi);
  else
    runNest(C, Lo, Hi);
}

//===----------------------------------------------------------------------===//
// Rebind (plan-cache hit path)
//===----------------------------------------------------------------------===//
// Mirrors the baking code above: every raw pointer a kernel cached at
// specialization is re-derived from the repatched access table, so a
// rebound plan reads the replacement tensors' level arrays. Re-derivation
// is idempotent — structure was validated identical before repatching.

namespace {

void rebindCoWalker(MKCoWalker &Co, const std::vector<AccessState> &Accesses) {
  const AccessState &A = Accesses[Co.AccessId];
  const Level &Lev = A.T->level(Co.Level);
  Co.Ptr = Lev.Ptr.data();
  Co.Crd = Lev.Crd.data();
  Co.RunEnd = Lev.RunEnd.data();
  Co.BLo = Lev.Lo.data();
  Co.BHi = Lev.Hi.data();
  Co.BOff = Lev.Off.data();
  Co.Vals = A.T->valsData();
  Co.Dim = Lev.Dim;
}

void rebindDriver(MKDriver &D, const std::vector<AccessState> &Accesses) {
  if (D.K != MKDriver::Kind::Range) {
    const AccessState &A = Accesses[D.AccessId];
    const Level &Lev = A.T->level(D.Level);
    D.Ptr = Lev.Ptr.data();
    D.Crd = Lev.Crd.data();
    D.RunEnd = Lev.RunEnd.data();
    D.BLo = Lev.Lo.data();
    D.BHi = Lev.Hi.data();
    D.BOff = Lev.Off.data();
    D.Vals = A.T->valsData();
    D.Dim = Lev.Dim;
  }
  for (MKCoWalker &Co : D.Cos)
    rebindCoWalker(Co, Accesses);
}

void rebindOperand(MKOperand &Op, const RebindCtx &R) {
  if (Op.K != MKOperand::Kind::Dense || !Op.ArrT)
    return;
  auto It = R.Map.find(Op.ArrT);
  if (It == R.Map.end())
    return;
  Op.ArrT = It->second;
  Op.Arr = Op.ArrT->valsData();
}

} // namespace

void MicroKernel::rebind(const RebindCtx &R) {
  rebindDriver(D, R.Accesses);
  for (MKItem &I : Items) {
    if (I.K == MKItem::Kind::Loop)
      continue; // owned by the enclosing Body tree, which rebinds it
    for (MKOperand &Op : I.S.Factors)
      rebindOperand(Op, R);
  }
  if (Blocked) {
    rebindDriver(Blocked->Nest, R.Accesses);
    rebindDriver(Blocked->D, R.Accesses);
    for (MKOperand &Op : Blocked->Factors)
      rebindOperand(Op, R);
  }
}

void PlanLoop::rebind(const RebindCtx &R) {
  if (Body)
    Body->rebind(R);
  if (Fused)
    Fused->rebind(R);
}

} // namespace detail
} // namespace systec
