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
#include <type_traits>
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

/// Whether dense operand \p Op reads an output array (assumed when the
/// outputs are unknown): it could then observe the leaf's own stores.
bool readsOutput(const MKOperand &Op, const std::vector<AccessState> &Accesses,
                 const MKSpecializeOptions &Opts) {
  if (!Opts.OutputTensors)
    return true;
  for (Tensor *T : *Opts.OutputTensors)
    if (T == Accesses[Op.Slot].T)
      return true;
  return false;
}

struct MatchState {
  const PlanLoop &L;
  const std::vector<AccessState> &Accesses;
  const MKSpecializeOptions &Opts;
  MKDriver D;
  /// Scalar slots written by items of this loop. A read of a written
  /// slot substitutes a preceding single-factor def under a compatible
  /// guard or declines the loop (a bind-time read would observe a stale
  /// value).
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
  for (size_t W = 1; W < Ws.size(); ++W) {
    const AccessState &B = M.Accesses[Ws[W].AccessId];
    MKCoWalker Co;
    Co.Kind = B.T->level(Ws[W].Level).Kind;
    // Mirrors the interpreter's per-element aliasing test against the
    // *driving* walker (co-walkers never alias each other there
    // either); parent equality resolves at bind time.
    Co.SameFiber = B.T == A.T && Ws[W].Level == Ws[0].Level;
    Co.AccessId = Ws[W].AccessId;
    Co.Level = Ws[W].Level;
    Co.Bottom = Ws[W].Bottom;
    Co.CountReads = Ws[W].Bottom && B.SparseFormat;
    D.Cos.push_back(std::move(Co));
  }
  return true;
}

/// Classifies one load instruction into an operand that binds once per
/// call, applying the written-scalar substitution rules. Returns nullopt
/// for an operand the interpreter must evaluate per element.
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
    if (M.Written.count(I.Id)) {
      // Substitute a preceding single-factor def under a compatible
      // guard; any other read of a written slot sees a value that
      // changes within the call.
      auto It = M.DefMap.find(I.Id);
      if (It == M.DefMap.end())
        return std::nullopt;
      const std::optional<CCond> &DefGuard = It->second.second;
      if (DefGuard && !(Guard && condEq(*DefGuard, *Guard)))
        return std::nullopt;
      return It->second.first;
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
    Op.Slot = I.Id;
    for (const auto &[Slot, Stride] : I.SlotStride) {
      if (Slot == M.L.Slot)
        Op.VStride += Stride;
      else
        Op.BaseTerms.push_back({Slot, Stride});
    }
    return Op;
  }
  case VKind::SparseLoad:
    return std::nullopt; // a locate per element: the interpreter's case
  case VKind::Lut:
    for (const CAtom &A : I.LutBits)
      if (A.A == M.L.Slot || A.B == M.L.Slot)
        return std::nullopt; // the table entry changes per element
    Op.K = MKOperand::Kind::Lut;
    Op.LutBits = I.LutBits;
    Op.LutTable = I.LutTable;
    return Op;
  case VKind::Op:
    return std::nullopt; // Op is handled by the program classifier
  }
  return std::nullopt;
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
/// def time). A later read of such a def's slot declines the loop.
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
    // A reader substitutes the def only under an equal guard (or none on
    // the def). Guards test index values alone, so under a per-element
    // dynamic guard the def ran at the reader's own element: ssymv's and
    // bellmanford's leaves without bound lifting read `t = A[i,j]`
    // under `i < j` that way. A factor over an output array could see a
    // store between the def and the reader, so it never substitutes.
    M.Written.insert(Def->Slot);
    invalidateDefsReading(M, Def->Slot);
    const MKOperand &F = Item.S.Factors[0];
    if (Item.S.Factors.size() == 1 &&
        !(F.K == MKOperand::Kind::Dense && readsOutput(F, M.Accesses, M.Opts)))
      M.DefMap[Def->Slot] = {F, Guard};
    else
      M.DefMap.erase(Def->Slot);
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
      M.Written.insert(As->ScalarSlot);
      M.DefMap.erase(As->ScalarSlot);
      invalidateDefsReading(M, As->ScalarSlot);
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
  return false; // PlanReplicate or unknown nodes stay interpreted
}

//===----------------------------------------------------------------------===//
// Blocked-output-shape matcher
//===----------------------------------------------------------------------===//

/// Appends \p N's statements to \p Out, looking through PlanSeq
/// nesting. Returns false on a PlanIf: the panel shapes carry no guard.
bool flattenUnguarded(PlanNode *N, std::vector<PlanNode *> &Out) {
  if (auto *Seq = dynamic_cast<PlanSeq *>(N)) {
    for (PlanPtr &Child : Seq->Children)
      if (!flattenUnguarded(Child.get(), Out))
        return false;
    return true;
  }
  if (dynamic_cast<PlanIf *>(N))
    return false;
  Out.push_back(N);
  return true;
}

/// Attempts to install the register/cache-blocked output engine on the
/// nest loop \p L (see MKBlockedEngine in the header for the shape
/// contract). Any mismatch simply leaves the nest to the interpreter —
/// both paths are bit-identical, so this is purely a performance
/// decision.
bool tryInstallBlocked(PlanLoop &L, const std::vector<AccessState> &Accesses,
                       const MKSpecializeOptions &Opts) {
  // The nest driver supplies the panel lanes: a plain Range (ssyrk's
  // dense output columns under bound lifting off) or a single sparse
  // walk with no co-walkers (ssyrk's annihilation-driven column walk —
  // the panel variable then takes stored coordinates and the walked
  // factor reads the lane's fiber value). Either way the panel
  // variable must not advance any state the child's bind depends on
  // beyond what the lane bind re-derives (IndexVal + the nest access's
  // own position).
  if (L.Walkers.size() > 1)
    return false;
  MatchState M{L, Accesses, Opts, MKDriver{}, {}, {}};
  buildDriver(M);
  if (M.D.K != MKDriver::Kind::Range &&
      M.D.K != MKDriver::Kind::SparseWalk)
    return false;
  // Two accepted body shapes: the direct nest [PlanLoop] and the
  // workspace triple [PlanDef w = <literal>, PlanLoop, dst R= w] the
  // pipeline emits for sparse-row-times-dense-panel kernels
  // (spmm/ttm-style nests).
  std::vector<PlanNode *> Body;
  if (!flattenUnguarded(L.Body.get(), Body))
    return false;
  const bool Ws = Body.size() == 3;
  if (!Ws && Body.size() != 1)
    return false;
  auto *Ch = dynamic_cast<PlanLoop *>(Body[Ws ? 1 : 0]);
  if (!Ch || !Ch->Fused || Ch->Par.Enabled)
    return false;
  const MicroKernel &CMK = *Ch->Fused;
  if (CMK.D.K != MKDriver::Kind::SparseWalk || !CMK.D.Cos.empty())
    return false;
  // The child's fiber must be invariant across the panel variable: the
  // nest walking the same access would re-position the child driver's
  // parent per lane.
  if (M.D.K == MKDriver::Kind::SparseWalk && M.D.AccessId == CMK.D.AccessId)
    return false;
  if (CMK.Items.size() != 1 || CMK.Items[0].K != MKItem::Kind::Stmt ||
      CMK.Items[0].HasGuard)
    return false;
  // The one accepted statement: A·f under (*, +), the child driver's
  // value first. Whether f strides the child walk picks the mode below.
  const MKStmt &S = CMK.Items[0].S;
  if (S.Factors.size() != 2 || S.Combine != OpKind::Mul ||
      S.Reduce != OpKind::Add ||
      S.Factors[0].K != MKOperand::Kind::Driver)
    return false;
  const MKOperand &F = S.Factors[1];
  // A dense f reading an output array would observe the loop's own
  // stores, and the panel visit order could then change what it reads.
  if (F.K == MKOperand::Kind::Dense && readsOutput(F, Accesses, Opts))
    return false;
  // Strided: a dense load whose position moves with the child driver.
  // Invariant: anything else but the driver (constants, scalars, walked
  // values, Luts and unstrided dense loads bind once per lane; the
  // child has no co-walkers).
  if (F.K == MKOperand::Kind::Driver)
    return false;
  const bool Strided = F.K == MKOperand::Kind::Dense && F.VStride != 0;
  auto B = std::make_unique<MKBlockedEngine>();
  int64_t PS = 0;
  std::vector<std::pair<unsigned, int64_t>> InvTerms;
  if (Ws) {
    // Workspace triple: `w` seeded from a literal, accumulating f's
    // strided loads per element, folded into a `u`-strided cell once
    // per lane.
    auto *Def = dynamic_cast<PlanDef *>(Body[0]);
    auto *Fin = dynamic_cast<PlanAssign *>(Body[2]);
    if (!Strided || !Def || Def->Init.Code.size() != 1 ||
        Def->Init.Code[0].Kind != VKind::Lit)
      return false;
    if (!S.ScalarDst || S.ScalarSlot != Def->Slot)
      return false;
    if (!Fin || Fin->ScalarTarget || Fin->Mult != 1 ||
        Fin->Rhs.Code.size() != 1 ||
        Fin->Rhs.Code[0].Kind != VKind::Scalar ||
        Fin->Rhs.Code[0].Id != Def->Slot)
      return false;
    for (const auto &[Slot, Stride] : Fin->SlotStride) {
      if (Slot == L.Slot)
        PS += Stride;
      else
        InvTerms.push_back({Slot, Stride});
    }
    if (PS == 0)
      return false; // lanes must reach distinct cells
    B->Mode = MKBlockedEngine::BMode::Workspace;
    B->WsSlot = Def->Slot;
    B->WsInit = Def->Init.Code[0].Lit;
    B->FinalReduce = Fin->Reduce;
    B->OutId = Fin->OutId;
  } else {
    if (S.ScalarDst)
      return false;
    // Destination: the nest variable `u` must stride a dense output
    // mode (the panel stride). Accum: a strided f into one cell per
    // lane. Stream: an invariant f into cells striding the child
    // variable, where lanes must write provably disjoint cells — the
    // child driver's span under one lane may not reach the next lane —
    // so visiting elements panel-by-panel cannot reorder any per-cell
    // reduction.
    for (const auto &[Slot, Stride] : S.DstBaseTerms) {
      if (Slot == L.Slot)
        PS += Stride;
      else
        InvTerms.push_back({Slot, Stride});
    }
    if (PS <= 0)
      return false;
    if (Strided) {
      if (S.DstVStride != 0)
        return false;
      B->Mode = MKBlockedEngine::BMode::Accum;
    } else {
      const int64_t FiberDim =
          Accesses[CMK.D.AccessId].T->level(CMK.D.Level).Dim;
      if (S.DstVStride <= 0 || S.DstVStride * (FiberDim - 1) >= PS)
        return false;
      B->Mode = MKBlockedEngine::BMode::Stream;
      B->DstVStride = S.DstVStride;
    }
    B->OutId = S.OutId;
  }
  B->USlot = L.Slot;
  B->Child = Ch;
  B->Nest = M.D;
  B->D = CMK.D;
  B->PanelStride = PS;
  B->DstInvTerms = std::move(InvTerms);
  B->Lane = F;
  // Width from the panel mode's extent: narrow modes take 4-wide
  // panels, everything else 8. Values and counters are
  // width-independent.
  B->Width = L.Extent >= 8 ? 8u : 4u;
  L.Blocked = std::move(B);
  return true;
}

/// Gives \p MK a straight-line loop when its shape is in the
/// instantiated set (defined with the loops, below).
void planLine(MicroKernel &MK, const std::vector<AccessState> &Accesses,
              const MKSpecializeOptions &Opts);

} // namespace

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

bool specializeLoop(PlanLoop &L, const std::vector<AccessState> &Accesses,
                    const MKSpecializeOptions &Opts) {
  // Nest loops stay interpreted unless the blocked engine takes them:
  // how the outer loops step adds nothing to the fused leaves' savings.
  if (containsLoop(L.Body.get()))
    return Opts.UseBlocked && tryInstallBlocked(L, Accesses, Opts);
  MatchState M{L, Accesses, Opts, MKDriver{}, {}, {}};
  if (!buildDriver(M))
    return false;
  std::vector<MKItem> Items;
  if (!gatherItems(L.Body.get(), std::nullopt, M, Items))
    return false;
  if (Items.empty() || Items.size() > MicroKernel::MaxItems)
    return false;
  // Scalar factors bind once per call, so none may name a slot any item
  // of this loop writes. Reads *after* a write were resolved during
  // gathering (substituted or declined); this final pass catches reads
  // that precede a later write, where the interpreter observes the
  // previous iteration's value (loop-carried scalar dependence).
  for (const MKItem &I : Items)
    for (const MKOperand &Op : I.S.Factors)
      if (Op.K == MKOperand::Kind::Scalar && M.Written.count(Op.Slot))
        return false;
  // Only fuse where it pays: the loop must do real assignments.
  bool HasStmt = false;
  for (const MKItem &I : Items)
    HasStmt |= I.K == MKItem::Kind::Stmt;
  if (!HasStmt)
    return false;
  auto MK = std::make_unique<MicroKernel>();
  MK->Slot = L.Slot;
  MK->D = M.D;
  MK->Items = std::move(Items);
  planLine(*MK, Accesses, Opts);
  L.Fused = std::move(MK);
  return true;
}

//===----------------------------------------------------------------------===//
// Execution: shared driver iteration
//===----------------------------------------------------------------------===//

namespace {

/// One walked level's raw arrays plus its tensor's value array, read
/// from the access table at bind: Ptr/Crd for Sparse, Ptr/RunEnd for
/// RunLength, BLo/BHi/BOff for Banded, Dim for Dense.
struct LevelBind {
  const int64_t *Ptr, *Crd, *RunEnd, *BLo, *BHi, *BOff;
  const double *Vals;
  int64_t Dim;
};

void bindLevel(LevelBind &LB, const AccessState &A, unsigned L) {
  const Level &Lev = A.T->level(L);
  LB.Ptr = Lev.Ptr.data();
  LB.Crd = Lev.Crd.data();
  LB.RunEnd = Lev.RunEnd.data();
  LB.BLo = Lev.Lo.data();
  LB.BHi = Lev.Hi.data();
  LB.BOff = Lev.Off.data();
  LB.Vals = A.T->valsData();
  LB.Dim = Lev.Dim;
}

/// Per-run co-walker state: level arrays, parent position, the
/// per-execution alias decision, and the forward finger for compressed
/// kinds. Plain aggregate with no default initialization — binding
/// runs once per *row* of a nest, and bindDriver writes exactly the
/// entries the driver's co-walker list uses (unused slots are never
/// read).
struct CoBind : LevelBind {
  int64_t Parent;
  bool Aliased;
  int64_t K, E;
};

/// Per-run driver state: the driver's level arrays and parent position
/// (unwritten for Range drivers, which read neither).
struct DriverBind : LevelBind {
  int64_t Parent = 0;
  CoBind Co[MKDriver::MaxCoWalkers];
};

DriverBind bindDriver(ExecCtx &C, const MKDriver &D) {
  DriverBind B;
  if (D.K == MKDriver::Kind::Range)
    return B;
  const AccessState &A = C.Accesses[D.AccessId];
  bindLevel(B, A, D.Level);
  B.Parent = A.Pos[D.Level];
  for (size_t I = 0; I < D.Cos.size(); ++I) {
    const MKCoWalker &Co = D.Cos[I];
    const AccessState &CA = C.Accesses[Co.AccessId];
    CoBind &CB = B.Co[I];
    bindLevel(CB, CA, Co.Level);
    CB.Parent = CA.Pos[Co.Level];
    // Mirror the interpreter's per-execution aliasing test: the same
    // fiber walked twice advances in lockstep instead of re-locating.
    CB.Aliased = Co.SameFiber && CB.Parent == B.Parent;
    if (!CB.Aliased && (Co.Kind == LevelKind::Sparse ||
                        Co.Kind == LevelKind::RunLength)) {
      CB.K = CB.Ptr[CB.Parent];
      CB.E = CB.Ptr[CB.Parent + 1];
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

/// Iterates the fused loop's elements, invoking Body(v, k1, k2, coPos)
/// for every intersection element, in exactly the interpreter's order.
/// Instantiated separately for loops without co-walkers (WithCos =
/// false) so the plain driver walks keep the tight pre-intersection
/// codegen — the resolution machinery folds away entirely.
template <bool WithCos, typename Fn>
void iterateDriverImpl(const MKDriver &D, DriverBind &B, int64_t Lo,
                       int64_t Hi, IterCounts &N, Fn &&Body) {
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
          P = CB.Parent * CB.Dim + V;
          break;
        case LevelKind::Sparse: {
          int64_t K = CB.K;
          const int64_t *Crd = CB.Crd;
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
          const int64_t *RunEnd = CB.RunEnd;
          while (K < CB.E && RunEnd[K] <= V)
            ++K;
          CB.K = K;
          if (K >= CB.E)
            return false; // past the last run (V outside the extent)
          P = K;
          break;
        }
        case LevelKind::Banded: {
          const int64_t BLo = CB.BLo[CB.Parent];
          if (V < BLo || V >= CB.BHi[CB.Parent])
            return false;
          P = CB.BOff[CB.Parent] + (V - BLo);
          break;
        }
        }
      }
      CoPos[I] = P;
      ++N.CoMatched[I];
    }
    return true;
  };

  auto Emit = [&](int64_t V, int64_t K1) {
    ++N.Visited;
    if constexpr (WithCos) {
      if (NCo && !ResolveCos(V, K1))
        return;
    }
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
      Body(V, 0, 0, static_cast<const int64_t *>(CoPos));
    }
    return;
  case MKDriver::Kind::DenseWalk: {
    const int64_t Base = B.Parent * B.Dim;
    for (int64_t V = Lo; V <= Hi; ++V)
      Emit(V, Base + V);
    return;
  }
  case MKDriver::Kind::SparseWalk: {
    int64_t K = B.Ptr[B.Parent], E = B.Ptr[B.Parent + 1];
    const int64_t *Crd = B.Crd;
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
    const int64_t KE = B.Ptr[B.Parent + 1];
    for (int64_t K = B.Ptr[B.Parent]; K < KE; ++K) {
      const int64_t End = B.RunEnd[K];
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
    const int64_t BB = std::max(Lo, B.BLo[B.Parent]);
    const int64_t BE = std::min(Hi, B.BHi[B.Parent] - 1);
    for (int64_t V = BB; V <= BE; ++V)
      Emit(V, B.BOff[B.Parent] + (V - B.BLo[B.Parent]));
    return;
  }
  }
}

/// Dispatches to the co-walker-free or intersecting instantiation.
template <typename Fn>
inline void iterateDriver(const MKDriver &D, DriverBind &B, int64_t Lo,
                          int64_t Hi, IterCounts &N, Fn &&Body) {
  if (D.Cos.empty())
    iterateDriverImpl<false>(D, B, Lo, Hi, N, std::forward<Fn>(Body));
  else
    iterateDriverImpl<true>(D, B, Lo, Hi, N, std::forward<Fn>(Body));
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
// Execution: fused leaf engine (prebound)
//===----------------------------------------------------------------------===//

/// One prebound value source, loaded branchlessly as
/// P[SV * v + SK1 * k1 + SK2 * k2]: dense-affine factors set SV,
/// driver/co-walker factors set SK1/SK2 with P at the value array, and
/// immediates (literals, bind-time scalar/walked/lut reads) point P at
/// their own Imm slot with all strides zero. k2 is the first
/// co-walker's matched position, passed as a scalar so the hot bound
/// loads keep their three-term register addressing; only statements
/// that read a later co-walker look their k2 up (BoundStmt::CoOf).
/// Plain aggregate with no default initialization: binding runs once
/// per loop execution, often once per *row* of a nest, so constructing
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
  /// (Mul-fold, Add-reduce), 2: def store, 3: general (any ops, guard,
  /// reads of a later co-walker).
  uint8_t Kind;
  OpKind Combine;
  int8_t Reduce; // -1: overwrite
  uint8_t Mode;  // 0: def store; 1: scalar dst; 2: tensor dst
  double *Dst;
  int64_t DstS;
  const CCond *Guard; // dynamic guard, evaluated per element
  uint64_t Execs;
  unsigned Ops; // ScalarOps contributed per execution
  /// Kind 3: per factor, the co-walker whose matched position is its k2
  /// (0 for every factor that reads no co-walker).
  uint8_t CoOf[MicroKernel::MaxFactors];
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

/// Executes one bound statement for one element; \p Co holds every
/// co-walker's matched position (Co[0] == K2).
inline void execBound(ExecCtx &C, BoundStmt &S, int64_t V, int64_t K1,
                      int64_t K2, const int64_t *Co) {
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
  default: {
    if (S.Guard && !S.Guard->eval(C))
      return;
    double Acc = loadBound(S.F[0], V, K1, Co[S.CoOf[0]]);
    for (unsigned I = 1; I < S.NF; ++I)
      Acc = evalOp(S.Combine, Acc, loadBound(S.F[I], V, K1, Co[S.CoOf[I]]));
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

void MicroKernel::run(ExecCtx &C, int64_t Lo, int64_t Hi) {
  if (C.Ctrl && C.Ctrl->stopped())
    return;
  if (Line.Run) {
    Line.Run(*this, C, Lo, Hi);
    return;
  }
  DriverBind B = bindDriver(C, D);

  // Bind: resolve invariant guards and operand bases against the
  // current context. All bind state is on the stack so one MicroKernel
  // can run from many task contexts concurrently; the array is left
  // uninitialized and every used field written explicitly, because a
  // nest re-binds its inner loop once per row.
  BoundStmt BS[MaxItems];
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
    S.DstS = 0;
    bool MulFold = S.NF == 1 || Src.Combine == OpKind::Mul;
    bool LaterCo = false; // reads a co-walker past the first
    for (unsigned I = 0; I < S.NF; ++I) {
      const MKOperand &Op = Src.Factors[I];
      BoundVal &F = S.F[I];
      F.SV = F.SK1 = F.SK2 = 0;
      S.CoOf[I] = 0;
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
        F.P = C.Accesses[Op.Slot].T->valsData() + Base;
        F.SV = Op.VStride;
        break;
      }
      case MKOperand::Kind::Driver:
        F.P = B.Vals;
        F.SK1 = 1;
        break;
      case MKOperand::Kind::CoDriver:
        F.P = B.Co[Op.Slot].Vals;
        F.SK2 = 1;
        S.CoOf[I] = static_cast<uint8_t>(Op.Slot);
        LaterCo |= Op.Slot > 0;
        break;
      case MKOperand::Kind::Lut: {
        // The matcher declines Luts whose bits mention the loop
        // variable, so the table entry is a bind-time constant.
        unsigned Mask = 0;
        for (size_t Bit = 0; Bit < Op.LutBits.size(); ++Bit)
          if (Op.LutBits[Bit].eval(C))
            Mask |= 1u << Bit;
        F.Imm = Op.LutTable[Mask];
        F.P = &F.Imm;
        break;
      }
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
    // kernels hit; everything else takes the general switch.
    const bool Fast = !S.Guard && MulFold && !LaterCo;
    const bool AddReduce = S.Reduce == static_cast<int8_t>(OpKind::Add);
    if (Fast && AddReduce && S.Mode == 2)
      S.Kind = 0;
    else if (Fast && AddReduce && S.Mode == 1)
      S.Kind = 1;
    else if (Fast && S.Mode == 0)
      S.Kind = 2;
    else
      S.Kind = 3;
    ++NS;
  }

  IterCounts N;
  iterateDriver(D, B, Lo, Hi, N,
                [&](int64_t V, int64_t K1, int64_t K2, const int64_t *CoPos) {
                  if (AnyDynamic)
                    C.IndexVal[Slot] = V;
                  for (unsigned I = 0; I < NS; ++I)
                    execBound(C, BS[I], V, K1, K2, CoPos);
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
/// first). \p Vals is the operand's bound value array (Dense operands
/// only).
double bindLaneOperand(ExecCtx &C, const MKOperand &Op, const double *Vals) {
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
    return Vals[Pos];
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
  const AccessState &DA = C.Accesses[D.AccessId];
  const Level &DLev = DA.T->level(D.Level);
  const int64_t Parent = DA.Pos[D.Level];
  const int64_t KB = DLev.Ptr[Parent], KE = DLev.Ptr[Parent + 1];
  const int64_t *Crd = DLev.Crd.data();
  const double *DV = DA.T->valsData();
  const double *FVals = Lane.K == MKOperand::Kind::Dense
                            ? C.Accesses[Lane.Slot].T->valsData()
                            : nullptr;
  int64_t DstBase = 0;
  for (const auto &[Slot, Stride] : DstInvTerms)
    DstBase += C.IndexVal[Slot] * Stride;
  double *const OutArr = C.OutPtr[OutId] + DstBase;

  // Panel lane state, rebound per panel. Everything lives on the stack:
  // one engine may run from many task contexts concurrently, and each
  // task range derives its own panels.
  int64_t LaneLo[MaxWidth], LaneHi[MaxWidth];
  double *LaneDst[MaxWidth];
  double LaneVal[MaxWidth];        // Stream: f per lane
  const double *LanePtr[MaxWidth]; // Accum / Workspace: f's lane base
  int64_t UnionLo = 0, UnionHi = -1;

  uint64_t Panels = 0, Stores = 0, Execs = 0, Lanes = 0;

  // Binds lane Wi at panel coordinate U: per-lane child bounds (the
  // child's Lo/Hi terms may reference the panel variable — ssyrk's
  // triangle bounds do), the destination pointer, and f. This replaces
  // one full child re-bind per column with one per panel. Mirrors the
  // generic nest's per-iteration state updates (IndexVal; the caller
  // updates the nest access's position for sparse nests before
  // calling) so a walked f of the nest access reads the lane's fiber
  // value.
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
    if (Mode == BMode::Stream) {
      LaneVal[Wi] = bindLaneOperand(C, Lane, FVals);
    } else {
      int64_t Base = 0;
      for (const auto &[Slot, Stride] : Lane.BaseTerms)
        Base += C.IndexVal[Slot] * Stride;
      LanePtr[Wi] = FVals + Base;
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

    if (Mode == BMode::Stream) {
      // Axpy2: dst[lane][DS * V] += driver * f[lane], the ssyrk panel.
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
            LaneDst[Wi][DS * V] += T * LaneVal[Wi];
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
            LaneDst[Wi][DS * V] += T * LaneVal[Wi];
            ++Execs;
          }
        }
      }
      return;
    }
    // Accum2: acc[lane] += driver * f[lane][S1 * V], the SpMM-style
    // panel. The accumulators live in registers across the whole walk
    // and write back once per lane — the "streaming panel store".
    double Acc[MaxWidth];
    for (unsigned Wi = 0; Wi < W; ++Wi)
      Acc[Wi] = Mode == BMode::Workspace ? WsInit : LaneDst[Wi][0];
    const int64_t S1 = Lane.VStride;
    if (Empty) {
      // no elements: fall through to the per-lane writeback
    } else if (SharedLo && SharedHi) {
      for (; K < KE; ++K) {
        const int64_t V = Crd[K];
        if (V > UnionHi)
          break;
        const double T = DV[K];
        for (unsigned Wi = 0; Wi < W; ++Wi)
          Acc[Wi] += T * LanePtr[Wi][S1 * V];
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
          Acc[Wi] += T * LanePtr[Wi][S1 * V];
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
    const Level &NLev = NA.T->level(Nest.Level);
    const int64_t NParent = NA.Pos[Nest.Level];
    int64_t NK = NLev.Ptr[NParent];
    const int64_t NE = NLev.Ptr[NParent + 1];
    const int64_t *NCrd = NLev.Crd.data();
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
  // interpreter's (driver read, the fold's scalar ops, one reduction
  // and one output write), plus the nest driver's per-candidate read
  // for sparse nests; the panel and store tallies are the blocked
  // engine's own telemetry.
  if (C.CountersOn) {
    C.Local.FusedBlockedPanels += Panels;
    C.Local.FusedBlockedStores +=
        Mode == BMode::Stream ? Execs : Stores;
    if (D.CountReads)
      C.Local.SparseReads += Execs;
    if (Nest.CountReads)
      C.Local.SparseReads += Lanes;
    C.Local.ScalarOps += Execs; // the one Mul of A·f
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

//===----------------------------------------------------------------------===//
// Execution: straight-line leaves
//===----------------------------------------------------------------------===//

namespace {

/// Runs Body.template operator()<I>() for I = 0 .. N-1 in order, so the
/// per-statement and per-factor code of a shape unrolls at compile time
/// and its bound state lives in registers.
template <unsigned N, typename Fn> inline void unroll(Fn &&Body) {
  [&]<unsigned... I>(std::integer_sequence<unsigned, I...>) {
    (Body.template operator()<I>(), ...);
  }(std::make_integer_sequence<unsigned, N>());
}

/// The two semirings of the paper kernels, combining and reducing
/// exactly as evalOp does. Identity stands in for the prefix of a
/// statement that has none: 1 * x and -0 + x are x bit for bit.
struct MulAdd {
  static constexpr double Identity = 1.0;
  static double comb(double A, double B) { return A * B; }
  static double red(double D, double X) { return D + X; }
};
struct AddMin {
  static constexpr double Identity = -0.0;
  static double comb(double A, double B) { return A + B; }
  static double red(double D, double X) { return std::min(D, X); }
};

/// Whether \p Op has one value for a whole straight-line call (it is
/// then folded into the prefix or held in a register).
bool lineInvariant(const MKOperand &Op) {
  return Op.K == MKOperand::Kind::Dense ? Op.VStride == 0
                                        : Op.K != MKOperand::Kind::Driver;
}

/// \p Op's value array offset by its bound (non-loop) index terms.
const double *denseBase(const ExecCtx &C, const MKOperand &Op) {
  int64_t Base = 0;
  for (const auto &[Slot, Stride] : Op.BaseTerms)
    Base += C.IndexVal[Slot] * Stride;
  return C.Accesses[Op.Slot].T->valsData() + Base;
}

/// The value of \p Op, which lineInvariant accepts.
double invariantValue(ExecCtx &C, const MKOperand &Op) {
  return Op.K == MKOperand::Kind::Dense ? *denseBase(C, Op)
                                        : bindLaneOperand(C, Op, nullptr);
}

/// The part of a straight-line call its shape does not decide, run
/// after a walk over \p N > 0 elements: every def stores its value at
/// the last element (V, K) — no statement reads a def slot, so that
/// value is all the interpreter leaves observable — and the counters
/// are charged once.
void finishLine(const MicroKernel &MK, ExecCtx &C, const double *DV,
                int64_t V, int64_t K, uint64_t N) {
  for (unsigned I : MK.Line.Defs) {
    const MKStmt &Def = MK.Items[I].S;
    auto Value = [&](const MKOperand &Op) {
      if (Op.K == MKOperand::Kind::Driver)
        return DV[K];
      if (Op.K == MKOperand::Kind::Dense)
        return denseBase(C, Op)[Op.VStride * V];
      return invariantValue(C, Op);
    };
    double Acc = Value(Def.Factors[0]);
    for (size_t F = 1; F < Def.Factors.size(); ++F)
      Acc = evalOp(Def.Combine, Acc, Value(Def.Factors[F]));
    C.ScalarVal[Def.ScalarSlot] = Acc;
  }
  if (C.CountersOn) {
    if (MK.D.CountReads)
      C.Local.SparseReads += N;
    C.Local.ScalarOps += N * MK.Line.Ops;
    C.Local.Reductions += N * MK.Line.Reductions;
    C.Local.OutputWrites += N * MK.Line.Writes;
  }
}

/// The straight-line loop of one shape: S statements in program order
/// per element of one driver walk (a sparse walk when Sparse, else the
/// coordinate range). On a range each statement starts from its
/// invariant prefix, folded at bind (the identity when it has none); on
/// a sparse walk statements have none. Then come E per-element factors
/// read as P[stride * v] — on a sparse walk the one at DrvAt is the
/// driver value, read once per element for every statement; on a range
/// every factor and destination shares the plan's two strides — and T
/// invariant tail factors held in registers. Bit s of ScalarMask makes
/// statement s reduce into a register stored once after the walk; the
/// others reduce into their tensor cells in place, so statements that
/// share a cell see each other's updates in program order.
template <typename SR, bool Sparse, unsigned S, unsigned E, unsigned T,
          unsigned DrvAt, unsigned ScalarMask>
void runLine(const MicroKernel &MK, ExecCtx &C, int64_t Lo, int64_t Hi) {
  // The walk first: an empty one (most calls of a diagonal split's
  // leaves) returns before binding anything, as nothing it would run is
  // observable.
  const int64_t *Crd = nullptr;
  const double *DV = nullptr;
  int64_t K0 = 0, KE = 0;
  if constexpr (Sparse) {
    const AccessState &DA = C.Accesses[MK.D.AccessId];
    const Level &Lev = DA.T->level(MK.D.Level);
    const int64_t Parent = DA.Pos[MK.D.Level];
    Crd = Lev.Crd.data();
    DV = DA.T->valsData();
    K0 = Lev.Ptr[Parent];
    KE = Lev.Ptr[Parent + 1];
    if (Lo > 0)
      K0 = std::lower_bound(Crd + K0, Crd + KE, Lo) - Crd;
    if (K0 == KE || Crd[K0] > Hi)
      return;
  } else if (Lo > Hi) {
    return;
  }

  const MKLine &LP = MK.Line;
  const double *Base[S * E] = {};
  for (size_t L = 0; L < LP.Loads.size(); ++L)
    Base[L] = denseBase(C, LP.Loads[L]);
  double Pf[S] = {}, Tl[S][T ? T : 1] = {}, Imm[S][E] = {}, Acc[S] = {};
  const double *P[S][E] = {};
  int64_t St[S][E] = {}, DS[S] = {}; // sparse walks only
  double *Dst[S] = {};
  unroll<S>([&]<unsigned I>() {
    const MKStmt &Sm = MK.Items[LP.Stmts[I]].S;
    const unsigned NP = static_cast<unsigned>(Sm.Factors.size()) - E - T;
    // The prefix folds left to right, as the interpreter's fold starts.
    if constexpr (!Sparse) {
      Pf[I] = SR::Identity;
      for (unsigned F = 0; F < NP; ++F) {
        const double X = invariantValue(C, Sm.Factors[F]);
        Pf[I] = F ? SR::comb(Pf[I], X) : X;
      }
    }
    unroll<E>([&]<unsigned F>() {
      const MKOperand &Op = Sm.Factors[NP + F];
      if (Sparse && F == DrvAt)
        return;
      if (Op.K == MKOperand::Kind::Dense) {
        P[I][F] = Base[LP.LoadOf[I * E + F]];
        St[I][F] = Op.VStride;
      } else { // an invariant factor amid a sparse statement's strided ones
        Imm[I][F] = invariantValue(C, Op);
        P[I][F] = &Imm[I][F];
      }
    });
    unroll<T>([&]<unsigned F>() {
      Tl[I][F] = invariantValue(C, Sm.Factors[NP + E + F]);
    });
    if constexpr ((ScalarMask >> I) & 1u) {
      Dst[I] = &C.ScalarVal[Sm.ScalarSlot];
      Acc[I] = *Dst[I];
    } else {
      int64_t Base = 0;
      for (const auto &[Slot, Stride] : Sm.DstBaseTerms)
        Base += C.IndexVal[Slot] * Stride;
      Dst[I] = C.OutPtr[Sm.OutId] + Base;
      DS[I] = Sm.DstVStride;
    }
  });

  const int64_t SF = LP.FactorStride, SD = LP.DstStride;
  auto Elem = [&](int64_t V, double Dv) {
    const int64_t OF = SF * V, OD = SD * V;
    unroll<S>([&]<unsigned I>() {
      double A = Pf[I];
      unroll<E>([&]<unsigned F>() {
        double X;
        if constexpr (Sparse && F == DrvAt)
          X = Dv;
        else if constexpr (Sparse)
          X = P[I][F][St[I][F] * V];
        else
          X = P[I][F][OF];
        if constexpr (Sparse && F == 0)
          A = X;
        else
          A = SR::comb(A, X);
      });
      unroll<T>([&]<unsigned F>() { A = SR::comb(A, Tl[I][F]); });
      if constexpr ((ScalarMask >> I) & 1u) {
        Acc[I] = SR::red(Acc[I], A);
      } else {
        double &D = Dst[I][Sparse ? DS[I] * V : OD];
        D = SR::red(D, A);
      }
    });
  };

  int64_t LastV = Hi, LastK = 0;
  if constexpr (Sparse) {
    int64_t K = K0;
    for (; K < KE; ++K) {
      const int64_t V = Crd[K];
      if (V > Hi)
        break;
      Elem(V, DV[K]);
    }
    LastK = K - 1;
    LastV = Crd[LastK];
  } else {
    for (int64_t V = Lo; V <= Hi; ++V)
      Elem(V, 0.0);
  }
  unroll<S>([&]<unsigned I>() {
    if constexpr ((ScalarMask >> I) & 1u)
      *Dst[I] = Acc[I];
  });
  finishLine(MK, C, DV, LastV, LastK,
             static_cast<uint64_t>(Sparse ? LastK + 1 - K0 : Hi - Lo + 1));
}

/// One instantiated straight-line shape (the runLine parameters).
struct LineShape {
  bool Sparse, MinPlus;
  unsigned S, E, T, DrvAt, ScalarMask;
  MKLine::Fn Run;
};

template <typename SR, bool Sparse, unsigned S, unsigned E, unsigned T,
          unsigned DrvAt = 0, unsigned ScalarMask = 0>
constexpr LineShape line() {
  return {Sparse, std::is_same_v<SR, AddMin>, S, E, T, DrvAt, ScalarMask,
          &runLine<SR, Sparse, S, E, T, DrvAt, ScalarMask>};
}

/// The instantiated set: the leaf shapes of the eight paper kernels
/// (naive and optimized) plus every shape the single-statement sparse
/// loop this family replaced covered. Every other leaf takes the
/// generic path. The first match wins, so a shape with a longer
/// register tail is listed before the one that loads that factor.
constexpr LineShape LineShapes[] = {
    // Sparse walks, (*, +), driver first. One statement into a tensor
    // cell (ssymv's naive and diagonal rows, ssyrk's column) or into a
    // scalar (row dots; syprd's diagonal and strict rows), with one or
    // two invariant tail factors (syprd's x[j] and 2)...
    line<MulAdd, true, 1, 1, 1>(),
    line<MulAdd, true, 1, 1, 1, 0, 1>(),
    line<MulAdd, true, 1, 2, 2>(),
    line<MulAdd, true, 1, 2, 2, 0, 1>(),
    line<MulAdd, true, 1, 2, 1>(),
    line<MulAdd, true, 1, 2, 1, 0, 1>(),
    line<MulAdd, true, 1, 2, 0>(),
    line<MulAdd, true, 1, 2, 0, 0, 1>(),
    // ...syprd's naive row x[i] * A * x[j] (driver second)...
    line<MulAdd, true, 1, 2, 1, 1, 1>(),
    // ...and ssymv's read-once pair: y[i] += t * x[j]; w += t * x[i],
    // or two tensor updates.
    line<MulAdd, true, 2, 2, 0, 0, 2>(),
    line<MulAdd, true, 2, 2, 0>(),
    // Sparse walks, (+, min): bellmanford's rows and its pair.
    line<AddMin, true, 1, 1, 1>(),
    line<AddMin, true, 2, 2, 0, 0, 2>(),
    // Ranges over dense operands, (*, +), after an invariant prefix:
    // ttm's naive row and read-once triple, the naive mttkrp3-5 rows,
    // and the strict mttkrp3-5 blocks (one statement per mode, each
    // ending in its constant multiplicity).
    line<MulAdd, false, 1, 1, 0>(),
    line<MulAdd, false, 3, 1, 0>(),
    line<MulAdd, false, 1, 2, 0>(),
    line<MulAdd, false, 1, 3, 0>(),
    line<MulAdd, false, 1, 4, 0>(),
    line<MulAdd, false, 3, 2, 1>(),
    line<MulAdd, false, 4, 3, 1>(),
    line<MulAdd, false, 5, 4, 1>(),
};

void planLine(MicroKernel &MK, const std::vector<AccessState> &Accesses,
              const MKSpecializeOptions &Opts) {
  const bool Sparse = MK.D.K == MKDriver::Kind::SparseWalk;
  if ((!Sparse && MK.D.K != MKDriver::Kind::Range) || !MK.D.Cos.empty())
    return;
  MKLine LP;
  std::optional<OpKind> Combine, Reduce;
  std::set<unsigned> DefSlots, ScalarDsts;
  unsigned Mask = 0, Strided = 0, MinTail = ~0u, DrvAt = 0;
  bool AnyPrefix = false;
  for (unsigned I = 0; I < MK.Items.size(); ++I) {
    const MKItem &It = MK.Items[I];
    const std::vector<MKOperand> &Fs = It.S.Factors;
    if (It.HasGuard)
      return;
    // A dense factor of an output array could observe the leaf's own
    // stores, which a folded prefix or a register tail would not.
    for (const MKOperand &Op : Fs)
      if (Op.K == MKOperand::Kind::Dense && readsOutput(Op, Accesses, Opts))
        return;
    LP.Ops += Fs.size() - 1;
    if (It.K == MKItem::Kind::Def) {
      DefSlots.insert(It.S.ScalarSlot);
      LP.Defs.push_back(I);
      continue;
    }
    // One (combine, reduce) pair for the whole leaf.
    if (!It.S.Reduce || (Reduce && *Reduce != *It.S.Reduce))
      return;
    Reduce = It.S.Reduce;
    if (Fs.size() > 1) {
      if (Combine && *Combine != It.S.Combine)
        return;
      Combine = It.S.Combine;
    }
    if (It.S.ScalarDst) {
      if (!ScalarDsts.insert(It.S.ScalarSlot).second)
        return;
      Mask |= 1u << LP.Stmts.size();
    } else {
      ++LP.Writes;
    }
    // Layout: an invariant prefix, then the factors from the first
    // per-element one on, ending in an invariant tail. On a sparse walk
    // exactly one factor is the driver value.
    unsigned Pre = 0, Tail = 0, Drv = ~0u;
    while (Pre < Fs.size() && lineInvariant(Fs[Pre]))
      ++Pre;
    if (Pre == Fs.size())
      return; // nothing varies per element
    while (lineInvariant(Fs[Fs.size() - 1 - Tail]))
      ++Tail;
    for (unsigned F = Pre; F < Fs.size(); ++F)
      if (Fs[F].K == MKOperand::Kind::Driver) {
        if (Drv != ~0u)
          return;
        Drv = F - Pre;
      }
    if (Sparse && Drv == ~0u)
      return;
    const unsigned Rest = static_cast<unsigned>(Fs.size()) - Pre;
    if (LP.Stmts.empty()) {
      Strided = Rest;
      DrvAt = Drv;
    } else if (Rest != Strided || Drv != DrvAt) {
      return;
    }
    if (!Sparse) {
      // On a range every factor between the prefix and the tail is a
      // dense load, all with one stride, and all tensor destinations
      // share one stride too.
      for (unsigned F = Pre; F + Tail < Fs.size(); ++F)
        if (Fs[F].K != MKOperand::Kind::Dense ||
            Fs[F].VStride != Fs[Pre].VStride)
          return;
      if (LP.Stmts.empty())
        LP.FactorStride = Fs[Pre].VStride;
      else if (Fs[Pre].VStride != LP.FactorStride || Tail != MinTail)
        return;
      if (!It.S.ScalarDst) {
        if (LP.Writes == 1) // the first tensor destination
          LP.DstStride = It.S.DstVStride;
        else if (It.S.DstVStride != LP.DstStride)
          return;
      }
    }
    MinTail = std::min(MinTail, Tail);
    AnyPrefix |= Pre > 0;
    LP.Stmts.push_back(I);
  }
  if (LP.Stmts.empty() || (Sparse && AnyPrefix))
    return;
  for (unsigned Slot : ScalarDsts)
    if (DefSlots.count(Slot))
      return;
  bool MinPlus;
  if (*Reduce == OpKind::Add && Combine.value_or(OpKind::Mul) == OpKind::Mul)
    MinPlus = false;
  else if (*Reduce == OpKind::Min &&
           Combine.value_or(OpKind::Add) == OpKind::Add)
    MinPlus = true;
  else
    return;
  LP.Reductions = LP.Stmts.size();
  for (const LineShape &Sh : LineShapes) {
    if (Sh.Sparse != Sparse || Sh.MinPlus != MinPlus ||
        Sh.S != LP.Stmts.size() || Sh.ScalarMask != Mask ||
        Sh.E + Sh.T != Strided || Sh.T > MinTail ||
        (!Sparse && Sh.T != MinTail) || (Sparse && Sh.DrvAt != DrvAt))
      continue;
    // Number the distinct dense operands of the per-element factors.
    for (unsigned Stmt : LP.Stmts) {
      const std::vector<MKOperand> &Fs = MK.Items[Stmt].S.Factors;
      for (size_t F = Fs.size() - Sh.E - Sh.T; F + Sh.T < Fs.size(); ++F) {
        const MKOperand &Op = Fs[F];
        size_t L = 0;
        while (Op.K == MKOperand::Kind::Dense && L < LP.Loads.size() &&
               (LP.Loads[L].Slot != Op.Slot ||
                LP.Loads[L].BaseTerms != Op.BaseTerms))
          ++L;
        if (Op.K == MKOperand::Kind::Dense && L == LP.Loads.size())
          LP.Loads.push_back(Op);
        LP.LoadOf.push_back(static_cast<uint8_t>(L));
      }
    }
    LP.Run = Sh.Run;
    MK.Line = std::move(LP);
    return;
  }
}

} // namespace

} // namespace detail
} // namespace systec
