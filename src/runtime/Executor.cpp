//===- runtime/Executor.cpp -----------------------------------*- C++ -*-===//

#include "runtime/Executor.h"

#include "core/Codegen.h"
#include "ir/TreeIds.h"
#include "jit/NativeBuilder.h"
#include "jit/NativeEngine.h"
#include "observability/Trace.h"
#include "parallel/ParallelAnalysis.h"
#include "parallel/ThreadPool.h"
#include "runtime/Annihilation.h"
#include "runtime/MicroKernels.h"
#include "runtime/Plan.h"
#include "support/Counters.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <string_view>
#include <thread>

namespace systec {

using namespace detail;

//===----------------------------------------------------------------------===//
// Plan compilation
//===----------------------------------------------------------------------===//

/// Compiles a Kernel's statement tree into plan nodes against bound
/// tensors. Friend of Executor. The one checker of a kernel against its
/// bindings: a malformed kernel comes back from compileAll() as a typed
/// Status (the first violation found); every fatalError here guards an
/// internal invariant.
///
/// One walk (TreeIds) first gives every index, scalar and access of
/// body and epilogue an id; every table below is indexed by those ids.
/// Slots and access states are still handed out on first touch, in
/// compile order, so the numbering does not depend on the id order.
class PlanCompiler {
public:
  PlanCompiler(Executor &E) : E(E) {}

  /// Compiles body and epilogue into E; on error E gets no plan.
  Status compileAll() {
    for (const StmtPtr &Root : {E.K.Body, E.K.Epilogue})
      if (Root) {
        Ids.add(Root);
        Ids.listLoopReads(Root);
      }
    IndexSlots.assign(Ids.indexCount(), Unassigned);
    ScalarSlots.assign(Ids.scalarCount(), Unassigned);
    AccessStateIds.assign(Ids.accessCount(), Unassigned);
    Extents.assign(Ids.indexCount(), std::nullopt);
    BoundVars.assign(Ids.indexCount(), false);
    collectExtents(E.K.Body);
    if (E.K.Epilogue)
      collectExtents(E.K.Epilogue);
    PlanPtr Body = compile(E.K.Body);
    PlanPtr Epilogue = E.K.Epilogue ? compile(E.K.Epilogue) : nullptr;
    if (!Err.ok())
      return std::move(Err);
    E.Ctx = std::make_unique<ExecCtx>();
    E.BodyPlan = std::move(Body);
    E.EpiloguePlan = std::move(Epilogue);
    E.Ctx->IndexVal.assign(SlotIndex.size(), 0);
    E.Ctx->ScalarVal.assign(NextScalarSlot, 0.0);
    E.Ctx->Accesses = AccessStates;
    E.Ctx->Outputs.resize(OutTensors.size());
    E.Ctx->OutPtr.resize(OutTensors.size());
    E.AccessNames = std::move(AccessNames);
    E.OutputNames = std::move(OutputNames);
    E.Ctx->LoopCalls.assign(NextTraceId, 0);
    E.Ctx->LoopNs.assign(NextTraceId, 0);
    E.MKStats = Stats;
    E.SpecializeNs = SpecializeNs;
    E.LoopMeta = std::move(LoopMeta);
    return Status::success();
  }

private:
  static constexpr unsigned Unassigned = ~0u;

  Executor &E;
  Status Err; // first malformed-kernel error; compile() stops emitting
  TreeIds Ids;
  std::vector<unsigned> IndexSlots;  // per index id
  std::vector<unsigned> SlotIndex;   // per index slot: its index id
  std::vector<unsigned> ScalarSlots; // per scalar id
  unsigned NextScalarSlot = 0;
  std::vector<std::optional<int64_t>> Extents; // per index id
  std::vector<unsigned> AccessStateIds; // per TreeIds access id
  std::vector<AccessState> AccessStates;
  std::vector<std::string> AccessNames; // per access state: tensor name
  std::vector<unsigned> Driven; // per access state, along current DFS path
  std::vector<bool> BoundVars;  // per index id
  std::map<Tensor *, unsigned> OutIds; // written tensors -> OutPtr slot
  std::vector<Tensor *> OutTensors;
  std::vector<std::string> OutputNames; // per output id: tensor name
  bool InParallel = false; // compiling inside an activated parallel loop
  MicroKernelStats Stats;
  unsigned NextTraceId = 0; // plan-loop observability ids, in-order
  uint64_t SpecializeNs = 0; // time inside specializeLoop calls
  std::vector<obs::LoopStat> LoopMeta; // indexed by trace id

  /// Id of an index a loop or an access uses.
  unsigned indexId(const std::string &Name) const {
    std::optional<unsigned> Id = Ids.findIndex(Name);
    if (!Id)
      fatalError("plan compiler: index " + Name + " outside the kernel");
    return *Id;
  }

  /// Whether a loop around the statement being compiled binds \p Name
  /// (a name only conditions use has no id and is never bound).
  bool isBound(const std::string &Name) const {
    std::optional<unsigned> Id = Ids.findIndex(Name);
    return Id && BoundVars[*Id];
  }

  unsigned indexSlot(unsigned Id) {
    if (IndexSlots[Id] == Unassigned) {
      IndexSlots[Id] = static_cast<unsigned>(SlotIndex.size());
      SlotIndex.push_back(Id);
    }
    return IndexSlots[Id];
  }

  unsigned indexSlot(const std::string &Name) { return indexSlot(indexId(Name)); }

  unsigned scalarSlot(unsigned Id) {
    if (ScalarSlots[Id] == Unassigned)
      ScalarSlots[Id] = NextScalarSlot++;
    return ScalarSlots[Id];
  }

  unsigned outId(const std::string &Name) {
    Tensor *T = tensorFor(Name);
    auto [It, New] = OutIds.insert({T, OutIds.size()});
    if (New) {
      OutTensors.push_back(T);
      OutputNames.push_back(Name);
    }
    return It->second;
  }

  Tensor *tensorFor(const std::string &Name) {
    Tensor *T = E.lookup(Name);
    if (!T)
      fatalError("kernel '" + E.K.Name + "' uses unbound tensor " + Name);
    return T;
  }

  /// The access state of TreeIds access \p A, created on first touch.
  unsigned accessState(unsigned A) {
    if (AccessStateIds[A] != Unassigned)
      return AccessStateIds[A];
    unsigned Id = static_cast<unsigned>(AccessStates.size());
    AccessStateIds[A] = Id;
    const std::string &Name = Ids.tensorName(Ids.accessTensor(A));
    AccessState S;
    S.T = tensorFor(Name);
    S.Pos.assign(S.T->order() + 1, 0);
    S.SparseFormat = !S.T->format().isAllDense();
    S.LocParent.assign(S.T->order(), -1);
    S.LocIdx.assign(S.T->order(), 0);
    AccessStates.push_back(std::move(S));
    AccessNames.push_back(Name);
    Driven.push_back(0);
    return Id;
  }

  void fail(ErrCode C, std::string Message) {
    if (Err.ok())
      Err = Status::error(C, std::move(Message));
  }

  /// Records every index extent and checks each access and target
  /// against its binding: bound, arity equal to the tensor's order,
  /// extents consistent across accesses, writes into dense tensors, and
  /// replication targets that pass checkReplicateTarget.
  void collectExtents(const StmtPtr &S) {
    switch (S->kind()) {
    case StmtKind::Block:
      for (const StmtPtr &C : S->stmts())
        collectExtents(C);
      return;
    case StmtKind::Loop:
    case StmtKind::If:
      collectExtents(S->body());
      return;
    case StmtKind::DefScalar:
      checkAccesses(S->rhs());
      return;
    case StmtKind::Assign:
      checkAccesses(S->rhs());
      if (S->lhs()->kind() == ExprKind::Access) {
        checkAccess(S->lhs());
        const Tensor *T = E.lookup(S->lhs()->tensorName());
        if (T && !T->format().isAllDense())
          fail(ErrCode::InvalidArgument, "output tensor " +
                                             S->lhs()->tensorName() +
                                             " must be dense for writes");
      }
      return;
    case StmtKind::Replicate: {
      const Tensor *T = E.lookup(S->tensorName());
      if (!T)
        fail(ErrCode::UnboundTensor, "kernel '" + E.K.Name +
                                         "' replicates unbound tensor " +
                                         S->tensorName());
      else if (Status St = checkReplicateTarget(*T, S->outputSymmetry());
               !St.ok())
        fail(St.code(), "kernel '" + E.K.Name + "' replicates tensor " +
                            S->tensorName() + ": " + St.message());
      return;
    }
    }
    unreachable("unknown statement kind");
  }

  /// checkAccess on every access of \p Ex, in preorder.
  void checkAccesses(const ExprPtr &Ex) {
    if (Ex->kind() == ExprKind::Access)
      checkAccess(Ex);
    else if (Ex->kind() == ExprKind::Call)
      for (const ExprPtr &A : Ex->args())
        checkAccesses(A);
  }

  void checkAccess(const ExprPtr &A) {
    const Tensor *T = E.lookup(A->tensorName());
    if (!T) {
      fail(ErrCode::UnboundTensor, "kernel '" + E.K.Name +
                                       "' uses unbound tensor " +
                                       A->tensorName());
      return;
    }
    // A 0-d access ("y[]") binds to a one-element dense tensor.
    if (A->indices().empty())
      return;
    if (T->order() != A->indices().size()) {
      fail(ErrCode::InvalidArgument,
           "access " + A->str() + " arity mismatch (tensor " +
               A->tensorName() + " has order " +
               std::to_string(T->order()) + ")");
      return;
    }
    const std::span<const unsigned> Idx = Ids.accessIndices(Ids.accessId(*A));
    for (unsigned M = 0; M < Idx.size(); ++M) {
      std::optional<int64_t> &Ext = Extents[Idx[M]];
      if (!Ext)
        Ext = T->dim(M);
      else if (*Ext != T->dim(M))
        fail(ErrCode::InvalidArgument,
             "index " + A->indices()[M] + " has inconsistent extents (" +
                 std::to_string(*Ext) + " vs " + std::to_string(T->dim(M)) +
                 " at " + A->str() + ")");
    }
  }

  CAtom compileAtom(const CmpAtom &A) {
    return CAtom{A.Kind, indexSlot(A.Lhs), indexSlot(A.Rhs)};
  }

  CCond compileCond(const Cond &C) {
    CCond Out;
    for (const Conj &D : C.disjuncts()) {
      std::vector<CAtom> Atoms;
      for (const CmpAtom &A : D.Atoms)
        Atoms.push_back(compileAtom(A));
      Out.Disjuncts.push_back(std::move(Atoms));
    }
    return Out;
  }

  VProgram compileExpr(const ExprPtr &Ex) {
    VProgram P;
    emitExpr(Ex, P);
    P.finalize();
    return P;
  }

  void emitExpr(const ExprPtr &Ex, VProgram &P) {
    switch (Ex->kind()) {
    case ExprKind::Literal: {
      VInstr I;
      I.Kind = VKind::Lit;
      I.Lit = Ex->literalValue();
      P.Code.push_back(std::move(I));
      return;
    }
    case ExprKind::Scalar: {
      VInstr I;
      I.Kind = VKind::Scalar;
      I.Id = scalarSlot(Ids.scalarId(*Ex));
      P.Code.push_back(std::move(I));
      return;
    }
    case ExprKind::Access: {
      const unsigned A = Ids.accessId(*Ex);
      const unsigned Id = accessState(A);
      const AccessState &S = AccessStates[Id];
      const std::span<const unsigned> Idx = Ids.accessIndices(A);
      VInstr I;
      if (Driven[Id] == S.T->order() && S.T->order() > 0) {
        I.Kind = VKind::Walked;
        I.Id = Id;
      } else if (S.T->format().isAllDense()) {
        I.Kind = VKind::DenseLoad;
        I.Id = Id;
        I.SlotStride = denseStrides(S.T, Idx);
      } else {
        I.Kind = VKind::SparseLoad;
        I.Id = Id;
        // Per level (top first), the slot providing that level's
        // coordinate, so the locator descends without a scratch
        // buffer.
        for (unsigned L = 0; L < S.T->order(); ++L)
          I.LevelSlots.push_back(indexSlot(Idx[S.T->modeOfLevel(L)]));
      }
      P.Code.push_back(std::move(I));
      return;
    }
    case ExprKind::Call: {
      for (const ExprPtr &A : Ex->args())
        emitExpr(A, P);
      VInstr I;
      I.Kind = VKind::Op;
      I.Op = Ex->op();
      I.NArgs = static_cast<unsigned>(Ex->args().size());
      P.Code.push_back(std::move(I));
      return;
    }
    case ExprKind::Lut: {
      VInstr I;
      I.Kind = VKind::Lut;
      for (const CmpAtom &B : Ex->lutBits())
        I.LutBits.push_back(compileAtom(B));
      I.LutTable = Ex->lutTable();
      P.Code.push_back(std::move(I));
      return;
    }
    }
    unreachable("unknown expression kind");
  }

  std::vector<std::pair<unsigned, int64_t>>
  denseStrides(Tensor *T, std::span<const unsigned> Indices) {
    // Column-major: mode 0 is contiguous. A 0-d access maps to
    // position 0 of a one-element tensor.
    std::vector<std::pair<unsigned, int64_t>> Out;
    if (Indices.empty())
      return Out;
    assert(Indices.size() == T->order() && "access arity mismatch");
    int64_t Stride = 1;
    for (unsigned M = 0; M < Indices.size(); ++M) {
      Out.push_back({indexSlot(Indices[M]), Stride});
      Stride *= T->dim(M);
    }
    return Out;
  }

  PlanPtr compile(const StmtPtr &S) {
    if (!Err.ok())
      return nullptr;
    switch (S->kind()) {
    case StmtKind::Block: {
      auto Seq = std::make_unique<PlanSeq>();
      for (const StmtPtr &Child : S->stmts())
        Seq->Children.push_back(compile(Child));
      return Seq;
    }
    case StmtKind::If: {
      // Conditions referencing unbound indices sink into the body's
      // loops (safety net; the compiler pipeline normally places them
      // correctly).
      if (!allBound(S->condition()))
        return compile(sinkCondition(S->condition(), S->body()));
      auto If = std::make_unique<PlanIf>();
      If->Cond = compileCond(S->condition());
      If->Body = compile(S->body());
      return If;
    }
    case StmtKind::Loop:
      return compileLoop(S);
    case StmtKind::DefScalar: {
      auto Def = std::make_unique<PlanDef>();
      Def->Init = compileExpr(S->rhs());
      Def->Slot = scalarSlot(Ids.scalarId(*S));
      return Def;
    }
    case StmtKind::Assign: {
      auto As = std::make_unique<PlanAssign>();
      As->Rhs = compileExpr(S->rhs());
      As->Reduce = S->reduceOp();
      As->Mult = S->multiplicity();
      // Fold additive multiplicities into the program (y += k*e) and
      // collapse idempotent duplicates, so the hot path has no
      // multiplicity logic.
      if (As->Mult > 1 && As->Reduce) {
        if (opInfo(*As->Reduce).Idempotent) {
          As->Mult = 1;
        } else if (*As->Reduce == OpKind::Add) {
          VInstr Lit;
          Lit.Kind = VKind::Lit;
          Lit.Lit = As->Mult;
          As->Rhs.Code.push_back(std::move(Lit));
          VInstr Mul;
          Mul.Kind = VKind::Op;
          Mul.Op = OpKind::Mul;
          Mul.NArgs = 2;
          As->Rhs.Code.push_back(std::move(Mul));
          As->Mult = 1;
          As->Rhs.finalize();
        }
      }
      const ExprPtr &Lhs = S->lhs();
      if (Lhs->kind() == ExprKind::Scalar) {
        As->ScalarTarget = true;
        As->ScalarSlot = scalarSlot(Ids.scalarId(*Lhs));
      } else {
        As->OutId = outId(Lhs->tensorName());
        As->SlotStride = denseStrides(tensorFor(Lhs->tensorName()),
                                      Ids.accessIndices(Ids.accessId(*Lhs)));
      }
      return As;
    }
    case StmtKind::Replicate: {
      auto Rep = std::make_unique<PlanReplicate>();
      Rep->OutId = outId(S->tensorName());
      Rep->Sym = S->outputSymmetry();
      Rep->Threads = E.Options.Threads;
      return Rep;
    }
    }
    unreachable("unknown statement kind");
  }

  bool allBound(const Cond &C) {
    for (const Conj &D : C.disjuncts())
      for (const CmpAtom &A : D.Atoms)
        if (!isBound(A.Lhs) || !isBound(A.Rhs))
          return false;
    return true;
  }

  /// Pushes a condition with unbound references inside loops until its
  /// variables are bound: If(c, Loop(x, B)) => Loop(x, If(c, B)). A
  /// condition that reaches a leaf still unbound cannot be placed.
  StmtPtr sinkCondition(const Cond &C, const StmtPtr &Body) {
    if (Body->kind() == StmtKind::Loop)
      return Stmt::loop(Body->loopIndex(),
                        Stmt::ifThen(C, Body->body()));
    if (Body->kind() == StmtKind::If)
      return Stmt::ifThen(Body->condition(),
                          Stmt::ifThen(C, Body->body()));
    if (Body->kind() == StmtKind::Block) {
      std::vector<StmtPtr> Guarded;
      for (const StmtPtr &Child : Body->stmts())
        Guarded.push_back(Stmt::ifThen(C, Child));
      return Stmt::block(std::move(Guarded));
    }
    fail(ErrCode::InvalidArgument,
         "condition references indices that are never bound");
    return nullptr;
  }

  /// The one place a loop's parallel contract is decided. At
  /// Threads > 1, classifies \p S (analyzeLoopParallelism) unless an
  /// enclosing loop was activated, and activates it when it is safe
  /// and its privatization footprint fits the budget. Loops compile
  /// outermost first, so each nest activates its outermost such loop.
  /// Returns whether the loop was activated (the body then compiles
  /// with nested parallelism suppressed).
  bool setUpParallel(const StmtPtr &S, PlanLoop &Loop) {
    if (InParallel || E.Options.Threads <= 1)
      return false;
    LoopParallelism LP = analyzeLoopParallelism(S);
    if (!LP.Safe)
      return false;
    size_t PrivElems = 0;
    std::vector<PlanLoop::PrivTensor> PrivT;
    for (const auto &[Name, Op] : LP.TensorMergeOps) {
      Tensor *T = tensorFor(Name);
      PrivT.push_back(PlanLoop::PrivTensor{
          outId(Name), T->vals().size(), Op, opInfo(Op).Identity});
      PrivElems += T->vals().size();
    }
    if (PrivElems * E.Options.Threads * sizeof(double) >
        E.Options.PrivatizationBudgetBytes)
      return false; // too much accumulator memory; try an inner loop
    std::vector<PlanLoop::PrivScalar> PrivS;
    for (const auto &[Name, Op] : LP.ScalarMergeOps)
      PrivS.push_back(PlanLoop::PrivScalar{scalarSlot(*Ids.findScalar(Name)),
                                           Op, opInfo(Op).Identity});
    Loop.Par.Enabled = true;
    Loop.Par.TriDepth = LP.TriangleDepth;
    Loop.Par.Threads = E.Options.Threads;
    Loop.Par.Pool = &ThreadPool::global();
    Loop.Par.PrivTensors = std::move(PrivT);
    Loop.Par.PrivScalars = std::move(PrivS);
    return true;
  }

  PlanPtr compileLoop(const StmtPtr &S) {
    const std::string &Var = S->loopIndex();
    const unsigned VarId = indexId(Var);
    if (!Extents[VarId]) {
      fail(ErrCode::InvalidArgument,
           "loop index " + Var + " has no known extent");
      return nullptr;
    }
    auto Loop = std::make_unique<PlanLoop>();
    Loop->Slot = indexSlot(VarId);
    Loop->Extent = *Extents[VarId];
    BoundVars[VarId] = true;
    const bool Activated = setUpParallel(S, *Loop);
    if (Activated)
      InParallel = true;

    // Peel liftable bound atoms off leading single-conjunction Ifs
    // (looking through single-statement blocks).
    StmtPtr Body = S->body();
    while (E.Options.EnableBoundLifting) {
      if (Body->kind() == StmtKind::Block && Body->stmts().size() == 1) {
        Body = Body->stmts()[0];
        continue;
      }
      if (Body->kind() != StmtKind::If ||
          Body->condition().disjuncts().size() != 1)
        break;
      std::vector<CmpAtom> Residual;
      for (const CmpAtom &A : Body->condition().disjuncts()[0].Atoms) {
        CmpAtom Atom = A;
        if (Atom.Rhs == Var && Atom.Lhs != Var) {
          std::swap(Atom.Lhs, Atom.Rhs);
          Atom.Kind = swapCmp(Atom.Kind);
        }
        if (Atom.Lhs == Var && Atom.Rhs != Var && isBound(Atom.Rhs)) {
          unsigned Other = indexSlot(Atom.Rhs);
          switch (Atom.Kind) {
          case CmpKind::LE:
            Loop->HiTerms.push_back({Other, 0});
            continue;
          case CmpKind::LT:
            Loop->HiTerms.push_back({Other, -1});
            continue;
          case CmpKind::GE:
            Loop->LoTerms.push_back({Other, 0});
            continue;
          case CmpKind::GT:
            Loop->LoTerms.push_back({Other, 1});
            continue;
          case CmpKind::EQ:
            Loop->LoTerms.push_back({Other, 0});
            Loop->HiTerms.push_back({Other, 0});
            continue;
          case CmpKind::NE:
            break; // not liftable
          }
        }
        Residual.push_back(A);
      }
      if (Residual.empty()) {
        Body = Body->body();
      } else {
        Body = Stmt::ifThen(Cond::conj(std::move(Residual)), Body->body());
        break;
      }
    }

    // Register walkers: sparse accesses in the subtree whose next
    // undriven level is this loop's index. Dense and RunLength levels
    // cover every coordinate, so walking them skips nothing and needs
    // no justification. Sparse and Banded levels visit only stored
    // coordinates, which is sound exactly when the access evaluating to
    // its fill annihilates every assignment in the subtree — decided by
    // the algebraic analysis (runtime/Annihilation.h), which propagates
    // fill/annihilator facts per operator position and transitively
    // through scalar defs. Grouped symmetric kernels over two sparse
    // operands still reject the second tensor's mismatched accesses
    // (each statement reads a different access, so no single absence
    // annihilates them all); those fall back to SparseLoad.
    // The candidates are the loop's distinct reads, listed once per
    // loop by TreeIds; bound lifting peels only conditions, which read
    // no access, so the peeled body reads the same list.
    std::vector<unsigned> WalkerIds;
    if (E.Options.EnableSparseWalk) {
      for (unsigned A : Ids.reads(*S)) {
        unsigned Id = accessState(A);
        AccessState &St = AccessStates[Id];
        if (!St.SparseFormat)
          continue;
        unsigned D = Driven[Id];
        if (D >= St.T->order() ||
            Ids.accessIndices(A)[St.T->modeOfLevel(D)] != VarId)
          continue;
        const LevelKind LK = St.T->level(D).Kind;
        if (LK != LevelKind::Dense && LK != LevelKind::RunLength &&
            !accessAnnihilatesSubtree(Body, Ids, A, St.T->fill()))
          continue; // evaluated by SparseLoad instead
        PlanLoop::WalkerRef W;
        W.AccessId = Id;
        W.Level = D;
        W.Bottom = (D + 1 == St.T->order());
        Loop->Walkers.push_back(W);
        WalkerIds.push_back(Id);
        ++Driven[Id];
        ++Stats.WalkersRegistered;
      }
    }

    Loop->Body = compile(Body);
    if (!Err.ok())
      return nullptr;

    // The PlanSpecializer pass: inner loops were specialized by the
    // recursive compile above, so matching proceeds bottom-up and a
    // blocked nest can take over its already-fused leaf.
    MKSpecializeOptions SpecOpts;
    SpecOpts.UseBlocked = E.Resolved.UseBlocked;
    SpecOpts.OutputTensors = &OutTensors;
    bool Specialized = false;
    if (E.Resolved.UseFused) {
      const uint64_t S0 = obs::nowNs();
      Specialized = specializeLoop(*Loop, AccessStates, SpecOpts);
      SpecializeNs += obs::nowNs() - S0;
    }
    if (Specialized)
      ++Stats.SpecializedLoops;
    if (Loop->Blocked) {
      ++Stats.BlockedLoops;
      if (Loop->Blocked->Mode != MKBlockedEngine::BMode::Stream)
        ++Stats.BlockedAccumLoops;
    } else if (Loop->Fused) {
      switch (Loop->Fused->D.K) {
      case MKDriver::Kind::Range:
        ++Stats.FusedRangeDrivers;
        break;
      case MKDriver::Kind::DenseWalk:
        ++Stats.FusedDenseDrivers;
        break;
      case MKDriver::Kind::SparseWalk:
        ++Stats.FusedSparseDrivers;
        break;
      case MKDriver::Kind::RunLengthWalk:
        ++Stats.FusedRunLengthDrivers;
        break;
      case MKDriver::Kind::BandedWalk:
        ++Stats.FusedBandedDrivers;
        break;
      }
      const MKDriver &FD = Loop->Fused->D;
      Stats.FusedCoWalkers += FD.Cos.size();
      if (FD.Cos.size() >= 2)
        ++Stats.FusedNWalkerLoops;
      for (const MKCoWalker &Co : FD.Cos) {
        if (Co.Kind == LevelKind::RunLength)
          ++Stats.FusedRunLengthCoWalkers;
        else if (Co.Kind == LevelKind::Banded)
          ++Stats.FusedBandedCoWalkers;
      }
      for (const MKItem &Item : Loop->Fused->Items)
        for (const MKOperand &Op : Item.S.Factors)
          Stats.FusedLutFactors += Op.K == MKOperand::Kind::Lut;
    } else if (!containsLoop(Loop->Body.get())) {
      // A declined leaf. Other nest loops are interpreted by design and
      // counted in neither total.
      ++Stats.GenericLoops;
    }

    assignTraceIdentity(*Loop, Var);

    if (Activated)
      InParallel = false;
    for (unsigned Id : WalkerIds)
      --Driven[Id];
    BoundVars[VarId] = false;
    return Loop;
  }

  static const char *levelKindName(LevelKind K) {
    switch (K) {
    case LevelKind::Dense:
      return "DenseWalk";
    case LevelKind::Sparse:
      return "SparseWalk";
    case LevelKind::RunLength:
      return "RunLengthWalk";
    case LevelKind::Banded:
      return "BandedWalk";
    }
    unreachable("unknown level kind");
  }

  /// Gives \p Loop its trace id and observability identity. Runs after
  /// specialization so the engine is known. A blocked nest runs its
  /// child leaf's elements itself (MicroKernel::run is never called for
  /// the child), so the child, stamped Fused when it was compiled, is
  /// restamped Blocked here.
  void assignTraceIdentity(PlanLoop &Loop, const std::string &Var) {
    Loop.TraceId = NextTraceId++;
    LoopMeta.emplace_back();
    stampTraceIdentity(Loop, Var,
                       Loop.Blocked ? "Blocked"
                       : Loop.Fused ? "Fused"
                                    : "Interp");
    if (Loop.Blocked) {
      PlanLoop &Child = *Loop.Blocked->Child;
      stampTraceIdentity(Child, Ids.indexName(SlotIndex[Child.Slot]),
                         "Blocked");
    }
  }

  /// Stamps \p Loop's engine and driver names and its report-side
  /// metadata row (whose label traced runs use as the loop's span
  /// name), as run by \p Engine.
  void stampTraceIdentity(PlanLoop &Loop, const std::string &Var,
                          const char *Engine) {
    // Every engine iterates the loop's first walker, or its plain range.
    const char *Driver =
        Loop.Walkers.empty()
            ? "Range"
            : levelKindName(AccessStates[Loop.Walkers[0].AccessId]
                                .T->level(Loop.Walkers[0].Level)
                                .Kind);
    Loop.EngineName = Engine;
    Loop.DriverName = Driver;
    obs::LoopStat Meta;
    Meta.Label = "loop " + Var + " [" + Engine + "/" + Driver + "]";
    Meta.Engine = Engine;
    Meta.Driver = Driver;
    if (Loop.Fused && std::string_view(Engine) == "Fused")
      Meta.Form = Loop.Fused->Line.Run ? "line" : "generic";
    LoopMeta[Loop.TraceId] = std::move(Meta);
  }

};

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

std::string structuralOptionsSummary(const ExecOptions &O) {
  std::string Out = "threads=" + std::to_string(O.Threads);
  Out += std::string(" walk=") + (O.EnableSparseWalk ? "on" : "off");
  Out += std::string(" lift=") + (O.EnableBoundLifting ? "on" : "off");
  Out += " privbudget_bytes=" + std::to_string(O.PrivatizationBudgetBytes);
  // The resolved engine preference list, so equivalent requests (e.g.
  // blocked alone and blocked>fused>interp) summarize identically.
  Out += " engines=" + enginesSummary(resolveEngines(O.Engines).Order);
  return Out;
}

std::string execOptionsSummary(const ExecOptions &O) {
  std::string Out = structuralOptionsSummary(O);
  Out += std::string(" validate=") +
         (O.ValidateInputs == ValidationLevel::None      ? "none"
          : O.ValidateInputs == ValidationLevel::Shallow ? "shallow"
                                                         : "deep");
  if (O.DeadlineMs > 0)
    Out += " deadline_ms=" + std::to_string(O.DeadlineMs);
  if (O.Cancel)
    Out += " cancel=on";
  return Out;
}

Executor::Executor(Kernel KIn, ExecOptions OptionsIn)
    : K(std::move(KIn)), Options(OptionsIn) {}

Executor::~Executor() = default;
Executor::Executor(Executor &&) = default;

Executor &Executor::bind(const std::string &Name, Tensor *T) {
  Bound[Name] = T;
  return *this;
}

Tensor *Executor::lookup(const std::string &Name) const {
  auto It = Bound.find(Name);
  return It == Bound.end() ? nullptr : It->second;
}

Status Executor::sanitizeOptions() {
  Clamps.clear();
  if (Options.DeadlineMs < 0)
    return Status::error(ErrCode::InvalidOptions,
                         "DeadlineMs must be non-negative (got " +
                             std::to_string(Options.DeadlineMs) + ")");
  if (Options.Threads == 0) {
    Clamps.push_back("threads 0 -> 1 (zero lanes cannot run)");
    Options.Threads = 1;
  }
  unsigned HW = std::thread::hardware_concurrency();
  if (HW == 0)
    HW = 1;
  const unsigned MaxThreads = HW * 4;
  if (Options.Threads > MaxThreads) {
    Clamps.push_back("threads " + std::to_string(Options.Threads) + " -> " +
                     std::to_string(MaxThreads) +
                     " (4x hardware concurrency)");
    Options.Threads = MaxThreads;
  }
  // Engine resolution: the one place the request becomes the
  // normalized preference order everything else reads.
  Resolved = resolveEngines(Options.Engines);
  for (const std::string &Note : Resolved.Notes)
    Clamps.push_back(Note);
  Options.Engines = Resolved.Order;
  std::vector<Engine> Tiers;
  for (Engine E : Resolved.Order)
    if (E != Engine::Native)
      Tiers.push_back(E);
  TierEngines = enginesSummary(Tiers);
  return Status::success();
}

Status Executor::nativeDeclineFor() const {
  if (!Resolved.UseNative)
    return Status::success();
  auto Decline = [&](const std::string &Why) {
    return Status::error(ErrCode::InvalidOptions,
                         "native body not used: " + Why)
        .withContext("kernel '" + K.Name + "' native engine");
  };
  if (Options.Threads > 1)
    return Decline("it runs one thread in Threads=1 fold order (threads=" +
                   std::to_string(Options.Threads) + ")");
  if (Options.Cancel || Options.DeadlineMs > 0)
    return Decline("it polls cancel and deadline only at entry (controlled "
                   "runs stay on the per-loop tiers)");
  return Status::success();
}

void Executor::tierUp() {
  if (NativePlan || !NativeStatus.ok())
    return;
  if (NativeJob) {
    if (NativeJob->done())
      installNative();
    return;
  }
  if (++NativeRuns == 2)
    requestNative();
}

void Executor::requestNative() {
  auto Emitted = emitNativeTU(*BodyPlan, *Ctx, K.Name);
  if (!Emitted) {
    NativeStatus = Emitted.takeStatus().withContext("kernel '" + K.Name +
                                                    "' native engine");
    return;
  }
  NativeSource = std::move(Emitted->Source);
  NativeArgs = std::move(Emitted->Args);
  NativeJob = jit::NativeBuilder::instance().submit(NativeSource,
                                                    Options.NativeCacheDir);
}

void Executor::installNative() {
  Expected<jit::NativeKernelCache::Loaded> &L = NativeJob->result();
  if (!L) {
    NativeStatus = L.status().clone().withContext("kernel '" + K.Name +
                                                  "' native engine");
  } else {
    // The handle moves out: the plan node is then the only holder this
    // executor has of the mapping.
    auto NP = std::make_unique<jit::PlanNative>();
    NP->Fn = L->Fn;
    NP->Handle = std::move(L->Handle);
    NP->Args = std::move(NativeArgs);
    NativePlan = std::move(NP);
    NativeCompileNs = L->CompileNs;
  }
  NativeJob.reset();
}

Status Executor::awaitNative() {
  if (!Prepared)
    return Status::error(ErrCode::InvalidArgument,
                         "awaitNative called before tryPrepare");
  if (!Resolved.UseNative)
    return Status::error(ErrCode::InvalidOptions,
                         "native engine not in the engine list " +
                             enginesSummary(Resolved.Order))
        .withContext("kernel '" + K.Name + "'");
  if (!NativeDecline.ok())
    return NativeDecline.clone();
  if (!NativePlan && NativeStatus.ok()) {
    if (!NativeJob)
      requestNative();
    if (NativeJob) {
      NativeJob->wait();
      installNative();
    }
  }
  return NativeStatus.clone();
}

const std::string &Executor::nativeSource() const {
  if (NativeSource.empty() && Prepared && Resolved.UseNative)
    if (auto Emitted = emitNativeTU(*BodyPlan, *Ctx, K.Name))
      NativeSource = std::move(Emitted->Source);
  return NativeSource;
}

Status Executor::tryPrepare() {
  if (Prepared)
    return Status::error(ErrCode::InvalidArgument, "tryPrepare called twice");
  if (Status S = sanitizeOptions(); !S.ok())
    return std::move(S).withContext("kernel '" + K.Name + "'");
  for (const auto &[Name, T] : Bound)
    if (!T)
      return Status::error(ErrCode::InvalidArgument,
                           "kernel '" + K.Name + "' binds null tensor under " +
                               Name);
  // Client tensors are validated before anything dereferences their
  // level arrays — in particular before split/transpose
  // materialization walks them.
  if (Options.ValidateInputs != ValidationLevel::None) {
    const uint64_t V0 = obs::nowNs();
    for (const auto &[Name, T] : Bound)
      if (Status S = T->validate(Options.ValidateInputs); !S.ok())
        return std::move(S)
            .withContext("tensor '" + Name + "'")
            .withContext("kernel '" + K.Name + "'");
    ValidateNs = obs::nowNs() - V0;
  }
  if (Options.Threads > 1)
    ThreadPool::ensureGlobalThreads(Options.Threads);
  const uint64_t M0 = obs::nowNs();
  std::map<std::string, BindingSig> Sig;
  std::map<const Tensor *, std::string> FirstName;
  for (const auto &[Name, T] : Bound) {
    auto [It, New] = FirstName.insert({T, Name});
    Sig[Name] = BindingSig{T->format(), T->dims(), T->fill(),
                           New ? std::string() : It->second};
  }
  // The aliases, their tensors and the signature are committed only on
  // success, so a failed prepare leaves the client's bindings as they
  // were and a retry starts from them.
  std::map<std::string, Tensor *> ClientBound = Bound;
  std::vector<std::unique_ptr<Tensor>> NewOwned;
  if (Status S = materializeAliases(Bound, NewOwned); !S.ok()) {
    Bound = std::move(ClientBound);
    return S;
  }
  const uint64_t M1 = obs::nowNs();
  // With aliases materialized every access is resolvable; plan
  // compilation rejects a kernel malformed against these bindings.
  if (Status S = PlanCompiler(*this).compileAll(); !S.ok()) {
    Bound = std::move(ClientBound);
    return S;
  }
  UserSig = std::move(Sig);
  Owned = std::move(NewOwned);
  bindSlots();
  const uint64_t M2 = obs::nowNs();
  MaterializeNs = M1 - M0;
  PlanCompileNs = M2 - M1;
  if (obs::tracingEnabled()) {
    obs::emitSpan("materialize", "phase", M0, MaterializeNs);
    obs::emitSpan("plan-compile", "phase", M1, PlanCompileNs);
  }
  // Native is a tier runs reach in the background (tierUp); prepare
  // only records whether the options allow it.
  NativeDecline = nativeDeclineFor();
  Report.Options = execOptionsSummary(Options);
  Prepared = true;
  return Status::success();
}

Status Executor::materializeAliases(std::map<std::string, Tensor *> &B,
                                    std::vector<std::unique_ptr<Tensor>> &O) {
  auto Find = [&B](const std::string &Name) -> Tensor * {
    auto It = B.find(Name);
    return It == B.end() ? nullptr : It->second;
  };
  // Materialize diagonal splits (both halves from one pass per source).
  std::map<std::string, std::pair<Tensor *, Tensor *>> SplitCache;
  for (const SplitRequest &Req : K.Splits) {
    auto It = SplitCache.find(Req.Source);
    if (It == SplitCache.end()) {
      Tensor *Src = Find(Req.Source);
      if (!Src)
        return Status::error(ErrCode::UnboundTensor,
                             "split source " + Req.Source + " not bound")
            .withContext("kernel '" + K.Name + "'");
      auto DeclIt = K.Decls.find(Req.Source);
      if (DeclIt == K.Decls.end())
        return Status::error(ErrCode::InvalidArgument,
                             "split source " + Req.Source + " not declared")
            .withContext("kernel '" + K.Name + "'");
      auto [OffDiag, Diag] = Src->splitDiagonal(DeclIt->second.Symmetry);
      O.push_back(std::make_unique<Tensor>(std::move(OffDiag)));
      Tensor *OffPtr = O.back().get();
      O.push_back(std::make_unique<Tensor>(std::move(Diag)));
      Tensor *DiagPtr = O.back().get();
      It = SplitCache.insert({Req.Source, {OffPtr, DiagPtr}}).first;
    }
    B[Req.Alias] = Req.DiagonalPart ? It->second.second
                                    : It->second.first;
  }
  // Materialize transposes (possibly of split aliases).
  for (const TransposeRequest &Req : K.Transposes) {
    Tensor *Src = Find(Req.Source);
    if (!Src)
      return Status::error(ErrCode::UnboundTensor,
                           "transpose source " + Req.Source + " not bound")
          .withContext("kernel '" + K.Name + "'");
    TensorFormat Format = TensorFormat::dense(Src->order());
    auto DeclIt = K.Decls.find(Req.Alias);
    if (DeclIt != K.Decls.end())
      Format = DeclIt->second.Format;
    O.push_back(std::make_unique<Tensor>(
        Src->transposed(Req.ModePerm, Format)));
    B[Req.Alias] = O.back().get();
  }
  return Status::success();
}

void Executor::bindSlots() {
  for (size_t I = 0; I < Ctx->Accesses.size(); ++I) {
    AccessState &A = Ctx->Accesses[I];
    A.T = Bound.at(AccessNames[I]);
    // Run-scoped cursor state starts exactly as plan compilation
    // initialized it.
    std::fill(A.Pos.begin(), A.Pos.end(), int64_t(0));
    std::fill(A.LocParent.begin(), A.LocParent.end(), int64_t(-1));
    std::fill(A.LocIdx.begin(), A.LocIdx.end(), int64_t(0));
  }
  for (size_t I = 0; I < Ctx->Outputs.size(); ++I) {
    Ctx->Outputs[I] = Bound.at(OutputNames[I]);
    Ctx->OutPtr[I] = Ctx->Outputs[I]->valsData();
  }
}

Status Executor::rebind(const std::map<std::string, Tensor *> &NewBindings,
                        const ExecOptions &RunOptions) {
  if (!Prepared)
    return Status::error(ErrCode::InvalidArgument,
                         "rebind called before prepare");
  if (RunOptions.DeadlineMs < 0)
    return Status::error(ErrCode::InvalidOptions,
                         "deadline must be non-negative, got " +
                             std::to_string(RunOptions.DeadlineMs))
        .withContext("kernel '" + K.Name + "'");
  // Engine agreement: the run's resolved preference order must match
  // what this executor was prepared with — the compiled plans (and the
  // native tier) embody that choice. A plan-cache keyed on the
  // resolved list guarantees this; direct callers get a typed error
  // rather than a silently different engine.
  {
    EngineResolution RunR = resolveEngines(RunOptions.Engines);
    if (RunR.Order != Resolved.Order)
      return Status::error(ErrCode::InvalidArgument,
                           "rebind engine mismatch: prepared with " +
                               enginesSummary(Resolved.Order) +
                               ", run requests " +
                               enginesSummary(RunR.Order))
          .withContext("kernel '" + K.Name + "'");
  }
  // Structural identity: every originally-bound name needs a
  // replacement whose format, dims, and fill match the tensor the plan
  // was compiled against (the compiled walkers, strides, and fused
  // engines are only valid for that structure). The check runs against
  // the signature captured at prepare, never the previous tensors —
  // those only had to outlive their own run and may be gone.
  for (const auto &[Name, Sig] : UserSig) {
    auto It = NewBindings.find(Name);
    if (It == NewBindings.end() || !It->second)
      return Status::error(ErrCode::UnboundTensor,
                           "rebind missing tensor " + Name)
          .withContext("kernel '" + K.Name + "'");
    const Tensor *New = It->second;
    const bool FillEq = New->fill() == Sig.Fill ||
                        (New->fill() != New->fill() &&
                         Sig.Fill != Sig.Fill); // both NaN
    if (!(New->format() == Sig.Format) || New->dims() != Sig.Dims ||
        !FillEq)
      return Status::error(ErrCode::InvalidArgument,
                           "rebind structure mismatch for tensor " + Name)
          .withContext("kernel '" + K.Name + "'");
  }
  // New client tensors are validated before anything dereferences
  // their level arrays, exactly like tryPrepare.
  uint64_t NewValidateNs = 0;
  if (RunOptions.ValidateInputs != ValidationLevel::None) {
    const uint64_t V0 = obs::nowNs();
    for (const auto &[Name, Sig] : UserSig) {
      Tensor *New = NewBindings.at(Name);
      if (Status S = New->validate(RunOptions.ValidateInputs); !S.ok())
        return std::move(S)
            .withContext("tensor '" + Name + "'")
            .withContext("kernel '" + K.Name + "'");
    }
    NewValidateNs = obs::nowNs() - V0;
  }
  // Names that shared one tensor at prepare were compiled as one
  // operand (one native argument, aliased co-walker fibers), so their
  // replacements must share one tensor too.
  for (const auto &[Name, Sig] : UserSig)
    if (!Sig.SharedWith.empty() &&
        NewBindings.at(Name) != NewBindings.at(Sig.SharedWith))
      return Status::error(ErrCode::InvalidArgument,
                           "ambiguous rebind: one tensor was bound under "
                           "multiple names with different replacements")
          .withContext("kernel '" + K.Name + "'");
  // An output keeps a tensor of its own: the fused engines read inputs
  // that were separate from the outputs at prepare once per call (a
  // folded prefix, a register tail, a blocked panel's lane values), so
  // an input sharing an output's tensor would go stale mid-run. Inputs
  // that become one tensor only lose an aliasing shortcut.
  auto Group = [&](const std::string &Name) -> const std::string & {
    const std::string &Shared = UserSig.at(Name).SharedWith;
    return Shared.empty() ? Name : Shared;
  };
  for (const std::string &Out : OutputNames)
    for (const auto &[Name, Sig] : UserSig)
      if (NewBindings.at(Name) == NewBindings.at(Out) &&
          Group(Name) != Group(Out))
        return Status::error(ErrCode::InvalidArgument,
                             "rebind aliases output " + Out + " with " +
                                 Name + ", which were distinct at prepare")
            .withContext("kernel '" + K.Name + "'");
  const uint64_t R0 = obs::nowNs();
  // Rebuild the name map and materialized aliases over the new
  // tensors; the kernel's split/transpose requests are deterministic,
  // so the alias name set matches the compiled one exactly.
  std::map<std::string, Tensor *> NewBound;
  for (const auto &[Name, Sig] : UserSig)
    NewBound[Name] = NewBindings.at(Name);
  std::vector<std::unique_ptr<Tensor>> NewOwned;
  if (Status S = materializeAliases(NewBound, NewOwned); !S.ok())
    return S;
  // Point of no return: adopt the per-request knobs (every structural
  // option is key-identical by the caller's contract) and fill the
  // operand table.
  Options.Cancel = RunOptions.Cancel;
  Options.DeadlineMs = RunOptions.DeadlineMs;
  Options.ValidateInputs = RunOptions.ValidateInputs;
  Bound = std::move(NewBound);
  bindSlots();
  Owned = std::move(NewOwned);
  // The table fill is this "run"'s materialization work; plan
  // compilation and specialization were skipped outright — which is the
  // whole point, and what the phase timers pin in reports of rebound
  // runs. An installed or pending native body is kept as-is (it
  // marshals operands from the table per call); whether the rebound
  // runs may use it follows the adopted per-request knobs.
  ValidateNs = NewValidateNs;
  MaterializeNs = obs::nowNs() - R0;
  PlanCompileNs = 0;
  SpecializeNs = 0;
  NativeDecline = nativeDeclineFor();
  Report.Options = execOptionsSummary(Options);
  return Status::success();
}

namespace {

/// One participant's activity windowed between two snapshots (counters
/// are monotone since process start; subtracting is exact).
obs::WorkerStat windowWorker(const std::string &Name,
                             const ThreadPool::ActivityCounters &After,
                             const ThreadPool::ActivityCounters &Before) {
  obs::WorkerStat W;
  W.Name = Name;
  W.WaitNs = After.WaitNs - Before.WaitNs;
  W.ExecNs = After.ExecNs - Before.ExecNs;
  W.Tasks = After.Tasks - Before.Tasks;
  W.TaskNs = obs::LogHistogram::windowDelta(After.TaskNs, Before.TaskNs);
  return W;
}

} // namespace

void Executor::snapshotTracing() {
  Ctx->TraceOn = obs::tracingEnabled();
  if (!Ctx->TraceOn || Ctx->LoopLabels)
    return;
  TraceLabels.clear();
  for (const obs::LoopStat &L : LoopMeta)
    TraceLabels.push_back(obs::internName(L.Label));
  Ctx->LoopLabels = TraceLabels.data();
}

Status Executor::tryRun(obs::ExecReport *Out) {
  if (Status S = tryRunBody(Out); !S.ok())
    return S;
  return tryRunEpilogue(Out);
}

Status Executor::tryRunBody(obs::ExecReport *Out) {
  if (!Prepared)
    return Status::error(ErrCode::InvalidArgument,
                         "tryRunBody called before tryPrepare");
  Ctx->CountersOn = countersEnabled();
  snapshotTracing();
  std::fill(Ctx->LoopCalls.begin(), Ctx->LoopCalls.end(), uint64_t(0));
  std::fill(Ctx->LoopNs.begin(), Ctx->LoopNs.end(), uint64_t(0));
  Ctx->MergeNs = 0;
  Report.AbortReason.clear();

  // Controlled runs (cancel token or deadline) arm the shared stop
  // state and snapshot the outputs so an abort can discard partial
  // writes; uncontrolled runs skip all of it — Ctx->Ctrl stays null
  // and every checkpoint is a single pointer test.
  const bool Controlled = Options.Cancel != nullptr || Options.DeadlineMs > 0;
  std::vector<std::vector<double>> Snapshots;
  if (Controlled) {
    if (!Ctl)
      Ctl = std::make_unique<RunControl>();
    Ctl->arm(Options.Cancel,
             Options.DeadlineMs > 0
                 ? obs::nowNs() +
                       static_cast<uint64_t>(Options.DeadlineMs) * 1000000
                 : 0);
    // Trip immediately for a pre-cancelled token or an already-expired
    // deadline: the engines' periodic polls (every 64th checkpoint)
    // could otherwise let a short kernel run to completion first.
    Ctl->check();
    Ctx->Ctrl = Ctl.get();
    Ctx->PollTick = 0;
    Snapshots.reserve(Ctx->Outputs.size());
    for (Tensor *T : Ctx->Outputs)
      Snapshots.push_back(T->vals());
  } else {
    Ctx->Ctrl = nullptr;
  }

  // The pool's activity counters run since process start; window them
  // to this run. Only the pooled configuration touches the pool at all.
  // The caller windows exactly its own slot (registered here, before
  // the Before snapshot, so the slot exists in both snapshots) —
  // concurrent submitters never pollute each other's wait/execute
  // split.
  const bool Pooled = Options.Threads > 1;
  ThreadPool::ActivitySnapshot Before;
  unsigned CallerId = 0;
  if (Pooled) {
    CallerId = ThreadPool::global().currentCallerId();
    Before = ThreadPool::global().activitySnapshot();
  }

  // Engine dispatch: an installed native body supersedes the plan tree
  // (it was compiled from it and honors the same contracts) on every
  // run the options allow; otherwise the per-loop tiers run as always.
  const bool NativeAllowed = Resolved.UseNative && NativeDecline.ok();
  if (NativeAllowed)
    tierUp();
  const bool RunNative = NativeAllowed && NativePlan;
  const uint64_t T0 = obs::nowNs();
  (RunNative ? NativePlan.get() : BodyPlan.get())->exec(*Ctx);
  const uint64_t T1 = obs::nowNs();
  if (Ctx->TraceOn)
    obs::emitSpan("execute", "phase", T0, T1 - T0);

  Report.Phases.clear();
  Report.Phases.push_back({"materialize", MaterializeNs});
  Report.Phases.push_back({"plan-compile", PlanCompileNs});
  Report.Phases.push_back({"specialize", SpecializeNs});
  if (Options.ValidateInputs != ValidationLevel::None)
    Report.Phases.push_back({"validate", ValidateNs});
  Report.Phases.push_back({"execute", T1 - T0});
  Report.Phases.push_back({"merge", Ctx->MergeNs});
  Report.Loops = LoopMeta;
  for (size_t L = 0; L < Report.Loops.size() && L < Ctx->LoopCalls.size();
       ++L) {
    Report.Loops[L].Calls = Ctx->LoopCalls[L];
    Report.Loops[L].Ns = Ctx->LoopNs[L];
  }
  Report.BodyEngine = RunNative ? engineName(Engine::Native) : TierEngines;
  Report.Workers.clear();
  if (Pooled) {
    const ThreadPool::ActivitySnapshot After =
        ThreadPool::global().activitySnapshot();
    for (size_t W = 0; W < After.Workers.size(); ++W) {
      const ThreadPool::ActivityCounters B =
          W < Before.Workers.size() ? Before.Workers[W]
                                    : ThreadPool::ActivityCounters{};
      Report.Workers.push_back(windowWorker(
          "worker-" + std::to_string(W), After.Workers[W], B));
    }
    const ThreadPool::ActivityCounters CallerB =
        CallerId < Before.Callers.size() ? Before.Callers[CallerId]
                                         : ThreadPool::ActivityCounters{};
    const ThreadPool::ActivityCounters CallerA =
        CallerId < After.Callers.size() ? After.Callers[CallerId]
                                        : ThreadPool::ActivityCounters{};
    Report.Workers.push_back(windowWorker("caller", CallerA, CallerB));
  }
  Report.Options = execOptionsSummary(Options);

  if (Controlled && Ctl->stopped()) {
    // Aborted: restore the outputs in place (Ctx->OutPtr aliases the
    // buffers, so copy element-wise rather than swapping storage) and
    // discard this run's counter deltas — an aborted run contributes
    // nothing.
    for (size_t I = 0; I < Ctx->Outputs.size(); ++I) {
      std::vector<double> &V = Ctx->Outputs[I]->vals();
      std::copy(Snapshots[I].begin(), Snapshots[I].end(), V.begin());
    }
    Ctx->Local = CounterSnapshot{};
    Report.Counters = CounterSnapshot{};
    const ErrCode Reason = Ctl->reason();
    Report.AbortReason = errCodeName(Reason);
    Ctx->Ctrl = nullptr;
    if (Out)
      *Out = Report;
    return Status::error(
               Reason,
               Reason == ErrCode::DeadlineExceeded
                   ? "deadline of " + std::to_string(Options.DeadlineMs) +
                         " ms expired"
                   : "run cancelled")
        .withContext("kernel '" + K.Name + "'");
  }

  Report.Counters = Ctx->Local;
  Ctx->Local = CounterSnapshot{};
  Ctx->Ctrl = nullptr;
  if (Out)
    *Out = Report;
  return Status::success();
}

Status Executor::tryRunEpilogue(obs::ExecReport *Out) {
  if (!Prepared)
    return Status::error(ErrCode::InvalidArgument,
                         "tryRunEpilogue called before tryPrepare");
  if (EpiloguePlan) {
    Ctx->CountersOn = countersEnabled();
    snapshotTracing();
    const uint64_t T0 = obs::nowNs();
    EpiloguePlan->exec(*Ctx);
    const uint64_t T1 = obs::nowNs();
    if (Ctx->TraceOn)
      obs::emitSpan("epilogue", "phase", T0, T1 - T0);
    // Extend the body's report: append the epilogue phase, refresh the
    // loop aggregates (epilogue loops kept accumulating into the same
    // vectors), update merge time, and fold in the epilogue's counters.
    Report.Phases.push_back({"epilogue", T1 - T0});
    for (obs::PhaseStat &P : Report.Phases)
      if (P.Name == "merge")
        P.Ns = Ctx->MergeNs;
    for (size_t L = 0; L < Report.Loops.size() && L < Ctx->LoopCalls.size();
         ++L) {
      Report.Loops[L].Calls = Ctx->LoopCalls[L];
      Report.Loops[L].Ns = Ctx->LoopNs[L];
    }
    obs::addCounters(Report.Counters, Ctx->Local);
    Ctx->Local = CounterSnapshot{};
  }
  if (Out)
    *Out = Report;
  return Status::success();
}

} // namespace systec
