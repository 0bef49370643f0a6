//===- runtime/Executor.cpp -----------------------------------*- C++ -*-===//

#include "runtime/Executor.h"

#include "core/Codegen.h"
#include "jit/NativeEngine.h"
#include "jit/NativeKernelCache.h"
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
#include <functional>
#include <set>
#include <thread>

namespace systec {

using namespace detail;

//===----------------------------------------------------------------------===//
// Plan compilation
//===----------------------------------------------------------------------===//

/// Compiles a Kernel's statement tree into plan nodes against bound
/// tensors. Friend of Executor.
class PlanCompiler {
public:
  PlanCompiler(Executor &E) : E(E) {}

  void compileAll() {
    collectExtents(E.K.Body);
    if (E.K.Epilogue)
      collectExtents(E.K.Epilogue);
    E.Ctx = std::make_unique<ExecCtx>();
    E.BodyPlan = compile(E.K.Body);
    if (E.K.Epilogue)
      E.EpiloguePlan = compile(E.K.Epilogue);
    E.Ctx->IndexVal.assign(IndexSlots.size(), 0);
    E.Ctx->ScalarVal.assign(ScalarSlots.size(), 0.0);
    E.Ctx->Accesses = AccessStates;
    E.Ctx->OutPtr.resize(OutTensors.size());
    for (size_t Id = 0; Id < OutTensors.size(); ++Id)
      E.Ctx->OutPtr[Id] = OutTensors[Id]->vals().data();
    E.Outputs = OutTensors;
    E.Ctx->LoopCalls.assign(NextTraceId, 0);
    E.Ctx->LoopNs.assign(NextTraceId, 0);
    E.MKStats = Stats;
    E.SpecializeNs = SpecializeNs;
    E.LoopMeta = std::move(LoopMeta);
  }

private:
  Executor &E;
  std::map<std::string, unsigned> IndexSlots;
  std::map<std::string, unsigned> ScalarSlots;
  std::map<std::string, int64_t> Extents;
  std::map<std::string, unsigned> AccessIds; // key: printed access
  std::vector<AccessState> AccessStates;
  std::vector<unsigned> Driven; // per access id, along current DFS path
  std::set<std::string> BoundVars;
  std::map<Tensor *, unsigned> OutIds; // written tensors -> OutPtr slot
  std::vector<Tensor *> OutTensors;
  bool InParallel = false; // compiling inside an activated parallel loop
  MicroKernelStats Stats;
  unsigned NextTraceId = 0; // plan-loop observability ids, in-order
  uint64_t SpecializeNs = 0; // time inside specializeLoop calls
  std::vector<obs::LoopStat> LoopMeta; // indexed by trace id

  unsigned indexSlot(const std::string &Name) {
    auto [It, New] = IndexSlots.insert({Name, IndexSlots.size()});
    (void)New;
    return It->second;
  }

  unsigned scalarSlot(const std::string &Name) {
    auto [It, New] = ScalarSlots.insert({Name, ScalarSlots.size()});
    (void)New;
    return It->second;
  }

  unsigned outId(Tensor *T) {
    auto [It, New] = OutIds.insert({T, OutIds.size()});
    if (New)
      OutTensors.push_back(T);
    return It->second;
  }

  Tensor *tensorFor(const std::string &Name) {
    Tensor *T = E.lookup(Name);
    if (!T)
      fatalError("kernel '" + E.K.Name + "' uses unbound tensor " + Name);
    return T;
  }

  unsigned accessId(const ExprPtr &Access) {
    std::string Key = Access->str();
    auto It = AccessIds.find(Key);
    if (It != AccessIds.end())
      return It->second;
    unsigned Id = static_cast<unsigned>(AccessStates.size());
    AccessIds[Key] = Id;
    AccessState S;
    S.T = tensorFor(Access->tensorName());
    S.Indices = Access->indices();
    S.Pos.assign(S.T->order() + 1, 0);
    S.SparseFormat = !S.T->format().isAllDense();
    S.LocParent.assign(S.T->order(), -1);
    S.LocIdx.assign(S.T->order(), 0);
    AccessStates.push_back(std::move(S));
    Driven.push_back(0);
    return Id;
  }

  void collectExtents(const StmtPtr &S) {
    Stmt::walk(S, [this](const StmtPtr &Node) {
      std::vector<ExprPtr> Accesses;
      if (Node->kind() == StmtKind::Assign) {
        Expr::collectAccesses(Node->rhs(), Accesses);
        if (Node->lhs()->kind() == ExprKind::Access)
          Accesses.push_back(Node->lhs());
      } else if (Node->kind() == StmtKind::DefScalar) {
        Expr::collectAccesses(Node->rhs(), Accesses);
      }
      for (const ExprPtr &A : Accesses) {
        Tensor *T = tensorFor(A->tensorName());
        // A 0-d access ("y[]") binds to a one-element dense tensor.
        if (A->indices().empty())
          continue;
        if (T->order() != A->indices().size())
          fatalError("access " + A->str() + " arity mismatch");
        for (unsigned M = 0; M < A->indices().size(); ++M) {
          const std::string &Idx = A->indices()[M];
          auto [It, New] = Extents.insert({Idx, T->dim(M)});
          if (!New && It->second != T->dim(M))
            fatalError("index " + Idx + " has inconsistent extents");
        }
      }
    });
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
      I.Id = scalarSlot(Ex->scalarName());
      P.Code.push_back(std::move(I));
      return;
    }
    case ExprKind::Access: {
      unsigned Id = accessId(Ex);
      const AccessState &S = AccessStates[Id];
      VInstr I;
      if (Driven[Id] == S.T->order() && S.T->order() > 0) {
        I.Kind = VKind::Walked;
        I.Id = Id;
      } else if (S.T->format().isAllDense()) {
        I.Kind = VKind::DenseLoad;
        I.T = S.T;
        I.SlotStride = denseStrides(S.T, Ex->indices());
      } else {
        I.Kind = VKind::SparseLoad;
        I.T = S.T;
        I.Id = Id;
        // Per level (top first), the slot providing that level's
        // coordinate, so the locator descends without a scratch
        // buffer.
        for (unsigned L = 0; L < S.T->order(); ++L)
          I.LevelSlots.push_back(
              indexSlot(Ex->indices()[S.T->modeOfLevel(L)]));
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
  denseStrides(Tensor *T, const std::vector<std::string> &Indices) {
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
      Def->Slot = scalarSlot(S->scalarName());
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
        As->ScalarSlot = scalarSlot(Lhs->scalarName());
      } else {
        Tensor *T = tensorFor(Lhs->tensorName());
        if (!T->format().isAllDense())
          fatalError("output tensor " + Lhs->tensorName() +
                     " must be dense for writes");
        As->OutId = outId(T);
        As->SlotStride = denseStrides(T, Lhs->indices());
      }
      return As;
    }
    case StmtKind::Replicate: {
      auto Rep = std::make_unique<PlanReplicate>();
      Rep->T = tensorFor(S->tensorName());
      if (!Rep->T->format().isAllDense())
        fatalError("replicate requires a dense output");
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
        if (!BoundVars.count(A.Lhs) || !BoundVars.count(A.Rhs))
          return false;
    return true;
  }

  /// Pushes a condition with unbound references inside loops until its
  /// variables are bound: If(c, Loop(x, B)) => Loop(x, If(c, B)).
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
    fatalError("condition references indices that are never bound");
  }

  /// Activates parallel execution for \p S if it is the outermost
  /// annotated loop of its nest and the privatization footprint fits
  /// the budget. Returns whether the loop was activated (the body then
  /// compiles with nested parallelism suppressed).
  bool setUpParallel(const StmtPtr &S, PlanLoop &Loop) {
    if (InParallel || E.Options.Threads <= 1 ||
        !S->parallelInfo().IsParallel)
      return false;
    LoopParallelism LP = analyzeLoopParallelism(S);
    if (!LP.Safe)
      return false;
    SchedulePolicy Policy = E.Options.Schedule;
    if (Policy == SchedulePolicy::Auto)
      Policy = LP.TriangleDepth != 0 ? SchedulePolicy::TriangleBalanced
                                     : SchedulePolicy::Static;
    const unsigned TaskCount = Policy == SchedulePolicy::Dynamic
                                   ? E.Options.Threads * 4
                                   : E.Options.Threads;
    size_t PrivElems = 0;
    std::vector<PlanLoop::PrivTensor> PrivT;
    for (const auto &[Name, Op] : LP.TensorMergeOps) {
      Tensor *T = tensorFor(Name);
      PrivT.push_back(PlanLoop::PrivTensor{
          outId(T), T->vals().size(), Op, opInfo(Op).Identity});
      PrivElems += T->vals().size();
    }
    if (PrivElems * TaskCount * sizeof(double) >
        E.Options.PrivatizationBudgetBytes)
      return false; // too much accumulator memory; try an inner loop
    std::vector<PlanLoop::PrivScalar> PrivS;
    for (const auto &[Name, Op] : LP.ScalarMergeOps)
      PrivS.push_back(PlanLoop::PrivScalar{scalarSlot(Name), Op,
                                           opInfo(Op).Identity});
    Loop.Par.Enabled = true;
    Loop.Par.Policy = Policy;
    Loop.Par.TriDepth = LP.TriangleDepth;
    Loop.Par.Threads = E.Options.Threads;
    Loop.Par.Pool = &ThreadPool::global();
    Loop.Par.PrivTensors = std::move(PrivT);
    Loop.Par.PrivScalars = std::move(PrivS);
    return true;
  }

  PlanPtr compileLoop(const StmtPtr &S) {
    const std::string &Var = S->loopIndex();
    auto Loop = std::make_unique<PlanLoop>();
    Loop->Slot = indexSlot(Var);
    auto ExtIt = Extents.find(Var);
    if (ExtIt == Extents.end())
      fatalError("loop index " + Var + " has no known extent");
    Loop->Extent = ExtIt->second;
    BoundVars.insert(Var);
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
        if (Atom.Lhs == Var && Atom.Rhs != Var && BoundVars.count(Atom.Rhs)) {
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
    std::vector<unsigned> WalkerIds;
    if (E.Options.EnableSparseWalk) {
      std::vector<ExprPtr> Accesses;
      collectSubtreeAccesses(Body, Accesses);
      std::set<std::string> Seen;
      for (const ExprPtr &A : Accesses) {
        if (!Seen.insert(A->str()).second)
          continue;
        unsigned Id = accessId(A);
        AccessState &St = AccessStates[Id];
        if (!St.SparseFormat)
          continue;
        unsigned D = Driven[Id];
        if (D >= St.T->order() ||
            St.Indices[St.T->modeOfLevel(D)] != Var)
          continue;
        const LevelKind LK = St.T->level(D).Kind;
        if (LK != LevelKind::Dense && LK != LevelKind::RunLength &&
            !accessAnnihilatesSubtree(Body, A->str(), St.T->fill()))
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

    // The PlanSpecializer pass: inner loops were specialized by the
    // recursive compile above, so matching proceeds bottom-up and a
    // nest can absorb its already-fused children.
    MKSpecializeOptions SpecOpts;
    SpecOpts.UseBlocked = E.Resolved.UseBlocked;
    SpecOpts.BlockWidth = E.Options.BlockWidth;
    SpecOpts.OutputTensors = &OutTensors;
    bool Specialized = false;
    if (E.Resolved.UseFused) {
      const uint64_t S0 = obs::nowNs();
      Specialized = specializeLoop(*Loop, AccessStates, SpecOpts);
      SpecializeNs += obs::nowNs() - S0;
    }
    if (Specialized) {
      ++Stats.SpecializedLoops;
      if (Loop->Fused->Innermost)
        ++Stats.InnermostFused;
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
      if (Loop->Fused->Blocked) {
        ++Stats.BlockedLoops;
        if (Loop->Fused->Blocked->Mode !=
            MKBlockedEngine::BMode::Stream)
          ++Stats.BlockedAccumLoops;
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
        for (const MKOperand &Op : Item.S.Factors) {
          if (Op.K == MKOperand::Kind::SparseLoad) {
            ++Stats.FusedSparseLoadFactors;
            if (Op.PrebindLevels > 0)
              ++Stats.PrebindSlots;
          } else if (Op.K == MKOperand::Kind::Lut) {
            ++Stats.FusedLutFactors;
          }
        }
    } else {
      ++Stats.GenericLoops;
    }

    assignTraceIdentity(*Loop, Var);

    if (Activated)
      InParallel = false;
    for (unsigned Id : WalkerIds)
      --Driven[Id];
    BoundVars.erase(Var);
    return Loop;
  }

  static const char *driverKindName(MKDriver::Kind K) {
    switch (K) {
    case MKDriver::Kind::Range:
      return "Range";
    case MKDriver::Kind::DenseWalk:
      return "DenseWalk";
    case MKDriver::Kind::SparseWalk:
      return "SparseWalk";
    case MKDriver::Kind::RunLengthWalk:
      return "RunLengthWalk";
    case MKDriver::Kind::BandedWalk:
      return "BandedWalk";
    }
    unreachable("unknown driver kind");
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

  /// Stamps \p Loop's observability identity (trace id, interned span
  /// label, engine and driver names) and records the report-side
  /// metadata row. Runs after specialization so the engine is known.
  void assignTraceIdentity(PlanLoop &Loop, const std::string &Var) {
    Loop.TraceId = NextTraceId++;
    const char *Engine =
        Loop.Fused ? (Loop.Fused->Blocked ? "Blocked" : "Fused")
                   : "Interp";
    const char *Driver =
        Loop.Fused ? driverKindName(Loop.Fused->D.K)
        : Loop.Walkers.empty()
            ? "Range"
            : levelKindName(AccessStates[Loop.Walkers[0].AccessId]
                                .T->level(Loop.Walkers[0].Level)
                                .Kind);
    Loop.EngineName = Engine;
    Loop.DriverName = Driver;
    const std::string Label =
        "loop " + Var + " [" + Engine + "/" + Driver + "]";
    Loop.TraceLabel = obs::internName(Label);
    obs::LoopStat Meta;
    Meta.Label = Label;
    Meta.Engine = Engine;
    Meta.Driver = Driver;
    LoopMeta.push_back(std::move(Meta));
  }

  void collectSubtreeAccesses(const StmtPtr &S, std::vector<ExprPtr> &Out) {
    Stmt::walk(S, [&Out](const StmtPtr &Node) {
      if (Node->kind() == StmtKind::Assign) {
        Expr::collectAccesses(Node->rhs(), Out);
      } else if (Node->kind() == StmtKind::DefScalar) {
        Expr::collectAccesses(Node->rhs(), Out);
      }
    });
  }
};

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

std::string structuralOptionsSummary(const ExecOptions &O) {
  std::string Out = "threads=" + std::to_string(O.Threads);
  Out += std::string(" schedule=") + schedulePolicyName(O.Schedule);
  Out += " blockwidth=" + std::to_string(O.BlockWidth);
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
  Out += std::string(" tracing=") + (O.Tracing ? "on" : "off");
  return Out;
}

Executor::Executor(Kernel KIn, ExecOptions OptionsIn)
    : K(std::move(KIn)), Options(OptionsIn) {}

Executor::~Executor() = default;
Executor::Executor(Executor &&) = default;

Executor &Executor::bind(const std::string &Name, Tensor *T) {
  assert(T && "binding null tensor");
  Bound[Name] = T;
  return *this;
}

Tensor *Executor::lookup(const std::string &Name) const {
  auto It = Bound.find(Name);
  return It == Bound.end() ? nullptr : It->second;
}

void Executor::prepare() {
  if (Status S = tryPrepare(); !S.ok())
    fatalError(S.str());
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
  // Widths 1..8 are all supported (the fuzz matrix exercises them);
  // only out-of-engine values clamp. 0 stays: it means "pick at
  // specialization".
  if (Options.BlockWidth > 8) {
    Clamps.push_back("blockwidth " + std::to_string(Options.BlockWidth) +
                     " -> 8 (engine maximum)");
    Options.BlockWidth = 8;
  }
  // Engine resolution: the one place the request becomes the
  // normalized preference order everything else reads.
  Resolved = resolveEngines(Options.Engines);
  for (const std::string &Note : Resolved.Notes)
    Clamps.push_back(Note);
  Options.Engines = Resolved.Order;
  return Status::success();
}

Status Executor::validateKernel() const {
  // Mirrors every malformed-input abort of plan compilation as a
  // Status-returning pre-pass ("validate then trust"): once this pass
  // accepts, the compiler's remaining fatalError sites are genuine
  // internal invariants.
  std::map<std::string, int64_t> Extents;
  Status Err = Status::success();
  auto Fail = [&Err](ErrCode C, const std::string &M) {
    if (Err.ok())
      Err = Status::error(C, M);
  };

  auto CheckAccesses = [&](const StmtPtr &Root) {
    Stmt::walk(Root, [&](const StmtPtr &Node) {
      std::vector<ExprPtr> Accesses;
      if (Node->kind() == StmtKind::Assign) {
        Expr::collectAccesses(Node->rhs(), Accesses);
        if (Node->lhs()->kind() == ExprKind::Access)
          Accesses.push_back(Node->lhs());
      } else if (Node->kind() == StmtKind::DefScalar) {
        Expr::collectAccesses(Node->rhs(), Accesses);
      } else if (Node->kind() == StmtKind::Replicate) {
        Tensor *T = lookup(Node->tensorName());
        if (!T)
          Fail(ErrCode::UnboundTensor, "kernel '" + K.Name +
                                           "' replicates unbound tensor " +
                                           Node->tensorName());
        else if (!T->format().isAllDense())
          Fail(ErrCode::InvalidArgument,
               "replicate requires a dense output (tensor " +
                   Node->tensorName() + " is " + T->format().str() + ")");
      }
      for (const ExprPtr &A : Accesses) {
        Tensor *T = lookup(A->tensorName());
        if (!T) {
          Fail(ErrCode::UnboundTensor, "kernel '" + K.Name +
                                           "' uses unbound tensor " +
                                           A->tensorName());
          continue;
        }
        if (A->indices().empty())
          continue; // 0-d access: one-element dense tensor
        if (T->order() != A->indices().size()) {
          Fail(ErrCode::InvalidArgument,
               "access " + A->str() + " arity mismatch (tensor " +
                   A->tensorName() + " has order " +
                   std::to_string(T->order()) + ")");
          continue;
        }
        for (unsigned M = 0; M < A->indices().size(); ++M) {
          const std::string &Idx = A->indices()[M];
          auto [It, New] = Extents.insert({Idx, T->dim(M)});
          if (!New && It->second != T->dim(M))
            Fail(ErrCode::InvalidArgument,
                 "index " + Idx + " has inconsistent extents (" +
                     std::to_string(It->second) + " vs " +
                     std::to_string(T->dim(M)) + " at " + A->str() + ")");
        }
      }
      if (Node->kind() == StmtKind::Assign &&
          Node->lhs()->kind() == ExprKind::Access) {
        Tensor *T = lookup(Node->lhs()->tensorName());
        if (T && !T->format().isAllDense())
          Fail(ErrCode::InvalidArgument,
               "output tensor " + Node->lhs()->tensorName() +
                   " must be dense for writes");
      }
    });
  };
  CheckAccesses(K.Body);
  if (K.Epilogue)
    CheckAccesses(K.Epilogue);
  if (!Err.ok())
    return Err;

  // Scoped checks: loop extents and condition bindability (a condition
  // referencing indices no enclosing or inner loop ever binds cannot
  // be placed anywhere).
  auto AllBoundIn = [](const Cond &C, const std::set<std::string> &B) {
    for (const Conj &D : C.disjuncts())
      for (const CmpAtom &A : D.Atoms)
        if (!B.count(A.Lhs) || !B.count(A.Rhs))
          return false;
    return true;
  };
  std::function<bool(const Cond &, const StmtPtr &, std::set<std::string> &)>
      CondBindable = [&](const Cond &C, const StmtPtr &Body,
                         std::set<std::string> &B) -> bool {
    if (AllBoundIn(C, B))
      return true;
    switch (Body->kind()) {
    case StmtKind::Loop: {
      const bool New = B.insert(Body->loopIndex()).second;
      const bool Ok = CondBindable(C, Body->body(), B);
      if (New)
        B.erase(Body->loopIndex());
      return Ok;
    }
    case StmtKind::If:
      return CondBindable(C, Body->body(), B);
    case StmtKind::Block:
      for (const StmtPtr &Child : Body->stmts())
        if (!CondBindable(C, Child, B))
          return false;
      return true;
    default:
      return false;
    }
  };
  std::function<void(const StmtPtr &, std::set<std::string> &)>
      CheckStructure = [&](const StmtPtr &S, std::set<std::string> &B) {
        switch (S->kind()) {
        case StmtKind::Block:
          for (const StmtPtr &Child : S->stmts())
            CheckStructure(Child, B);
          return;
        case StmtKind::If:
          if (!CondBindable(S->condition(), S->body(), B))
            Fail(ErrCode::InvalidArgument,
                 "condition references indices that are never bound");
          CheckStructure(S->body(), B);
          return;
        case StmtKind::Loop: {
          if (!Extents.count(S->loopIndex()))
            Fail(ErrCode::InvalidArgument, "loop index " + S->loopIndex() +
                                               " has no known extent");
          const bool New = B.insert(S->loopIndex()).second;
          CheckStructure(S->body(), B);
          if (New)
            B.erase(S->loopIndex());
          return;
        }
        default:
          return;
        }
      };
  std::set<std::string> BoundV;
  CheckStructure(K.Body, BoundV);
  if (K.Epilogue)
    CheckStructure(K.Epilogue, BoundV);
  return Err;
}

Status Executor::tryPrepare() {
  if (Prepared)
    return Status::error(ErrCode::InvalidArgument, "prepare called twice");
  if (Status S = sanitizeOptions(); !S.ok())
    return std::move(S).withContext("kernel '" + K.Name + "'");
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
  if (Options.Tracing)
    obs::setTracingEnabled(true);
  if (Options.Threads > 1)
    ThreadPool::ensureGlobalThreads(Options.Threads);
  const uint64_t M0 = obs::nowNs();
  UserBound = Bound;
  UserSig.clear();
  for (const auto &[Name, T] : UserBound)
    UserSig[Name] = BindingSig{T->format(), T->dims(), T->fill()};
  if (Status S = materializeAliases(Bound, Owned); !S.ok())
    return S;
  const uint64_t M1 = obs::nowNs();
  // With aliases materialized every access is resolvable; reject
  // malformed kernels here so plan compilation can trust its input.
  if (Status S = validateKernel(); !S.ok())
    return S;
  PlanCompiler(*this).compileAll();
  const uint64_t M2 = obs::nowNs();
  MaterializeNs = M1 - M0;
  PlanCompileNs = M2 - M1;
  if (obs::tracingEnabled()) {
    obs::emitSpan("materialize", "phase", M0, MaterializeNs);
    obs::emitSpan("plan-compile", "phase", M1, PlanCompileNs);
  }
  // Native engine: emit the compiled body as a C-ABI TU, build it
  // through the on-disk .so cache, and stage the resulting plan node in
  // front of the interpreted tree. Every failure (no host compiler,
  // unsupported plan shape, compile/dlopen error) lands in NativeStatus
  // and falls back to the engines behind it — prepare still succeeds.
  NativePlan.reset();
  NativeStatus = Status::success();
  NativeCompileNs = 0;
  if (Resolved.UseNative) {
    auto Emitted = emitNativeTU(*BodyPlan, *Ctx, K.Name);
    if (!Emitted) {
      NativeStatus = Emitted.takeStatus().withContext("kernel '" + K.Name +
                                                      "' native engine");
    } else {
      NativeSource = Emitted->Source;
      auto L = jit::NativeKernelCache::instance().load(
          Emitted->Source, Options.NativeCacheDir);
      if (!L) {
        NativeStatus = L.takeStatus().withContext("kernel '" + K.Name +
                                                  "' native engine");
      } else {
        auto NP = std::make_unique<jit::PlanNative>();
        NP->Fn = L->Fn;
        NP->Handle = L->Handle;
        NP->Args = std::move(Emitted->Args);
        NativePlan = std::move(NP);
        NativeCompileNs = L->CompileNs;
        if (obs::tracingEnabled() && NativeCompileNs)
          obs::emitSpan("native-compile", "phase", M2, NativeCompileNs);
      }
    }
  }
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
  // staged native body) embody that choice. A plan-cache keyed on the
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
    for (const auto &[Name, Old] : UserBound) {
      Tensor *New = NewBindings.at(Name);
      if (Status S = New->validate(RunOptions.ValidateInputs); !S.ok())
        return std::move(S)
            .withContext("tensor '" + Name + "'")
            .withContext("kernel '" + K.Name + "'");
    }
    NewValidateNs = obs::nowNs() - V0;
  }
  const uint64_t R0 = obs::nowNs();
  // Rebuild the name map and materialized aliases over the new
  // tensors; the kernel's split/transpose requests are deterministic,
  // so the alias name set matches the compiled one exactly.
  std::map<std::string, Tensor *> NewUserBound;
  for (const auto &[Name, Old] : UserBound)
    NewUserBound[Name] = NewBindings.at(Name);
  std::map<std::string, Tensor *> NewBound = NewUserBound;
  std::vector<std::unique_ptr<Tensor>> NewOwned;
  if (Status S = materializeAliases(NewBound, NewOwned); !S.ok())
    return S;
  // Old-pointer -> new-pointer map over every name the plan may have
  // baked (user bindings and materialized aliases alike).
  std::map<Tensor *, Tensor *> Map;
  for (const auto &[Name, Old] : Bound) {
    auto NewIt = NewBound.find(Name);
    if (NewIt == NewBound.end())
      return Status::error(ErrCode::Internal,
                           "alias " + Name + " vanished on rebind")
          .withContext("kernel '" + K.Name + "'");
    auto [MIt, Inserted] = Map.insert({Old, NewIt->second});
    if (!Inserted && MIt->second != NewIt->second)
      return Status::error(ErrCode::InvalidArgument,
                           "ambiguous rebind: one tensor was bound under "
                           "multiple names with different replacements")
          .withContext("kernel '" + K.Name + "'");
  }
  // Point of no return: adopt the per-request knobs (every structural
  // option is key-identical by the caller's contract) and repatch.
  Options.Cancel = RunOptions.Cancel;
  Options.DeadlineMs = RunOptions.DeadlineMs;
  Options.Tracing = RunOptions.Tracing;
  Options.ValidateInputs = RunOptions.ValidateInputs;
  if (Options.Tracing)
    obs::setTracingEnabled(true);
  Bound = std::move(NewBound);
  UserBound = std::move(NewUserBound);
  for (AccessState &A : Ctx->Accesses) {
    auto It = Map.find(A.T);
    if (It != Map.end())
      A.T = It->second;
    // Reset run-scoped cursor state exactly as plan compilation
    // initialized it.
    std::fill(A.Pos.begin(), A.Pos.end(), int64_t(0));
    std::fill(A.LocParent.begin(), A.LocParent.end(), int64_t(-1));
    std::fill(A.LocIdx.begin(), A.LocIdx.end(), int64_t(0));
  }
  for (size_t I = 0; I < Outputs.size(); ++I) {
    auto It = Map.find(Outputs[I]);
    if (It != Map.end())
      Outputs[I] = It->second;
    Ctx->OutPtr[I] = Outputs[I]->vals().data();
  }
  RebindCtx RC{Map, Ctx->Accesses};
  BodyPlan->rebind(RC);
  if (EpiloguePlan)
    EpiloguePlan->rebind(RC);
  if (NativePlan)
    NativePlan->rebind(RC);
  Owned = std::move(NewOwned);
  // The repatch is this "run"'s materialization work; plan compilation
  // and specialization were skipped outright — which is the whole
  // point, and what the phase timers pin in reports of rebound runs.
  // The staged native body is reused as-is (it marshals operand
  // pointers per call), so a rebound run compiled nothing either.
  ValidateNs = NewValidateNs;
  MaterializeNs = obs::nowNs() - R0;
  PlanCompileNs = 0;
  SpecializeNs = 0;
  NativeCompileNs = 0;
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

void Executor::run() {
  runBody();
  runEpilogue();
}

Status Executor::tryRun(obs::ExecReport *Out) {
  if (Status S = tryRunBody(Out); !S.ok())
    return S;
  return tryRunEpilogue(Out);
}

void Executor::runBody() {
  if (Status S = tryRunBody(); !S.ok())
    fatalError(S.str());
}

Status Executor::tryRunBody(obs::ExecReport *Out) {
  if (!Prepared)
    return Status::error(ErrCode::InvalidArgument,
                         "runBody called before prepare");
  Ctx->CountersOn = countersEnabled();
  Ctx->TraceOn = obs::tracingEnabled();
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
    Snapshots.reserve(Outputs.size());
    for (Tensor *T : Outputs)
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

  const uint64_t T0 = obs::nowNs();
  // Engine dispatch: a staged native plan supersedes the interpreted
  // tree (it was compiled from it and honors the same contracts); when
  // the native build fell back, the interpreted tree runs as always.
  (NativePlan ? NativePlan.get() : BodyPlan.get())->exec(*Ctx);
  const uint64_t T1 = obs::nowNs();
  if (Ctx->TraceOn)
    obs::emitSpan("execute", "phase", T0, T1 - T0);

  Report.Phases.clear();
  Report.Phases.push_back({"materialize", MaterializeNs});
  Report.Phases.push_back({"plan-compile", PlanCompileNs});
  Report.Phases.push_back({"specialize", SpecializeNs});
  // Reported whenever the native engine was requested: the compiler
  // wall time of this prepare, pinned at 0 on a warm .so-cache start
  // and on every rebound run (the warm-start acceptance signal).
  if (Resolved.UseNative)
    Report.Phases.push_back({"native-compile", NativeCompileNs});
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
    for (size_t I = 0; I < Outputs.size(); ++I) {
      std::vector<double> &V = Outputs[I]->vals();
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
                         "runEpilogue called before prepare");
  runEpilogue();
  if (Out)
    *Out = Report;
  return Status::success();
}

void Executor::runEpilogue() {
  assert(Prepared && "prepare() must run before run()");
  if (!EpiloguePlan)
    return;
  Ctx->CountersOn = countersEnabled();
  Ctx->TraceOn = obs::tracingEnabled();
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

} // namespace systec
