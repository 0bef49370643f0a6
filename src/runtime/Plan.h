//===- runtime/Plan.h - Compiled execution plan internals -----*- C++ -*-===//
///
/// \file
/// Internal representation of a compiled execution plan: the expression
/// VM, the plan-node tree the interpreter walks, and the execution
/// context shared by the generic interpreter and the fused micro-kernel
/// layer (runtime/MicroKernels.h). Not part of the public API; included
/// only by the runtime's own translation units and tests that need to
/// poke at plan internals.
///
/// Slot binding: a compiled plan names every tensor by slot — an access
/// id into ExecCtx::Accesses or an output id into ExecCtx::Outputs —
/// and holds no tensor address itself. Those two tables are the only
/// place a bound tensor lives; engines resolve level arrays and value
/// bases from them at each loop execution's bind, so pointing a plan at
/// new tensors of identical structure (a plan-cache hit) only refills
/// the tables.
///
/// Counter discipline: each ExecCtx carries a plain-integer delta block
/// (`Local`) guarded by a per-run copy of the counters-enabled flag
/// (`CountersOn`); the Executor moves the deltas into the run's report
/// once per run, and parallel loops sum task-context deltas in task
/// order. This keeps the hot loops free of atomic traffic while
/// preserving exact counter totals.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_RUNTIME_PLAN_H
#define SYSTEC_RUNTIME_PLAN_H

#include "ir/Cond.h"
#include "ir/Ops.h"
#include "observability/Trace.h"
#include "parallel/Schedule.h"
#include "support/Counters.h"
#include "support/Status.h"
#include "symmetry/Partition.h"
#include "tensor/Tensor.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace systec {

class ThreadPool;

namespace detail {

class MicroKernel;
class MKBlockedEngine;

/// Shared cooperative-stop state of one controlled run (cancellation
/// token and/or absolute deadline). One instance per Executor, armed
/// per run and pointed at by every execution context of that run —
/// tasks observe a trip through the relaxed atomic, which is enough:
/// cancellation is best-effort by design and the Executor discards all
/// partial output on abort.
struct RunControl {
  CancelToken *Token = nullptr;
  uint64_t DeadlineNs = 0; ///< absolute obs::nowNs() deadline; 0 = none
  /// First ErrCode that stopped the run (0 while running). Set once by
  /// compare-exchange so the surfaced reason is the actual trigger.
  std::atomic<uint32_t> StopCode{0};

  void arm(CancelToken *Tok, uint64_t Deadline) {
    Token = Tok;
    DeadlineNs = Deadline;
    StopCode.store(0, std::memory_order_relaxed);
  }
  bool stopped() const {
    return StopCode.load(std::memory_order_relaxed) != 0;
  }
  ErrCode reason() const {
    return static_cast<ErrCode>(StopCode.load(std::memory_order_relaxed));
  }
  void trip(ErrCode C) {
    uint32_t Expected = 0;
    StopCode.compare_exchange_strong(Expected, static_cast<uint32_t>(C),
                                     std::memory_order_relaxed);
  }
  /// Full poll: token, then deadline clock. Returns whether to stop.
  bool check() {
    if (stopped())
      return true;
    if (Token && Token->cancelled()) {
      trip(ErrCode::Cancelled);
      return true;
    }
    if (DeadlineNs && obs::nowNs() > DeadlineNs) {
      trip(ErrCode::DeadlineExceeded);
      return true;
    }
    return false;
  }
};

/// Runtime state of one distinct tensor access: the fibertree position
/// at which each level was entered. Pos[L] is the parent position for
/// level L; Pos[order] is the value position.
struct AccessState {
  Tensor *T = nullptr;
  std::vector<int64_t> Pos;
  bool SparseFormat = false;
  /// Stateful locator for random accesses (VKind::SparseLoad): per
  /// level, the parent position the cursor is parked under and the
  /// index of the last lower_bound result, so lookups in ascending
  /// iteration order gallop forward instead of re-bisecting the whole
  /// fiber. Lives in the (per-task-copied) context, never in the shared
  /// plan, so parallel tasks keep independent cursors.
  std::vector<int64_t> LocParent, LocIdx;
};

struct ExecCtx {
  std::vector<int64_t> IndexVal;
  std::vector<double> ScalarVal;
  std::vector<AccessState> Accesses;
  /// Per output id, the bound output tensor (the epilogue replicates
  /// it; controlled runs snapshot it).
  std::vector<Tensor *> Outputs;
  /// Per output id, the value-array base assignments write through.
  /// The main context points at the bound tensors; task contexts of a
  /// parallel loop repoint privatized outputs at per-task accumulators.
  std::vector<double *> OutPtr;
  /// Snapshot of countersEnabled() taken once per run (hoists the
  /// atomic flag load out of every inner loop).
  bool CountersOn = true;
  /// Counter deltas accumulated by this context; moved into the run's
  /// report once per run (or summed into the parent context after a
  /// parallel loop).
  CounterSnapshot Local;
  /// Snapshot of obs::tracingEnabled() taken once per run, exactly
  /// like CountersOn: plan-loop instrumentation branches on this plain
  /// bool instead of the process-wide atomic.
  bool TraceOn = false;
  /// Per-plan-loop execution aggregates, indexed by PlanLoop::TraceId
  /// (sized by the plan compiler, written only when TraceOn, merged in
  /// task order after parallel loops like the counters). These cover
  /// inner loops, whose raw trace spans are suppressed to keep event
  /// volume bounded.
  std::vector<uint64_t> LoopCalls, LoopNs;
  /// Per plan loop, indexed like LoopCalls, the interned span name
  /// ("loop i [Fused/SparseWalk]"); null until the executor's first
  /// traced run of the plan.
  const char *const *LoopLabels = nullptr;
  /// Nanoseconds spent merging privatized accumulators and task
  /// deltas after parallel loops (always collected; a subset of the
  /// run's execute time).
  uint64_t MergeNs = 0;
  /// Cooperative stop state of the run; null when uncontrolled (no
  /// token, no deadline), so the hot path pays one pointer test per
  /// checkpoint. Copied into task contexts with the rest of the
  /// context, so all tasks share the run's state.
  RunControl *Ctrl = nullptr;
  /// Per-context decimation tick for checkpointStop's clock reads.
  uint32_t PollTick = 0;
};

/// Cancellation checkpoint for per-iteration polling: free when the
/// run is uncontrolled; otherwise a relaxed flag test per call with a
/// full token/deadline poll every 64th (decimating the clock reads
/// that a deadline check needs).
inline bool checkpointStop(ExecCtx &C) {
  RunControl *Ctl = C.Ctrl;
  if (!Ctl)
    return false;
  if ((++C.PollTick & 63u) == 0)
    return Ctl->check();
  return Ctl->stopped();
}

/// A compiled comparison between two index slots.
struct CAtom {
  CmpKind Kind;
  unsigned A, B;

  bool eval(const ExecCtx &C) const {
    return evalCmp(Kind, C.IndexVal[A], C.IndexVal[B]);
  }
};

/// A compiled DNF condition.
struct CCond {
  std::vector<std::vector<CAtom>> Disjuncts;

  bool eval(const ExecCtx &C) const {
    for (const std::vector<CAtom> &D : Disjuncts) {
      bool Ok = true;
      for (const CAtom &A : D)
        if (!A.eval(C)) {
          Ok = false;
          break;
        }
      if (Ok)
        return true;
    }
    return false;
  }
};

//===----------------------------------------------------------------------===//
// Expression VM
//===----------------------------------------------------------------------===//

enum class VKind { Lit, Scalar, Walked, DenseLoad, SparseLoad, Op, Lut };

struct VInstr {
  VKind Kind;
  double Lit = 0;
  unsigned Id = 0; // scalar slot, or access id (Walked and both loads)
  OpKind Op = OpKind::Add;
  unsigned NArgs = 0;
  std::vector<std::pair<unsigned, int64_t>> SlotStride; // DenseLoad
  /// SparseLoad: per level (top first), the index slot providing that
  /// level's coordinate.
  std::vector<unsigned> LevelSlots;
  std::vector<CAtom> LutBits;
  std::vector<double> LutTable;
};

/// Random access through \p AccessId's fibertree at the coordinates in
/// IndexVal[LevelSlots[level]], using the per-context stateful locator
/// (galloping cursors on Sparse and RunLength levels) — the expression
/// VM's SparseLoad instruction. Does not touch counters; the caller
/// counts one SparseRead per evaluation.
double sparseLoadValue(ExecCtx &C, unsigned AccessId,
                       const std::vector<unsigned> &LevelSlots);

struct VProgram {
  std::vector<VInstr> Code;
  /// Maximum operand-stack depth, computed when the program is built.
  /// eval() keeps a fixed-size stack for the common case and falls back
  /// to a heap buffer for pathologically deep expressions.
  unsigned MaxDepth = 0;

  /// Recomputes MaxDepth from Code (call after appending instructions).
  void finalize();

  double eval(ExecCtx &C) const;
};

//===----------------------------------------------------------------------===//
// Plan nodes
//===----------------------------------------------------------------------===//

class PlanNode {
public:
  virtual ~PlanNode() = default;
  virtual void exec(ExecCtx &C) = 0;
};

using PlanPtr = std::unique_ptr<PlanNode>;

class PlanSeq final : public PlanNode {
public:
  std::vector<PlanPtr> Children;
  void exec(ExecCtx &C) override {
    for (PlanPtr &Child : Children)
      Child->exec(C);
  }
};

class PlanIf final : public PlanNode {
public:
  CCond Cond;
  PlanPtr Body;
  void exec(ExecCtx &C) override {
    if (Cond.eval(C))
      Body->exec(C);
  }
};

class PlanDef final : public PlanNode {
public:
  unsigned Slot = 0;
  VProgram Init;
  void exec(ExecCtx &C) override { C.ScalarVal[Slot] = Init.eval(C); }
};

class PlanAssign final : public PlanNode {
public:
  VProgram Rhs;
  std::optional<OpKind> Reduce;
  unsigned Mult = 1;
  bool ScalarTarget = false;
  unsigned ScalarSlot = 0;
  unsigned OutId = 0; ///< index into ExecCtx::OutPtr (tensor targets)
  std::vector<std::pair<unsigned, int64_t>> SlotStride;

  void exec(ExecCtx &C) override;
};

class PlanReplicate final : public PlanNode {
public:
  unsigned OutId = 0; ///< index into ExecCtx::Outputs
  Partition Sym;
  unsigned Threads = 1;

  void exec(ExecCtx &C) override;
};

class PlanLoop final : public PlanNode {
public:
  PlanLoop();
  ~PlanLoop() override;

  unsigned Slot = 0;
  int64_t Extent = 0;

  struct WalkerRef {
    unsigned AccessId;
    unsigned Level;
    bool Bottom;
  };
  std::vector<WalkerRef> Walkers;
  // Bounds: lo = max(0, IndexVal[slot]+delta...), hi analogous
  // (inclusive).
  std::vector<std::pair<unsigned, int64_t>> LoTerms, HiTerms;
  PlanPtr Body;

  /// Fused micro-kernel replacing the generic walker/body dispatch of
  /// this leaf loop (null for nest loops, and for leaves the specializer
  /// declined; the interpreted path is then both the implementation and
  /// the oracle).
  std::unique_ptr<MicroKernel> Fused;
  /// Blocked panel engine running this nest loop over its fused child
  /// leaf (null unless the nest has the panel shape and Engine::Blocked
  /// is enabled). Tried before Fused, which it never coexists with.
  std::unique_ptr<MKBlockedEngine> Blocked;

  /// One privatized output: tasks accumulate into per-task buffers that
  /// merge into the shared array, in task order, after the loop.
  struct PrivTensor {
    unsigned OutId;
    size_t Elems;
    OpKind Op;
    double Identity;
  };
  struct PrivScalar {
    unsigned Slot;
    OpKind Op;
    double Identity;
  };

  /// Parallel execution state (populated by the plan compiler for the
  /// activated loop of each nest).
  struct ParPlan {
    bool Enabled = false;
    /// Triangle depth from the loop's analyzeLoopParallelism contract,
    /// taken at prepare (0: not triangular); makeChunks balances the
    /// loop's chunks by it.
    int TriDepth = 0;
    unsigned Threads = 1;
    ThreadPool *Pool = nullptr;
    std::vector<PrivTensor> PrivTensors;
    std::vector<PrivScalar> PrivScalars;
    /// Accumulators, reused across runs and kept identity-filled
    /// between them (the merge resets as it reads):
    /// [task * PrivTensors.size() + p].
    std::vector<std::vector<double>> Buffers;
    /// Task contexts, reused so inner parallel loops (one dispatch per
    /// outer iteration) do not reallocate per execution.
    std::vector<ExecCtx> TaskCtx;
  };
  ParPlan Par;

  /// Observability identity, assigned at plan compilation: TraceId
  /// indexes ExecCtx::LoopCalls/LoopNs/LoopLabels; EngineName/DriverName
  /// ("Interp"/"Fused"/"Blocked", "Range"/"SparseWalk"/...) surface in
  /// ExecReport.
  unsigned TraceId = 0;
  const char *EngineName = nullptr;
  const char *DriverName = nullptr;

  void exec(ExecCtx &C) override;
  void execParallel(ExecCtx &C, int64_t Lo, int64_t Hi);
  /// Dispatch for one contiguous range: forwards to rangeBody, via
  /// tracedRange (span + aggregate accounting) when C.TraceOn.
  void execRange(ExecCtx &C, int64_t Lo, int64_t Hi);
  void tracedRange(ExecCtx &C, int64_t Lo, int64_t Hi);
  /// The actual engine dispatch (blocked panels, fused micro-kernel or
  /// walker-driven interpretation), free of instrumentation.
  void rangeBody(ExecCtx &C, int64_t Lo, int64_t Hi);
  /// One chunk per thread, balanced by the loop's triangle depth
  /// (static blocks at depth 0).
  std::vector<ChunkRange> makeChunks(int64_t Lo, int64_t Hi) const;
};

} // namespace detail
} // namespace systec

#endif // SYSTEC_RUNTIME_PLAN_H
