//===- runtime/Plan.cpp - Plan node execution -----------------*- C++ -*-===//

#include "runtime/Plan.h"

#include "observability/Report.h"
#include "observability/Trace.h"
#include "parallel/ThreadPool.h"
#include "runtime/MicroKernels.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

namespace systec {
namespace detail {

//===----------------------------------------------------------------------===//
// Expression VM
//===----------------------------------------------------------------------===//

void VProgram::finalize() {
  int Depth = 0, Max = 0;
  for (const VInstr &I : Code) {
    switch (I.Kind) {
    case VKind::Op:
      Depth -= static_cast<int>(I.NArgs);
      ++Depth;
      break;
    default:
      ++Depth;
      break;
    }
    Max = std::max(Max, Depth);
  }
  assert(Depth == 1 && "program does not leave one value on the stack");
  MaxDepth = static_cast<unsigned>(Max);
}

/// Random access through the fibertree with a movable per-level cursor
/// (the SparseLoad locator). Equivalent to Tensor::at but exploits the
/// sorted iteration order of the surrounding loops: repeated lookups
/// under the same parent gallop forward from the previous result
/// instead of bisecting the whole fiber (Sparse and RunLength levels;
/// Dense and Banded locates are O(1) already).
double sparseLoadValue(ExecCtx &C, unsigned AccessId,
                       const std::vector<unsigned> &LevelSlots) {
  AccessState &A = C.Accesses[AccessId];
  const Tensor &T = *A.T;
  int64_t Pos = 0;
  for (unsigned L = 0; L < T.order(); ++L) {
    const int64_t Coord = C.IndexVal[LevelSlots[L]];
    const Level &Lev = T.level(L);
    if (Lev.Kind == LevelKind::Sparse || Lev.Kind == LevelKind::RunLength)
      Pos = T.locateHinted(L, Pos, Coord, A.LocParent[L], A.LocIdx[L]);
    else
      Pos = T.locate(L, Pos, Coord);
    if (Pos < 0)
      return T.fill();
  }
  return T.val(Pos);
}

double VProgram::eval(ExecCtx &C) const {
  // Fixed-size operand stack for the common case; programs whose
  // compile-time depth exceeds it evaluate on a heap buffer instead of
  // smashing the stack (deep expressions come from wide flattened
  // operator calls).
  constexpr unsigned FixedDepth = 32;
  double Fixed[FixedDepth];
  Fixed[0] = 0.0; // an empty program leaves the stack empty
  std::vector<double> Big;
  double *St = Fixed;
  if (MaxDepth > FixedDepth) {
    Big.resize(MaxDepth);
    St = Big.data();
  }
  int Top = -1;
  for (const VInstr &I : Code) {
    switch (I.Kind) {
    case VKind::Lit:
      St[++Top] = I.Lit;
      break;
    case VKind::Scalar:
      St[++Top] = C.ScalarVal[I.Id];
      break;
    case VKind::Walked: {
      const AccessState &A = C.Accesses[I.Id];
      St[++Top] = A.T->val(A.Pos[A.T->order()]);
      break;
    }
    case VKind::DenseLoad: {
      int64_t Pos = 0;
      for (const auto &[Slot, Stride] : I.SlotStride)
        Pos += C.IndexVal[Slot] * Stride;
      St[++Top] = C.Accesses[I.Id].T->val(Pos);
      break;
    }
    case VKind::SparseLoad: {
      if (C.CountersOn)
        ++C.Local.SparseReads;
      St[++Top] = sparseLoadValue(C, I.Id, I.LevelSlots);
      break;
    }
    case VKind::Op: {
      double Acc = St[Top - static_cast<int>(I.NArgs) + 1];
      for (unsigned K = 1; K < I.NArgs; ++K)
        Acc = evalOp(I.Op, Acc, St[Top - static_cast<int>(I.NArgs) + 1 +
                                   static_cast<int>(K)]);
      Top -= static_cast<int>(I.NArgs);
      St[++Top] = Acc;
      if (C.CountersOn)
        C.Local.ScalarOps += I.NArgs - 1;
      break;
    }
    case VKind::Lut: {
      unsigned Mask = 0;
      for (size_t B = 0; B < I.LutBits.size(); ++B)
        if (I.LutBits[B].eval(C))
          Mask |= 1u << B;
      St[++Top] = I.LutTable[Mask];
      break;
    }
    }
  }
  assert(Top == 0 && "VM stack imbalance");
  return St[0];
}

//===----------------------------------------------------------------------===//
// Plan nodes
//===----------------------------------------------------------------------===//

void PlanAssign::exec(ExecCtx &C) {
  double V = Rhs.eval(C);
  if (Mult > 1) {
    if (Reduce && opInfo(*Reduce).Idempotent) {
      // Duplicate updates collapse under idempotent reductions.
    } else if (!Reduce || *Reduce == OpKind::Add) {
      V *= Mult;
    } else {
      // Rare general case: apply the reduction Mult times below.
    }
  }
  unsigned Times = 1;
  if (Mult > 1 && Reduce && !opInfo(*Reduce).Idempotent &&
      *Reduce != OpKind::Add)
    Times = Mult;
  for (unsigned Rep = 0; Rep < Times; ++Rep) {
    if (ScalarTarget) {
      double &Dst = C.ScalarVal[ScalarSlot];
      Dst = Reduce ? evalOp(*Reduce, Dst, V) : V;
    } else {
      int64_t Pos = 0;
      for (const auto &[Slot, Stride] : SlotStride)
        Pos += C.IndexVal[Slot] * Stride;
      double &Dst = C.OutPtr[OutId][Pos];
      Dst = Reduce ? evalOp(*Reduce, Dst, V) : V;
    }
    if (C.CountersOn) {
      ++C.Local.Reductions;
      if (!ScalarTarget)
        ++C.Local.OutputWrites;
    }
  }
}

void PlanReplicate::exec(ExecCtx &C) {
  uint64_t Copies = replicateSymmetric(*C.Outputs[OutId], Sym, Threads);
  if (C.CountersOn)
    C.Local.OutputWrites += Copies;
}

PlanLoop::PlanLoop() = default;
PlanLoop::~PlanLoop() = default;

void PlanLoop::exec(ExecCtx &C) {
  // Cancellation checkpoint between loops: a tripped run unwinds the
  // whole plan tree without entering another range.
  if (C.Ctrl && C.Ctrl->stopped())
    return;
  int64_t Lo = 0, Hi = Extent - 1;
  for (const auto &[S, D] : LoTerms)
    Lo = std::max(Lo, C.IndexVal[S] + D);
  for (const auto &[S, D] : HiTerms)
    Hi = std::min(Hi, C.IndexVal[S] + D);
  if (Lo > Hi)
    return;
  if (Par.Enabled)
    execParallel(C, Lo, Hi);
  else
    execRange(C, Lo, Hi);
}

std::vector<ChunkRange> PlanLoop::makeChunks(int64_t Lo, int64_t Hi) const {
  return triangleBalanced(Lo, Hi, Par.Threads, Par.TriDepth);
}

void PlanLoop::execParallel(ExecCtx &C, int64_t Lo, int64_t Hi) {
  std::vector<ChunkRange> Chunks = makeChunks(Lo, Hi);
  if (Chunks.size() <= 1) {
    execRange(C, Lo, Hi);
    return;
  }
  const unsigned NT = static_cast<unsigned>(Chunks.size());
  const size_t NPriv = Par.PrivTensors.size();

  // Task contexts start from the parent state; privatized scalars
  // reset to the merge identity so partial results compose exactly.
  // Contexts and buffers persist across executions (vector copy
  // assignment reuses capacity; buffers stay identity-filled).
  if (Par.TaskCtx.size() < NT)
    Par.TaskCtx.resize(NT);
  for (unsigned T = 0; T < NT; ++T) {
    Par.TaskCtx[T] = C;
    // Counter deltas are per task: zero after the copy and sum in task
    // order after the join (the parent keeps its own accumulated
    // deltas). The per-loop trace aggregates follow the same
    // discipline.
    Par.TaskCtx[T].Local = CounterSnapshot{};
    if (C.TraceOn) {
      std::fill(Par.TaskCtx[T].LoopCalls.begin(),
                Par.TaskCtx[T].LoopCalls.end(), uint64_t(0));
      std::fill(Par.TaskCtx[T].LoopNs.begin(),
                Par.TaskCtx[T].LoopNs.end(), uint64_t(0));
      Par.TaskCtx[T].MergeNs = 0;
    }
  }
  for (unsigned T = 0; T < NT; ++T)
    for (const PrivScalar &S : Par.PrivScalars)
      Par.TaskCtx[T].ScalarVal[S.Slot] = S.Identity;
  if (Par.Buffers.size() < size_t(NT) * NPriv)
    Par.Buffers.resize(size_t(NT) * NPriv);

  // Controlled runs poll the token/deadline at every task-claim
  // boundary (the pool drains remaining chunks once tripped) and once
  // more at chunk entry, for chunks claimed before the trip landed.
  std::function<bool()> StopFn;
  const std::function<bool()> *Stop = nullptr;
  if (C.Ctrl) {
    StopFn = [Ctl = C.Ctrl] { return Ctl->check(); };
    Stop = &StopFn;
  }
  Par.Pool->parallelFor(
      NT,
      [&](unsigned T) {
        ExecCtx &TC = Par.TaskCtx[T];
        if (TC.Ctrl && TC.Ctrl->stopped())
          return;
        // First-use accumulator fill runs inside the task so the
        // identity fill of large buffers is itself parallel.
        for (size_t P = 0; P < NPriv; ++P) {
          const PrivTensor &PT = Par.PrivTensors[P];
          std::vector<double> &B = Par.Buffers[size_t(T) * NPriv + P];
          if (B.size() != PT.Elems)
            B.assign(PT.Elems, PT.Identity);
          TC.OutPtr[PT.OutId] = B.data();
        }
        execRange(TC, Chunks[T].Lo, Chunks[T].Hi);
      },
      Stop);

  if (C.Ctrl && C.Ctrl->stopped()) {
    // Abort: discard the partial privatized results instead of merging
    // them. Dropping the buffers (instead of re-filling) keeps the
    // between-runs identity invariant — the next execution re-fills on
    // first use. The Executor discards the shared output arrays.
    for (std::vector<double> &B : Par.Buffers)
      B.clear();
    return;
  }

  // Merge in task order: the decomposition (not the thread schedule)
  // determines the floating-point result. Accumulators reset to the
  // identity in the same sweep, restoring the between-runs invariant
  // without a separate fill pass.
  const uint64_t MergeStart = obs::nowNs();
  for (unsigned T = 0; T < NT; ++T)
    obs::addCounters(C.Local, Par.TaskCtx[T].Local);
  if (C.TraceOn)
    for (unsigned T = 0; T < NT; ++T) {
      const ExecCtx &TC = Par.TaskCtx[T];
      for (size_t L = 0; L < C.LoopCalls.size() &&
                         L < TC.LoopCalls.size(); ++L) {
        C.LoopCalls[L] += TC.LoopCalls[L];
        C.LoopNs[L] += TC.LoopNs[L];
      }
      C.MergeNs += TC.MergeNs;
    }
  for (const PrivScalar &S : Par.PrivScalars)
    for (unsigned T = 0; T < NT; ++T)
      C.ScalarVal[S.Slot] = evalOp(S.Op, C.ScalarVal[S.Slot],
                                   Par.TaskCtx[T].ScalarVal[S.Slot]);
  for (size_t P = 0; P < NPriv; ++P) {
    const PrivTensor &PT = Par.PrivTensors[P];
    double *Dst = C.OutPtr[PT.OutId];
    std::vector<ChunkRange> Slabs =
        staticBlocks(0, static_cast<int64_t>(PT.Elems) - 1,
                     Par.Threads);
    Par.Pool->parallelFor(
        static_cast<unsigned>(Slabs.size()), [&](unsigned SI) {
          for (int64_t I = Slabs[SI].Lo; I <= Slabs[SI].Hi; ++I) {
            double Acc = Dst[I];
            for (unsigned T = 0; T < NT; ++T) {
              double *Buf = Par.Buffers[size_t(T) * NPriv + P].data();
              Acc = evalOp(PT.Op, Acc, Buf[I]);
              Buf[I] = PT.Identity;
            }
            Dst[I] = Acc;
          }
        });
  }
  const uint64_t MergeEnd = obs::nowNs();
  C.MergeNs += MergeEnd - MergeStart;
  if (obs::tracingEnabled())
    obs::emitSpan("merge", "exec", MergeStart, MergeEnd - MergeStart,
                  static_cast<int64_t>(NT), static_cast<int64_t>(NPriv));
}

namespace {
/// Depth of traced plan-loop dispatches on this thread. Raw spans are
/// emitted only at depth 0 (the outermost loop of each dispatch — on a
/// worker thread, the parallel chunk it executes); inner loops are
/// covered by the per-loop Calls/Ns aggregates, which keeps trace
/// volume proportional to chunks rather than iterations.
thread_local unsigned LoopSpanDepth = 0;
} // namespace

void PlanLoop::execRange(ExecCtx &C, int64_t Lo, int64_t Hi) {
  if (C.TraceOn) {
    tracedRange(C, Lo, Hi);
    return;
  }
  rangeBody(C, Lo, Hi);
}

void PlanLoop::tracedRange(ExecCtx &C, int64_t Lo, int64_t Hi) {
  const uint64_t T0 = obs::nowNs();
  const bool Raw = LoopSpanDepth == 0;
  ++LoopSpanDepth;
  rangeBody(C, Lo, Hi);
  --LoopSpanDepth;
  const uint64_t Dur = obs::nowNs() - T0;
  if (Raw && TraceLabel && obs::tracingEnabled())
    obs::emitSpan(TraceLabel, "loop", T0, Dur, Lo, Hi);
  if (TraceId < C.LoopCalls.size()) {
    ++C.LoopCalls[TraceId];
    C.LoopNs[TraceId] += Dur;
  }
}

void PlanLoop::rangeBody(ExecCtx &C, int64_t Lo, int64_t Hi) {
  if (Blocked) {
    Blocked->run(C, Lo, Hi);
    return;
  }
  if (Fused) {
    Fused->run(C, Lo, Hi);
    return;
  }
  if (Walkers.empty()) {
    for (int64_t V = Lo; V <= Hi; ++V) {
      if (checkpointStop(C))
        return;
      C.IndexVal[Slot] = V;
      Body->exec(C);
    }
    return;
  }

  // The first walker drives iteration; the others must agree on each
  // candidate coordinate (intersection).
  const WalkerRef &W = Walkers[0];
  AccessState &A = C.Accesses[W.AccessId];
  const Level &Lev = A.T->level(W.Level);
  const int64_t Parent = A.Pos[W.Level];

  auto Step = [&](int64_t Coord, int64_t Child) {
    A.Pos[W.Level + 1] = Child;
    if (C.CountersOn && W.Bottom && A.SparseFormat)
      ++C.Local.SparseReads;
    for (size_t K = 1; K < Walkers.size(); ++K) {
      const WalkerRef &O = Walkers[K];
      AccessState &OA = C.Accesses[O.AccessId];
      const int64_t OParent = OA.Pos[O.Level];
      if (OA.T == A.T && O.Level == W.Level && OParent == Parent) {
        OA.Pos[O.Level + 1] = Child;
      } else {
        int64_t OChild = OA.T->locate(O.Level, OParent, Coord);
        if (OChild < 0)
          return; // missing in intersection
        OA.Pos[O.Level + 1] = OChild;
      }
      if (C.CountersOn && O.Bottom && OA.SparseFormat)
        ++C.Local.SparseReads;
    }
    C.IndexVal[Slot] = Coord;
    Body->exec(C);
  };

  switch (Lev.Kind) {
  case LevelKind::Dense: {
    for (int64_t V = Lo; V <= Hi; ++V) {
      if (checkpointStop(C))
        return;
      Step(V, Parent * Lev.Dim + V);
    }
    return;
  }
  case LevelKind::Sparse: {
    int64_t B = Lev.Ptr[Parent], E = Lev.Ptr[Parent + 1];
    if (Lo > 0)
      B = std::lower_bound(Lev.Crd.begin() + B, Lev.Crd.begin() + E, Lo) -
          Lev.Crd.begin();
    for (int64_t KPos = B; KPos < E; ++KPos) {
      int64_t Coord = Lev.Crd[KPos];
      if (Coord > Hi || checkpointStop(C))
        break;
      Step(Coord, KPos);
    }
    return;
  }
  case LevelKind::RunLength: {
    int64_t Start = 0;
    for (int64_t KPos = Lev.Ptr[Parent]; KPos < Lev.Ptr[Parent + 1];
         ++KPos) {
      int64_t End = Lev.RunEnd[KPos];
      for (int64_t V = std::max(Start, Lo); V < End; ++V) {
        if (V > Hi || checkpointStop(C))
          return;
        Step(V, KPos);
      }
      Start = End;
      if (Start > Hi)
        return;
    }
    return;
  }
  case LevelKind::Banded: {
    int64_t B = std::max(Lo, Lev.Lo[Parent]);
    int64_t E = std::min(Hi, Lev.Hi[Parent] - 1);
    for (int64_t V = B; V <= E; ++V) {
      if (checkpointStop(C))
        return;
      Step(V, Lev.Off[Parent] + (V - Lev.Lo[Parent]));
    }
    return;
  }
  }
  unreachable("unknown level kind");
}

} // namespace detail
} // namespace systec
