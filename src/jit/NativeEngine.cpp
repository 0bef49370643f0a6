//===- jit/NativeEngine.cpp - JIT'd whole-body plan node ----------------===//

#include "jit/NativeEngine.h"

namespace systec {
namespace jit {

namespace {

int32_t nativeKind(LevelKind K) {
  switch (K) {
  case LevelKind::Dense:
    return NativeDense;
  case LevelKind::Sparse:
    return NativeSparse;
  case LevelKind::RunLength:
    return NativeRunLength;
  case LevelKind::Banded:
    return NativeBanded;
  }
  return NativeDense;
}

} // namespace

void PlanNative::exec(detail::ExecCtx &C) {
  // Cancellation checkpoint at body entry: a tripped run skips the
  // whole native body (one cancellation region; see the header).
  if (C.Ctrl && C.Ctrl->stopped())
    return;

  size_t NLevels = 0;
  for (unsigned Id : Args)
    NLevels += C.Accesses[Id].T->order();
  std::vector<NativeLevel> Levels(NLevels);
  std::vector<NativeTensor> Tensors(Args.size());
  size_t LevelAt = 0;
  for (size_t I = 0; I < Args.size(); ++I) {
    const Tensor *T = C.Accesses[Args[I]].T;
    NativeTensor &NT = Tensors[I];
    NT.Order = T->order();
    NT.Levels = Levels.data() + LevelAt;
    NT.Vals = T->valsData();
    NT.Fill = T->fill();
    for (unsigned L = 0; L < T->order(); ++L) {
      const Level &Lev = T->level(L);
      NativeLevel &NL = Levels[LevelAt++];
      NL.Kind = nativeKind(Lev.Kind);
      NL.Dim = Lev.Dim;
      NL.Ptr = Lev.Ptr.data();
      NL.Crd = Lev.Crd.data();
      NL.RunEnd = Lev.RunEnd.data();
      NL.Lo = Lev.Lo.data();
      NL.Hi = Lev.Hi.data();
      NL.Off = Lev.Off.data();
    }
  }

  NativeCounters NC;
  Fn(Tensors.data(), C.OutPtr.data(), &NC);
  if (C.CountersOn) {
    C.Local.SparseReads += static_cast<uint64_t>(NC.SparseReads);
    C.Local.Reductions += static_cast<uint64_t>(NC.Reductions);
    C.Local.ScalarOps += static_cast<uint64_t>(NC.ScalarOps);
    C.Local.OutputWrites += static_cast<uint64_t>(NC.OutputWrites);
  }
}

} // namespace jit
} // namespace systec
