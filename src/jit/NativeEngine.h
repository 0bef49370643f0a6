//===- jit/NativeEngine.h - JIT'd whole-body plan node --------*- C++ -*-===//
///
/// \file
/// PlanNative: the plan node that dispatches an entire compiled body to
/// a JIT-compiled .so (jit/NativeKernelCache.h) through the C ABI
/// (jit/NativeAbi.h). It honors the same contracts as the interpreted
/// plan tree it replaces:
///
///  - Determinism: the emitted body replicates the interpreter's
///    sequential fold order, so outputs are bit-identical to a
///    Threads=1 interpreted run. It does not replicate the parallel
///    task decomposition, which is why executors at Threads > 1 never
///    install it.
///  - Counters: the kernel returns its SparseReads / Reductions /
///    ScalarOps / OutputWrites deltas, accounted at the interpreter's
///    exact charge points; they fold into ExecCtx::Local under the
///    standard once-per-run flush discipline.
///  - Rebind: arguments are access ids; every call marshals them from
///    the execution context's access table, so a plan-cache hit, which
///    only refills that table, reaches the native body unchanged.
///  - Cancellation: polled at body entry only — a native body is one
///    cancellation region, so runs with a cancel token or deadline use
///    the per-loop engines instead (docs/CODEGEN.md).
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_JIT_NATIVEENGINE_H
#define SYSTEC_JIT_NATIVEENGINE_H

#include "jit/NativeAbi.h"
#include "runtime/Plan.h"

#include <memory>
#include <vector>

namespace systec {
namespace jit {

class PlanNative final : public detail::PlanNode {
public:
  /// Entry point resolved from the cached .so; Handle keeps the
  /// mapping alive for the life of this node.
  NativeKernelFn Fn = nullptr;
  std::shared_ptr<void> Handle;
  /// Operands as access ids, one per distinct tensor in the emitter's
  /// discovery order (one systec_ntensor each, marshalled per call
  /// from the access table's current tensors).
  std::vector<unsigned> Args;

  void exec(detail::ExecCtx &C) override;
};

} // namespace jit
} // namespace systec

#endif // SYSTEC_JIT_NATIVEENGINE_H
