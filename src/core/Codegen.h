//===- core/Codegen.h - C++ source backend --------------------*- C++ -*-===//
///
/// \file
/// The C++ backend: emits a compiled execution plan (runtime/Plan.h) as
/// a self-contained C-ABI translation unit, which the native engine
/// (jit/) builds into a cached shared object. Where the original
/// SySTeC emits Finch IR that Finch lowers to Julia, this backend
/// lowers the same plan the interpreter runs, so every walker, bound
/// and annihilation decision is made once, by the plan compiler.
///
/// The readable form of a kernel is its IR listing: Kernel::str(), or
/// CompileResult::report() for the whole pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_CORE_CODEGEN_H
#define SYSTEC_CORE_CODEGEN_H

#include "support/Status.h"

#include <string>
#include <vector>

namespace systec {

namespace detail {
class PlanNode;
struct ExecCtx;
} // namespace detail

/// One emitted native translation unit (see emitNativeTU).
struct NativeEmitResult {
  /// Self-contained C++ source exporting the C ABI entry point
  /// `extern "C" int64_t systec_native_run(const systec_ntensor *,
  /// double *const *, systec_ncounters *)` — the struct layouts mirror
  /// jit/NativeAbi.h. No systec headers are included: the TU compiles
  /// against nothing but <stdint.h>/<math.h>, so cached .so files are
  /// independent of the library version (the content hash covers any
  /// ABI change, which necessarily changes the emitted structs).
  std::string Source;
  /// The plan's operands as access ids, one per distinct tensor in the
  /// emitter's discovery order: the runtime passes one systec_ntensor
  /// per entry, in this order, marshalled from the execution context's
  /// access table on every call.
  std::vector<unsigned> Args;
};

/// Emits the compiled execution plan \p Body as a self-contained C++
/// translation unit with a C ABI entry point taking raw Ptr/Crd/vals
/// level arrays plus extents — the source the JIT engine
/// (jit/NativeKernelCache.h) compiles into a cached .so. The emission
/// is plan-driven: loop bounds, walker drivers, co-walker
/// intersections, expression fold order, and counter accounting are
/// read off the same compiled plan the interpreter executes, so the
/// native body is bit-identical to the interpreter (sequential fold
/// order; parallel decomposition is intentionally not replicated) with
/// exact counter parity. \p Ctx supplies slot counts and access states.
///
/// Fails with a typed Status (never aborts) on plan shapes outside the
/// emitter's coverage — e.g. a replication epilogue inside the body
/// plan; callers fall back to the interpreted/fused engines.
Expected<NativeEmitResult> emitNativeTU(const detail::PlanNode &Body,
                                        const detail::ExecCtx &Ctx,
                                        const std::string &KernelName);

} // namespace systec

#endif // SYSTEC_CORE_CODEGEN_H
