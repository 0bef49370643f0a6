//===- ir/Kernel.h - Executable kernel description ------------*- C++ -*-===//
///
/// \file
/// A compiled kernel: the loop-nest IR plus the tensor environment it
/// expects. The compiler (core/) produces Kernels from Einsums; the
/// runtime lowers Kernels into execution plans, which the C++ backend
/// (core/Codegen.h) emits for the native engine. Kernel::str() is the
/// readable listing.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_IR_KERNEL_H
#define SYSTEC_IR_KERNEL_H

#include "ir/Einsum.h"
#include "ir/Stmt.h"

#include <map>
#include <string>
#include <vector>

namespace systec {

/// A request to materialize a transposed alias of an input tensor
/// before running the kernel (concordization, paper 4.2.3). Alias mode
/// m holds source mode ModePerm[m].
struct TransposeRequest {
  std::string Alias;
  std::string Source;
  std::vector<unsigned> ModePerm;
};

/// A request to materialize the diagonal or off-diagonal part of a
/// symmetric input (diagonal splitting, paper 4.2.9 / Listing 7's
/// A_diag and A_nondiag).
struct SplitRequest {
  std::string Alias;
  std::string Source;
  bool DiagonalPart = false; ///< true: keep only diagonal entries
};

/// An executable kernel description.
struct Kernel {
  std::string Name;
  /// Tensor declarations, including aliases created by transforms.
  std::map<std::string, TensorDecl> Decls;
  /// Loop order, outermost first (applies to Body).
  std::vector<std::string> LoopOrder;
  /// The main loop nest (Loop/If/Assign tree).
  StmtPtr Body;
  /// Post-processing statements (output replication); may be null.
  /// Timed separately, matching the paper's methodology which excludes
  /// data rearrangement from kernel timings.
  StmtPtr Epilogue;
  /// Pre-kernel data preparation requests.
  std::vector<TransposeRequest> Transposes;
  std::vector<SplitRequest> Splits;
  /// The reduction operator used into the output.
  OpKind ReduceOp = OpKind::Add;
  /// Output tensor name.
  std::string OutputName;

  /// Full IR rendering (body plus epilogue).
  std::string str() const {
    std::string Out = "kernel " + Name + ":\n" + Body->str(1);
    if (Epilogue) {
      Out += "epilogue:\n";
      Out += Epilogue->str(1);
    }
    return Out;
  }
};

} // namespace systec

#endif // SYSTEC_IR_KERNEL_H
