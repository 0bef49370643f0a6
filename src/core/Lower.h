//===- core/Lower.h - Kernel lowering -------------------------*- C++ -*-===//
///
/// \file
/// Assembles executable Kernels:
///
///  - lowerNaive builds the plain concordant loop nest for an einsum
///    (the "naive Finch" baseline of the paper's evaluation).
///  - lowerSymmetric builds the symmetry-optimized kernel from a
///    SymKernel: the loop nest(s) with canonical chain conditions placed
///    at their binding loops (so the runtime lifts them into bounds),
///    diagonal splitting into separate nests over split tensors
///    (paper 4.2.9 / Listing 7), workspace accumulators (4.2.8),
///    concordization transposes (4.2.3), and the replication epilogue
///    (4.2.2).
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_CORE_LOWER_H
#define SYSTEC_CORE_LOWER_H

#include "core/SymKernel.h"
#include "ir/Kernel.h"

namespace systec {

/// Lowers the einsum without symmetry exploitation. Like the optimized
/// kernel, it accumulates in a register across the loops the output
/// does not index and transposes inputs to iterate in loop order, so
/// the baseline is fair.
Kernel lowerNaive(const Einsum &E);

/// Lowers a symmetrized and optimized kernel.
Kernel lowerSymmetric(const SymKernel &SK);

/// Rewrites non-concordant input accesses in \p K to transposed
/// aliases, recording TransposeRequests (exposed for testing).
void concordizeKernel(Kernel &K);

} // namespace systec

#endif // SYSTEC_CORE_LOWER_H
