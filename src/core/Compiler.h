//===- core/Compiler.h - SySTeC compiler driver ---------------*- C++ -*-===//
///
/// \file
/// The public compiler entry point: given an einsum with symmetry
/// annotations, produce both the naive kernel (the paper's baseline)
/// and the symmetry-optimized kernel (Sections 4.1-4.2), together with
/// the intermediate artifacts for inspection and testing.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_CORE_COMPILER_H
#define SYSTEC_CORE_COMPILER_H

#include "core/Analysis.h"
#include "core/Lower.h"
#include "core/Passes.h"
#include "core/SymKernel.h"
#include "core/Symmetrize.h"
#include "observability/Report.h"

#include <string>
#include <vector>

namespace systec {

/// Everything the compiler produced for one einsum.
struct CompileResult {
  Einsum Source;
  SymmetryAnalysis Analysis;
  SymKernel Sym;      ///< after all enabled passes
  Kernel Naive;       ///< baseline loop nest
  Kernel Optimized;   ///< symmetry-exploiting kernel

  /// Wall time of each front-end phase, in order: analyze, symmetrize,
  /// passes, lower-naive, lower-optimized. Always recorded; report()
  /// leaves it out so the report stays timing-free.
  std::vector<obs::PhaseStat> Phases;

  /// Multi-section textual report (analysis, symmetrized blocks, final
  /// kernels) for the CLI and golden tests.
  std::string report() const;
};

/// Runs the full pipeline over \p E.
CompileResult compileEinsum(const Einsum &E,
                            const PipelineOptions &Options = {});

} // namespace systec

#endif // SYSTEC_CORE_COMPILER_H
