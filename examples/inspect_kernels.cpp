//===- examples/inspect_kernels.cpp - Compiler inspection CLI -*- C++ -*-===//
///
/// \file
/// The analogue of the artifact's `julia run_SySTeC.jl`: compiles every
/// kernel from the paper's evaluation and prints the full compiler
/// report (analysis, symmetrized blocks, naive and optimized kernels as
/// IR listings, transposes and splits). Pass an einsum on the command
/// line to compile something else, e.g.:
///
///   inspect_kernels "C[i,j] += A[i,k] * A[j,k]"
///   inspect_kernels "y[i] min= A[i,j] + d[j]" --sym A
///
/// --sym T marks tensor T fully symmetric; --nosplit etc. toggle passes.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "kernels/Kernels.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace systec;

int main(int Argc, char **Argv) {
  if (Argc > 1 && Argv[1][0] != '-') {
    Einsum E = parseEinsum("cli", Argv[1]);
    PipelineOptions Options;
    for (int I = 2; I < Argc; ++I) {
      if (std::strcmp(Argv[I], "--sym") == 0 && I + 1 < Argc) {
        const std::string Tensor = Argv[++I];
        TensorDecl &D = E.Decls.at(Tensor);
        D.Format = TensorFormat::csf(D.Order);
        D.Symmetry = Partition::full(D.Order);
      } else if (std::strcmp(Argv[I], "--nosplit") == 0) {
        Options.DiagonalSplit = false;
      } else if (std::strcmp(Argv[I], "--noworkspace") == 0) {
        Options.Workspace = false;
      } else if (std::strcmp(Argv[I], "--noconcordize") == 0) {
        Options.Concordize = false;
      } else {
        std::fprintf(stderr, "unknown option %s\n", Argv[I]);
        return 1;
      }
    }
    CompileResult R = compileEinsum(E, Options);
    std::printf("%s\n", R.report().c_str());
    return 0;
  }

  std::vector<Einsum> Kernels{makeSsymv(), makeBellmanFord(), makeSyprd(),
                              makeSsyrk(), makeTtm(),         makeMttkrp(3),
                              makeMttkrp(4), makeMttkrp(5)};
  for (const Einsum &E : Kernels) {
    std::printf("#======================================================"
                "=====\n# %s\n#====================================="
                "======================\n",
                E.Name.c_str());
    std::printf("%s\n", compileEinsum(E).report().c_str());
  }
  return 0;
}
