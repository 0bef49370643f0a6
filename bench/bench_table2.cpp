//===- bench/bench_table2.cpp - Table 2 reproduction ----------*- C++ -*-===//
///
/// \file
/// Table 2: the Vuduc et al. matrix collection. Prints the paper's
/// dimension/nonzero specification for all 30 matrices and, for the
/// benchmark subset (all 30 under SYSTEC_BENCH_FULL=1), builds the
/// synthetic Erdős–Rényi stand-in and reports the achieved symmetric
/// nonzero count. The SuiteSparse matrices themselves would need a
/// download, so each stand-in matches its matrix's dimension and
/// nonzero count instead.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>
#include <set>

using namespace systec;
using namespace systec::bench;

int main() {
  std::printf("Table 2: matrix collection (Vuduc et al.)\n");
  std::printf("%-12s %10s %10s %12s %10s\n", "name", "dimension",
              "nonzeros", "built-nnz", "sym-check");
  Rng R(20260617);
  std::set<std::string> Bench;
  for (const MatrixSpec &S : suiteForBench())
    Bench.insert(S.Name);
  for (const MatrixSpec &Spec : vuducSuite()) {
    if (!Bench.count(Spec.Name)) {
      std::printf("%-12s %10lld %10lld %12s %10s\n", Spec.Name.c_str(),
                  static_cast<long long>(Spec.Dimension),
                  static_cast<long long>(Spec.Nonzeros), "(skipped)", "-");
      continue;
    }
    Tensor A = buildSuiteMatrix(Spec, R);
    // Verify exact symmetry of the synthetic stand-in on a sample.
    bool Symmetric = true;
    unsigned Checked = 0;
    A.forEach([&](const std::vector<int64_t> &C, double V) {
      if (Checked++ % 97 != 0)
        return;
      if (A.at({C[1], C[0]}) != V)
        Symmetric = false;
    });
    std::printf("%-12s %10lld %10lld %12zu %10s\n", Spec.Name.c_str(),
                static_cast<long long>(Spec.Dimension),
                static_cast<long long>(Spec.Nonzeros), A.storedCount(),
                Symmetric ? "ok" : "FAIL");
  }
  std::printf("\n(set SYSTEC_BENCH_FULL=1 to build all 30 matrices)\n");
  return 0;
}
