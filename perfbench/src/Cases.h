//===- perfbench/src/Cases.h - Paper kernels with references --*- C++ -*-===//
///
/// \file
/// One KernelCase per paper kernel and size: the declared einsum, its
/// generated inputs, and the expected output from a reference that
/// shares no code with the compiler or the executor.
///
/// Inputs are hermetic: the sparse structure depends only on the kernel
/// and its sizes (so exact counters repeat across seeds of one size), and
/// every value — sparse and dense — is drawn from the run's seed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CASES_H
#define PERFBENCH_CASES_H

#include "ir/Einsum.h"
#include "tensor/Tensor.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// The paper's eight kernels (Section 5.2), in reporting order.
const std::vector<std::string> &paperKernels();

/// The declared einsum of kernel \p Name (formats, fills, symmetry,
/// loop order) — what a client hands the compiler.
systec::Einsum declaredEinsum(const std::string &Name);

struct CaseSize {
  int64_t N = 0;    ///< extent of every sparse mode
  int64_t Nnz = 0;  ///< canonical entries (symmetric) or entries (ssyrk)
  int64_t Rank = 0; ///< dense factor width (ttm, mttkrp)
};

/// Where a case's expected output comes from.
enum class Reference {
  Baseline, ///< hand-written src/baselines kernels; a direct loop over
            ///< A's stored entries for mttkrp4/5
  Oracle,   ///< oracleEval's dense brute force (small inputs only)
};

struct KernelCase {
  std::string Name;
  systec::Einsum E;
  std::map<std::string, systec::Tensor> Inputs;
  std::string OutName;
  std::vector<int64_t> OutDims;
  double OutFill = 0;
  std::vector<double> Expected;

  systec::Tensor freshOutput() const {
    return systec::Tensor::dense(OutDims, OutFill);
  }
  /// Every input plus \p Out under the output's name.
  std::map<std::string, systec::Tensor *> bindings(systec::Tensor &Out);
};

/// Generates kernel \p Name's inputs at \p Size with values from
/// \p Seed, and fills Expected from \p Ref.
KernelCase makeCase(const std::string &Name, const CaseSize &Size,
                    uint64_t Seed, Reference Ref);

/// Relative tolerance of every output check. Symmetric kernels fold
/// their sums in a different order than the references, so results
/// agree to rounding, not bit for bit.
constexpr double RelTol = 1e-9;

/// True when \p Got matches \p Want elementwise within RelTol (equal
/// infinities match).
bool outputMatches(const systec::Tensor &Got, const std::vector<double> &Want);

} // namespace pb

#endif // PERFBENCH_CASES_H
