//===- data/Generators.h - Workload generation ----------------*- C++ -*-===//
///
/// \file
/// Workload generators for the paper's evaluation (Section 5.2):
/// uniformly distributed symmetric random sparse tensors via an
/// Erdős–Rényi distribution, random dense factor matrices, and the
/// Vuduc et al. matrix collection (Table 2). The paper's SuiteSparse
/// matrices would need a download, so synthetic Erdős–Rényi stand-ins
/// match each matrix's dimension and nonzero count instead, symmetrized
/// as A + Aᵀ exactly like the paper symmetrizes the asymmetric members
/// of the suite.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_DATA_GENERATORS_H
#define SYSTEC_DATA_GENERATORS_H

#include "support/Random.h"
#include "tensor/Tensor.h"

#include <string>
#include <vector>

namespace systec {

/// A fully symmetric order-\p Order tensor with extent \p Dim per mode.
/// Approximately \p CanonicalNnz canonical (sorted-coordinate) entries
/// are sampled uniformly; each is replicated to its full orbit so the
/// stored tensor is exactly symmetric. Values are uniform in [0, 1).
Tensor generateSymmetricTensor(unsigned Order, int64_t Dim,
                               int64_t CanonicalNnz, Rng &R,
                               const TensorFormat &Format,
                               double Fill = 0.0);

/// An asymmetric Erdős–Rényi sparse matrix with ~Nnz entries.
Tensor generateSparseMatrix(int64_t Rows, int64_t Cols, int64_t Nnz, Rng &R,
                            const TensorFormat &Format);

/// Symmetrizes a square matrix as A + Aᵀ (the paper's treatment of the
/// asymmetric suite members).
Tensor symmetrizeMatrix(const Tensor &A);

/// A banded symmetric matrix (structured-tensor workloads): entries
/// within \p Bandwidth of the diagonal. \p Fill is the out-of-band
/// value (inf for min-plus workloads).
Tensor generateBandedSymmetric(int64_t Dim, int64_t Bandwidth, Rng &R,
                               const TensorFormat &Format,
                               double Fill = 0.0);

/// A dense matrix with uniform [0,1) values.
Tensor generateDenseMatrix(int64_t Rows, int64_t Cols, Rng &R);

/// A dense vector with uniform [0,1) values.
Tensor generateDenseVector(int64_t N, Rng &R);

/// One row of Table 2 (the Vuduc et al. suite).
struct MatrixSpec {
  std::string Name;
  int64_t Dimension;
  int64_t Nonzeros;
};

/// The 29 matrices of Table 2 with the paper's dimensions and nonzero
/// counts.
const std::vector<MatrixSpec> &vuducSuite();

/// Builds the synthetic stand-in for one suite matrix: Erdős–Rényi with
/// the spec's dimension/nnz, symmetrized A + Aᵀ, in CSC.
Tensor buildSuiteMatrix(const MatrixSpec &Spec, Rng &R);

} // namespace systec

#endif // SYSTEC_DATA_GENERATORS_H
