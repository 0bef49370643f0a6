//===- perfbench/src/Cases.cpp --------------------------------*- C++ -*-===//

#include "Cases.h"

#include "baselines/Baselines.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "kernels/Oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace systec;

namespace pb {

namespace {

const double Inf = std::numeric_limits<double>::infinity();

uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

uint64_t hashName(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S)
    H = (H ^ uint8_t(C)) * 1099511628211ull;
  return H;
}

/// Redraws every stored value from \p Seed as a function of the sorted
/// coordinates, so symmetric tensors stay exactly symmetric and the
/// structure (hence every exact counter) is untouched.
Tensor reseedValues(const Tensor &T, uint64_t Seed) {
  Coo C = T.toCoo();
  std::vector<int64_t> Co(C.order());
  for (size_t I = 0; I < C.size(); ++I) {
    for (unsigned M = 0; M < C.order(); ++M)
      Co[M] = C.coord(I, M);
    std::sort(Co.begin(), Co.end());
    uint64_t H = mix(Seed);
    for (int64_t X : Co)
      H = mix(H ^ uint64_t(X));
    C.setValue(I, 0.5 + double(H >> 11) * 0x1.0p-53);
  }
  return Tensor::fromCoo(std::move(C), T.format(), T.fill());
}

/// mttkrp-n reference: a direct loop over A's stored entries (the full
/// symmetric storage), C[i,j] += A[i,k,..] * prod B[.,j]. Dense tensors
/// are column-major: element (r, c) of an R x C matrix is vals[c*R + r].
std::vector<double> directMttkrp(const Tensor &A, const Tensor &B,
                                 int64_t Rank) {
  const int64_t N = A.dim(0);
  std::vector<double> C(size_t(N * Rank), 0.0);
  const std::vector<double> &BV = B.vals();
  A.forEach([&](const std::vector<int64_t> &Co, double V) {
    for (int64_t J = 0; J < Rank; ++J) {
      double P = V;
      for (size_t M = 1; M < Co.size(); ++M)
        P *= BV[size_t(J * N + Co[M])];
      C[size_t(J * N + Co[0])] += P;
    }
  });
  return C;
}

} // namespace

const std::vector<std::string> &paperKernels() {
  static const std::vector<std::string> K{"ssymv", "bellmanford", "syprd",
                                          "ssyrk", "ttm",         "mttkrp3",
                                          "mttkrp4", "mttkrp5"};
  return K;
}

Einsum declaredEinsum(const std::string &Name) {
  if (Name == "ssymv")
    return makeSsymv();
  if (Name == "bellmanford")
    return makeBellmanFord();
  if (Name == "syprd")
    return makeSyprd();
  if (Name == "ssyrk")
    return makeSsyrk();
  if (Name == "ttm")
    return makeTtm();
  if (Name.rfind("mttkrp", 0) == 0)
    return makeMttkrp(unsigned(Name.back() - '0'));
  std::fprintf(stderr, "unknown kernel %s\n", Name.c_str());
  std::exit(2);
}

std::map<std::string, Tensor *> KernelCase::bindings(Tensor &Out) {
  std::map<std::string, Tensor *> B;
  for (auto &[Name, T] : Inputs)
    B[Name] = &T;
  B[OutName] = &Out;
  return B;
}

KernelCase makeCase(const std::string &Name, const CaseSize &S, uint64_t Seed,
                    Reference Ref) {
  KernelCase C;
  C.Name = Name;
  C.E = declaredEinsum(Name);
  C.OutName = C.E.Output->tensorName();
  C.OutFill = C.E.Decls.count(C.OutName) ? C.E.decl(C.OutName).Fill : 0.0;

  // Structure from the kernel and its sizes only; values from the seed.
  Rng Structure(mix(hashName(Name) ^ mix(uint64_t(S.N) << 20 ^
                                         uint64_t(S.Nnz) ^
                                         uint64_t(S.Rank) << 40)));
  Rng Values(mix(Seed ^ hashName(Name)));
  const uint64_t ValueSeed = mix(Seed ^ 0x5eedull ^ hashName(Name));

  if (Name == "ssymv" || Name == "syprd" || Name == "bellmanford") {
    const bool MinPlus = Name == "bellmanford";
    C.Inputs.emplace("A", reseedValues(generateSymmetricTensor(
                                           2, S.N, S.Nnz, Structure,
                                           TensorFormat::csf(2),
                                           MinPlus ? Inf : 0.0),
                                       ValueSeed));
    C.Inputs.emplace(MinPlus ? "d" : "x", generateDenseVector(S.N, Values));
    C.OutDims = Name == "syprd" ? std::vector<int64_t>{1}
                                : std::vector<int64_t>{S.N};
  } else if (Name == "ssyrk") {
    C.Inputs.emplace("A", reseedValues(generateSparseMatrix(
                                           S.N, S.N, S.Nnz, Structure,
                                           TensorFormat::csf(2)),
                                       ValueSeed));
    C.OutDims = {S.N, S.N};
  } else {
    const unsigned Order = Name == "ttm" ? 3 : unsigned(Name.back() - '0');
    C.Inputs.emplace("A", reseedValues(generateSymmetricTensor(
                                           Order, S.N, S.Nnz, Structure,
                                           TensorFormat::csf(Order)),
                                       ValueSeed));
    C.Inputs.emplace("B", generateDenseMatrix(S.N, S.Rank, Values));
    C.OutDims = Name == "ttm" ? std::vector<int64_t>{S.Rank, S.N, S.N}
                              : std::vector<int64_t>{S.N, S.Rank};
  }

  if (Ref == Reference::Oracle) {
    std::map<std::string, const Tensor *> In;
    for (auto &[N, T] : C.Inputs)
      In[N] = &T;
    C.Expected = oracleEval(C.E, In).vals();
    return C;
  }
  const Tensor &A = C.Inputs.at("A");
  Tensor Out = C.freshOutput();
  if (Name == "ssymv")
    tacoSpmv(A, C.Inputs.at("x"), Out);
  else if (Name == "bellmanford")
    tacoBellmanFord(A, C.Inputs.at("d"), Out);
  else if (Name == "syprd")
    Out.vals()[0] = tacoSyprd(A, C.Inputs.at("x"));
  else if (Name == "ssyrk")
    tacoSsyrk(A, Out);
  else if (Name == "ttm")
    tacoTtm(A, C.Inputs.at("B"), Out);
  else if (Name == "mttkrp3")
    tacoMttkrp3(A, C.Inputs.at("B"), Out);
  else
    Out.vals() = directMttkrp(A, C.Inputs.at("B"), S.Rank);
  C.Expected = std::move(Out.vals());
  return C;
}

bool outputMatches(const Tensor &Got, const std::vector<double> &Want) {
  const std::vector<double> &G = Got.vals();
  if (G.size() != Want.size())
    return false;
  double Scale = 0;
  for (double W : Want)
    if (std::isfinite(W))
      Scale = std::max(Scale, std::fabs(W));
  for (size_t I = 0; I < G.size(); ++I) {
    if (G[I] == Want[I])
      continue;
    if (!std::isfinite(G[I]) || !std::isfinite(Want[I]))
      return false;
    if (std::fabs(G[I] - Want[I]) >
        RelTol * std::fabs(Want[I]) + 1e-12 * Scale)
      return false;
  }
  return true;
}

} // namespace pb
