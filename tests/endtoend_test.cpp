//===- tests/endtoend_test.cpp --------------------------------*- C++ -*-===//
///
/// End-to-end correctness: for every paper kernel, across seeds, sizes,
/// formats and pipeline ablations, the compiled symmetric kernel and
/// the naive kernel must agree with the independent dense oracle; the
/// read/op counters must show the paper's canonical-triangle savings
/// (Sections 3.1 and 5.2).
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "kernels/Oracle.h"
#include "runtime/Executor.h"
#include "support/Counters.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace systec;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// One workload: inputs plus output shape/initial value.
struct Workload {
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  double OutInit = 0.0;
};

Workload makeWorkload(const std::string &Kernel, uint64_t Seed,
                      int64_t Scale) {
  Rng R(Seed);
  Workload W;
  if (Kernel == "ssymv") {
    W.E = makeSsymv();
    int64_t N = 20 * Scale;
    W.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    W.Inputs.emplace("x", generateDenseVector(N, R));
    W.OutDims = {N};
  } else if (Kernel == "bellmanford") {
    W.E = makeBellmanFord();
    int64_t N = 20 * Scale;
    W.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2),
                                                  Inf));
    W.Inputs.emplace("d", generateDenseVector(N, R));
    W.OutDims = {N};
    W.OutInit = Inf;
  } else if (Kernel == "syprd") {
    W.E = makeSyprd();
    int64_t N = 20 * Scale;
    W.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    W.Inputs.emplace("x", generateDenseVector(N, R));
    W.OutDims = {1};
  } else if (Kernel == "ssyrk") {
    W.E = makeSsyrk();
    int64_t N = 15 * Scale;
    W.Inputs.emplace("A", generateSparseMatrix(N, N, 5 * N, R,
                                               TensorFormat::csf(2)));
    W.OutDims = {N, N};
  } else if (Kernel == "ttm") {
    W.E = makeTtm();
    int64_t N = 8 * Scale, Rank = 5;
    W.Inputs.emplace("A", generateSymmetricTensor(3, N, 6 * N, R,
                                                  TensorFormat::csf(3)));
    W.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    W.OutDims = {Rank, N, N};
  } else if (Kernel == "mttkrp3" || Kernel == "mttkrp4" ||
             Kernel == "mttkrp5") {
    unsigned Order = Kernel.back() - '0';
    W.E = makeMttkrp(Order);
    int64_t N = (Order == 5 ? 5 : 7) + 2 * Scale, Rank = 4;
    W.Inputs.emplace("A", generateSymmetricTensor(Order, N, 8 * N, R,
                                                  TensorFormat::csf(Order)));
    W.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    W.OutDims = {N, Rank};
  } else {
    ADD_FAILURE() << "unknown kernel " << Kernel;
  }
  return W;
}

Tensor runKernel(const Kernel &K, Workload &W,
                 ExecOptions Options = ExecOptions(),
                 CounterSnapshot *Counts = nullptr) {
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  Out.setAllValues(W.OutInit);
  Executor E(K, Options);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &Out);
  obs::ExecReport Rep;
  EXPECT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(E.tryRun(&Rep).ok());
  if (Counts)
    *Counts = Rep.Counters;
  return Out;
}

Tensor oracle(const Workload &W) {
  std::map<std::string, const Tensor *> In;
  for (const auto &[Name, T] : W.Inputs)
    In[Name] = &T;
  return oracleEval(W.E, In);
}

double tolFor(const Workload &W) {
  // Scale tolerance with the reduction sizes.
  return 1e-9 * std::max<double>(1.0, static_cast<double>(
                                          W.Inputs.at("A").storedCount()));
}

} // namespace

//===----------------------------------------------------------------------===//
// Kernel x seed x scale sweep
//===----------------------------------------------------------------------===//

struct SweepParam {
  std::string Kernel;
  uint64_t Seed;
  int64_t Scale;
};

class KernelSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(KernelSweep, OptimizedAndNaiveMatchOracle) {
  const SweepParam &P = GetParam();
  Workload W = makeWorkload(P.Kernel, P.Seed, P.Scale);
  CompileResult R = compileEinsum(W.E);
  Tensor Ref = oracle(W);
  Tensor Naive = runKernel(R.Naive, W);
  Tensor Opt = runKernel(R.Optimized, W);
  double Tol = tolFor(W);
  EXPECT_LT(Tensor::maxAbsDiff(Naive, Ref), Tol) << "naive kernel";
  EXPECT_LT(Tensor::maxAbsDiff(Opt, Ref), Tol) << "optimized kernel";
}

static std::vector<SweepParam> sweepParams() {
  std::vector<SweepParam> Params;
  for (const char *K : {"ssymv", "bellmanford", "syprd", "ssyrk", "ttm",
                        "mttkrp3", "mttkrp4", "mttkrp5"})
    for (uint64_t Seed : {1u, 2u, 3u})
      for (int64_t Scale : {1, 2})
        Params.push_back(SweepParam{K, Seed, Scale});
  return Params;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::ValuesIn(sweepParams()),
                         [](const ::testing::TestParamInfo<SweepParam> &I) {
                           return I.param.Kernel + "_s" +
                                  std::to_string(I.param.Seed) + "_x" +
                                  std::to_string(I.param.Scale);
                         });

//===----------------------------------------------------------------------===//
// Pipeline ablations stay correct
//===----------------------------------------------------------------------===//

struct AblationParam {
  std::string Kernel;
  std::string Variant;
};

class AblationSweep : public ::testing::TestWithParam<AblationParam> {};

TEST_P(AblationSweep, VariantMatchesOracle) {
  const AblationParam &P = GetParam();
  PipelineOptions Opt;
  ExecOptions Exec;
  if (P.Variant == "nosplit")
    Opt.DiagonalSplit = false;
  else if (P.Variant == "noworkspace")
    Opt.Workspace = false;
  else if (P.Variant == "noconcordize")
    Opt.Concordize = false;
  else if (P.Variant == "nolut")
    Opt.SimplicialLut = false;
  else if (P.Variant == "nogroup")
    Opt.GroupAcrossBranches = false;
  else if (P.Variant == "nodistributive")
    Opt.DistributiveGrouping = false;
  else if (P.Variant == "noconsolidate")
    Opt.ConsolidateBlocks = false;
  else if (P.Variant == "novisible")
    Opt.VisibleOutputRestriction = false;
  else if (P.Variant == "nocse")
    Opt.CommonAccessElimination = false;
  else if (P.Variant == "nowalk")
    Exec.EnableSparseWalk = false;
  else if (P.Variant == "nobounds")
    Exec.EnableBoundLifting = false;
  else
    FAIL() << "unknown variant " << P.Variant;

  Workload W = makeWorkload(P.Kernel, 9, 1);
  CompileResult R = compileEinsum(W.E, Opt);
  Tensor Ref = oracle(W);
  Tensor Opt1 = runKernel(R.Optimized, W, Exec);
  EXPECT_LT(Tensor::maxAbsDiff(Opt1, Ref), tolFor(W));
}

static std::vector<AblationParam> ablationParams() {
  std::vector<AblationParam> Params;
  for (const char *K : {"ssymv", "bellmanford", "syprd", "ssyrk", "ttm",
                        "mttkrp3", "mttkrp4"})
    for (const char *V :
         {"nosplit", "noworkspace", "noconcordize", "nolut", "nogroup",
          "nodistributive", "noconsolidate", "novisible", "nocse",
          "nowalk", "nobounds"})
      Params.push_back(AblationParam{K, V});
  return Params;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, AblationSweep, ::testing::ValuesIn(ablationParams()),
    [](const ::testing::TestParamInfo<AblationParam> &I) {
      return I.param.Kernel + "_" + I.param.Variant;
    });

//===----------------------------------------------------------------------===//
// Counter ratios: the paper's 1/n! access and 1/m! compute claims
//===----------------------------------------------------------------------===//

namespace {

struct Measured {
  uint64_t Reads, Ops, Updates;
};

Measured measure(const Kernel &K, Workload &W) {
  setCountersEnabled(true);
  CounterSnapshot C;
  runKernel(K, W, ExecOptions(), &C);
  return Measured{C.SparseReads, C.ScalarOps, C.Reductions};
}

} // namespace

TEST(CounterRatios, SsymvReadsHalve) {
  Workload W = makeWorkload("ssymv", 21, 8);
  CompileResult R = compileEinsum(W.E);
  Measured N = measure(R.Naive, W), O = measure(R.Optimized, W);
  double ReadRatio = double(N.Reads) / double(O.Reads);
  EXPECT_GT(ReadRatio, 1.85);
  EXPECT_LT(ReadRatio, 2.1);
  // No compute savings for SSYMV (paper 5.2.1).
  EXPECT_NEAR(double(N.Ops) / double(O.Ops), 1.0, 0.1);
}

TEST(CounterRatios, SyprdReadsAndOpsHalve) {
  Workload W = makeWorkload("syprd", 22, 8);
  CompileResult R = compileEinsum(W.E);
  Measured N = measure(R.Naive, W), O = measure(R.Optimized, W);
  EXPECT_GT(double(N.Reads) / double(O.Reads), 1.85);
  // "Performs 1/2 of the computations" (paper 5.2.3): update count
  // halves; scalar multiplies shrink less because of the 2x factor.
  EXPECT_GT(double(N.Updates) / double(O.Updates), 1.85);
}

TEST(CounterRatios, SsyrkOpsHalve) {
  Workload W = makeWorkload("ssyrk", 23, 6);
  CompileResult R = compileEinsum(W.E);
  Measured N = measure(R.Naive, W), O = measure(R.Optimized, W);
  // Paper 5.2.4: all of A read, half the computation.
  EXPECT_GT(double(N.Ops) / double(O.Ops), 1.6);
}

TEST(CounterRatios, TtmReadsSixthOpsHalf) {
  Workload W = makeWorkload("ttm", 24, 3);
  CompileResult R = compileEinsum(W.E);
  Measured N = measure(R.Naive, W), O = measure(R.Optimized, W);
  // Paper 5.2.5: accesses 1/6 of A, performs 1/2 the computations.
  EXPECT_GT(double(N.Reads) / double(O.Reads), 4.0);
  EXPECT_GT(double(N.Ops) / double(O.Ops), 1.6);
}

TEST(CounterRatios, Mttkrp3) {
  Workload W = makeWorkload("mttkrp3", 25, 4);
  CompileResult R = compileEinsum(W.E);
  Measured N = measure(R.Naive, W), O = measure(R.Optimized, W);
  EXPECT_GT(double(N.Reads) / double(O.Reads), 4.0);      // toward 6
  EXPECT_GT(double(N.Updates) / double(O.Updates), 1.55); // toward 2
}

TEST(CounterRatios, Mttkrp5DramaticSavings) {
  Workload W = makeWorkload("mttkrp5", 26, 3);
  CompileResult R = compileEinsum(W.E);
  Measured N = measure(R.Naive, W), O = measure(R.Optimized, W);
  // Paper 5.2.6: reads toward 1/120, computation toward 1/24.
  EXPECT_GT(double(N.Reads) / double(O.Reads), 30.0);
  EXPECT_GT(double(N.Updates) / double(O.Updates), 6.0);
}

//===----------------------------------------------------------------------===//
// Alternative formats through the same compiled kernels
//===----------------------------------------------------------------------===//

TEST(Formats, SsymvOverDcscInput) {
  // Fully compressed (Sparse(Sparse)) symmetric input.
  Workload W = makeWorkload("ssymv", 31, 2);
  TensorFormat Dcsc;
  Dcsc.Levels = {LevelKind::Sparse, LevelKind::Sparse};
  Tensor A = Tensor::fromCoo(W.Inputs.at("A").toCoo(), Dcsc);
  W.Inputs.erase("A");
  W.Inputs.emplace("A", std::move(A));
  W.E.declare("A", Dcsc);
  W.E.setSymmetry("A", Partition::full(2));
  CompileResult R = compileEinsum(W.E);
  Tensor Ref = oracle(W);
  EXPECT_LT(Tensor::maxAbsDiff(runKernel(R.Optimized, W), Ref), tolFor(W));
}

TEST(Formats, SsymvOverBandedInput) {
  // Structured (banded) symmetric input through the same pipeline.
  Rng R(33);
  Workload W;
  W.E = makeSsymv();
  TensorFormat Banded;
  Banded.Levels = {LevelKind::Dense, LevelKind::Banded};
  W.E.declare("A", Banded);
  W.E.setSymmetry("A", Partition::full(2));
  W.Inputs.emplace("A", generateBandedSymmetric(60, 3, R, Banded));
  W.Inputs.emplace("x", generateDenseVector(60, R));
  W.OutDims = {60};
  CompileResult C = compileEinsum(W.E);
  Tensor Ref = oracle(W);
  EXPECT_LT(Tensor::maxAbsDiff(runKernel(C.Optimized, W), Ref), tolFor(W));
}

TEST(Formats, SsymvOverRleInput) {
  // Run-length encoded symmetric input (paper: RLE-structured tensors).
  Rng R(34);
  Workload W;
  W.E = makeSsymv();
  TensorFormat Rle;
  Rle.Levels = {LevelKind::Dense, LevelKind::RunLength};
  W.E.declare("A", Rle);
  W.E.setSymmetry("A", Partition::full(2));
  W.Inputs.emplace("A", generateBandedSymmetric(40, 2, R, Rle));
  W.Inputs.emplace("x", generateDenseVector(40, R));
  W.OutDims = {40};
  CompileResult C = compileEinsum(W.E);
  Tensor Ref = oracle(W);
  EXPECT_LT(Tensor::maxAbsDiff(runKernel(C.Optimized, W), Ref), tolFor(W));
}

TEST(Formats, PartialSymmetry4dTensor) {
  // A 4-d tensor with {{0,1},{2,3}} symmetry: two independent chains.
  Rng R(35);
  Einsum E = parseEinsum("p4", "C[i,k] += A[i,j,k,l] * x[j] * z[l]");
  E.LoopOrder = {"l", "k", "j", "i"};
  E.declare("A", TensorFormat::csf(4));
  E.setSymmetry("A", Partition::parse(4, "{0,1}{2,3}"));
  // Build a partially symmetric tensor: symmetrize over both pairs.
  const int64_t N = 7;
  Coo C({N, N, N, N});
  for (int K = 0; K < 120; ++K) {
    int64_t I = R.nextIndex(N), J = R.nextIndex(N), K2 = R.nextIndex(N),
            L = R.nextIndex(N);
    if (I > J)
      std::swap(I, J);
    if (K2 > L)
      std::swap(K2, L);
    double V = R.nextDouble();
    C.add({I, J, K2, L}, V);
    if (I != J)
      C.add({J, I, K2, L}, V);
    if (K2 != L)
      C.add({I, J, L, K2}, V);
    if (I != J && K2 != L)
      C.add({J, I, L, K2}, V);
  }
  Workload W;
  W.E = E;
  W.Inputs.emplace("A", Tensor::fromCoo(std::move(C),
                                        TensorFormat::csf(4), 0.0,
                                        OpKind::Max));
  W.Inputs.emplace("x", generateDenseVector(N, R));
  W.Inputs.emplace("z", generateDenseVector(N, R));
  W.OutDims = {N, N};
  CompileResult Res = compileEinsum(W.E);
  // Two chains discovered.
  EXPECT_EQ(Res.Analysis.Chains.size(), 2u);
  Tensor Ref = oracle(W);
  Tensor Naive = runKernel(Res.Naive, W);
  Tensor Opt = runKernel(Res.Optimized, W);
  EXPECT_LT(Tensor::maxAbsDiff(Naive, Ref), tolFor(W));
  EXPECT_LT(Tensor::maxAbsDiff(Opt, Ref), tolFor(W));
}

TEST(Formats, InvisibleContractionSymmetryEndToEnd) {
  // B[i] += A[i,j] * A[i,k] with asymmetric A: the j,k invariance chain
  // halves the work and stays correct.
  Rng R(36);
  Einsum E = parseEinsum("rowsq", "B[i] += A[i,j] * A[i,k]");
  E.LoopOrder = {"k", "j", "i"};
  E.declare("A", TensorFormat::csf(2));
  Workload W;
  W.E = E;
  W.Inputs.emplace("A", generateSparseMatrix(30, 30, 150, R,
                                             TensorFormat::csf(2)));
  W.OutDims = {30};
  CompileResult Res = compileEinsum(W.E);
  Tensor Ref = oracle(W);
  EXPECT_LT(Tensor::maxAbsDiff(runKernel(Res.Optimized, W), Ref),
            tolFor(W));
  EXPECT_LT(Tensor::maxAbsDiff(runKernel(Res.Naive, W), Ref), tolFor(W));
}

TEST(Formats, EpilogueSeparateFromBody) {
  // tryRunBody leaves the non-canonical triangle untouched;
  // tryRunEpilogue completes it (the paper times them separately).
  Workload W = makeWorkload("ssyrk", 37, 2);
  CompileResult R = compileEinsum(W.E);
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  Executor E(R.Optimized);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind("C", &Out);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.tryRunBody().ok());
  // Lower triangle still zero somewhere nonzero in the reference.
  Tensor Ref = oracle(W);
  bool LowerIncomplete = false;
  for (int64_t I = 0; I < Out.dim(0) && !LowerIncomplete; ++I)
    for (int64_t J = 0; J < I && !LowerIncomplete; ++J)
      if (Ref.at({I, J}) != 0.0 && Out.at({I, J}) == 0.0)
        LowerIncomplete = true;
  EXPECT_TRUE(LowerIncomplete);
  ASSERT_TRUE(E.tryRunEpilogue().ok());
  EXPECT_LT(Tensor::maxAbsDiff(Out, Ref), tolFor(W));
}
