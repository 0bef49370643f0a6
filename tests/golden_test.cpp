//===- tests/golden_test.cpp ----------------------------------*- C++ -*-===//
///
/// Pins the front end's output (analysis, symmetrize, the Section 4.2
/// passes and both lowerings) so a change meant to speed it up cannot
/// move it unnoticed:
///
///  - the full `CompileResult::report()` of the eight paper kernels,
///    compared with the checked-in `tests/golden/paper_kernels.txt`
///    (the report's "naive kernel" section is `Naive.str()`);
///  - an FNV-1a-64 digest of `report()` for the same kernels under
///    each of the nine single-switch-off `PipelineOptions`;
///  - an FNV-1a-64 digest of `report()` for the fuzz corpus's einsums
///    `makeCase(S).E`, S = 0-2999;
///  - an FNV-1a-64 digest of `analyzeLoopParallelism` over every loop
///    of both lowerings in the same three sets: the verdict, the
///    triangle depth and each merge operator by target.
///
/// It also pins what `tryPrepare` builds from the front end's output,
/// over the paper kernels at compile-cold sizes and the fuzz cases
/// `makeCase(S)`, S = 0-2999:
///
///  - an FNV-1a-64 digest of one counted `tryRunBody`'s
///    `ExecReport::structureKey()` (loop engines, drivers, forms and
///    exact counters) and every `MicroKernelStats` field, for both
///    lowerings on the default engines at Threads 1 and 2;
///  - an FNV-1a-64 digest of one traced `tryRun` per lowering at
///    Threads 2 and 3: each loop's call count (a loop that runs as
///    parallel chunks counts one call per chunk), the run's pool-task
///    total and the output bits. It pins which loop each prepare runs
///    in parallel.
///
/// A change that means to move the front end or the prepared plans
/// regenerates them:
///
///   SYSTEC_GOLDEN_UPDATE=1 ./golden_test
///
/// rewrites the text file and prints the digests to paste below.
///
//===----------------------------------------------------------------------===//

#include "FuzzHarness.h"

#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "observability/Trace.h"
#include "parallel/ParallelAnalysis.h"
#include "support/Counters.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace systec;

#ifndef SYSTEC_GOLDEN_DIR
#error "golden_test requires SYSTEC_GOLDEN_DIR"
#endif

namespace {

const char *const FuzzCorpusDigest = "78895e4184295796";
const char *const AblationDigest = "a9ec8d3ebf825401";
const char *const ClassifierDigest = "0756fc9239e108cc";
const char *const PreparedPlanDigest = "a8a60ddd4f6ec203";
const char *const ParallelRunDigest = "78b6cc7db721f69e";

std::vector<std::pair<std::string, Einsum>> paperKernels() {
  return {{"ssymv", makeSsymv()},     {"bellmanford", makeBellmanFord()},
          {"syprd", makeSyprd()},     {"ssyrk", makeSsyrk()},
          {"ttm", makeTtm()},         {"mttkrp3", makeMttkrp(3)},
          {"mttkrp4", makeMttkrp(4)}, {"mttkrp5", makeMttkrp(5)}};
}

/// FNV-1a-64 over \p Bytes, continuing from \p Hash.
uint64_t fnv1a(uint64_t Hash, const std::string &Bytes) {
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

bool updating() { return std::getenv("SYSTEC_GOLDEN_UPDATE") != nullptr; }

/// Every single-switch-off pipeline, in declaration order.
std::vector<PipelineOptions> ablations() {
  std::vector<PipelineOptions> Out;
  for (bool PipelineOptions::*Switch :
       {&PipelineOptions::VisibleOutputRestriction,
        &PipelineOptions::DistributiveGrouping,
        &PipelineOptions::CommonAccessElimination,
        &PipelineOptions::ConsolidateBlocks,
        &PipelineOptions::GroupAcrossBranches,
        &PipelineOptions::SimplicialLut, &PipelineOptions::DiagonalSplit,
        &PipelineOptions::Concordize, &PipelineOptions::Workspace}) {
    PipelineOptions O;
    O.*Switch = false;
    Out.push_back(O);
  }
  return Out;
}

/// Appends every loop's index and `analyzeLoopParallelism` verdict, in
/// preorder: safe or not, the triangle depth and each merge operator
/// by target.
uint64_t hashClassifier(uint64_t Hash, const Kernel &K) {
  for (const StmtPtr &Root : {K.Body, K.Epilogue})
    if (Root)
      Stmt::walk(Root, [&Hash](const StmtPtr &S) {
        if (S->kind() != StmtKind::Loop)
          return;
        const LoopParallelism LP = analyzeLoopParallelism(S);
        std::string Row = S->loopIndex() + (LP.Safe ? ":par" : ":seq") +
                          std::to_string(LP.TriangleDepth);
        for (const auto &[Name, Op] : LP.TensorMergeOps)
          Row += " " + Name + "=" + opInfo(Op).Ident;
        for (const auto &[Name, Op] : LP.ScalarMergeOps)
          Row += " $" + Name + "=" + opInfo(Op).Ident;
        Hash = fnv1a(Hash, Row + ";");
      });
  return Hash;
}

uint64_t hashClassifier(uint64_t Hash, const CompileResult &R) {
  return hashClassifier(hashClassifier(Hash, R.Naive), R.Optimized);
}

/// One kernel's inputs, bound by name, and its output's shape.
struct PreparedCase {
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  double OutInit = 0.0;
};

/// The paper kernels at the sizes of perfbench's compile-cold workload.
std::vector<PreparedCase> coldCases() {
  const double Inf = std::numeric_limits<double>::infinity();
  std::vector<PreparedCase> Out;
  Rng R(11);
  for (const auto &[Name, E] : paperKernels()) {
    PreparedCase C;
    C.E = E;
    if (Name == "ssymv" || Name == "syprd" || Name == "bellmanford") {
      const bool MinPlus = Name == "bellmanford";
      C.Inputs.emplace("A", generateSymmetricTensor(2, 200, 1500, R,
                                                    TensorFormat::csf(2),
                                                    MinPlus ? Inf : 0.0));
      C.Inputs.emplace(MinPlus ? "d" : "x", generateDenseVector(200, R));
      C.OutDims = {Name == "syprd" ? 1 : 200};
      C.OutInit = MinPlus ? Inf : 0.0;
    } else if (Name == "ssyrk") {
      C.Inputs.emplace("A", generateSparseMatrix(60, 60, 300, R,
                                                 TensorFormat::csf(2)));
      C.OutDims = {60, 60};
    } else {
      const bool Ttm = Name == "ttm";
      const unsigned Order = Ttm ? 3 : unsigned(Name.back() - '0');
      const int64_t N = Ttm ? 20 : Order == 3 ? 24 : Order == 4 ? 14 : 8;
      const int64_t Nnz = Ttm ? 300 : Order == 3 ? 400 : Order == 4 ? 150 : 40;
      const int64_t Rank = Order == 3 ? 8 : 4;
      C.Inputs.emplace("A", generateSymmetricTensor(Order, N, Nnz, R,
                                                    TensorFormat::csf(Order)));
      C.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
      C.OutDims = Ttm ? std::vector<int64_t>{Rank, N, N}
                      : std::vector<int64_t>{N, Rank};
    }
    Out.push_back(std::move(C));
  }
  return Out;
}

/// Calls \p Fn on each prepared-plan case in order: the paper kernels
/// at compile-cold sizes, then `makeCase(S)`, S = 0-2999.
template <typename FnT> void forEachPreparedCase(FnT &&Fn) {
  for (PreparedCase &C : coldCases())
    Fn(C);
  for (uint64_t S = 0; S < 3000; ++S) {
    fuzzharness::FuzzCase FC = fuzzharness::makeCase(S);
    PreparedCase C{std::move(FC.E), std::move(FC.Inputs), FC.OutDims,
                   FC.OutInit};
    Fn(C);
  }
}

/// Binds \p C's inputs and \p Out to \p Ex and prepares it.
Status prepareCase(Executor &Ex, PreparedCase &C, Tensor &Out) {
  for (auto &[Name, T] : C.Inputs)
    Ex.bind(Name, &T);
  Ex.bind(C.E.Output->tensorName(), &Out);
  return Ex.tryPrepare();
}

/// Prepares both lowerings of \p C on the default engines at Threads 1
/// and 2, runs each body once with counters on, and appends the run's
/// structure key and the plan's MicroKernelStats.
uint64_t hashPrepared(uint64_t Hash, PreparedCase &C) {
  const CompileResult R = compileEinsum(C.E);
  for (const Kernel *K : {&R.Naive, &R.Optimized})
    for (unsigned Threads : {1u, 2u}) {
      Tensor Out = Tensor::dense(C.OutDims, C.OutInit);
      ExecOptions O;
      O.Threads = Threads;
      Executor Ex(*K, O);
      Status P = prepareCase(Ex, C, Out);
      EXPECT_TRUE(P.ok()) << K->Name << ": " << P.str();
      if (!P.ok())
        return fnv1a(Hash, P.str());
      obs::ExecReport Rep;
      EXPECT_TRUE(Ex.tryRunBody(&Rep).ok()) << K->Name;
      const MicroKernelStats &M = Ex.microKernelStats();
      std::string Row = Rep.structureKey() + ";stats:";
      for (uint64_t V :
           {M.SpecializedLoops, M.GenericLoops, M.WalkersRegistered,
            M.FusedRangeDrivers, M.FusedDenseDrivers, M.FusedSparseDrivers,
            M.FusedRunLengthDrivers, M.FusedBandedDrivers, M.FusedCoWalkers,
            M.FusedNWalkerLoops, M.FusedRunLengthCoWalkers,
            M.FusedBandedCoWalkers, M.FusedLutFactors, M.BlockedLoops,
            M.BlockedAccumLoops})
        Row += std::to_string(V) + ",";
      Hash = fnv1a(Hash, Row + "\n");
    }
  return Hash;
}

/// Prepares both lowerings of \p C at Threads 2 and 3, runs each once
/// with tracing on, and appends each loop's call count, the run's
/// pool-task total and the output's bits.
uint64_t hashParallelRun(uint64_t Hash, PreparedCase &C) {
  const CompileResult R = compileEinsum(C.E);
  for (const Kernel *K : {&R.Naive, &R.Optimized})
    for (unsigned Threads : {2u, 3u}) {
      Tensor Out = Tensor::dense(C.OutDims, C.OutInit);
      ExecOptions O;
      O.Threads = Threads;
      Executor Ex(*K, O);
      Status P = prepareCase(Ex, C, Out);
      EXPECT_TRUE(P.ok()) << K->Name << ": " << P.str();
      if (!P.ok())
        return fnv1a(Hash, P.str());
      obs::ExecReport Rep;
      EXPECT_TRUE(Ex.tryRun(&Rep).ok()) << K->Name;
      obs::clearTrace();
      std::string Row = "calls:";
      for (const obs::LoopStat &L : Rep.Loops)
        Row += std::to_string(L.Calls) + ",";
      uint64_t Tasks = 0;
      for (const obs::WorkerStat &W : Rep.Workers)
        Tasks += W.Tasks;
      Row += ";tasks:" + std::to_string(Tasks) + ";out:";
      Row.append(reinterpret_cast<const char *>(Out.vals().data()),
                 Out.vals().size() * sizeof(double));
      Hash = fnv1a(Hash, Row + "\n");
    }
  return Hash;
}

} // namespace

TEST(Golden, PaperKernelReportsMatchCheckedInText) {
  std::ostringstream Got;
  for (const auto &[Name, E] : paperKernels())
    Got << "##### " << Name << "\n" << compileEinsum(E).report();
  const std::string Path = std::string(SYSTEC_GOLDEN_DIR) +
                           "/paper_kernels.txt";
  if (updating()) {
    std::ofstream(Path) << Got.str();
    std::printf("rewrote %s\n", Path.c_str());
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path;
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got.str(), Want.str())
      << "front-end output moved; if intended, regenerate with "
         "SYSTEC_GOLDEN_UPDATE=1 ./golden_test";
}

TEST(Golden, AblationMatrixDigest) {
  uint64_t Hash = FnvBasis;
  for (const PipelineOptions &O : ablations())
    for (const auto &[Name, E] : paperKernels())
      Hash = fnv1a(Hash, compileEinsum(E, O).report());
  if (updating())
    std::printf("AblationDigest = \"%s\"\n", hex(Hash).c_str());
  else
    EXPECT_EQ(hex(Hash), AblationDigest);
}

TEST(Golden, FuzzCorpusDigest) {
  uint64_t Hash = FnvBasis;
  for (uint64_t S = 0; S < 3000; ++S)
    Hash = fnv1a(Hash, compileEinsum(fuzzharness::makeCase(S).E).report());
  if (updating())
    std::printf("FuzzCorpusDigest = \"%s\"\n", hex(Hash).c_str());
  else
    EXPECT_EQ(hex(Hash), FuzzCorpusDigest);
}

TEST(Golden, LoopClassifierDigest) {
  uint64_t Hash = FnvBasis;
  for (const auto &[Name, E] : paperKernels())
    Hash = hashClassifier(Hash, compileEinsum(E));
  for (const PipelineOptions &O : ablations())
    for (const auto &[Name, E] : paperKernels())
      Hash = hashClassifier(Hash, compileEinsum(E, O));
  for (uint64_t S = 0; S < 3000; ++S)
    Hash = hashClassifier(Hash, compileEinsum(fuzzharness::makeCase(S).E));
  if (updating())
    std::printf("ClassifierDigest = \"%s\"\n", hex(Hash).c_str());
  else
    EXPECT_EQ(hex(Hash), ClassifierDigest);
}

TEST(Golden, PreparedPlanDigest) {
  const bool CountersWereOn = countersEnabled();
  setCountersEnabled(true);
  uint64_t Hash = FnvBasis;
  forEachPreparedCase(
      [&Hash](PreparedCase &C) { Hash = hashPrepared(Hash, C); });
  setCountersEnabled(CountersWereOn);
  if (updating())
    std::printf("PreparedPlanDigest = \"%s\"\n", hex(Hash).c_str());
  else
    EXPECT_EQ(hex(Hash), PreparedPlanDigest);
}

TEST(Golden, ParallelRunDigest) {
  const bool TracingWasOn = obs::tracingEnabled();
  obs::setTracingEnabled(true);
  uint64_t Hash = FnvBasis;
  forEachPreparedCase(
      [&Hash](PreparedCase &C) { Hash = hashParallelRun(Hash, C); });
  obs::setTracingEnabled(TracingWasOn);
  if (updating())
    std::printf("ParallelRunDigest = \"%s\"\n", hex(Hash).c_str());
  else
    EXPECT_EQ(hex(Hash), ParallelRunDigest);
}
