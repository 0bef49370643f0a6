//===- tests/perf_smoke.cpp -----------------------------------*- C++ -*-===//
///
/// CI smoke test for the runtime specialization layer: asserts — by
/// counter and by per-loop report, not by time, so it is stable on
/// loaded CI machines — that the PlanSpecializer fires on the eight
/// paper kernels (ssymv, bellmanford, syprd, ssyrk, ttm, mttkrp3-5) in
/// both naive and optimized form, which leaves run the straight-line
/// loop, and that the fused engines reproduce the interpreted engines
/// bit for bit.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "observability/Trace.h"
#include "runtime/Executor.h"
#include "support/Counters.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace systec;

namespace {

struct SmokeCase {
  std::string Name;
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  std::string OutName;
  double OutInit = 0.0; ///< reduction identity of the kernel
};

std::vector<SmokeCase> makeCases() {
  Rng R(20260801);
  const int64_t N = 40, Dim3 = 14, Rank = 6;
  std::vector<SmokeCase> Cases;
  auto Mat2 = [&] {
    return generateSymmetricTensor(2, N, 4 * N, R, TensorFormat::csf(2));
  };
  auto Mat3 = [&] {
    return generateSymmetricTensor(3, Dim3, 200, R, TensorFormat::csf(3));
  };
  {
    SmokeCase C{"ssymv", makeSsymv(), {}, {N}, "y"};
    C.Inputs.emplace("A", Mat2());
    C.Inputs.emplace("x", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  {
    SmokeCase C{"syprd", makeSyprd(), {}, {1}, "y"};
    C.Inputs.emplace("A", Mat2());
    C.Inputs.emplace("x", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  {
    SmokeCase C{"ssyrk", makeSsyrk(), {}, {N, N}, "C"};
    C.Inputs.emplace("A", Mat2());
    Cases.push_back(std::move(C));
  }
  {
    SmokeCase C{"ttm", makeTtm(), {}, {Rank, Dim3, Dim3}, "C"};
    C.Inputs.emplace("A", Mat3());
    C.Inputs.emplace("B", generateDenseMatrix(Dim3, Rank, R));
    Cases.push_back(std::move(C));
  }
  {
    SmokeCase C{"mttkrp3", makeMttkrp(3), {}, {Dim3, Rank}, "C"};
    C.Inputs.emplace("A", Mat3());
    C.Inputs.emplace("B", generateDenseMatrix(Dim3, Rank, R));
    Cases.push_back(std::move(C));
  }
  return Cases;
}

Tensor runOnce(const Kernel &K, SmokeCase &C, bool Fused,
               MicroKernelStats &Stats, obs::ExecReport *Rep = nullptr) {
  ExecOptions O;
  if (!Fused)
    O.Engines = {Engine::Interp};
  Executor E(K, O);
  Tensor Out = Tensor::dense(C.OutDims, 0.0);
  Out.setAllValues(C.OutInit);
  for (auto &[Name, T] : C.Inputs)
    E.bind(Name, &T);
  E.bind(C.OutName, &Out);
  EXPECT_TRUE(E.tryPrepare().ok());
  Stats = E.microKernelStats();
  EXPECT_TRUE(E.tryRun(Rep).ok());
  return Out;
}

} // namespace

TEST(PerfSmoke, SpecializerFiresOnAllPaperKernels) {
  for (SmokeCase &C : makeCases()) {
    SCOPED_TRACE(C.Name);
    CompileResult R = compileEinsum(C.E);
    for (const Kernel *K : {&R.Naive, &R.Optimized}) {
      SCOPED_TRACE(K == &R.Naive ? "naive" : "optimized");
      MicroKernelStats FusedStats, GenericStats;
      Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
      Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats);
      // Counter-based acceptance: the specializer must fire...
      EXPECT_GT(FusedStats.SpecializedLoops, 0u);
      EXPECT_EQ(GenericStats.SpecializedLoops, 0u);
      // ...and the fused engines must be bit-identical to the oracle.
      ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
      for (size_t I = 0; I < Generic.vals().size(); ++I)
        EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
    }
  }
}

TEST(PerfSmoke, FullCoverageOnOptimizedPlans) {
  // Stronger claim worth noticing if it regresses: today the
  // specializer covers *every* loop of the five optimized paper
  // kernels (no generic fallbacks at all).
  for (SmokeCase &C : makeCases()) {
    SCOPED_TRACE(C.Name);
    CompileResult R = compileEinsum(C.E);
    MicroKernelStats Stats;
    runOnce(R.Optimized, C, /*Fused=*/true, Stats);
    EXPECT_EQ(Stats.GenericLoops, 0u);
  }
}

TEST(PerfSmoke, FullCoverageAcrossDriverFormatVariants) {
  // The acceptance line for the closed specializer gaps: every one of
  // the five optimized paper kernels stays fully fused — zero generic
  // fallbacks — when A's bottom level is re-declared Dense, Sparse,
  // RunLength, or Banded (the driver-format axis), and the fused
  // engines remain bit-identical to the interpreter on each variant.
  struct KernelSpec {
    const char *Name;
    Einsum E;
    unsigned OrderA;
  };
  std::vector<KernelSpec> Kernels;
  Kernels.push_back({"ssymv", makeSsymv(), 2});
  Kernels.push_back({"syprd", makeSyprd(), 2});
  Kernels.push_back({"ssyrk", makeSsyrk(), 2});
  Kernels.push_back({"ttm", makeTtm(), 3});
  Kernels.push_back({"mttkrp3", makeMttkrp(3), 3});
  const LevelKind Bottoms[] = {LevelKind::Dense, LevelKind::Sparse,
                               LevelKind::RunLength, LevelKind::Banded};
  Rng R(20260801);
  const int64_t N2 = 32, N3 = 12, Rank = 5;
  for (KernelSpec &KS : Kernels) {
    const bool Sym = KS.Name != std::string("ssyrk");
    for (LevelKind Bottom : Bottoms) {
      SCOPED_TRACE(std::string(KS.Name) + " bottom=" +
                   std::to_string(static_cast<int>(Bottom)));
      TensorFormat Fmt = TensorFormat::csf(KS.OrderA);
      Fmt.Levels[KS.OrderA - 1] = Bottom;
      Einsum E = KS.E;
      E.declare("A", Fmt);
      if (Sym)
        E.setSymmetry("A", Partition::full(KS.OrderA));
      const int64_t Dim = KS.OrderA == 2 ? N2 : N3;
      SmokeCase C{KS.Name, E, {}, {}, "", 0.0};
      C.Inputs.emplace(
          "A", generateSymmetricTensor(KS.OrderA, Dim, 10 * Dim, R, Fmt));
      if (KS.Name == std::string("ssymv") ||
          KS.Name == std::string("syprd")) {
        C.Inputs.emplace("x", generateDenseVector(Dim, R));
        C.OutDims = KS.Name == std::string("syprd")
                        ? std::vector<int64_t>{1}
                        : std::vector<int64_t>{Dim};
        C.OutName = "y";
      } else if (KS.Name == std::string("ssyrk")) {
        C.OutDims = {Dim, Dim};
        C.OutName = "C";
      } else if (KS.Name == std::string("ttm")) {
        C.Inputs.emplace("B", generateDenseMatrix(Dim, Rank, R));
        C.OutDims = {Rank, Dim, Dim};
        C.OutName = "C";
      } else {
        C.Inputs.emplace("B", generateDenseMatrix(Dim, Rank, R));
        C.OutDims = {Dim, Rank};
        C.OutName = "C";
      }
      CompileResult R2 = compileEinsum(C.E);
      MicroKernelStats FusedStats, GenericStats;
      Tensor Generic = runOnce(R2.Optimized, C, /*Fused=*/false,
                               GenericStats);
      Tensor Fused = runOnce(R2.Optimized, C, /*Fused=*/true, FusedStats);
      EXPECT_GT(FusedStats.SpecializedLoops, 0u);
      EXPECT_EQ(FusedStats.GenericLoops, 0u)
          << "optimized " << KS.Name << " must stay fully fused";
      ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
      for (size_t I = 0; I < Generic.vals().size(); ++I)
        EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
    }
  }
}

TEST(PerfSmoke, CoWalkerVariantsFuseOrDecline) {
  // Structured and sparse vectors as the *second* operand of ssymv: in
  // the naive nest the vector walks alongside A's top level, a Sparse /
  // RunLength / Banded co-walker of the outer loop, which the
  // interpreter runs like every nest loop, and every leaf fuses. The
  // optimized strict leaf reads x[i] by random access (SparseLoad) when
  // x is Sparse or Banded, and that one leaf declines to the
  // interpreter. Both kernels stay bit-identical; leaf co-walkers are
  // pinned by the MicroKernels intersection tests.
  struct Variant {
    const char *Name;
    LevelKind Kind;
    unsigned OptimizedDeclined;
  };
  const Variant Variants[] = {{"x-sparse", LevelKind::Sparse, 1},
                              {"x-runlength", LevelKind::RunLength, 0},
                              {"x-banded", LevelKind::Banded, 1}};
  Rng R(20260801);
  const int64_t N = 40;
  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.Name);
    Einsum E = makeSsymv();
    TensorFormat XFmt{{V.Kind}};
    E.declare("x", XFmt);
    SmokeCase C{V.Name, E, {}, {N}, "y", 0.0};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    Coo XC({N});
    for (int64_t K = 0; K < N; ++K)
      if (K % 3 != 1)
        XC.add({K}, static_cast<double>(1 + K % 7));
    C.Inputs.emplace("x", Tensor::fromCoo(std::move(XC), XFmt));
    CompileResult R2 = compileEinsum(C.E);
    for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
      SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
      MicroKernelStats FusedStats, GenericStats;
      Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
      Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats);
      EXPECT_EQ(FusedStats.GenericLoops,
                K == &R2.Naive ? 0u : V.OptimizedDeclined);
      ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
      for (size_t I = 0; I < Generic.vals().size(); ++I)
        EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
    }
  }
}

TEST(PerfSmoke, ThreeSparseOperandProductFusesNWay) {
  // A product of three sparse matrices intersects three walkers on the
  // shared index — the N-way multi-finger merge the specializer used to
  // decline (>2 walkers). Zero generic fallbacks, bit-identical to the
  // interpreter, and the FusedNWalkerLoops counter proves the shape.
  Rng R(20260801);
  const int64_t N = 40;
  Einsum E = parseEinsum("tri", "O[j] += A[i,j] * B[i,j] * C[i,j]");
  E.LoopOrder = {"j", "i"};
  for (const char *T : {"A", "B", "C"})
    E.declare(T, TensorFormat::csf(2));
  SmokeCase C{"tri", E, {}, {N}, "O", 0.0};
  for (const char *T : {"A", "B", "C"})
    C.Inputs.emplace(T, generateSymmetricTensor(2, N, 4 * N, R,
                                                TensorFormat::csf(2)));
  CompileResult R2 = compileEinsum(C.E);
  for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
    SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
    MicroKernelStats FusedStats, GenericStats;
    Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
    Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats);
    EXPECT_GT(FusedStats.FusedNWalkerLoops, 0u);
    EXPECT_GE(FusedStats.FusedCoWalkers, 2u);
    EXPECT_EQ(FusedStats.GenericLoops, 0u);
    ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
    for (size_t I = 0; I < Generic.vals().size(); ++I)
      EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
  }
}

TEST(PerfSmoke, LutKernelFullyFused) {
  // mttkrp4's optimized plan carries simplicial lookup tables (paper
  // 4.2.5) in its diagonal blocks — previously a hard decline. The Lut
  // operands must now bind into the fused bodies (FusedLutFactors),
  // with zero generic fallbacks and bit-identical results.
  Rng R(20260801);
  const int64_t Dim = 8, Rank = 4;
  SmokeCase C{"mttkrp4", makeMttkrp(4), {}, {Dim, Rank}, "C", 0.0};
  C.Inputs.emplace("A", generateSymmetricTensor(4, Dim, 150, R,
                                                TensorFormat::csf(4)));
  C.Inputs.emplace("B", generateDenseMatrix(Dim, Rank, R));
  CompileResult R2 = compileEinsum(C.E);
  MicroKernelStats FusedStats, GenericStats;
  Tensor Generic = runOnce(R2.Optimized, C, /*Fused=*/false, GenericStats);
  Tensor Fused = runOnce(R2.Optimized, C, /*Fused=*/true, FusedStats);
  EXPECT_GT(FusedStats.FusedLutFactors, 0u)
      << "the simplicial lookup tables must fuse";
  EXPECT_EQ(FusedStats.GenericLoops, 0u);
  ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
  for (size_t I = 0; I < Generic.vals().size(); ++I)
    EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
}

namespace {

/// ssymv / bellman-ford variants with A re-declared in \p F (the
/// structured-format axis: RunLength and Banded bottom levels, sparse
/// top levels).
SmokeCase formatVariant(const std::string &Name, Einsum E,
                        const TensorFormat &F, Tensor A, Tensor X,
                        double OutInit) {
  const std::string VecName = E.Name == "ssymv" ? "x" : "d";
  E.declare("A", F, E.decl("A").Fill);
  E.setSymmetry("A", Partition::full(2));
  SmokeCase C{Name, std::move(E), {}, {A.dim(0)}, "y"};
  C.Inputs.emplace("A", std::move(A));
  C.Inputs.emplace(VecName, std::move(X));
  C.OutInit = OutInit;
  return C;
}

} // namespace

TEST(PerfSmoke, SpecializerFiresOnRunLengthAndBandedDrivers) {
  // The format-general engines: RunLength- and Banded-driven variants
  // of the paper kernels must specialize (per-shape counters), stay
  // fully covered, and reproduce the interpreter bit for bit.
  Rng R(20260801);
  const int64_t N = 48;
  TensorFormat Rle{{LevelKind::Dense, LevelKind::RunLength}};
  TensorFormat Band{{LevelKind::Dense, LevelKind::Banded}};
  std::vector<SmokeCase> Cases;
  Cases.push_back(formatVariant(
      "ssymv-rle", makeSsymv(), Rle,
      generateSymmetricTensor(2, N, 3 * N, R, Rle),
      generateDenseVector(N, R), 0.0));
  Cases.push_back(formatVariant(
      "ssymv-banded", makeSsymv(), Band,
      generateBandedSymmetric(N, 4, R, Band),
      generateDenseVector(N, R), 0.0));
  const double Inf = std::numeric_limits<double>::infinity();
  Cases.push_back(formatVariant(
      "bellmanford-banded", makeBellmanFord(), Band,
      generateBandedSymmetric(N, 4, R, Band, Inf), // fill inf off-band
      generateDenseVector(N, R), Inf));
  for (SmokeCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    const bool Rl = C.Name.find("rle") != std::string::npos;
    CompileResult R2 = compileEinsum(C.E);
    for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
      SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
      MicroKernelStats FusedStats, GenericStats;
      Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
      Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats);
      EXPECT_GT(FusedStats.SpecializedLoops, 0u);
      EXPECT_EQ(FusedStats.GenericLoops, 0u);
      if (Rl)
        EXPECT_GT(FusedStats.FusedRunLengthDrivers, 0u);
      else
        EXPECT_GT(FusedStats.FusedBandedDrivers, 0u);
      ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
      for (size_t I = 0; I < Generic.vals().size(); ++I)
        EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
    }
  }
}

TEST(PerfSmoke, WalkersRegisteredOnGroupedTwoSparseOperandKernels) {
  // Grouped symmetric kernels over two sparse operands, with A in a
  // sparse-topped (DCSR) format: the workspace flush must not cost the
  // outer walker (exact WalkersRegistered), the strict leaf, which
  // reads the second sparse operand by SparseLoad, declines to the
  // interpreter while the other leaves fuse, and every plan stays
  // bit-identical to the interpreter.
  Rng R(20260801);
  const int64_t N = 48;
  TensorFormat Dcsr{{LevelKind::Sparse, LevelKind::Sparse}};
  TensorFormat SpVec{{LevelKind::Sparse}};
  Einsum E = makeSsymv();
  E.declare("A", Dcsr);
  E.setSymmetry("A", Partition::full(2));
  E.declare("x", SpVec);
  SmokeCase C{"ssymv-2sparse", E, {}, {N}, "y"};
  C.Inputs.emplace("A", generateSymmetricTensor(2, N, 3 * N, R, Dcsr));
  Coo XC({N});
  for (int64_t K = 0; K < N; ++K)
    if (K % 3 != 0)
      XC.add({K}, 1.0 + K);
  C.Inputs.emplace("x", Tensor::fromCoo(std::move(XC), SpVec));
  CompileResult R2 = compileEinsum(C.E);
  for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
    SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
    MicroKernelStats FusedStats, GenericStats;
    obs::ExecReport Rep;
    Tensor Generic = runOnce(*K, C, /*Fused=*/false, GenericStats);
    Tensor Fused = runOnce(*K, C, /*Fused=*/true, FusedStats, &Rep);
    unsigned InterpLeaves = 0;
    for (const obs::LoopStat &L : Rep.Loops)
      InterpLeaves += L.Label.rfind("loop i [", 0) == 0 && L.Engine == "Interp";
    if (K == &R2.Naive) {
      EXPECT_EQ(FusedStats.WalkersRegistered, 3u);
      EXPECT_EQ(FusedStats.GenericLoops, 0u);
      EXPECT_EQ(InterpLeaves, 0u);
    } else {
      // Only the grouped symmetric lowering has the workspace flush
      // and the mismatched second-operand access (x[i] in the leaf over
      // i, while the outer loop walks x[j]) that compiles to SparseLoad;
      // the naive nest walks both operands directly.
      EXPECT_EQ(FusedStats.WalkersRegistered, 5u)
          << "the workspace flush must not cost the sparse-topped walker";
      EXPECT_EQ(FusedStats.GenericLoops, 1u);
      EXPECT_EQ(InterpLeaves, 1u)
          << "the strict leaf reads x[i] by SparseLoad and must decline";
    }
    EXPECT_GT(FusedStats.SpecializedLoops, 0u);
    ASSERT_EQ(Generic.vals().size(), Fused.vals().size());
    for (size_t I = 0; I < Generic.vals().size(); ++I)
      EXPECT_EQ(Generic.vals()[I], Fused.vals()[I]) << "element " << I;
  }
}

TEST(PerfSmoke, BlockedOutputEngineCoversSsyrkAndSpmm) {
  // The register/cache-blocked output engine (the ssyrk memory-wall
  // fix): the optimized ssyrk plan must install blocked nests
  // (BlockedLoops > 0) while staying fully fused (GenericLoops == 0),
  // and actually execute panels at run time (the FusedBlockedPanels
  // report counter). The SpMM-style workspace shape must take the
  // register-accumulator form (BlockedAccumLoops > 0). The ablation
  // without Engine::Blocked must keep everything on the unblocked
  // nests with zero panels.
  Rng R(20260801);
  const int64_t N = 40, Rank = 6;

  struct BlockedCase {
    std::string Name;
    Einsum E;
    std::map<std::string, Tensor> Inputs;
    std::vector<int64_t> OutDims;
    std::string OutName;
    bool ExpectAccum;
  };
  std::vector<BlockedCase> Cases;
  {
    BlockedCase C{"ssyrk", makeSsyrk(), {}, {N, N}, "C", false};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    Cases.push_back(std::move(C));
  }
  {
    Einsum E = parseEinsum("spmm", "C[i,k] += A[i,j] * B[j,k]");
    E.LoopOrder = {"i", "k", "j"};
    E.declare("A", TensorFormat::csf(2));
    BlockedCase C{"spmm", std::move(E), {}, {N, Rank}, "C", true};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    C.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    Cases.push_back(std::move(C));
  }

  for (BlockedCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    CompileResult R2 = compileEinsum(C.E);
    for (bool Blocking : {true, false}) {
      SCOPED_TRACE(Blocking ? "blocking on" : "blocking off");
      ExecOptions O;
      if (!Blocking)
        O.Engines = {Engine::Fused, Engine::Interp};
      Executor E(R2.Optimized, O);
      Tensor Out = Tensor::dense(C.OutDims, 0.0);
      for (auto &[Name, T] : C.Inputs)
        E.bind(Name, &T);
      E.bind(C.OutName, &Out);
      ASSERT_TRUE(E.tryPrepare().ok());
      const MicroKernelStats &Stats = E.microKernelStats();
      EXPECT_EQ(Stats.GenericLoops, 0u)
          << "blocking must not cost full fusion";
      if (Blocking) {
        EXPECT_GT(Stats.BlockedLoops, 0u);
        if (C.ExpectAccum)
          EXPECT_GT(Stats.BlockedAccumLoops, 0u);
      } else {
        EXPECT_EQ(Stats.BlockedLoops, 0u);
      }
      setCountersEnabled(true);
      obs::ExecReport Rep;
      ASSERT_TRUE(E.tryRun(&Rep).ok());
      const CounterSnapshot &Snap = Rep.Counters;
      if (Blocking) {
        EXPECT_GT(Snap.FusedBlockedPanels, 0u)
            << "the blocked engine must actually execute panels";
        EXPECT_GT(Snap.FusedBlockedStores, 0u);
      } else {
        EXPECT_EQ(Snap.FusedBlockedPanels, 0u);
      }
    }
  }
}

namespace {

/// Number of leaf loops — loops whose body holds no loop — in \p S.
unsigned leafLoops(const StmtPtr &S) {
  unsigned Leaves = 0;
  if (!S)
    return Leaves;
  Stmt::walk(S, [&Leaves](const StmtPtr &N) {
    if (N->kind() != StmtKind::Loop)
      return;
    bool Nest = false;
    Stmt::walk(N->body(), [&Nest](const StmtPtr &M) {
      Nest |= M->kind() == StmtKind::Loop;
    });
    Leaves += !Nest;
  });
  return Leaves;
}

/// The eight paper kernels: makeCases() plus bellmanford and
/// mttkrp4/5.
std::vector<SmokeCase> paperCases() {
  std::vector<SmokeCase> Cases = makeCases();
  Rng R(20260801);
  const int64_t N = 40, Dim = 8, Rank = 4;
  const double Inf = std::numeric_limits<double>::infinity();
  {
    SmokeCase C{"bellmanford", makeBellmanFord(), {}, {N}, "y", Inf};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2), Inf));
    C.Inputs.emplace("d", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  for (unsigned Order : {4u, 5u}) {
    SmokeCase C{"mttkrp" + std::to_string(Order), makeMttkrp(Order), {},
                {Dim, Rank}, "C"};
    C.Inputs.emplace("A", generateSymmetricTensor(Order, Dim, 150, R,
                                                  TensorFormat::csf(Order)));
    C.Inputs.emplace("B", generateDenseMatrix(Dim, Rank, R));
    Cases.push_back(std::move(C));
  }
  return Cases;
}

/// Binds \p C's inputs and \p Out to \p E, prepares it and runs it
/// once, returning the run's report.
obs::ExecReport runReported(SmokeCase &C, Executor &E, Tensor &Out) {
  Out = Tensor::dense(C.OutDims, 0.0);
  Out.setAllValues(C.OutInit);
  for (auto &[Name, T] : C.Inputs)
    E.bind(Name, &T);
  E.bind(C.OutName, &Out);
  obs::ExecReport Rep;
  EXPECT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(E.tryRun(&Rep).ok());
  return Rep;
}

} // namespace

TEST(PerfSmoke, NestsInterpretedLeavesFused) {
  // The engine split on default engines, read from one run's per-loop
  // report for the eight paper kernels: every leaf loop runs fused
  // except the child leaf of a blocked panel nest, which the blocked
  // engine runs (so the nest and its leaf both report Blocked), and
  // every other nest runs in the interpreter. The plan facts still
  // count that leaf as fused: no leaf is left generic.
  for (SmokeCase &C : paperCases()) {
    SCOPED_TRACE(C.Name);
    CompileResult R2 = compileEinsum(C.E);
    for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
      SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
      Tensor Out;
      Executor E(*K);
      const obs::ExecReport Rep = runReported(C, E, Out);
      const MicroKernelStats &Stats = E.microKernelStats();
      unsigned Fused = 0, Blocked = 0;
      for (const obs::LoopStat &L : Rep.Loops) {
        if (L.Engine == "Fused")
          ++Fused;
        else if (L.Engine == "Blocked")
          ++Blocked;
        else
          EXPECT_EQ(L.Engine, "Interp") << L.Label;
      }
      const unsigned Leaves = leafLoops(K->Body) + leafLoops(K->Epilogue);
      EXPECT_EQ(Fused, Leaves - Stats.BlockedLoops);
      EXPECT_EQ(Blocked, 2 * Stats.BlockedLoops);
      EXPECT_EQ(Stats.GenericLoops, 0u);
    }
  }
}

TEST(PerfSmoke, StraightLineLeaves) {
  // Which fused leaves run the straight-line loop, read from one run's
  // per-loop report (LoopStat::Form, fused leaves in plan order): every
  // single-statement leaf of the eight kernels and the strict-block
  // leaves, where one read of a canonical entry feeds every equivalent
  // update, take it ("line"); the diagonal leaves of ttm and
  // mttkrp3-5, whose statements carry residual guards, stay on the
  // generic per-statement path. ssyrk's leaves run in the blocked
  // engine on default engines, so they report Blocked and no form.
  const std::map<std::string, std::vector<std::string>> Optimized = {
      {"ssymv", {"line", "line"}},       {"bellmanford", {"line", "line"}},
      {"syprd", {"line", "line"}},       {"ssyrk", {}},
      {"ttm", {"line", "generic"}},      {"mttkrp3", {"line", "generic"}},
      {"mttkrp4", {"line", "generic"}},  {"mttkrp5", {"line", "generic"}}};
  for (SmokeCase &C : paperCases()) {
    SCOPED_TRACE(C.Name);
    CompileResult R2 = compileEinsum(C.E);
    for (const Kernel *K : {&R2.Naive, &R2.Optimized}) {
      SCOPED_TRACE(K == &R2.Naive ? "naive" : "optimized");
      Tensor Out;
      Executor E(*K);
      std::vector<std::string> Forms;
      for (const obs::LoopStat &L : runReported(C, E, Out).Loops) {
        if (L.Engine == "Fused")
          Forms.push_back(L.Form);
        else
          EXPECT_EQ(L.Form, "") << L.Label;
      }
      const bool BlockedNaive = K == &R2.Naive && C.Name == "ssyrk";
      EXPECT_EQ(Forms, BlockedNaive ? std::vector<std::string>{}
                       : K == &R2.Naive ? std::vector<std::string>{"line"}
                                        : Optimized.at(C.Name));
    }
  }
}

TEST(PerfSmoke, TracingOverheadBounded) {
  // The observability layer's cost pin. Two claims: (1) with tracing
  // off, a run emits zero trace events (the disabled path is a single
  // relaxed-atomic branch, asserted structurally here and by ratio in
  // bench_check's tracing-off gate against the checked-in baseline);
  // (2) even with tracing *on*, a paper kernel's body stays within a
  // generous multiple of its untraced time — spans are per loop
  // dispatch and per pool task, never per element. Medians of several
  // runs and an absolute slack keep this stable on 1-core CI.
  Rng R(20260801);
  const int64_t N = 1000;
  Tensor A = generateSymmetricTensor(2, N, 8 * N, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(N, R);
  Tensor Y = Tensor::dense({N});
  CompileResult C = compileEinsum(makeSsymv());
  Executor E(C.Optimized);
  E.bind("A", &A).bind("x", &X).bind("y", &Y);
  ASSERT_TRUE(E.tryPrepare().ok());

  auto MedianMs = [&] {
    std::vector<double> Ms;
    for (int I = 0; I < 7; ++I) {
      Y.setAllValues(0.0);
      const uint64_t T0 = obs::nowNs();
      EXPECT_TRUE(E.tryRunBody().ok());
      Ms.push_back((obs::nowNs() - T0) / 1e6);
    }
    std::sort(Ms.begin(), Ms.end());
    return Ms[Ms.size() / 2];
  };

  setCountersEnabled(false); // match the bench methodology
  ASSERT_FALSE(obs::tracingEnabled());
  const uint64_t EventsBefore = obs::traceEventCount();
  const double OffMs = MedianMs();
  EXPECT_EQ(obs::traceEventCount(), EventsBefore)
      << "tracing-off runs must emit zero trace events";

  obs::setTracingEnabled(true);
  const double OnMs = MedianMs();
  obs::setTracingEnabled(false);
  setCountersEnabled(true);
  EXPECT_GT(obs::traceEventCount(), EventsBefore)
      << "tracing-on runs must emit spans";

  EXPECT_LE(OnMs, OffMs * 8.0 + 5.0)
      << "traced run " << OnMs << " ms vs untraced " << OffMs
      << " ms: span emission has grown into the hot path";
}

TEST(PerfSmoke, ValidationOffHasZeroHotPathCost) {
  // The integrity-validation cost pin (docs/ROBUSTNESS.md). Three
  // claims: (1) with ValidateInputs=None — the default — the report
  // carries no "validate" phase at all: the check is structurally
  // absent, not merely fast; (2) Deep validation is a prepare-time
  // pre-pass, so it changes neither the results nor a single runtime
  // counter of the body; (3) the body's wall time is unaffected by the
  // validation tier (median-of-runs with generous slack, same
  // methodology as the tracing pin above).
  Rng R(20260801);
  const int64_t N = 1000;
  Tensor A = generateSymmetricTensor(2, N, 8 * N, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(N, R);
  CompileResult C = compileEinsum(makeSsymv());

  auto Median = [](std::vector<double> Ms) {
    std::sort(Ms.begin(), Ms.end());
    return Ms[Ms.size() / 2];
  };
  auto Setup = [&](ValidationLevel VL, Tensor &Y, CounterSnapshot &Snap,
                   std::vector<double> &Ms) {
    ExecOptions O;
    O.ValidateInputs = VL;
    Executor E(C.Optimized, O);
    E.bind("A", &A).bind("x", &X).bind("y", &Y);
    ASSERT_TRUE(E.tryPrepare().ok());
    setCountersEnabled(true);
    for (int I = 0; I < 7; ++I) {
      Y.setAllValues(0.0);
      obs::ExecReport Rep;
      const uint64_t T0 = obs::nowNs();
      ASSERT_TRUE(E.tryRunBody(&Rep).ok());
      Ms.push_back((obs::nowNs() - T0) / 1e6);
      obs::addCounters(Snap, Rep.Counters);
      if (VL == ValidationLevel::None) {
        for (const obs::PhaseStat &P : Rep.Phases)
          EXPECT_NE(P.Name, "validate")
              << "hot-path default must not even time a validation phase";
      }
    }
  };

  Tensor YOff = Tensor::dense({N}), YDeep = Tensor::dense({N});
  CounterSnapshot SOff, SDeep;
  std::vector<double> MsOff, MsDeep;
  Setup(ValidationLevel::None, YOff, SOff, MsOff);
  Setup(ValidationLevel::Deep, YDeep, SDeep, MsDeep);

  ASSERT_EQ(YOff.vals().size(), YDeep.vals().size());
  for (size_t I = 0; I < YOff.vals().size(); ++I)
    EXPECT_EQ(YOff.vals()[I], YDeep.vals()[I]) << "element " << I;
  EXPECT_EQ(SOff.SparseReads, SDeep.SparseReads);
  EXPECT_EQ(SOff.Reductions, SDeep.Reductions);
  EXPECT_EQ(SOff.ScalarOps, SDeep.ScalarOps);
  EXPECT_EQ(SOff.OutputWrites, SDeep.OutputWrites);

  EXPECT_LE(Median(MsDeep), Median(MsOff) * 4.0 + 5.0)
      << "Deep validation must stay out of the execution loops "
         "(prepare-time only)";
}
