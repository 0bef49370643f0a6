//===- tests/jit_test.cpp -------------------------------------*- C++ -*-===//
///
/// The JIT-compiled native engine and the engine-selection API:
///
///  - EngineRegistry resolution (list normalization, notes,
///    summaries).
///  - Native-vs-interpreter bit-identity and counter parity for every
///    paper kernel (the differential contract of docs/CODEGEN.md).
///  - Tiered execution: default executors start on the per-loop tiers
///    and install the background-built native body at the start of a
///    later run, bit-identical with equal counters; Threads=2 and
///    controlled runs never install it, default ssyrk leaves its
///    blocked nest for it, and destroying an executor with a pending
///    build is safe.
///  - On-disk .so cache reuse: a fresh "process" (simulated by dropping
///    the in-memory handle registry) over a warm cache directory
///    compiles nothing (Executor::nativeCompileNs() pinned at 0).
///  - Graceful typed fallback when no host compiler is available
///    (forced via SYSTEC_JIT_DISABLE) and when the cache directory
///    belongs to another user (nothing is written there).
///  - PlanCache keying on the resolved engine list, and rebind's
///    engine-agreement check.
///
/// Tests that need the host compiler skip with a reason when it is not
/// runnable, so the suite stays green in degraded environments.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "jit/NativeKernelCache.h"
#include "kernels/Kernels.h"
#include "kernels/Oracle.h"
#include "runtime/EngineRegistry.h"
#include "runtime/Executor.h"
#include "runtime/PlanCache.h"
#include "support/Counters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <thread>

#include <unistd.h>

using namespace systec;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// The ordered list that asks for the native engine with the standard
/// fallback chain behind it.
std::vector<Engine> nativeFirst() {
  return {Engine::Native, Engine::Fused, Engine::Interp};
}

bool haveCompiler(std::string *Reason = nullptr) {
  return jit::NativeKernelCache::compilerAvailable(Reason);
}

#define SKIP_WITHOUT_COMPILER()                                          \
  do {                                                                   \
    std::string Reason_;                                                 \
    if (!haveCompiler(&Reason_))                                         \
      GTEST_SKIP() << "no JIT toolchain: " << Reason_;                   \
  } while (0)

/// One workload: inputs plus output shape/initial value (mirrors the
/// end-to-end suite's generator).
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
    int64_t N = 7 + 2 * Scale, Rank = 4;
    W.Inputs.emplace("A", generateSymmetricTensor(Order, N, 8 * N, R,
                                                  TensorFormat::csf(Order)));
    W.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    W.OutDims = {N, Rank};
  } else {
    ADD_FAILURE() << "unknown kernel " << Kernel;
  }
  return W;
}

struct RunResult {
  Tensor Out = Tensor::dense({1}, 0.0);
  obs::ExecReport Report;
  bool Native = false;
  Status NativeStatus = Status::success();
};

/// Prepares and runs \p K once. Native-first options mean native from
/// the first run: the build is awaited before it.
RunResult runKernel(const Kernel &K, Workload &W, ExecOptions Options,
                    uint64_t *CompileNs = nullptr) {
  RunResult R;
  R.Out = Tensor::dense(W.OutDims, 0.0);
  R.Out.setAllValues(W.OutInit);
  Executor E(K, Options);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &R.Out);
  Status P = E.tryPrepare();
  EXPECT_TRUE(P.ok()) << P.str();
  if (E.engines().front() == Engine::Native)
    R.NativeStatus = E.awaitNative();
  R.Native = E.usesNativeEngine();
  if (CompileNs)
    *CompileNs = E.nativeCompileNs();
  Status S = E.tryRun(&R.Report);
  EXPECT_TRUE(S.ok()) << S.str();
  EXPECT_EQ(R.Report.BodyEngine == "native", R.Native);
  return R;
}

/// A per-test scratch cache directory (removed on destruction).
struct ScratchCacheDir {
  std::string Path;
  ScratchCacheDir(const std::string &Tag) {
    Path = ::testing::TempDir() + "systec-jit-test-" + Tag + "-" +
           std::to_string(getpid());
    std::filesystem::remove_all(Path);
  }
  ~ScratchCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// EngineRegistry resolution
//===----------------------------------------------------------------------===//

TEST(EngineRegistry, ExplicitListNormalizes) {
  // Interp is appended when missing; duplicates collapse.
  EngineResolution R = resolveEngines({Engine::Fused, Engine::Fused});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Fused, Engine::Interp}));

  // An empty list normalizes like any other: the interpreter alone.
  R = resolveEngines({});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Interp}));

  // Native anywhere but first is dropped with a note, right behind
  // blocked too.
  R = resolveEngines({Engine::Fused, Engine::Native});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Fused, Engine::Interp}));
  EXPECT_FALSE(R.UseNative);
  ASSERT_EQ(R.Notes.size(), 1u);
  R = resolveEngines({Engine::Blocked, Engine::Native, Engine::Fused});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Blocked, Engine::Fused,
                                          Engine::Interp}));
  EXPECT_FALSE(R.UseNative);
  ASSERT_EQ(R.Notes.size(), 1u);

  // The default puts native first: every plan tiers up.
  R = resolveEngines(ExecOptions().Engines);
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Native, Engine::Blocked,
                                          Engine::Fused, Engine::Interp}));
  EXPECT_TRUE(R.UseNative);
  EXPECT_TRUE(R.UseBlocked);
  EXPECT_TRUE(R.Notes.empty());

  // Blocked without Fused gets Fused inserted (with a note).
  R = resolveEngines({Engine::Blocked});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Blocked, Engine::Fused,
                                          Engine::Interp}));
  EXPECT_TRUE(R.UseFused);
  EXPECT_FALSE(R.Notes.empty());

  // Native-first is honored.
  R = resolveEngines(nativeFirst());
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Native, Engine::Fused,
                                          Engine::Interp}));
  EXPECT_TRUE(R.UseNative);
  EXPECT_TRUE(R.UseFused);
}

TEST(EngineRegistry, SummaryAndNames) {
  EXPECT_STREQ(engineName(Engine::Native), "native");
  EXPECT_EQ(enginesSummary(nativeFirst()), "native>fused>interp");
  Engine E;
  EXPECT_TRUE(parseEngine("blocked", E));
  EXPECT_EQ(E, Engine::Blocked);
  EXPECT_FALSE(parseEngine("turbo", E));
}

//===----------------------------------------------------------------------===//
// Differential: native engine vs interpreter, all paper kernels
//===----------------------------------------------------------------------===//

class NativeKernelSweep : public ::testing::TestWithParam<const char *> {};

TEST_P(NativeKernelSweep, BitIdenticalWithCounterParity) {
  SKIP_WITHOUT_COMPILER();
  setCountersEnabled(true);
  for (uint64_t Seed : {11u, 12u}) {
    Workload WI = makeWorkload(GetParam(), Seed, 2);
    Workload WN = makeWorkload(GetParam(), Seed, 2);
    CompileResult C = compileEinsum(WI.E);

    ExecOptions Interp;
    Interp.Engines = {Engine::Interp};
    RunResult RI = runKernel(C.Optimized, WI, Interp);
    EXPECT_FALSE(RI.Native);

    ExecOptions Native;
    Native.Engines = nativeFirst();
    RunResult RN = runKernel(C.Optimized, WN, Native);
    ASSERT_TRUE(RN.Native) << RN.NativeStatus.str();

    // Bit identity: the emitted body replicates the interpreter's
    // sequential fold order, so outputs match exactly — not to a
    // tolerance.
    EXPECT_EQ(Tensor::maxAbsDiff(RN.Out, RI.Out), 0.0)
        << GetParam() << " seed " << Seed;

    // Counter parity at the interpreter's exact charge points.
    EXPECT_EQ(RN.Report.Counters.SparseReads, RI.Report.Counters.SparseReads);
    EXPECT_EQ(RN.Report.Counters.Reductions, RI.Report.Counters.Reductions);
    EXPECT_EQ(RN.Report.Counters.ScalarOps, RI.Report.Counters.ScalarOps);
    EXPECT_EQ(RN.Report.Counters.OutputWrites,
              RI.Report.Counters.OutputWrites);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperKernels, NativeKernelSweep,
                         ::testing::Values("ssymv", "bellmanford", "syprd",
                                           "ssyrk", "ttm", "mttkrp3",
                                           "mttkrp4", "mttkrp5"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

//===----------------------------------------------------------------------===//
// Tiered execution: the native body is reached in the background
//===----------------------------------------------------------------------===//

namespace {

/// One executor over one workload, run op by op with counters on: the
/// output is reset before every run.
struct TieredRun {
  Workload W;
  Tensor Out = Tensor::dense({1}, 0.0);
  std::unique_ptr<Executor> E;

  TieredRun(const std::string &Kernel, uint64_t Seed, ExecOptions O)
      : W(makeWorkload(Kernel, Seed, 1)) {
    Out = Tensor::dense(W.OutDims, 0.0);
    E = std::make_unique<Executor>(compileEinsum(W.E).Optimized, O);
    for (auto &[Name, T] : W.Inputs)
      E->bind(Name, &T);
    E->bind(W.E.Output->tensorName(), &Out);
    Status P = E->tryPrepare();
    EXPECT_TRUE(P.ok()) << P.str();
  }

  obs::ExecReport run() {
    setCountersEnabled(true);
    Out.setAllValues(W.OutInit);
    obs::ExecReport Rep;
    Status S = E->tryRun(&Rep);
    EXPECT_TRUE(S.ok()) << S.str();
    return Rep;
  }
};

/// Bit-identical outputs and equal exact counters; with \p SameKey
/// also an equal structureKey(), which holds across a tier-up unless
/// blocked panels ran (their panel and store counts are engine-specific).
void expectSameRun(const obs::ExecReport &A, const Tensor &OutA,
                   const obs::ExecReport &B, const Tensor &OutB,
                   bool SameKey = true) {
  EXPECT_EQ(Tensor::maxAbsDiff(OutA, OutB), 0.0);
  EXPECT_EQ(A.Counters.SparseReads, B.Counters.SparseReads);
  EXPECT_EQ(A.Counters.Reductions, B.Counters.Reductions);
  EXPECT_EQ(A.Counters.ScalarOps, B.Counters.ScalarOps);
  EXPECT_EQ(A.Counters.OutputWrites, B.Counters.OutputWrites);
  if (SameKey)
    EXPECT_EQ(A.structureKey(), B.structureKey());
}

} // namespace

TEST(TierUp, FirstRunsPerLoopLaterRunsNative) {
  SKIP_WITHOUT_COMPILER();
  for (const char *Kernel : {"ssymv", "mttkrp3"}) {
    SCOPED_TRACE(Kernel);
    TieredRun T(Kernel, 41, ExecOptions());
    // The first two runs are on the per-loop tiers; the second hands
    // the TU to the background builder.
    obs::ExecReport First = T.run();
    const Tensor FirstOut = T.Out;
    EXPECT_EQ(First.BodyEngine, "blocked>fused>interp");
    obs::ExecReport Second = T.run();
    EXPECT_EQ(Second.BodyEngine, "blocked>fused>interp");
    expectSameRun(First, FirstOut, Second, T.Out);
    EXPECT_TRUE(T.E->nativeStatus().ok()) << T.E->nativeStatus().str();

    // Later runs install the finished body at their start — no call
    // waits for it — and from then on run native.
    obs::ExecReport Later;
    for (int Run = 0; Run < 20000 && Later.BodyEngine != "native"; ++Run) {
      Later = T.run();
      expectSameRun(First, FirstOut, Later, T.Out);
      if (Later.BodyEngine != "native")
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(Later.BodyEngine, "native") << T.E->nativeStatus().str();
    EXPECT_TRUE(T.E->usesNativeEngine());
    obs::ExecReport Native = T.run();
    EXPECT_EQ(Native.BodyEngine, "native");
    expectSameRun(First, FirstOut, Native, T.Out);
  }
}

TEST(TierUp, ThreadsAndControlledRunsNeverInstall) {
  SKIP_WITHOUT_COMPILER();
  CancelToken Token;
  ExecOptions Threads2, Cancel, Deadline;
  Threads2.Threads = 2;
  Cancel.Cancel = &Token;
  Deadline.DeadlineMs = 600000;
  for (const ExecOptions *O : {&Threads2, &Cancel, &Deadline}) {
    SCOPED_TRACE(execOptionsSummary(*O));
    TieredRun T("ssymv", 43, *O);
    for (int Run = 0; Run < 4; ++Run)
      EXPECT_EQ(T.run().BodyEngine, "blocked>fused>interp");
    Status S = T.E->awaitNative();
    EXPECT_EQ(S.code(), ErrCode::InvalidOptions) << S.str();
    EXPECT_EQ(T.E->nativeStatus().code(), ErrCode::InvalidOptions);
    EXPECT_FALSE(T.E->usesNativeEngine());
    EXPECT_EQ(T.run().BodyEngine, "blocked>fused>interp");
  }

  // The controlled rule follows the per-request knobs: rebound without
  // a token, the same executor tiers up.
  TieredRun T("ssymv", 43, Cancel);
  const obs::ExecReport Controlled = T.run();
  const Tensor ControlledOut = T.Out;
  std::map<std::string, Tensor *> Same;
  for (auto &[Name, Tn] : T.W.Inputs)
    Same[Name] = &Tn;
  Same[T.W.E.Output->tensorName()] = &T.Out;
  ASSERT_TRUE(T.E->rebind(Same, ExecOptions()).ok());
  Status S = T.E->awaitNative();
  ASSERT_TRUE(S.ok()) << S.str();
  obs::ExecReport Native = T.run();
  EXPECT_EQ(Native.BodyEngine, "native");
  expectSameRun(Controlled, ControlledOut, Native, T.Out);
  ASSERT_TRUE(T.E->rebind(Same, Cancel).ok());
  EXPECT_EQ(T.run().BodyEngine, "blocked>fused>interp");
}

TEST(TierUp, ExecutorDestroyedWhileBuildPendingIsSafe) {
  SKIP_WITHOUT_COMPILER();
  ScratchCacheDir Dir("pending");
  ExecOptions O;
  O.NativeCacheDir = Dir.Path;
  // Cold builds, requested and abandoned at once: the worker drops the
  // queued ones and resolves the running one into nobody's hands.
  for (uint64_t Seed = 50; Seed < 54; ++Seed) {
    TieredRun T("syprd", Seed, O);
    T.run();
    T.run();
  }
  for (const char *Kernel : {"ssymv", "bellmanford", "ttm"}) {
    TieredRun T(Kernel, 55, O);
    T.run();
    T.run();
  }
  // A later executor of one of them still gets its body.
  TieredRun T("syprd", 53, O);
  const obs::ExecReport First = T.run();
  const Tensor FirstOut = T.Out;
  Status S = T.E->awaitNative();
  ASSERT_TRUE(S.ok()) << S.str();
  obs::ExecReport Native = T.run();
  EXPECT_EQ(Native.BodyEngine, "native");
  expectSameRun(First, FirstOut, Native, T.Out);
}

TEST(TierUp, DefaultSsyrkTiersUpFromItsBlockedNest) {
  SKIP_WITHOUT_COMPILER();
  TieredRun T("ssyrk", 47, ExecOptions());
  EXPECT_GT(T.E->microKernelStats().BlockedLoops, 0u);
  const obs::ExecReport First = T.run();
  const Tensor FirstOut = T.Out;
  EXPECT_EQ(First.BodyEngine, "blocked>fused>interp");
  Status S = T.E->awaitNative();
  ASSERT_TRUE(S.ok()) << S.str();
  obs::ExecReport Native = T.run();
  EXPECT_EQ(Native.BodyEngine, "native");
  // The blocked panels' counts are engine-specific, so the key moves.
  expectSameRun(First, FirstOut, Native, T.Out, /*SameKey=*/false);
}

//===----------------------------------------------------------------------===//
// On-disk cache reuse across (simulated) processes
//===----------------------------------------------------------------------===//

TEST(NativeCache, WarmStartCompilesNothing) {
  SKIP_WITHOUT_COMPILER();
  ScratchCacheDir Dir("warm");
  // Cold: an empty directory and no kernel in the in-process registry.
  jit::NativeKernelCache::instance().dropHandles();

  Workload W1 = makeWorkload("ssymv", 5, 1);
  CompileResult C = compileEinsum(W1.E);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  Opt.NativeCacheDir = Dir.Path;

  // Cold: the compiler actually runs.
  uint64_t CompileNs = 0;
  RunResult R1 = runKernel(C.Optimized, W1, Opt, &CompileNs);
  ASSERT_TRUE(R1.Native) << R1.NativeStatus.str();
  EXPECT_GT(CompileNs, 0u);

  // The cache directory now holds the source and the object.
  size_t Cpp = 0, So = 0;
  for (const auto &Ent : std::filesystem::directory_iterator(Dir.Path)) {
    if (Ent.path().extension() == ".cpp")
      ++Cpp;
    if (Ent.path().extension() == ".so")
      ++So;
  }
  EXPECT_EQ(Cpp, 1u);
  EXPECT_EQ(So, 1u);

  // Simulate a fresh process over the warm directory: drop the
  // in-memory handle registry, then prepare the same kernel again. The
  // .so must be reused straight from disk — zero compiler time.
  jit::NativeKernelCache::instance().dropHandles();
  Workload W2 = makeWorkload("ssymv", 5, 1);
  RunResult R2 = runKernel(C.Optimized, W2, Opt, &CompileNs);
  ASSERT_TRUE(R2.Native) << R2.NativeStatus.str();
  EXPECT_EQ(CompileNs, 0u);
  EXPECT_EQ(Tensor::maxAbsDiff(R2.Out, R1.Out), 0.0);
}

TEST(NativeCache, ConcurrentLoadsOfOneKeyShareOneBuild) {
  SKIP_WITHOUT_COMPILER();
  ScratchCacheDir Dir("shared");
  jit::NativeKernelCache::instance().dropHandles();
  Workload W = makeWorkload("bellmanford", 61, 3);
  CompileResult C = compileEinsum(W.E);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  Executor E(C.Optimized, Opt);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &Out);
  ASSERT_TRUE(E.tryPrepare().ok());
  const std::string Source = E.nativeSource();

  // Loads racing on one key: the cache lock is not held across the
  // compile, so they meet in flight and share its one build.
  std::vector<uint64_t> CompileNs(4, 0);
  std::vector<std::thread> Loaders;
  for (size_t I = 0; I < CompileNs.size(); ++I)
    Loaders.emplace_back([&, I] {
      auto L = jit::NativeKernelCache::instance().load(Source, Dir.Path);
      EXPECT_TRUE(L.ok()) << L.status().str();
      if (L)
        CompileNs[I] = L->CompileNs;
    });
  for (std::thread &T : Loaders)
    T.join();
  EXPECT_EQ(std::count_if(CompileNs.begin(), CompileNs.end(),
                          [](uint64_t Ns) { return Ns > 0; }),
            1);

  // Only an object is shared, never a failure: a waiter whose in-flight
  // build failed for its caller builds for itself. First a build its
  // caller aborts: a load into another directory waits for it, then
  // compiles.
  jit::NativeKernelCache::instance().dropHandles();
  ScratchCacheDir Aborted("shared-aborted"), Mine("shared-mine");
  std::atomic<bool> Abort{false};
  std::thread First([&] {
    auto L = jit::NativeKernelCache::instance().load(Source, Aborted.Path,
                                                     &Abort);
    EXPECT_EQ(L.status().code(), ErrCode::Cancelled) << L.status().str();
  });
  // The source is published just before the compiler starts.
  auto Compiling = [&] {
    std::error_code EC;
    for (const auto &F : std::filesystem::directory_iterator(Aborted.Path, EC))
      if (F.path().extension() == ".cpp")
        return true;
    return false;
  };
  for (int Ms = 0; Ms < 30000 && !Compiling(); ++Ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(Compiling());
  std::thread Second([&] {
    auto L = jit::NativeKernelCache::instance().load(Source, Mine.Path);
    ASSERT_TRUE(L.ok()) << L.status().str();
    EXPECT_GT(L->CompileNs, 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Abort = true;
  First.join();
  Second.join();

  // Then a read-only directory beside a writable one: the writable
  // load succeeds whichever of the two starts first.
  for (int Round = 0; Round < 3; ++Round) {
    jit::NativeKernelCache::instance().dropHandles();
    ScratchCacheDir ReadOnly("shared-ro"), Writable("shared-rw");
    std::filesystem::create_directories(ReadOnly.Path);
    std::filesystem::permissions(ReadOnly.Path,
                                 std::filesystem::perms::owner_read |
                                     std::filesystem::perms::owner_exec);
    std::thread RO([&] {
      auto L = jit::NativeKernelCache::instance().load(Source, ReadOnly.Path);
      if (!L.ok())
        EXPECT_EQ(L.status().code(), ErrCode::ResourceExhausted)
            << L.status().str();
    });
    auto L = jit::NativeKernelCache::instance().load(Source, Writable.Path);
    EXPECT_TRUE(L.ok()) << L.status().str();
    RO.join();
  }
}

//===----------------------------------------------------------------------===//
// Graceful degradation without a compiler
//===----------------------------------------------------------------------===//

TEST(NativeFallback, DisabledJitFallsBackTyped) {
  Workload WI = makeWorkload("ssymv", 7, 1);
  Workload WN = makeWorkload("ssymv", 7, 1);
  CompileResult C = compileEinsum(WI.E);

  ExecOptions Interp;
  Interp.Engines = {Engine::Interp};
  RunResult RI = runKernel(C.Optimized, WI, Interp);

  setenv("SYSTEC_JIT_DISABLE", "1", 1);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  RunResult RN = runKernel(C.Optimized, WN, Opt);
  unsetenv("SYSTEC_JIT_DISABLE");

  // Prepare and run both succeeded; the executor fell back to the rest
  // of the preference list and recorded why as a typed Status.
  EXPECT_FALSE(RN.Native);
  EXPECT_EQ(RN.NativeStatus.code(), ErrCode::ResourceExhausted)
      << RN.NativeStatus.str();
  EXPECT_EQ(Tensor::maxAbsDiff(RN.Out, RI.Out), 0.0);
}

TEST(NativeFallback, ForeignCacheDirIsRefused) {
  SKIP_WITHOUT_COMPILER();
  // A cache directory this process does not own: as root, a fresh one
  // handed to uid 65534; as anyone else, "/".
  std::string Dir = "/";
  std::unique_ptr<ScratchCacheDir> Foreign;
  if (::geteuid() == 0) {
    Foreign = std::make_unique<ScratchCacheDir>("foreign");
    std::filesystem::create_directory(Foreign->Path);
    ASSERT_EQ(::chown(Foreign->Path.c_str(), 65534, 65534), 0);
    Dir = Foreign->Path;
  }
  auto Listing = [&Dir] {
    std::set<std::string> Names;
    for (const auto &Ent : std::filesystem::directory_iterator(Dir))
      Names.insert(Ent.path().filename().string());
    return Names;
  };
  const std::set<std::string> Before = Listing();

  Workload WI = makeWorkload("ssymv", 29, 1);
  Workload WN = makeWorkload("ssymv", 29, 1);
  CompileResult C = compileEinsum(WI.E);
  ExecOptions Interp;
  Interp.Engines = {Engine::Interp};
  RunResult RI = runKernel(C.Optimized, WI, Interp);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  Opt.NativeCacheDir = Dir;
  RunResult RN = runKernel(C.Optimized, WN, Opt);

  // Refused before anything is written or loaded — even though this
  // kernel's object is already in the process-wide handle registry.
  EXPECT_FALSE(RN.Native);
  EXPECT_EQ(RN.NativeStatus.code(), ErrCode::ResourceExhausted)
      << RN.NativeStatus.str();
  EXPECT_NE(RN.NativeStatus.str().find("not owned by the effective user"),
            std::string::npos)
      << RN.NativeStatus.str();
  EXPECT_EQ(Tensor::maxAbsDiff(RN.Out, RI.Out), 0.0);
  EXPECT_EQ(Listing(), Before);
}

//===----------------------------------------------------------------------===//
// PlanCache keys on the resolved engine list
//===----------------------------------------------------------------------===//

TEST(EngineKeys, ResolvedListKeysPlans) {
  Workload W = makeWorkload("ssymv", 3, 1);
  CompileResult C = compileEinsum(W.E);
  std::map<std::string, Tensor *> B;
  for (auto &[Name, T] : W.Inputs)
    B[Name] = &T;
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  B[W.E.Output->tensorName()] = &Out;

  ExecOptions Default; // native>blocked>fused>interp
  ExecOptions Typed;
  Typed.Engines = {Engine::Native, Engine::Blocked, Engine::Fused,
                   Engine::Interp};
  ExecOptions Normalized; // native dropped (not first) -> no native
  Normalized.Engines = {Engine::Blocked, Engine::Fused, Engine::Native,
                        Engine::Interp};
  ExecOptions NativeOpt;
  NativeOpt.Engines = nativeFirst();

  const std::string KDefault = PlanCache::makeKey(W.E, B, Default);
  const std::string KTyped = PlanCache::makeKey(W.E, B, Typed);
  const std::string KNorm = PlanCache::makeKey(W.E, B, Normalized);
  const std::string KNative = PlanCache::makeKey(W.E, B, NativeOpt);

  // Equivalent requests share one plan; a list without blocked and a
  // list without native are distinct.
  EXPECT_EQ(KDefault, KTyped);
  EXPECT_NE(KTyped, KNorm);
  EXPECT_NE(KNative, KDefault);
  EXPECT_NE(KDefault.find("engines=native>blocked>fused>interp"),
            std::string::npos);
  EXPECT_NE(KNorm.find("engines=blocked>fused>interp"), std::string::npos);
  EXPECT_NE(KNative.find("engines=native>fused>interp"), std::string::npos);

  // The .so cache directory is a per-request knob, never a key field.
  ExecOptions Dir = NativeOpt;
  Dir.NativeCacheDir = "/nonexistent/elsewhere";
  EXPECT_EQ(PlanCache::makeKey(W.E, B, Dir), KNative);

  // The executor's options summary renders the same resolved list.
  EXPECT_NE(
      execOptionsSummary(Normalized).find("engines=blocked>fused>interp"),
      std::string::npos);
}

//===----------------------------------------------------------------------===//
// Rebind: engine agreement (rebound native runs are covered by
// service_test's RebindSweep native rows)
//===----------------------------------------------------------------------===//

TEST(NativeRebind, EngineMismatchIsTyped) {
  SKIP_WITHOUT_COMPILER();
  Workload W = makeWorkload("ssymv", 13, 1);
  CompileResult C = compileEinsum(W.E);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  Executor E(C.Optimized, Opt);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &Out);
  ASSERT_TRUE(E.tryPrepare().ok());

  std::map<std::string, Tensor *> Same;
  for (auto &[Name, T] : W.Inputs)
    Same[Name] = &T;
  Same[W.E.Output->tensorName()] = &Out;

  ExecOptions Different; // resolves to fused>interp
  Status S = E.rebind(Same, Different);
  EXPECT_EQ(S.code(), ErrCode::InvalidArgument);
  EXPECT_NE(S.str().find("engine mismatch"), std::string::npos) << S.str();
}

//===----------------------------------------------------------------------===//
// Emitted source is exposed for diagnostics and compile checks
//===----------------------------------------------------------------------===//

TEST(NativeSource, ExposedAfterPrepare) {
  Workload W = makeWorkload("syprd", 19, 1);
  CompileResult C = compileEinsum(W.E);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  Executor E(C.Optimized, Opt);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &Out);
  ASSERT_TRUE(E.tryPrepare().ok());
  // Emitted on request; building it is a run's (or awaitNative's) job.
  EXPECT_FALSE(E.usesNativeEngine());
  EXPECT_NE(E.nativeSource().find("systec_native_run"), std::string::npos);
  EXPECT_NE(E.nativeSource().find("systec_ntensor"), std::string::npos);
}
