//===- tests/fault_test.cpp - Fault-injection robustness tests -*- C++ -*-===//
///
/// \file
/// The hardened-execution contract under corrupted input: every fault
/// class of tests/FaultInjection.h, applied to otherwise-valid fuzz and
/// corpus tensors, must be rejected with a typed Status — by
/// Tensor::validate(Deep) directly, and by Executor::tryPrepare with
/// ValidateInputs=Deep across {interpreter, fused, blocked} x
/// Threads {1, 4}. No abort, no crash, no sanitizer report (this test
/// carries the "fault" ctest label and runs under ASan/UBSan in CI).
/// Also pins the cooperative cancellation/deadline semantics: aborted
/// runs return Cancelled / DeadlineExceeded, restore their outputs, and
/// surface the reason in ExecReport::AbortReason. Every malformed-kernel
/// rule, and a null binding, comes back from tryPrepare as a typed
/// Status. The native build's faults — a hanging compiler, a truncated
/// or wrong-key cached object, a read-only cache directory — end in a
/// typed status or a rebuild, with interpreter-identical output.
///
//===----------------------------------------------------------------------===//

#include "FaultInjection.h"
#include "FuzzHarness.h"

#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace systec;
using namespace systec::fault;
using namespace systec::fuzzharness;

namespace {

/// 8x8 matrix with a fixed multi-coordinate pattern, buildable in every
/// two-level format — the deterministic corpus guaranteeing each fault
/// class a site regardless of what the fuzz seeds generate.
Tensor makeMatrix(TensorFormat F) {
  Coo C({8, 8});
  for (int64_t I = 0; I < 8; ++I)
    for (int64_t J = 0; J < 8; ++J)
      if ((I + 2 * J) % 3 == 0)
        C.add({I, J}, static_cast<double>(1 + I + 8 * J));
  return Tensor::fromCoo(std::move(C), std::move(F));
}

std::vector<std::pair<std::string, Tensor>> corpusTensors() {
  using LK = LevelKind;
  std::vector<std::pair<std::string, Tensor>> Out;
  Out.emplace_back("d(s)", makeMatrix(TensorFormat{{LK::Dense, LK::Sparse}}));
  Out.emplace_back("s(s)", makeMatrix(TensorFormat{{LK::Sparse, LK::Sparse}}));
  Out.emplace_back("d(r)",
                   makeMatrix(TensorFormat{{LK::Dense, LK::RunLength}}));
  Out.emplace_back("d(b)", makeMatrix(TensorFormat{{LK::Dense, LK::Banded}}));
  Out.emplace_back("s(b)", makeMatrix(TensorFormat{{LK::Sparse, LK::Banded}}));
  return Out;
}

struct EngineCfg {
  const char *Name;
  std::vector<Engine> List;
};
const EngineCfg Engines[] = {
    {"interp", {Engine::Interp}},
    {"fused", {Engine::Fused, Engine::Interp}},
    {"blocked", {Engine::Blocked, Engine::Fused, Engine::Interp}}};

} // namespace

//===----------------------------------------------------------------------===//
// Validator-level rejection
//===----------------------------------------------------------------------===//

TEST(FaultInjection, ValidatorRejectsEveryCorruption) {
  std::map<Fault, int> Applied;
  auto Sweep = [&](const Tensor &Pristine, const std::string &Tag) {
    {
      Status S = Pristine.validate(ValidationLevel::Deep);
      ASSERT_TRUE(S.ok()) << Tag << ": pristine tensor rejected: " << S.str();
    }
    for (Fault F : allFaults()) {
      Tensor Broken = Pristine;
      std::optional<std::string> Site = injectFault(Broken, F);
      if (!Site)
        continue;
      SCOPED_TRACE(Tag + ": " + faultName(F) + ": " + *Site);
      Status S = Broken.validate(ValidationLevel::Deep);
      EXPECT_FALSE(S.ok()) << "corruption accepted";
      EXPECT_EQ(S.code(), ErrCode::InvalidTensor);
      EXPECT_FALSE(S.message().empty());
      ++Applied[F];
    }
  };
  for (const auto &[Tag, T] : corpusTensors())
    Sweep(T, "corpus " + Tag);
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    FuzzCase F = makeCase(Seed);
    for (const auto &[Name, T] : F.Inputs)
      Sweep(T, "seed " + std::to_string(Seed) + " " + Name);
  }
  for (Fault F : allFaults())
    EXPECT_GT(Applied[F], 0) << faultName(F) << " never found a site";
}

TEST(FaultInjection, ShallowTierCatchesSizeFaultsOnly) {
  const Tensor Pristine =
      makeMatrix(TensorFormat{{LevelKind::Dense, LevelKind::Sparse}});

  Tensor EndpointBroken = Pristine;
  ASSERT_TRUE(injectFault(EndpointBroken, Fault::PtrOutOfRange));
  EXPECT_FALSE(EndpointBroken.validate(ValidationLevel::Shallow).ok());

  Tensor Truncated = Pristine;
  ASSERT_TRUE(injectFault(Truncated, Fault::ValsTruncated));
  EXPECT_FALSE(Truncated.validate(ValidationLevel::Shallow).ok());

  // Per-fiber coordinate order is deliberately a Deep-tier check: the
  // Shallow tier is O(levels) and never walks the arrays.
  Tensor Unsorted = Pristine;
  ASSERT_TRUE(injectFault(Unsorted, Fault::CrdUnsorted));
  EXPECT_TRUE(Unsorted.validate(ValidationLevel::Shallow).ok());
  EXPECT_FALSE(Unsorted.validate(ValidationLevel::Deep).ok());
}

//===----------------------------------------------------------------------===//
// Executor-level rejection across engines and thread counts
//===----------------------------------------------------------------------===//

TEST(FaultInjection, ExecutorRejectsCorruptedOperandsAcrossEngines) {
  int Checked = 0;
  for (uint64_t Seed : {3u, 7u, 11u, 19u}) {
    FuzzCase Base = makeCase(Seed);
    SCOPED_TRACE(caseTrace(Base));
    CompileResult R = compileEinsum(Base.E);
    for (Fault F : allFaults()) {
      // One corrupted operand per fault class suffices; find an input
      // offering a site.
      for (auto &[Name, Pristine] : Base.Inputs) {
        Tensor Broken = Pristine;
        std::optional<std::string> Site = injectFault(Broken, F);
        if (!Site)
          continue;
        for (const EngineCfg &E : Engines) {
          for (unsigned Threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(faultName(F)) + " on " + Name + " [" +
                         E.Name + " threads=" + std::to_string(Threads) +
                         "]: " + *Site);
            ExecOptions O;
            O.Engines = E.List;
            O.Threads = Threads;
            O.ValidateInputs = ValidationLevel::Deep;
            Tensor Out = Tensor::dense(Base.OutDims, 0.0);
            Out.setAllValues(Base.OutInit);
            Executor Ex(R.Naive, O);
            for (auto &[BindName, BindT] : Base.Inputs)
              Ex.bind(BindName, BindName == Name ? &Broken : &BindT);
            Ex.bind("O", &Out);
            Status S = Ex.tryPrepare();
            ASSERT_FALSE(S.ok()) << "corrupted operand accepted";
            EXPECT_EQ(S.code(), ErrCode::InvalidTensor);
            // The context chain names the offending tensor.
            EXPECT_NE(S.str().find("'" + Name + "'"), std::string::npos)
                << S.str();
            ++Checked;
          }
        }
        break;
      }
    }
  }
  // Every seed offers at least the always-applicable value faults on
  // all six engine/thread cells.
  EXPECT_GE(Checked, 4 * 2 * 6);
}

//===----------------------------------------------------------------------===//
// Cancellation and deadlines
//===----------------------------------------------------------------------===//

TEST(HardenedExecution, PreCancelledTokenAbortsAndRestoresOutput) {
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    FuzzCase F = makeCase(5);
    CompileResult R = compileEinsum(F.E);
    Tensor Out = Tensor::dense(F.OutDims, 0.0);
    Out.setAllValues(F.OutInit);
    const std::vector<double> Before = Out.vals();

    CancelToken Tok;
    Tok.cancel();
    ExecOptions O;
    O.Threads = Threads;
    O.Cancel = &Tok;
    Executor Ex(R.Naive, O);
    for (auto &[Name, T] : F.Inputs)
      Ex.bind(Name, &T);
    Ex.bind("O", &Out);
    {
      Status S = Ex.tryPrepare();
      ASSERT_TRUE(S.ok()) << S.str();
    }
    obs::ExecReport Rep;
    Status S = Ex.tryRunBody(&Rep);
    ASSERT_FALSE(S.ok());
    EXPECT_EQ(S.code(), ErrCode::Cancelled);
    EXPECT_EQ(Rep.AbortReason, "cancelled");
    EXPECT_EQ(Out.vals(), Before) << "partial writes not discarded";

    // The token is reusable: reset and the same executor completes.
    Tok.reset();
    Status S2 = Ex.tryRun(&Rep);
    EXPECT_TRUE(S2.ok()) << S2.str();
    EXPECT_TRUE(Rep.AbortReason.empty());
  }
}

TEST(HardenedExecution, GenerousDeadlineCompletes) {
  FuzzCase F = makeCase(8);
  CompileResult R = compileEinsum(F.E);
  ExecOptions O;
  O.DeadlineMs = 60000;
  Tensor Out = run(R.Naive, F, O);
  FuzzCase F2 = makeCase(8);
  Tensor Ref = run(R.Naive, F2, ExecOptions());
  EXPECT_EQ(Out.vals(), Ref.vals());
}

TEST(HardenedExecution, TightDeadlineEitherCompletesOrAbortsCleanly) {
  // A 1 ms deadline on a small kernel is a race by construction; the
  // contract is that both outcomes are clean — completion, or a typed
  // DeadlineExceeded with the output restored.
  FuzzCase F = makeCase(13);
  CompileResult R = compileEinsum(F.E);
  Tensor Out = Tensor::dense(F.OutDims, 0.0);
  Out.setAllValues(F.OutInit);
  const std::vector<double> Before = Out.vals();
  ExecOptions O;
  O.DeadlineMs = 1;
  Executor Ex(R.Naive, O);
  for (auto &[Name, T] : F.Inputs)
    Ex.bind(Name, &T);
  Ex.bind("O", &Out);
  ASSERT_TRUE(Ex.tryPrepare().ok());
  obs::ExecReport Rep;
  Status S = Ex.tryRunBody(&Rep);
  if (!S.ok()) {
    EXPECT_EQ(S.code(), ErrCode::DeadlineExceeded);
    EXPECT_EQ(Rep.AbortReason, "deadline-exceeded");
    EXPECT_EQ(Out.vals(), Before);
  } else {
    EXPECT_TRUE(Rep.AbortReason.empty());
  }
}

TEST(HardenedExecution, MemoryBudgetDegradesWithoutChangingResults) {
  // A one-byte budget vetoes every privatized accumulator; the loop
  // degrades to the inner disjoint-write parallelization (or runs
  // sequentially) with bit-identical results on quantized data.
  FuzzCase F1 = makeCase(9);
  FuzzCase F2 = makeCase(9);
  CompileResult R = compileEinsum(F1.E);
  ExecOptions Unrestricted;
  Unrestricted.Threads = 4;
  ExecOptions Budgeted = Unrestricted;
  Budgeted.PrivatizationBudgetBytes = 1;
  Tensor Ref = run(R.Naive, F1, Unrestricted);
  Tensor Out = run(R.Naive, F2, Budgeted);
  EXPECT_EQ(Out.vals(), Ref.vals());
}

TEST(HardenedExecution, MalformedKernelInputsReturnTypedStatus) {
  // The Status surface of the other API boundaries: einsum syntax and
  // COO staging.
  Expected<Einsum> Bad = tryParseEinsum("bad", "O[i,j] += A[i,k * B[k,j]");
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrCode::InvalidArgument);

  Coo C({3, 3});
  C.add({2, 5}, 1.0); // column 5 outside a 3x3 extent
  Expected<Tensor> T = Tensor::tryFromCoo(std::move(C), TensorFormat::csf(2));
  ASSERT_FALSE(T.ok());
  EXPECT_EQ(T.status().code(), ErrCode::InvalidArgument);

  // An unbound operand surfaces from tryPrepare, not an abort.
  FuzzCase F = makeCase(4);
  CompileResult R = compileEinsum(F.E);
  Tensor Out = Tensor::dense(F.OutDims, 0.0);
  Executor Ex(R.Naive, ExecOptions());
  Ex.bind("O", &Out); // inputs deliberately left unbound
  Status S = Ex.tryPrepare();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrCode::UnboundTensor);
  EXPECT_EQ(Ex.tryRunBody().code(), ErrCode::InvalidArgument)
      << "a rejected executor must stay unprepared";

  // The other rules plan compilation checks a kernel against its
  // bindings, one violation per case, over y[i] += A[i,j] * x[j] (8x8
  // CSC A), plus a null binding: each is a typed Status from tryPrepare
  // that leaves the executor unprepared.
  Tensor A = makeMatrix(TensorFormat::csf(2));
  Tensor X = Tensor::dense({8}), Y = Tensor::dense({8});
  Tensor X2d = Tensor::dense({8, 8}), X5 = Tensor::dense({5});
  Tensor C5x3 = Tensor::dense({5, 3});
  Coo YCoo({8});
  YCoo.add({3}, 1.0);
  Tensor YSparse =
      Tensor::fromCoo(std::move(YCoo), TensorFormat{{LevelKind::Sparse}});
  auto Spmv = [](StmtPtr Inner) {
    return Stmt::loops({"j", "i"}, std::move(Inner));
  };
  const StmtPtr Update = Stmt::assign(
      Expr::access("y", {"i"}), OpKind::Add,
      Expr::call(OpKind::Mul,
                 {Expr::access("A", {"i", "j"}), Expr::access("x", {"j"})}));
  struct Case {
    const char *Name;
    StmtPtr Body, Epilogue;
    std::map<std::string, Tensor *> Bind;
    ErrCode Code;
    const char *Message; ///< names the rule, so no case trips another
  };
  const Case Cases[] = {
      {"unbound replicate target", Spmv(Update),
       Stmt::replicate("C", Partition::full(2)),
       {{"A", &A}, {"x", &X}, {"y", &Y}}, ErrCode::UnboundTensor,
       "replicates unbound tensor C"},
      {"non-dense replicate target", Spmv(Update),
       Stmt::replicate("C", Partition::full(2)),
       {{"A", &A}, {"x", &X}, {"y", &Y}, {"C", &A}},
       ErrCode::InvalidArgument, "replicate requires a dense output"},
      {"replicate partition order mismatch", Spmv(Update),
       Stmt::replicate("C", Partition::full(2)),
       {{"A", &A}, {"x", &X}, {"y", &Y}, {"C", &X5}},
       ErrCode::InvalidArgument, "replicate partition order mismatch"},
      {"replicate part over unequal extents", Spmv(Update),
       Stmt::replicate("C", Partition::full(2)),
       {{"A", &A}, {"x", &X}, {"y", &Y}, {"C", &C5x3}},
       ErrCode::InvalidArgument, "groups modes of unequal extent"},
      {"arity mismatch", Spmv(Update), nullptr,
       {{"A", &A}, {"x", &X2d}, {"y", &Y}}, ErrCode::InvalidArgument,
       "arity mismatch"},
      {"inconsistent extents", Spmv(Update), nullptr,
       {{"A", &A}, {"x", &X5}, {"y", &Y}}, ErrCode::InvalidArgument,
       "index j has inconsistent extents"},
      {"non-dense write target", Spmv(Update), nullptr,
       {{"A", &A}, {"x", &X}, {"y", &YSparse}}, ErrCode::InvalidArgument,
       "output tensor y must be dense for writes"},
      {"condition on never-bound indices",
       Spmv(Stmt::ifThen(Cond::atom(CmpKind::LE, "k", "i"), Update)),
       nullptr, {{"A", &A}, {"x", &X}, {"y", &Y}},
       ErrCode::InvalidArgument, "indices that are never bound"},
      {"loop index with no extent", Spmv(Stmt::loop("k", Update)), nullptr,
       {{"A", &A}, {"x", &X}, {"y", &Y}}, ErrCode::InvalidArgument,
       "loop index k has no known extent"},
      {"null binding", Spmv(Update), nullptr,
       {{"A", &A}, {"x", &X}, {"y", nullptr}}, ErrCode::InvalidArgument,
       "null tensor under y"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    Kernel K;
    K.Name = "malformed";
    K.OutputName = "y";
    K.Body = C.Body;
    K.Epilogue = C.Epilogue;
    Executor Bad(K, ExecOptions());
    for (const auto &[Name, T] : C.Bind)
      Bad.bind(Name, T);
    Status PS = Bad.tryPrepare();
    ASSERT_FALSE(PS.ok());
    EXPECT_EQ(PS.code(), C.Code) << PS.str();
    EXPECT_NE(PS.message().find(C.Message), std::string::npos) << PS.str();
    EXPECT_EQ(Bad.tryRunBody().code(), ErrCode::InvalidArgument)
        << "a rejected executor must stay unprepared";
  }
}

//===----------------------------------------------------------------------===//
// Native build faults
//===----------------------------------------------------------------------===//

namespace {

namespace fs = std::filesystem;

/// A fresh directory, removed (made writable first) on destruction.
struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const std::string &Tag)
      : Path(::testing::TempDir() + "systec-fault-" + Tag + "-" +
             std::to_string(::getpid())) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::permissions(Path, fs::perms::owner_all, EC);
    fs::remove_all(Path, EC);
  }
};

std::vector<std::string> soFiles(const std::string &Dir) {
  std::vector<std::string> Out;
  for (const auto &Ent : fs::directory_iterator(Dir))
    if (Ent.path().extension() == ".so")
      Out.push_back(Ent.path().string());
  return Out;
}

/// The native build's outcome for one ssymv executor.
struct NativeFaultRun {
  Status Native;
  uint64_t CompileNs = 0;
};

/// Runs ssymv over an \p N x \p N symmetric matrix (each N is its own
/// TU) on the interpreter and native-first with \p CacheDir, awaiting
/// the build; the outputs must be identical whatever the build did.
NativeFaultRun runSsymvNative(int64_t N, const std::string &CacheDir) {
  Rng R(static_cast<uint64_t>(N));
  Tensor A = generateSymmetricTensor(2, N, 4 * N, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(N, R);
  const CompileResult C = compileEinsum(makeSsymv());
  NativeFaultRun NR;
  auto Run = [&](const ExecOptions &O, bool Native) {
    Tensor Y = Tensor::dense({N}, 0.0);
    Executor E(C.Optimized, O);
    E.bind("A", &A).bind("x", &X).bind("y", &Y);
    EXPECT_TRUE(E.tryPrepare().ok());
    if (Native) {
      NR.Native = E.awaitNative();
      NR.CompileNs = E.nativeCompileNs();
    }
    EXPECT_TRUE(E.tryRun().ok());
    return Y;
  };
  ExecOptions Interp, Native;
  Interp.Engines = {Engine::Interp};
  Native.Engines = {Engine::Native, Engine::Fused, Engine::Interp};
  Native.NativeCacheDir = CacheDir;
  const Tensor YI = Run(Interp, false);
  const Tensor YN = Run(Native, true);
  EXPECT_EQ(YN.vals(), YI.vals()) << "native-first differs from interp";
  return NR;
}

#define SKIP_WITHOUT_COMPILER()                                          \
  do {                                                                   \
    std::string Reason_;                                                 \
    if (!jit::NativeKernelCache::compilerAvailable(&Reason_))            \
      GTEST_SKIP() << "no JIT toolchain: " << Reason_;                   \
  } while (0)

} // namespace

TEST(NativeBuildFault, HangingCompilerIsKilledAtTheTimeout) {
  // A compiler that answers the version probe and then never finishes.
  ScratchDir D("hang");
  const std::string Script = D.Path + "/hang-cxx";
  const std::string PidFile = D.Path + "/pid";
  {
    std::ofstream Out(Script);
    Out << "#!/bin/sh\n"
        << "case \"$1\" in --version) echo 'hang-cxx 1'; exit 0;; esac\n"
        << "echo $$ > '" << PidFile << "'\n"
        << "exec sleep 600\n";
  }
  fs::permissions(Script, fs::perms::owner_all);
  const char *Prev = std::getenv("SYSTEC_JIT_CXX");
  const std::string PrevCxx = Prev ? Prev : "";
  ::setenv("SYSTEC_JIT_CXX", Script.c_str(), 1);
  // Probed under the default timeout first, so only the compile meets
  // the short one.
  EXPECT_TRUE(jit::NativeKernelCache::compilerAvailable());
  jit::NativeKernelCache::instance().setCompileTimeoutMs(300);
  const NativeFaultRun R = runSsymvNative(34, D.Path + "/cache");
  jit::NativeKernelCache::instance().setCompileTimeoutMs(
      jit::NativeKernelCache::DefaultCompileTimeoutMs);
  if (Prev)
    ::setenv("SYSTEC_JIT_CXX", PrevCxx.c_str(), 1);
  else
    ::unsetenv("SYSTEC_JIT_CXX");

  EXPECT_EQ(R.Native.code(), ErrCode::DeadlineExceeded) << R.Native.str();
  EXPECT_NE(R.Native.str().find("timeout"), std::string::npos)
      << R.Native.str();
  // The compiler was killed and reaped: it is no child of this process
  // and no process at all any more.
  pid_t Pid = 0;
  std::ifstream(PidFile) >> Pid;
  ASSERT_GT(Pid, 0);
  errno = 0;
  EXPECT_EQ(::waitpid(Pid, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  errno = 0;
  EXPECT_EQ(::kill(Pid, 0), -1);
  EXPECT_EQ(errno, ESRCH);
}

TEST(NativeBuildFault, TruncatedObjectIsRebuilt) {
  SKIP_WITHOUT_COMPILER();
  ScratchDir D("truncated");
  const NativeFaultRun Cold = runSsymvNative(35, D.Path);
  ASSERT_TRUE(Cold.Native.ok()) << Cold.Native.str();
  const std::vector<std::string> So = soFiles(D.Path);
  ASSERT_EQ(So.size(), 1u);
  // Unmapped first: no handle to the object may outlive the truncation.
  jit::NativeKernelCache::instance().dropHandles();
  fs::resize_file(So[0], fs::file_size(So[0]) / 2);

  const NativeFaultRun R = runSsymvNative(35, D.Path);
  EXPECT_TRUE(R.Native.ok()) << R.Native.str();
  EXPECT_GT(R.CompileNs, 0u) << "the truncated object was not rebuilt";
}

TEST(NativeBuildFault, WrongKeyObjectIsRebuilt) {
  SKIP_WITHOUT_COMPILER();
  ScratchDir D("wrongkey");
  ASSERT_TRUE(runSsymvNative(36, D.Path).Native.ok());
  const std::vector<std::string> Mine = soFiles(D.Path);
  ASSERT_EQ(Mine.size(), 1u);
  ASSERT_TRUE(runSsymvNative(37, D.Path).Native.ok());
  const std::vector<std::string> Both = soFiles(D.Path);
  ASSERT_EQ(Both.size(), 2u);
  const std::string &Other = Both[0] == Mine[0] ? Both[1] : Both[0];
  // Another kernel's valid object under this kernel's name (both
  // unmapped first).
  jit::NativeKernelCache::instance().dropHandles();
  fs::copy_file(Other, Mine[0], fs::copy_options::overwrite_existing);

  const NativeFaultRun R = runSsymvNative(36, D.Path);
  EXPECT_TRUE(R.Native.ok()) << R.Native.str();
  EXPECT_GT(R.CompileNs, 0u) << "the wrong-key object was not rebuilt";
}

TEST(NativeBuildFault, ReadOnlyCacheDirFallsBackTyped) {
  SKIP_WITHOUT_COMPILER();
  ScratchDir D("readonly");
  fs::permissions(D.Path, fs::perms::owner_read | fs::perms::owner_exec);
  jit::NativeKernelCache::instance().dropHandles();
  const NativeFaultRun R = runSsymvNative(38, D.Path);
  EXPECT_EQ(R.Native.code(), ErrCode::ResourceExhausted) << R.Native.str();
  EXPECT_NE(R.Native.str().find("read-only"), std::string::npos)
      << R.Native.str();
  EXPECT_TRUE(fs::is_empty(D.Path));
}
