//===- tests/FuzzHarness.h - Differential fuzz case machinery -*- C++ -*-===//
///
/// \file
/// The shared core of the randomized differential-testing matrix, used
/// by two binaries:
///
///  - `fuzz_test` draws fresh seeds every run (parameterized over
///    [1, SYSTEC_FUZZ_ITERS]); any failing seed is persisted to
///    `tests/seeds/` so it becomes a permanent regression input,
///  - `fuzz_replay` re-runs every checked-in seed file deterministically
///    as part of the fast `unit` label.
///
/// Every case is a pure function of its seed: the einsum (symmetric A,
/// a second operand B, and occasionally a third operand C — three-plus
/// sparse operands exercise the N-way walker intersections), the level
/// formats per mode (Dense/Sparse/RunLength/Banded, so non-driving
/// walkers land on structured co-walker levels too), the semiring, the
/// loop order, and the data. The Lut harness additionally injects a
/// lookup-table factor (paper 4.2.5's operand shape) into the naive
/// kernel's assignments and uses the walker-free executor as the dense
/// oracle. Checks assert bit-identical values and exactly equal
/// counters across {interpreter, micro-kernels} x {Threads 1, 4}
/// against the oracle (integer-quantized data makes every reduction
/// exact, so results are decomposition-independent), plus a rebind
/// cell: a plan prepared over decoy inputs, rebound onto the case's
/// inputs after the decoys are destroyed. The micro-kernels-vs-
/// interpreter check compares no oracle, so it keeps the data
/// real-valued: there a reordered reduction changes the bits.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_TESTS_FUZZHARNESS_H
#define SYSTEC_TESTS_FUZZHARNESS_H

#include "core/Compiler.h"
#include "data/Generators.h"
#include "ir/Expr.h"
#include "ir/Stmt.h"
#include "jit/NativeKernelCache.h"
#include "kernels/Oracle.h"
#include "runtime/Executor.h"
#include "support/Counters.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace systec {
namespace fuzzharness {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// The semiring axis of the differential matrix.
enum class Semiring { Arith, MinPlus, MaxTimes, Boolean };

struct SemiringSpec {
  Semiring S;
  const char *Name;
  OpKind Reduce;
  OpKind Combine;
  const char *ReduceTok;
  const char *CombineTok; ///< infix, or null for call syntax
  const char *CombineCall;
  double Fill;      ///< annihilating fill for the sparse operands
  double WeirdFill; ///< non-annihilating fill (walker must be vetoed)
};

inline const SemiringSpec &semiring(Semiring S) {
  static const SemiringSpec Specs[] = {
      {Semiring::Arith, "arith", OpKind::Add, OpKind::Mul, "+= ", "*",
       nullptr, 0.0, 1.0},
      {Semiring::MinPlus, "minplus", OpKind::Min, OpKind::Add, "min= ",
       "+", nullptr, Inf, 0.0},
      {Semiring::MaxTimes, "maxtimes", OpKind::Max, OpKind::Mul, "max= ",
       "*", nullptr, 0.0, 2.0},
      {Semiring::Boolean, "boolean", OpKind::Max, OpKind::Min, "max= ",
       nullptr, "min", 0.0, 1.0},
  };
  return Specs[static_cast<int>(S)];
}

/// A random per-mode format: any level kind, RunLength bottom-only.
inline TensorFormat randomFormat(unsigned Order, Rng &R) {
  TensorFormat F;
  F.Levels.resize(Order);
  for (unsigned L = 0; L < Order; ++L) {
    const bool Bottom = (L + 1 == Order);
    switch (R.nextIndex(Bottom ? 4 : 3)) {
    case 0:
      F.Levels[L] = LevelKind::Dense;
      break;
    case 1:
      F.Levels[L] = LevelKind::Sparse;
      break;
    case 2:
      F.Levels[L] = LevelKind::Banded;
      break;
    default:
      F.Levels[L] = LevelKind::RunLength;
      break;
    }
  }
  return F;
}

/// Quantizes stored values to small integers (exact under any
/// reduction order). Entries equal to the fill stay put: RunLength fill
/// runs and Banded in-band holes store the fill explicitly, and scaling
/// them would diverge from the implicit out-of-band fill (breaking both
/// symmetry and fill semantics). Boolean kernels get 0/1 data.
inline void quantize(Tensor &T, bool Boolean) {
  const double Fill = T.fill();
  for (double &V : T.vals()) {
    if (std::isinf(V) || V == Fill)
      continue;
    V = Boolean ? (V < 0.5 ? 0.0 : 1.0) : std::floor(V * 8);
  }
}

inline Tensor randomSparseVector(int64_t Dim, Rng &R, const TensorFormat &F,
                                 double Fill) {
  Coo C({Dim});
  for (int64_t K = 0; K < Dim; ++K)
    if (R.nextBool(0.5))
      C.add({K}, R.nextDouble());
  return Tensor::fromCoo(std::move(C), F, Fill);
}

struct FuzzCase {
  Einsum E;
  SemiringSpec Spec{Semiring::Arith, "", OpKind::Add, OpKind::Mul,
                    "",              "", nullptr,     0.0,
                    0.0};
  bool WeirdFill = false;
  bool ThirdOperand = false;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  double OutInit = 0.0;
};

/// Builds a random einsum: a symmetric tensor A combined with a second
/// operand B (dense or sparse, any format) and — about a third of the
/// time — a third operand C, so products of three-plus sparse operands
/// (N-way walker intersections) and structured co-walker placements
/// appear; random output indices, random loop order, random semiring.
/// \p Quantize rounds the data to small integers (0/1 for the boolean
/// semiring), which every check against the dense oracle needs; without
/// it the values stay real, so a reduction evaluated in another order
/// shows in the bits.
inline FuzzCase makeCase(uint64_t Seed, bool Quantize = true) {
  Rng R(Seed);
  const int64_t Dim = 5 + R.nextIndex(3);
  const std::vector<std::string> Pool{"a", "b", "c", "d"};

  FuzzCase F;
  F.Spec = semiring(static_cast<Semiring>(R.nextIndex(4)));
  // Occasionally use a fill that does NOT annihilate the body: the
  // walker algebra must fall back to full iteration (via the locator)
  // and still match the dense oracle exactly.
  F.WeirdFill = R.nextBool(0.15);
  const double FillA = F.WeirdFill ? F.Spec.WeirdFill : F.Spec.Fill;
  const bool SparseB = R.nextBool(0.35);
  F.ThirdOperand = R.nextBool(0.35);
  const bool SparseC = F.ThirdOperand && R.nextBool(0.6);
  const unsigned OrderA = 2 + static_cast<unsigned>(R.nextIndex(2));

  // A's indices: distinct names from the pool.
  std::vector<std::string> Names = Pool;
  std::shuffle(Names.begin(), Names.end(), R.engine());
  std::vector<std::string> AIdx(Names.begin(), Names.begin() + OrderA);

  // Extra operands over 1-2 indices overlapping A or fresh.
  auto drawOperandIndices = [&]() {
    unsigned Order = 1 + static_cast<unsigned>(R.nextIndex(2));
    std::vector<std::string> Idx;
    for (unsigned M = 0; M < Order; ++M)
      Idx.push_back(Pool[R.nextIndex(Pool.size())]);
    std::set<std::string> S(Idx.begin(), Idx.end());
    Idx.assign(S.begin(), S.end()); // distinct modes
    return Idx;
  };
  std::vector<std::string> BIdx = drawOperandIndices();
  std::vector<std::string> CIdx =
      F.ThirdOperand ? drawOperandIndices() : std::vector<std::string>();

  // Output: random subset of the used indices (possibly scalar).
  std::vector<std::string> Used = AIdx;
  for (const std::string &I : BIdx)
    if (std::find(Used.begin(), Used.end(), I) == Used.end())
      Used.push_back(I);
  for (const std::string &I : CIdx)
    if (std::find(Used.begin(), Used.end(), I) == Used.end())
      Used.push_back(I);
  std::vector<std::string> OutIdx;
  for (const std::string &I : Used)
    if (R.nextBool(0.4))
      OutIdx.push_back(I);

  auto Access = [](const std::string &T,
                   const std::vector<std::string> &Idx) {
    std::string Out = T + "[";
    for (size_t I = 0; I < Idx.size(); ++I)
      Out += (I ? "," : "") + Idx[I];
    return Out + "]";
  };
  std::ostringstream Text;
  Text << "O[";
  for (size_t I = 0; I < OutIdx.size(); ++I)
    Text << (I ? "," : "") << OutIdx[I];
  Text << "] " << F.Spec.ReduceTok;
  if (F.Spec.CombineTok) {
    Text << Access("A", AIdx) << " " << F.Spec.CombineTok << " "
         << Access("B", BIdx);
    if (F.ThirdOperand)
      Text << " " << F.Spec.CombineTok << " " << Access("C", CIdx);
  } else if (F.ThirdOperand) {
    Text << F.Spec.CombineCall << "(" << F.Spec.CombineCall << "("
         << Access("A", AIdx) << ", " << Access("B", BIdx) << "), "
         << Access("C", CIdx) << ")";
  } else {
    Text << F.Spec.CombineCall << "(" << Access("A", AIdx) << ", "
         << Access("B", BIdx) << ")";
  }

  F.E = parseEinsum("fuzz" + std::to_string(Seed), Text.str());
  // Random loop order over every index.
  std::vector<std::string> Loops = F.E.allIndices();
  std::shuffle(Loops.begin(), Loops.end(), R.engine());
  F.E.LoopOrder = Loops;

  const bool Boolean = F.Spec.S == Semiring::Boolean;
  const unsigned NB = static_cast<unsigned>(BIdx.size());
  const TensorFormat FmtA = randomFormat(OrderA, R);
  const TensorFormat FmtB =
      SparseB ? randomFormat(NB, R) : TensorFormat::dense(NB);
  const double FillB = FmtB.isAllDense() ? 0.0 : FillA;
  F.E.declare("A", FmtA, FillA);
  F.E.setSymmetry("A", Partition::full(OrderA));
  F.E.declare("B", FmtB, FillB);

  Tensor A = generateSymmetricTensor(OrderA, Dim, 3 * Dim, R, FmtA, FillA);
  if (Quantize)
    quantize(A, Boolean);
  F.Inputs.emplace("A", std::move(A));
  auto makeOperand = [&](unsigned N, const TensorFormat &Fmt,
                         double Fill) {
    Tensor T;
    if (!Fmt.isAllDense()) {
      T = N >= 2 ? generateSymmetricTensor(N, Dim, 2 * Dim, R, Fmt, Fill)
                 : randomSparseVector(Dim, R, Fmt, Fill);
    } else {
      std::vector<int64_t> TDims(N, Dim); // N >= 1 by construction
      T = Tensor::dense(TDims);
      for (double &V : T.vals())
        V = R.nextDouble();
    }
    if (Quantize)
      quantize(T, Boolean);
    return T;
  };
  F.Inputs.emplace("B", makeOperand(NB, FmtB, FillB));
  if (F.ThirdOperand) {
    const unsigned NC = static_cast<unsigned>(CIdx.size());
    const TensorFormat FmtC =
        SparseC ? randomFormat(NC, R) : TensorFormat::dense(NC);
    const double FillC = FmtC.isAllDense() ? 0.0 : FillA;
    F.E.declare("C", FmtC, FillC);
    F.Inputs.emplace("C", makeOperand(NC, FmtC, FillC));
  }

  F.OutDims.assign(std::max<size_t>(OutIdx.size(), 1), Dim);
  if (OutIdx.empty())
    F.OutDims = {1};
  F.OutInit = opInfo(F.Spec.Reduce).Identity;
  return F;
}

/// A stand-in for the case input \p T: same format, dims and fill, its
/// own values and sparsity (fuzz inputs are square, extent dim(0)).
inline Tensor decoyLike(const Tensor &T, Rng &R, bool Boolean) {
  Tensor D;
  if (T.format().isAllDense()) {
    D = Tensor::dense(T.dims(), T.fill());
    for (double &V : D.vals())
      V = R.nextDouble();
  } else if (T.order() >= 2) {
    const int64_t Dim = T.dim(0);
    D = generateSymmetricTensor(T.order(), Dim,
                                (1 + R.nextIndex(3)) * Dim, R, T.format(),
                                T.fill());
  } else {
    D = randomSparseVector(T.dim(0), R, T.format(), T.fill());
  }
  quantize(D, Boolean);
  return D;
}

inline std::string caseTrace(const FuzzCase &F) {
  std::string Out = F.E.str() + "  loops: " + joinAny(F.E.LoopOrder, ",") +
                    "  semiring: " + F.Spec.Name +
                    "  A: " + F.E.decl("A").Format.str() +
                    "  B: " + F.E.decl("B").Format.str();
  if (F.ThirdOperand)
    Out += "  C: " + F.E.decl("C").Format.str();
  if (F.WeirdFill)
    Out += "  (non-annihilating fill)";
  return Out;
}

/// Validation tier requested via the SYSTEC_VALIDATE env var ("deep" /
/// "shallow"; anything else means none). CI's sanitizer replay sets
/// "deep" so every checked-in seed also exercises Tensor::validate on
/// the way in; read once, applied at the single run() choke point.
inline ValidationLevel envValidationLevel() {
  static const ValidationLevel V = [] {
    const char *E = std::getenv("SYSTEC_VALIDATE");
    if (!E)
      return ValidationLevel::None;
    const std::string S(E);
    if (S == "deep")
      return ValidationLevel::Deep;
    if (S == "shallow")
      return ValidationLevel::Shallow;
    return ValidationLevel::None;
  }();
  return V;
}

inline Tensor run(const Kernel &K, FuzzCase &F,
                  const ExecOptions &O = ExecOptions(),
                  CounterSnapshot *Counts = nullptr) {
  Tensor Out = Tensor::dense(F.OutDims, 0.0);
  Out.setAllValues(F.OutInit);
  ExecOptions Opts = O;
  if (Opts.ValidateInputs == ValidationLevel::None)
    Opts.ValidateInputs = envValidationLevel();
  Executor E(K, Opts);
  for (auto &[Name, T] : F.Inputs)
    E.bind(Name, &T);
  E.bind("O", &Out);
  obs::ExecReport Rep;
  EXPECT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(E.tryRun(&Rep).ok());
  if (Counts)
    *Counts = Rep.Counters;
  return Out;
}

/// The engine list a (fused, blocking) toggle pair of the matrix
/// stands for; blocking is ignored when fused is off.
inline std::vector<Engine> fuzzEngines(bool Fused, bool Blocking) {
  if (!Fused)
    return {Engine::Interp};
  if (!Blocking)
    return {Engine::Fused, Engine::Interp};
  return {Engine::Blocked, Engine::Fused, Engine::Interp};
}

/// Seed-derived parallel execution options: random thread count,
/// privatization budget and engine toggles (the parallel-runtime and
/// specialization-layer fuzz pass).
inline ExecOptions parallelOptions(uint64_t Seed) {
  Rng R(Seed ^ 0x9E3779B97F4A7C15ull);
  ExecOptions O;
  const unsigned Threads[] = {2, 3, 4, 8};
  O.Threads = Threads[R.nextIndex(4)];
  // An unused draw, where a chunk-policy choice used to sit: it keeps
  // the budget and engine draws of every persisted seed unchanged.
  (void)R.nextIndex(4);
  if (R.nextBool(0.25))
    O.PrivatizationBudgetBytes = 512; // exercise the inner-loop fallback
  const bool Fused = R.nextBool(0.5);
  const bool Blocking = R.nextBool(0.5);
  O.Engines = fuzzEngines(Fused, Blocking);
  return O;
}

/// Runs \p K with counters on and takes the counts from its report.
inline Tensor runCounted(const Kernel &K, FuzzCase &F, const ExecOptions &O,
                         CounterSnapshot &Snap) {
  setCountersEnabled(true);
  return run(K, F, O, &Snap);
}

//===----------------------------------------------------------------------===//
// Checks (shared by fuzz_test and fuzz_replay)
//===----------------------------------------------------------------------===//

inline void checkCompiledKernelsMatchOracle(uint64_t Seed) {
  FuzzCase F = makeCase(Seed);
  SCOPED_TRACE(caseTrace(F));
  CompileResult R = compileEinsum(F.E);
  std::map<std::string, const Tensor *> In;
  for (auto &[Name, T] : F.Inputs)
    In[Name] = &T;
  Tensor Ref = oracleEval(F.E, In);
  Tensor Naive = run(R.Naive, F);
  Tensor Opt = run(R.Optimized, F);
  EXPECT_LT(Tensor::maxAbsDiff(Naive, Ref), 1e-8) << "naive";
  EXPECT_LT(Tensor::maxAbsDiff(Opt, Ref), 1e-8) << "optimized";
  // Parallel runtime fuzz: a random thread count must reproduce the
  // oracle too.
  ExecOptions Par = parallelOptions(Seed);
  SCOPED_TRACE(std::string("threads ") + std::to_string(Par.Threads) +
               " engines " + enginesSummary(Par.Engines));
  Tensor NaivePar = run(R.Naive, F, Par);
  Tensor OptPar = run(R.Optimized, F, Par);
  EXPECT_LT(Tensor::maxAbsDiff(NaivePar, Ref), 1e-8) << "naive-parallel";
  EXPECT_LT(Tensor::maxAbsDiff(OptPar, Ref), 1e-8) << "optimized-parallel";
}

/// Exact equality of the four runtime counters (the per-cell parity
/// contract shared by every differential harness).
inline void expectCountersEqual(const CounterSnapshot &A,
                                const CounterSnapshot &B) {
  EXPECT_EQ(A.SparseReads, B.SparseReads);
  EXPECT_EQ(A.Reductions, B.Reductions);
  EXPECT_EQ(A.ScalarOps, B.ScalarOps);
  EXPECT_EQ(A.OutputWrites, B.OutputWrites);
}

/// Whether the JIT cell of the matrix can run at all; logs the reason
/// once when it cannot (no host compiler / SYSTEC_JIT_DISABLE), so a
/// degraded environment skips the cell visibly instead of silently.
inline bool nativeCellEnabled() {
  static const bool Enabled = [] {
    std::string Reason;
    if (jit::NativeKernelCache::compilerAvailable(&Reason))
      return true;
    std::fprintf(stderr,
                 "[fuzz] native cells disabled (%s); the JIT cell of "
                 "the matrix is skipped\n",
                 Reason.c_str());
    return false;
  }();
  return Enabled;
}

/// The rebind cell of checkCellMatrix (see there).
inline void checkRebindCell(const Kernel &K, FuzzCase &F, const Tensor &Ref,
                            const CounterSnapshot &Interp1, uint64_t Seed,
                            bool NativeCell) {
  Rng RR(Seed ^ 0x5EB1D0DEC0Dull);
  const bool Boolean = F.Spec.S == Semiring::Boolean;
  std::map<std::string, Tensor> Decoys;
  for (const auto &[Name, T] : F.Inputs)
    Decoys.emplace(Name, decoyLike(T, RR, Boolean));
  ExecOptions O;
  O.Engines = fuzzEngines(RR.nextBool(0.5), RR.nextBool(0.5));
  const unsigned Threads[] = {1, 2, 4};
  O.Threads = Threads[RR.nextIndex(3)];
  if (NativeCell && nativeCellEnabled())
    O.Engines = {Engine::Native, Engine::Fused, Engine::Interp};
  O.ValidateInputs = envValidationLevel();
  SCOPED_TRACE("rebind engines " + enginesSummary(O.Engines) +
               " threads " + std::to_string(O.Threads));
  setCountersEnabled(true);

  Executor E(K, O);
  {
    Tensor DecoyOut = Tensor::dense(F.OutDims, 0.0);
    DecoyOut.setAllValues(F.OutInit);
    for (auto &[Name, T] : Decoys)
      E.bind(Name, &T);
    E.bind("O", &DecoyOut);
    ASSERT_TRUE(E.tryPrepare().ok());
    ASSERT_TRUE(E.tryRun().ok());
    Decoys.clear(); // a pointer the rebind missed now dangles
  }
  Tensor Out = Tensor::dense(F.OutDims, 0.0);
  Out.setAllValues(F.OutInit);
  std::map<std::string, Tensor *> Bindings{{"O", &Out}};
  for (auto &[Name, T] : F.Inputs)
    Bindings[Name] = &T;
  const Status S = E.rebind(Bindings, O);
  ASSERT_TRUE(S.ok()) << S.str();
  obs::ExecReport Rep;
  ASSERT_TRUE(E.tryRun(&Rep).ok());
  ASSERT_EQ(Out.vals().size(), Ref.vals().size());
  for (size_t I = 0; I < Out.vals().size(); ++I)
    EXPECT_EQ(Out.vals()[I], Ref.vals()[I]) << "element " << I;
  expectCountersEqual(Rep.Counters, Interp1);
}

/// Runs \p K across the {interpreter, micro-kernels} x {Threads 1, 4}
/// cell matrix: every cell must match \p Ref element for element
/// (which also makes the cells bit-identical to each other) and the
/// first cell counter for counter. \p BlockSeed randomizes the blocked
/// output engine across the fused cells — a seed-derived toggle, plus
/// one extra Threads=1 cell with the toggle flipped —
/// so every case differentially pins that blocking changes neither a
/// value bit nor a runtime counter.
///
/// \p NativeCell additionally runs native-1 and native-4 cells through
/// the JIT engine (Engine::Native first; a failed emission or build
/// falls back to fused per the engine contract, which must still match
/// the oracle). Callers subsample this cell — every fresh case is a
/// distinct TU, so each native cell costs one host-compiler invocation.
///
/// The rebind cell prepares and runs over decoy inputs (decoyLike),
/// destroys them, rebinds onto the case's inputs and runs again: the
/// values must match \p Ref and the counters interp-1's. Its decoys,
/// engine list and thread count come from their own seed-derived
/// stream (native-first on the \p NativeCell subsample), so the draws
/// of the cells above are unchanged.
inline void checkCellMatrix(const Kernel &K, FuzzCase &F,
                            const Tensor &Ref, uint64_t BlockSeed = 0,
                            bool NativeCell = false) {
  Rng BR(BlockSeed ^ 0xB10C6ED5EEDull);
  const bool Blk = BR.nextBool(0.5);
  struct Cell {
    const char *Name;
    bool Fused;
    unsigned Threads;
    bool Blocking;
  };
  const Cell Cells[] = {{"interp-1", false, 1, true},
                        {"fused-1", true, 1, Blk},
                        {"interp-4", false, 4, true},
                        {"fused-4", true, 4, Blk},
                        {"fused-1-altblock", true, 1, !Blk}};
  CounterSnapshot FirstSnap;
  for (const Cell &C : Cells) {
    SCOPED_TRACE(std::string(C.Name) +
                 (C.Fused ? (C.Blocking ? " blocking" : " noblocking")
                          : ""));
    ExecOptions O;
    O.Engines = fuzzEngines(C.Fused, C.Blocking);
    O.Threads = C.Threads;
    CounterSnapshot Snap;
    Tensor Out = runCounted(K, F, O, Snap);
    ASSERT_EQ(Out.vals().size(), Ref.vals().size());
    for (size_t I = 0; I < Out.vals().size(); ++I)
      EXPECT_EQ(Out.vals()[I], Ref.vals()[I]) << "element " << I;
    if (&C == &Cells[0]) {
      FirstSnap = Snap;
      continue;
    }
    expectCountersEqual(Snap, FirstSnap);
  }
  // The JIT cells: the native engine is sequential by contract (it
  // reproduces the Threads=1 fold order at any thread count), so both
  // cells must be bit-identical to the oracle and counter-identical to
  // interp-1.
  if (NativeCell && nativeCellEnabled()) {
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE("native-" + std::to_string(Threads));
      ExecOptions O;
      O.Engines = {Engine::Native, Engine::Fused, Engine::Interp};
      O.Threads = Threads;
      CounterSnapshot Snap;
      Tensor Out = runCounted(K, F, O, Snap);
      ASSERT_EQ(Out.vals().size(), Ref.vals().size());
      for (size_t I = 0; I < Out.vals().size(); ++I)
        EXPECT_EQ(Out.vals()[I], Ref.vals()[I]) << "element " << I;
      expectCountersEqual(Snap, FirstSnap);
    }
  }
  checkRebindCell(K, F, Ref, FirstSnap, BlockSeed, NativeCell);
}

inline void checkMicroKernelsBitIdentical(uint64_t Seed) {
  // The specialization-layer oracle: with micro-kernels on vs. off, the
  // same plan must produce bit-identical outputs and exactly equal
  // execution counters on both compiled kernels. Neither side is the
  // dense oracle, so the data stays real-valued: a fused loop that
  // reorders any reduction shows here, where integer data would hide
  // it.
  FuzzCase F = makeCase(Seed, /*Quantize=*/false);
  SCOPED_TRACE(caseTrace(F));
  CompileResult R = compileEinsum(F.E);
  ExecOptions Interp, Fused;
  Interp.Engines = {Engine::Interp};
  // Blocking must be invisible to this differential too: randomize the
  // toggle from the seed.
  Rng BR(Seed ^ 0xB10C6ED5EEDull);
  Fused.Engines = fuzzEngines(true, BR.nextBool(0.5));
  for (const Kernel *K : {&R.Naive, &R.Optimized}) {
    SCOPED_TRACE(K == &R.Naive ? "naive" : "optimized");
    CounterSnapshot SI, SF;
    Tensor OutI = runCounted(*K, F, Interp, SI);
    Tensor OutF = runCounted(*K, F, Fused, SF);
    ASSERT_EQ(OutI.vals().size(), OutF.vals().size());
    for (size_t I = 0; I < OutI.vals().size(); ++I)
      EXPECT_EQ(OutI.vals()[I], OutF.vals()[I]) << "element " << I;
    expectCountersEqual(SI, SF);
  }
}

inline void checkDifferentialMatrix(uint64_t Seed) {
  // The semiring x format matrix: {interpreter, micro-kernels} x
  // {Threads 1, 4} must agree bit for bit with each other and exactly
  // with the dense oracle (integer data makes every reduction exact,
  // so results are decomposition-independent), and the four runtime
  // counters must be identical in every cell.
  FuzzCase F = makeCase(Seed);
  SCOPED_TRACE(caseTrace(F));
  CompileResult R = compileEinsum(F.E);
  std::map<std::string, const Tensor *> In;
  for (auto &[Name, T] : F.Inputs)
    In[Name] = &T;
  Tensor Ref = oracleEval(F.E, In);
  // The JIT cells are subsampled (one seed in eight): every fresh case
  // is a new TU, so each costs a host-compiler invocation; the sample
  // still sweeps the full semiring x format space over a long run, and
  // any failing seed replays with its native cells intact.
  const bool NativeCell = (Seed % 8) == 0;
  for (const Kernel *K : {&R.Naive, &R.Optimized}) {
    SCOPED_TRACE(K == &R.Naive ? "naive" : "optimized");
    checkCellMatrix(*K, F, Ref, Seed, NativeCell);
  }
}

//===----------------------------------------------------------------------===//
// Lut-operand harness
//===----------------------------------------------------------------------===//

/// Rebuilds \p S with \p OnAssign applied to every Assign, preserving
/// loop parallel annotations (so the Threads axis stays meaningful).
/// OnAssign additionally receives the loop indices bound at the
/// assignment's position, outermost first — a lookup table may only
/// compare indices that are actually in scope there.
inline StmtPtr mapAssigns(
    const StmtPtr &S, std::vector<std::string> &Bound,
    const std::function<StmtPtr(const StmtPtr &,
                                const std::vector<std::string> &)>
        &OnAssign) {
  switch (S->kind()) {
  case StmtKind::Block: {
    std::vector<StmtPtr> Children;
    for (const StmtPtr &Child : S->stmts())
      Children.push_back(mapAssigns(Child, Bound, OnAssign));
    return Stmt::block(std::move(Children));
  }
  case StmtKind::Loop: {
    Bound.push_back(S->loopIndex());
    StmtPtr Body = mapAssigns(S->body(), Bound, OnAssign);
    Bound.pop_back();
    return Stmt::loop(S->loopIndex(), std::move(Body))
        ->withParallel(S->parallelInfo());
  }
  case StmtKind::If:
    return Stmt::ifThen(S->condition(),
                        mapAssigns(S->body(), Bound, OnAssign));
  case StmtKind::Assign:
    return OnAssign(S, Bound);
  default:
    return S; // DefScalar / Replicate: shared untouched
  }
}

/// Injects a random lookup-table factor into every assignment of \p K
/// (combined with the semiring's combine operator, so the program stays
/// a left-deep chain the specializer can fold). Each assignment's bits
/// compare only the loop indices bound at its position — bits over the
/// innermost index leave the leaf to the interpreter, bits over outer
/// indices bind as constants in a fused leaf. The table holds small
/// integers, keeping reductions exact.
inline Kernel injectLut(const Kernel &K, const SemiringSpec &Spec,
                        Rng &R) {
  const bool Boolean = Spec.S == Semiring::Boolean;
  const CmpKind Kinds[] = {CmpKind::EQ, CmpKind::NE, CmpKind::LE,
                           CmpKind::LT, CmpKind::GE, CmpKind::GT};
  Kernel Out = K;
  std::vector<std::string> Bound;
  Out.Body = mapAssigns(
      K.Body, Bound,
      [&](const StmtPtr &As, const std::vector<std::string> &InScope) {
        if (InScope.empty())
          return As;
        const unsigned NBits = 1 + static_cast<unsigned>(R.nextIndex(2));
        std::vector<CmpAtom> Bits;
        for (unsigned B = 0; B < NBits; ++B) {
          const std::string &L = InScope[R.nextIndex(InScope.size())];
          const std::string &Rhs = InScope[R.nextIndex(InScope.size())];
          Bits.push_back(CmpAtom{Kinds[R.nextIndex(6)], L, Rhs});
        }
        std::vector<double> Table(size_t(1) << Bits.size());
        for (double &V : Table)
          V = Boolean ? static_cast<double>(R.nextIndex(2))
                      : static_cast<double>(1 + R.nextIndex(4));
        return Stmt::assign(
            As->lhs(), As->reduceOp(),
            Expr::call(Spec.Combine,
                       {As->rhs(), Expr::lut(std::move(Bits),
                                             std::move(Table))}),
            As->multiplicity());
      });
  return Out;
}

inline void checkLutDifferential(uint64_t Seed) {
  // Lut operands through the fused engines: the naive kernel (every
  // loop index bound at its assignments) gains a random lookup-table
  // factor; {interpreter, micro-kernels} x {Threads 1, 4} must agree
  // bit for bit and counter for counter, and all four cells must match
  // the walker-free executor — the dense-iteration oracle, which
  // evaluates the exact same kernel semantics over the full index
  // space.
  FuzzCase F = makeCase(Seed);
  Rng LutR(Seed ^ 0xA5A5A5A55A5A5A5Aull);
  CompileResult R = compileEinsum(F.E);
  Kernel K = injectLut(R.Naive, F.Spec, LutR);
  SCOPED_TRACE(caseTrace(F));
  SCOPED_TRACE("lut-injected: " + K.Body->str(0));
  ExecOptions OracleOpts;
  OracleOpts.EnableSparseWalk = false;
  OracleOpts.Engines = {Engine::Interp};
  Tensor Ref = run(K, F, OracleOpts);
  checkCellMatrix(K, F, Ref, Seed, (Seed % 8) == 0);
}

//===----------------------------------------------------------------------===//
// Seed persistence and replay
//===----------------------------------------------------------------------===//

/// Dispatches one harness by name (the `harness=` key of a seed file).
inline bool runHarness(const std::string &Harness, uint64_t Seed) {
  if (Harness == "oracle") {
    checkCompiledKernelsMatchOracle(Seed);
  } else if (Harness == "bitident") {
    checkMicroKernelsBitIdentical(Seed);
  } else if (Harness == "matrix") {
    checkDifferentialMatrix(Seed);
  } else if (Harness == "lut") {
    checkLutDifferential(Seed);
  } else {
    return false;
  }
  return true;
}

/// Writes `tests/seeds/<harness>-<seed>.seed` when the current test has
/// recorded a failure, so the failing input replays forever under the
/// `fuzz_replay` unit target. Requires SYSTEC_SEED_DIR (set by CMake
/// for the fuzz binaries).
inline void persistSeedIfFailed(const std::string &Harness, uint64_t Seed) {
#ifdef SYSTEC_SEED_DIR
  if (!::testing::Test::HasFailure())
    return;
  std::error_code Ec;
  std::filesystem::create_directories(SYSTEC_SEED_DIR, Ec);
  const std::string Path = std::string(SYSTEC_SEED_DIR) + "/" + Harness +
                           "-" + std::to_string(Seed) + ".seed";
  std::ofstream Out(Path);
  if (!Out)
    return;
  Out << "harness=" << Harness << "\n";
  Out << "seed=" << Seed << "\n";
  Out << "trace=" << caseTrace(makeCase(Seed)) << "\n";
  std::fprintf(stderr, "[fuzz] persisted failing seed to %s\n",
               Path.c_str());
#endif
}

/// One parsed seed file. Valid is false when the file is malformed (no
/// parseable `seed=` line) — replay reports that instead of crashing
/// or silently replaying seed 0. Trace, when recorded, pins the case
/// the seed stood for: makeCase's draw order may change across PRs
/// (this PR's third operand did exactly that), and a drifted corpus
/// would otherwise keep passing while guarding nothing.
struct SeedFile {
  std::string Harness;
  uint64_t Seed = 0;
  std::string Trace;
  bool Valid = false;
};

inline std::vector<std::pair<std::string, SeedFile>>
loadSeedFiles(const std::string &Dir) {
  std::vector<std::pair<std::string, SeedFile>> Out;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Dir, Ec)) {
    if (Entry.path().extension() != ".seed")
      continue;
    std::ifstream In(Entry.path());
    SeedFile S;
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.rfind("harness=", 0) == 0) {
        S.Harness = Line.substr(8);
      } else if (Line.rfind("seed=", 0) == 0) {
        const std::string Value = Line.substr(5);
        char *End = nullptr;
        const unsigned long long Parsed =
            std::strtoull(Value.c_str(), &End, 10);
        if (End != Value.c_str() && *End == '\0') {
          S.Seed = Parsed;
          S.Valid = true;
        }
      } else if (Line.rfind("trace=", 0) == 0) {
        S.Trace = Line.substr(6);
      }
    }
    Out.push_back({Entry.path().filename().string(), S});
  }
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Out;
}

} // namespace fuzzharness
} // namespace systec

#endif // SYSTEC_TESTS_FUZZHARNESS_H
