//===- perfbench/src/KernelsExec.cpp - Warm kernel execution --*- C++ -*-===//
///
/// \file
/// Workload `kernels-exec`: closed loop, one client. The paper's eight
/// kernels are prepared once, at sizes where a default-engine call takes
/// a few milliseconds, under four variants — {default engines,
/// Engine::Native first} x Threads {1, 2} — and then run round after
/// round (every op kind once per round; the end-to-end run times the
/// Threads=1 kinds, see runKernelsExec). One op is tryRunBody +
/// tryRunEpilogue; the output is reset before and checked after it,
/// outside the timed interval.
///
/// Why: the execution engines, the epilogue, the native engine and the
/// parallel runtime do nearly all the work here; the front end, prepare
/// and the service appear only in set-up.
///
//===----------------------------------------------------------------------===//

#include "Cases.h"
#include "Common.h"

#include "core/Compiler.h"
#include "jit/NativeKernelCache.h"
#include "runtime/Executor.h"
#include "support/Counters.h"
#include "support/Random.h"

#include <algorithm>
#include <memory>

using namespace systec;

namespace pb {

namespace {

struct Variant {
  const char *Name;
  bool Native;
  unsigned Threads;
};
/// Untimed rounds before the measurement (see runKernelsExec).
constexpr double WarmupSeconds = 3;

const Variant Variants[] = {{"default-t1", false, 1},
                            {"default-t2", false, 2},
                            {"native-t1", true, 1},
                            {"native-t2", true, 2}};

CaseSize execSize(const std::string &K) {
  if (K == "ssymv" || K == "bellmanford" || K == "syprd")
    return {4000, 127000, 0};
  if (K == "ssyrk")
    return {400, 3200, 0};
  if (K == "ttm")
    return {50, 8000, 16};
  if (K == "mttkrp3")
    return {100, 8000, 16};
  if (K == "mttkrp4")
    return {60, 3000, 16};
  return {40, 2000, 16}; // mttkrp5
}

ExecOptions variantOptions(const Variant &V, const std::string &JitDir) {
  ExecOptions O;
  O.Threads = V.Threads;
  if (V.Native) {
    O.Engines = {Engine::Native, Engine::Blocked, Engine::Fused,
                 Engine::Interp};
    O.NativeCacheDir = JitDir;
  }
  return O;
}

struct Op {
  KernelCase *Case = nullptr;
  const Variant *V = nullptr;
  std::string Label; ///< "<kernel>.<variant>"
  uint32_t Tag = 0;
  std::unique_ptr<Executor> Ex;
  Tensor Out;
  std::vector<double> Ms;       ///< untraced op latencies
  std::vector<double> TracedMs; ///< latencies with spans recorded
  CounterSnapshot Counters;
};

struct SetupState {
  std::vector<std::unique_ptr<KernelCase>> Cases;
  std::vector<Kernel> Naive; ///< per case, for the traced ledger
  std::vector<std::unique_ptr<Op>> Ops;
};

/// Generates inputs and references, compiles every kernel, and prepares
/// all 32 executors (the native ones JIT-compile into \p JitDir).
std::unique_ptr<SetupState> setUp(RunContext &Ctx, const std::string &JitDir) {
  auto S = std::make_unique<SetupState>();
  for (const std::string &K : paperKernels()) {
    auto C = std::make_unique<KernelCase>(
        makeCase(K, execSize(K), Ctx.Seed, Reference::Baseline));
    const uint32_t KTag = tracer().tag(K);
    CompileResult CR = [&] {
      Scope Span("core.compileEinsum", KTag);
      return compileEinsum(C->E);
    }();
    S->Naive.push_back(CR.Naive);
    for (const Variant &V : Variants) {
      auto O = std::make_unique<Op>();
      O->Case = C.get();
      O->V = &V;
      O->Label = K + "." + V.Name;
      O->Tag = tracer().tag(O->Label);
      O->Out = C->freshOutput();
      O->Ex = std::make_unique<Executor>(CR.Optimized,
                                         variantOptions(V, JitDir));
      for (auto &[Name, T] : C->bindings(O->Out))
        O->Ex->bind(Name, T);
      Status St = [&] {
        Scope Span("runtime.tryPrepare", O->Tag);
        return O->Ex->tryPrepare();
      }();
      if (!St.ok()) {
        std::fprintf(stderr, "prepare %s failed: %s\n", O->Label.c_str(),
                     St.str().c_str());
        std::exit(2);
      }
      S->Ops.push_back(std::move(O));
    }
    S->Cases.push_back(std::move(C));
  }
  return S;
}

/// One op: reset, then (timed) body + epilogue, then check.
bool runOp(Op &O, uint64_t Req, double &Ms) {
  O.Out.setAllValues(O.Case->OutFill);
  bool Ok;
  const uint64_t T0 = nowNs();
  {
    Scope Root("op", O.Tag, Req);
    Status B = [&] {
      Scope Span("runtime.tryRunBody", O.Tag);
      return O.Ex->tryRunBody();
    }();
    Status E = [&] {
      Scope Span("runtime.tryRunEpilogue", O.Tag);
      return O.Ex->tryRunEpilogue();
    }();
    Ok = B.ok() && E.ok();
  }
  Ms = nsToMs(nowNs() - T0);
  return Ok && outputMatches(O.Out, O.Case->Expected);
}

/// Closed loop for \p Seconds over the op kinds \p Kinds, in rounds:
/// every kind once per round, so every kind collects the same number of
/// samples. A round runs the Threads=1 kinds, then the Threads=2 kinds,
/// each group in a shuffled order. With \p Alternate, odd rounds record
/// spans (into TracedMs), so traced and untraced samples see the same
/// machine conditions.
void timedLoop(RunContext &Ctx, SetupState &S,
               const std::vector<size_t> &Kinds, double Seconds, Rng &R,
               bool Alternate) {
  std::vector<size_t> Groups[2];
  for (size_t I : Kinds)
    Groups[S.Ops[I]->V->Threads > 1].push_back(I);
  const uint64_t Deadline = nowNs() + uint64_t(Seconds * 1e9);
  uint64_t Req = 0;
  for (uint64_t Round = 0; Round < 2 || nowNs() < Deadline; ++Round) {
    tracer().On = Alternate && Round % 2;
    for (std::vector<size_t> &Order : Groups) {
      std::shuffle(Order.begin(), Order.end(), R.engine());
      for (size_t I : Order) {
        Op &O = *S.Ops[I];
        double Ms = 0;
        tally(Ctx, runOp(O, ++Req, Ms));
        (tracer().On ? O.TracedMs : O.Ms).push_back(Ms);
      }
    }
  }
  tracer().On = false;
}

bool sameExactCounters(const CounterSnapshot &A, const CounterSnapshot &B) {
  return A.SparseReads == B.SparseReads && A.Reductions == B.Reductions &&
         A.ScalarOps == B.ScalarOps && A.OutputWrites == B.OutputWrites;
}

/// One counters-on op per kind, twice: the exact counters must repeat.
/// Returns an FNV digest of all of them (equal across runs and seeds).
uint64_t countOps(RunContext &Ctx, SetupState &S) {
  setCountersEnabled(true);
  uint64_t Digest = 1469598103934665603ull;
  for (auto &OP : S.Ops) {
    Op &O = *OP;
    CounterSnapshot Runs[2];
    for (CounterSnapshot &C : Runs) {
      O.Out.setAllValues(O.Case->OutFill);
      obs::ExecReport Rep;
      const bool Ok = O.Ex->tryRunBody(&Rep).ok() &&
                      O.Ex->tryRunEpilogue(&Rep).ok() &&
                      outputMatches(O.Out, O.Case->Expected);
      tally(Ctx, Ok);
      C = Rep.Counters;
    }
    O.Counters = Runs[0];
    if (!sameExactCounters(Runs[0], Runs[1])) {
      Ctx.note("counters did not repeat for " + O.Label);
      ++Ctx.Failed;
    }
    for (uint64_t V : {O.Counters.SparseReads, O.Counters.Reductions,
                       O.Counters.ScalarOps, O.Counters.OutputWrites})
      Digest = (Digest ^ V) * 1099511628211ull;
  }
  setCountersEnabled(false);
  return Digest;
}

Op &findOp(SetupState &S, const std::string &K, const char *Variant) {
  for (auto &O : S.Ops)
    if (O->Case->Name == K && std::string(O->V->Name) == Variant)
      return *O;
  std::abort();
}

/// The per-layer ledger that only the traced run computes.
void ledger(RunContext &Ctx, SetupState &S) {
  // runtime: body per variant, epilogue per kernel (traced half).
  for (auto &O : S.Ops) {
    Ctx.metric("runtime.body_ms." + O->Label,
               median(tracer().durationsMs("runtime.tryRunBody", O->Tag)),
               "ms");
    if (std::string(O->V->Name) == "default-t1")
      Ctx.metric(
          "runtime.epilogue_ms." + O->Case->Name,
          median(tracer().durationsMs("runtime.tryRunEpilogue", O->Tag)),
          "ms");
  }

  // core: the naive kernel, once per kernel for its exact reads, then a
  // few timed ops for the speed-up over the optimized default-t1 op.
  for (size_t CI = 0; CI < S.Cases.size(); ++CI) {
    KernelCase &C = *S.Cases[CI];
    Op &Opt = findOp(S, C.Name, "default-t1");
    Tensor Out = C.freshOutput();
    Executor Naive(S.Naive[CI], ExecOptions());
    for (auto &[Name, T] : C.bindings(Out))
      Naive.bind(Name, T);
    if (!Naive.tryPrepare().ok()) {
      tally(Ctx, false);
      continue;
    }
    setCountersEnabled(true);
    obs::ExecReport Rep;
    tally(Ctx, Naive.tryRunBody(&Rep).ok() &&
                   Naive.tryRunEpilogue(&Rep).ok() &&
                   outputMatches(Out, C.Expected));
    setCountersEnabled(false);
    std::vector<double> Ms;
    const uint64_t Budget = nowNs() + 1500000000ull;
    while (Ms.size() < 5 && (Ms.size() < 2 || nowNs() < Budget)) {
      Out.setAllValues(C.OutFill);
      const uint64_t T0 = nowNs();
      const bool Ok = Naive.tryRunBody().ok() && Naive.tryRunEpilogue().ok();
      Ms.push_back(nsToMs(nowNs() - T0));
      tally(Ctx, Ok && outputMatches(Out, C.Expected));
    }
    Ctx.metric("core.sym_speedup." + C.Name, median(Ms) / median(Opt.Ms),
               "x");
    Ctx.metric("core.read_ratio." + C.Name,
               double(Opt.Counters.SparseReads) /
                   double(std::max<uint64_t>(Rep.Counters.SparseReads, 1)),
               "ratio");
  }

  // Work, computed bytes and ceiling. Flops = ScalarOps + Reductions;
  // computed bytes = 16 per sparse read (value + coordinate) + 16 per
  // output write (read-modify-write of a double) — a model, not a
  // measurement of memory traffic.
  const Ceiling Peak = probeCeiling(Ctx);
  Ctx.metric("probe.triad_gbs", Peak.TriadGBs, "GB/s");
  Ctx.metric("probe.fma_gflops", Peak.FmaGFlops, "GFLOP/s");
  for (auto &C : S.Cases)
    for (const char *V : {"default-t1", "native-t1"}) {
      Op &O = findOp(S, C->Name, V);
      const double Flops =
          double(O.Counters.ScalarOps + O.Counters.Reductions);
      const double Bytes = 16.0 * double(O.Counters.SparseReads) +
                           16.0 * double(O.Counters.OutputWrites);
      const double Secs = median(O.Ms) / 1e3;
      const double Attainable =
          std::min(Peak.FmaGFlops, Flops / Bytes * Peak.TriadGBs);
      const double Achieved = Flops / Secs / 1e9;
      Ctx.metric("runtime.roofline_pct." + C->Name + "." +
                     std::string(V).substr(0, std::string(V).find('-')),
                 100.0 * Achieved / Attainable, "%");
      Ctx.note(fmt("work %-18s flops=%.0f computed_bytes=%.0f "
                   "gflops=%.3f computed_gbs=%.3f",
                   O.Label.c_str(), Flops, Bytes, Achieved,
                   Bytes / Secs / 1e9));
    }

  // Engine coverage.
  uint64_t Fused = 0, Generic = 0, NativeOn = 0, NativeAsked = 0;
  for (auto &O : S.Ops) {
    if (std::string(O->V->Name) == "default-t1") {
      Fused += O->Ex->microKernelStats().SpecializedLoops;
      Generic += O->Ex->microKernelStats().GenericLoops;
    }
    if (O->V->Native) {
      ++NativeAsked;
      NativeOn += O->Ex->usesNativeEngine();
      if (!O->Ex->usesNativeEngine())
        Ctx.note("native fell back for " + O->Label + ": " +
                 O->Ex->nativeStatus().str());
    }
  }
  Ctx.metric("runtime.fused_loop_frac",
             double(Fused) / double(std::max<uint64_t>(Fused + Generic, 1)),
             "frac");
  Ctx.metric("jit.native_frac", double(NativeOn) / double(NativeAsked),
             "frac");

  // jit: a cold NativeKernelCache::load of each kernel's emitted source
  // into an empty directory, with the in-process registry dropped.
  for (auto &C : S.Cases) {
    Op &O = findOp(S, C->Name, "native-t1");
    const std::string &Src = O.Ex->nativeSource();
    double Ms = 0;
    if (!Src.empty()) {
      jit::NativeKernelCache::instance().dropHandles();
      const std::string Dir = Ctx.scratchDir() + "/jit-ledger-" + C->Name;
      const uint64_t T0 = nowNs();
      bool Ok;
      {
        Scope Span("jit.NativeKernelCache::load", O.Tag);
        Ok = jit::NativeKernelCache::instance().load(Src, Dir).ok();
      }
      Ms = nsToMs(nowNs() - T0);
      tally(Ctx, Ok);
    }
    Ctx.metric("jit.compile_ms." + C->Name, Ms, "ms");
    obs::ExecReport Rep;
    O.Out.setAllValues(C->OutFill);
    if (O.Ex->tryRunBody(&Rep).ok())
      Ctx.note(fmt("program-reported native-compile %-12s %.3f ms "
                   "(outside load: %.3f ms)",
                   C->Name.c_str(), nsToMs(Rep.phaseNs("native-compile")),
                   Ms));
  }
}

} // namespace

void runKernelsExec(RunContext &Ctx) {
  // Set-up, three times into fresh JIT cache directories (each with the
  // in-process dlopen registry dropped, so every native prepare
  // compiles); the last one is kept. setup_s is their median.
  const int Reps = Ctx.Trace ? 1 : 3;
  std::vector<double> SetupS;
  std::unique_ptr<SetupState> S;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    S.reset();
    jit::NativeKernelCache::instance().dropHandles();
    const std::string JitDir =
        Ctx.scratchDir() + "/jit-setup-" + std::to_string(Rep);
    const uint64_t T0 = nowNs();
    S = setUp(Ctx, JitDir);
    SetupS.push_back(double(nowNs() - T0) / 1e9);
  }

  const uint64_t Digest = countOps(Ctx, *S);
  Ctx.ChecksRan = true;
  Ctx.note(fmt("counters digest %016llx (exact counters of all 32 op kinds; "
               "equal across runs and seeds)",
               (unsigned long long)Digest));

  // The timed loop. The end-to-end run times the Threads=1 kinds only:
  // on this class of shared virtual machine the t2 ops' speed depends on
  // where the kernel scheduler places the pool worker their caller wakes
  // (sometimes on the caller's own CPU), which flips from run to run and
  // doubles or triples their tails — the end-to-end numbers would read
  // the host, not the program. The Threads=2 executors are still prepared
  // (set-up) and checked (counters pass), and the traced run times all 32
  // kinds, so the runtime.body_ms t2/t1 pairs report the parallel layer.
  std::vector<size_t> Kinds;
  for (size_t I = 0; I < S->Ops.size(); ++I)
    if (Ctx.Trace || S->Ops[I]->V->Threads == 1)
      Kinds.push_back(I);

  // Warm-up rounds, checked but not recorded: caches, the allocator and
  // the kernel scheduler's placement of the pool workers settle first.
  Rng R(Ctx.Seed * 7919 + 17);
  setCountersEnabled(false);
  timedLoop(Ctx, *S, Kinds, WarmupSeconds, R, false);
  for (auto &O : S->Ops)
    O->Ms.clear();

  timedLoop(Ctx, *S, Kinds, Ctx.Seconds, R, Ctx.Trace);

  std::vector<std::pair<std::string, const std::vector<double> *>> Labels;
  for (size_t I : Kinds)
    Labels.push_back({S->Ops[I]->Label, &S->Ops[I]->Ms});
  const KindSummary Sum = summarizeKinds(Labels, Ctx);
  if (!Ctx.Trace) {
    closedLoopMetrics(Ctx, Sum, SetupS);
    return;
  }

  std::vector<double> TracedTyp;
  for (auto &O : S->Ops)
    TracedTyp.push_back(percentile(O->TracedMs, TypicalPct));
  Ctx.metric("trace.overhead_pct",
             100.0 * (geomean(TracedTyp) / Sum.TypGeo - 1.0), "%");
  tracer().On = true;
  ledger(Ctx, *S);
  tracer().On = false;
}

} // namespace pb
