//===- perfbench/src/CompileCold.cpp - Text to checked result -*- C++ -*-===//
///
/// \file
/// Workload `compile-cold`: closed loop, one client, cycling through the
/// eight paper kernels with default engines. One op takes einsum text to
/// a checked result: parseEinsum, the declarations a client would attach,
/// compileEinsum, a fresh Executor, tryPrepare, tryRunBody and
/// tryRunEpilogue. Inputs are small (extents 8-200), so the kernel body
/// is negligible; every result is checked against oracleEval.
///
/// Why: the front end (symmetrize is n! in the order: mttkrp5 compiles
/// in milliseconds where ssymv takes a fraction of one), plan compile and
/// specialize dominate here, and execution barely registers.
///
//===----------------------------------------------------------------------===//

#include "Cases.h"
#include "Common.h"

#include "core/Compiler.h"
#include "runtime/Executor.h"
#include "support/Counters.h"
#include "support/Random.h"

#include <algorithm>
#include <memory>
#include <numeric>

using namespace systec;

namespace pb {

namespace {

CaseSize coldSize(const std::string &K) {
  if (K == "ssymv" || K == "bellmanford" || K == "syprd")
    return {200, 1500, 0};
  if (K == "ssyrk")
    return {60, 300, 0};
  if (K == "ttm")
    return {20, 300, 8};
  if (K == "mttkrp3")
    return {24, 400, 8};
  if (K == "mttkrp4")
    return {14, 150, 4};
  return {8, 40, 4}; // mttkrp5
}

struct Kind {
  std::unique_ptr<KernelCase> Case;
  std::string Text; ///< the einsum as a client sends it
  uint32_t Tag = 0;
  std::vector<double> Ms, TracedMs;
  // Program-reported prepare split of each traced op (ExecReport).
  std::vector<double> PlanCompileMs, SpecializeMs, MaterializeMs;
};

/// One op. Returns whether it produced the expected output.
bool runOp(Kind &K, uint64_t Req, double &Ms) {
  const uint64_t T0 = nowNs();
  bool Ok = false;
  Tensor Out;
  {
    Scope Root("op", K.Tag, Req);
    Einsum E = [&] {
      Scope Span("ir.parseEinsum", K.Tag);
      return parseEinsum(K.Case->Name, K.Text);
    }();
    E.LoopOrder = K.Case->E.LoopOrder;
    E.Decls = K.Case->E.Decls;
    CompileResult CR = [&] {
      Scope Span("core.compileEinsum", K.Tag);
      return compileEinsum(E);
    }();
    Executor Ex(std::move(CR.Optimized), ExecOptions());
    Out = K.Case->freshOutput();
    for (auto &[Name, T] : K.Case->bindings(Out))
      Ex.bind(Name, T);
    Status P = [&] {
      Scope Span("runtime.tryPrepare", K.Tag);
      return Ex.tryPrepare();
    }();
    if (P.ok()) {
      obs::ExecReport Rep;
      Scope Run("runtime.firstRun", K.Tag);
      Status B = [&] {
        Scope Span("runtime.tryRunBody", K.Tag);
        return Ex.tryRunBody(&Rep);
      }();
      Status Ep = [&] {
        Scope Span("runtime.tryRunEpilogue", K.Tag);
        return Ex.tryRunEpilogue(&Rep);
      }();
      Ok = B.ok() && Ep.ok();
      if (tracer().On) {
        const uint64_t Spec = Rep.phaseNs("specialize");
        K.PlanCompileMs.push_back(nsToMs(Rep.phaseNs("plan-compile") - Spec));
        K.SpecializeMs.push_back(nsToMs(Spec));
        K.MaterializeMs.push_back(nsToMs(Rep.phaseNs("materialize")));
      }
    }
  }
  Ms = nsToMs(nowNs() - T0);
  return Ok && outputMatches(Out, K.Case->Expected);
}

/// Rounds over the kernels in a shuffled order until \p Seconds pass;
/// with \p Alternate, odd rounds record spans (into TracedMs).
void timedLoop(RunContext &Ctx, std::vector<Kind> &Kinds, double Seconds,
               Rng &R, bool Alternate) {
  std::vector<size_t> Order(Kinds.size());
  std::iota(Order.begin(), Order.end(), 0);
  const uint64_t Deadline = nowNs() + uint64_t(Seconds * 1e9);
  uint64_t Req = 0;
  for (uint64_t Round = 0; Round < 2 || nowNs() < Deadline; ++Round) {
    tracer().On = Alternate && Round % 2;
    std::shuffle(Order.begin(), Order.end(), R.engine());
    for (size_t I : Order) {
      double Ms = 0;
      tally(Ctx, runOp(Kinds[I], ++Req, Ms));
      (tracer().On ? Kinds[I].TracedMs : Kinds[I].Ms).push_back(Ms);
    }
  }
  tracer().On = false;
}

/// Mean over kernels of each kernel's median span duration.
double meanOfMedians(const std::vector<Kind> &Kinds, const char *Span) {
  std::vector<double> M;
  for (const Kind &K : Kinds)
    M.push_back(median(tracer().durationsMs(Span, K.Tag)));
  return mean(M);
}

double meanOfMedians(const std::vector<Kind> &Kinds,
                     std::vector<double> Kind::*Field) {
  std::vector<double> M;
  for (const Kind &K : Kinds)
    M.push_back(median(K.*Field));
  return mean(M);
}

} // namespace

void runCompileCold(RunContext &Ctx) {
  setCountersEnabled(false);
  // Set-up (inputs and their oracle references), seven times; setup_s is
  // the median. One set-up takes about 0.3 s, short enough that a single
  // host stall moves it by a third, so it takes more repeats than the
  // other workloads' set-ups.
  const int Reps = Ctx.Trace ? 1 : 7;
  std::vector<double> SetupS;
  std::vector<Kind> Kinds;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Kinds.clear();
    const uint64_t T0 = nowNs();
    for (const std::string &Name : paperKernels()) {
      Kind K;
      K.Case = std::make_unique<KernelCase>(
          makeCase(Name, coldSize(Name), Ctx.Seed, Reference::Oracle));
      K.Text = K.Case->E.str();
      K.Tag = tracer().tag(Name);
      Kinds.push_back(std::move(K));
    }
    SetupS.push_back(double(nowNs() - T0) / 1e9);
  }
  // The text must round-trip, or the ops would compile something else.
  for (Kind &K : Kinds)
    if (parseEinsum(K.Case->Name, K.Text).str() != K.Text) {
      std::fprintf(stderr, "einsum text does not round-trip: %s\n",
                   K.Text.c_str());
      std::exit(2);
    }

  Rng R(Ctx.Seed * 104729 + 3);
  for (Kind &K : Kinds) { // warm-up
    double Ms;
    tally(Ctx, runOp(K, 0, Ms));
  }
  Ctx.ChecksRan = true;

  timedLoop(Ctx, Kinds, Ctx.Seconds, R, Ctx.Trace);

  std::vector<std::pair<std::string, const std::vector<double> *>> Labels;
  for (Kind &K : Kinds)
    Labels.push_back({K.Case->Name, &K.Ms});
  const KindSummary Sum = summarizeKinds(Labels, Ctx);
  if (!Ctx.Trace) {
    closedLoopMetrics(Ctx, Sum, SetupS);
    return;
  }

  std::vector<double> TracedTyp;
  for (Kind &K : Kinds)
    TracedTyp.push_back(percentile(K.TracedMs, TypicalPct));
  Ctx.metric("trace.overhead_pct",
             100.0 * (geomean(TracedTyp) / Sum.TypGeo - 1.0), "%");
  Ctx.metric("ir.parse_ms", meanOfMedians(Kinds, "ir.parseEinsum"), "ms");
  for (Kind &K : Kinds)
    Ctx.metric("core.compile_ms." + K.Case->Name,
               median(tracer().durationsMs("core.compileEinsum", K.Tag)),
               "ms");
  Ctx.metric("runtime.prepare_ms", meanOfMedians(Kinds, "runtime.tryPrepare"),
             "ms");
  Ctx.metric("runtime.plan_compile_ms",
             meanOfMedians(Kinds, &Kind::PlanCompileMs), "ms");
  Ctx.metric("runtime.specialize_ms",
             meanOfMedians(Kinds, &Kind::SpecializeMs), "ms");
  Ctx.metric("tensor.materialize_ms",
             meanOfMedians(Kinds, &Kind::MaterializeMs), "ms");
  Ctx.metric("runtime.first_run_ms", meanOfMedians(Kinds, "runtime.firstRun"),
             "ms");
}

} // namespace pb
