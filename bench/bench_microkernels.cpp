//===- bench/bench_microkernels.cpp - Specialization speedup --*- C++ -*-===//
///
/// \file
/// Single-threaded ablation of the runtime specialization layer: each
/// paper kernel's *optimized* plan is timed with the micro-kernel
/// engines disabled (the generic interpreter) and enabled (fused loops
/// over raw level arrays), at Threads = 1 so the ratio isolates
/// dispatch cost from parallel scaling. Results land in
/// BENCH_microkernels.json; the ≥2x targets on ssymv/ssyrk at n = 2000
/// are the acceptance line for the fused engines (ttm/mttkrp fuse
/// deeper nests and gain more).
///
/// Note: correctness/parity of the two engines is asserted by
/// tests/perf_smoke.cpp and the fuzzer, not here; this binary only
/// times.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Compiler.h"
#include "jit/NativeKernelCache.h"
#include "kernels/Kernels.h"
#include "observability/Trace.h"

using namespace systec;
using namespace systec::bench;

namespace {

struct MicroCase {
  std::string Name;
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  std::string OutName;
  std::string Workload;
};

std::vector<MicroCase> makeCases(Rng &R) {
  const int64_t N = 2000;   // acceptance size for ssymv / ssyrk
  const int64_t Dim3 = 80;  // 3-d workloads
  const int64_t Rank = 32;
  std::vector<MicroCase> Cases;
  {
    MicroCase C{"ssymv", makeSsymv(), {}, {N}, "y", "n2000_nnz16n"};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 16 * N, R,
                                                  TensorFormat::csf(2)));
    C.Inputs.emplace("x", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  {
    MicroCase C{"syprd", makeSyprd(), {}, {1}, "y", "n2000_nnz16n"};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 16 * N, R,
                                                  TensorFormat::csf(2)));
    C.Inputs.emplace("x", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  {
    // Denser columns than ssymv: ssyrk's inner work grows with
    // nnz-per-column squared, which is where the fused triangle kernel
    // pays off (at very low densities both engines are bound by the
    // scattered writes into the dense C).
    MicroCase C{"ssyrk", makeSsyrk(), {}, {N, N}, "C", "n2000_nnz96n"};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 96 * N, R,
                                                  TensorFormat::csf(2)));
    Cases.push_back(std::move(C));
  }
  {
    MicroCase C{"ttm", makeTtm(), {}, {Rank, Dim3, Dim3}, "C", "d80_r32"};
    C.Inputs.emplace("A", generateSymmetricTensor(3, Dim3, 20000, R,
                                                  TensorFormat::csf(3)));
    C.Inputs.emplace("B", generateDenseMatrix(Dim3, Rank, R));
    Cases.push_back(std::move(C));
  }
  {
    MicroCase C{"mttkrp3", makeMttkrp(3), {}, {Dim3, Rank}, "C", "d80_r32"};
    C.Inputs.emplace("A", generateSymmetricTensor(3, Dim3, 20000, R,
                                                  TensorFormat::csf(3)));
    C.Inputs.emplace("B", generateDenseMatrix(Dim3, Rank, R));
    Cases.push_back(std::move(C));
  }
  {
    // SpMM against a dense panel matrix: the workspace-form blocked
    // shape (`C[i,k] += A_row(j) * B[j,k]`) — the blocked engine holds
    // a register panel of workspace cells across each sparse row walk
    // and writes every column back once, where the unblocked nest
    // re-walks the row per column.
    Einsum E = parseEinsum("spmm", "C[i,k] += A[i,j] * B[j,k]");
    E.LoopOrder = {"i", "k", "j"};
    E.declare("A", TensorFormat::csf(2));
    MicroCase C{"spmm", std::move(E), {}, {N, Rank}, "C",
                "n2000_nnz32n_r32"};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 32 * N, R,
                                                  TensorFormat::csf(2)));
    C.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    Cases.push_back(std::move(C));
  }
  {
    // Three sparse operands intersecting on the inner index: the N-way
    // multi-finger merge (one driver, two sparse co-walkers with
    // galloping catch-up) vs. the interpreter's per-element locate —
    // the shape the specializer declined before the intersection
    // engine generalized past two walkers.
    Einsum E = parseEinsum("trimul", "O[j] += A[i,j] * B[i,j] * C[i,j]");
    E.LoopOrder = {"j", "i"};
    for (const char *T : {"A", "B", "C"})
      E.declare(T, TensorFormat::csf(2));
    MicroCase C{"trimul", std::move(E), {}, {N}, "O", "n2000_nnz16n_x3"};
    for (const char *T : {"A", "B", "C"})
      C.Inputs.emplace(T, generateSymmetricTensor(2, N, 16 * N, R,
                                                  TensorFormat::csf(2)));
    Cases.push_back(std::move(C));
  }
  return Cases;
}

/// The single source of truth for each impl row's execution options:
/// used to build the Executor *and* to attribute its BENCH_* record.
/// Each column names its engines outright, so none tiers up mid-run.
ExecOptions implOptions(const std::string &Impl) {
  ExecOptions O;
  O.Threads = 1;
  if (Impl == "native")
    O.Engines = {Engine::Native, Engine::Fused, Engine::Interp};
  else if (Impl == "fused")
    O.Engines = {Engine::Blocked, Engine::Fused, Engine::Interp};
  else
    O.Engines = {Engine::Interp};
  return O;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  Rng R(20260801);
  std::vector<MicroCase> Cases = makeCases(R);
  std::vector<std::unique_ptr<Holder>> Holders;

  // The native (JIT) column rides along whenever a host compiler is
  // available; otherwise the bench degrades to the two classic columns
  // with a visible note rather than failing.
  std::vector<std::string> Impls{"interp", "fused"};
  {
    std::string Reason;
    if (jit::NativeKernelCache::compilerAvailable(&Reason))
      Impls.push_back("native");
    else
      std::printf("native column skipped: %s\n", Reason.c_str());
  }
  // Per case, the impls whose executors actually registered (the native
  // impl drops out when the build falls back, so a fused run is never
  // mislabeled as native).
  std::vector<std::vector<std::string>> CaseImpls;

  for (MicroCase &C : Cases) {
    CompileResult Compiled = compileEinsum(C.E);
    auto H = std::make_unique<Holder>();
    H->Tensors.emplace("out", Tensor::dense(C.OutDims));
    Tensor *Out = &H->tensor("out");
    CaseImpls.emplace_back();
    for (const std::string &Impl : Impls) {
      ExecOptions O = implOptions(Impl);
      H->Executors.push_back(
          std::make_unique<Executor>(Compiled.Optimized, O));
      Executor &E = *H->Executors.back();
      for (auto &[Name, T] : C.Inputs)
        E.bind(Name, &T);
      E.bind(C.OutName, Out);
      checkOk(E.tryPrepare());
      // The native column is native from its first run: wait for the
      // build here, outside the timed loop.
      if (Impl == "native")
        if (Status S = E.awaitNative(); !S.ok()) {
          std::printf("%-8s native build fell back (%s)\n", C.Name.c_str(),
                      S.str().c_str());
          H->Executors.pop_back();
          continue;
        }
      CaseImpls.back().push_back(Impl);
      registerRun("microkernels/" + C.Name + "/" + Impl,
                  [Out] { Out->setAllValues(0.0); },
                  [&E] { checkOk(E.tryRunBody()); });
    }
    const MicroKernelStats &S = H->Executors.back()->microKernelStats();
    std::printf("%-8s specialized=%llu, generic=%llu, "
                "co=%llu (nway %llu, rl %llu, banded %llu), lut=%llu, "
                "blocked=%llu (accum %llu)\n",
                C.Name.c_str(),
                static_cast<unsigned long long>(S.SpecializedLoops),
                static_cast<unsigned long long>(S.GenericLoops),
                static_cast<unsigned long long>(S.FusedCoWalkers),
                static_cast<unsigned long long>(S.FusedNWalkerLoops),
                static_cast<unsigned long long>(S.FusedRunLengthCoWalkers),
                static_cast<unsigned long long>(S.FusedBandedCoWalkers),
                static_cast<unsigned long long>(S.FusedLutFactors),
                static_cast<unsigned long long>(S.BlockedLoops),
                static_cast<unsigned long long>(S.BlockedAccumLoops));
    Holders.push_back(std::move(H));
  }

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);

  std::printf("\n=== Micro-kernel speedup (interpreted plan vs fused vs "
              "native, Threads=1) ===\n");
  std::printf("%-10s %12s %12s %12s %10s %10s %10s\n", "kernel",
              "interp(ms)", "fused(ms)", "native(ms)", "speedup",
              "nat/fused", "target");
  std::vector<BenchRecord> Records;
  for (size_t CI = 0; CI < Cases.size(); ++CI) {
    const MicroCase &C = Cases[CI];
    double TI = Rep.millis("microkernels/" + C.Name + "/interp");
    double TF = Rep.millis("microkernels/" + C.Name + "/fused");
    double TN = Rep.millis("microkernels/" + C.Name + "/native");
    const bool HasTarget = C.Name == "ssymv" || C.Name == "ssyrk";
    if (TI > 0 && TF > 0) {
      char NativeMs[32] = "-", NativeRatio[32] = "-";
      if (TN > 0) {
        std::snprintf(NativeMs, sizeof(NativeMs), "%.3f", TN);
        std::snprintf(NativeRatio, sizeof(NativeRatio), "%.2fx", TF / TN);
      }
      std::printf("%-10s %12.3f %12.3f %12s %9.2fx %10s %10s\n",
                  C.Name.c_str(), TI, TF, NativeMs, TI / TF, NativeRatio,
                  HasTarget ? ">=2.00x" : "-");
    }
    for (size_t Idx = 0; Idx < CaseImpls[CI].size(); ++Idx) {
      const std::string &Impl = CaseImpls[CI][Idx];
      double Ms = Rep.millis("microkernels/" + C.Name + "/" + Impl);
      if (Ms <= 0)
        continue;
      BenchRecord Rec{C.Name, C.Workload, Impl, 1, Ms, 0,
                      execOptionsSummary(implOptions(Impl)),
                      "", ""};
      Tensor *Out = &Holders[CI]->tensor("out");
      annotateRecord(Rec, *Holders[CI]->Executors[Idx],
                     [Out] { Out->setAllValues(0.0); });
      Records.push_back(std::move(Rec));
    }
  }
  writeBenchJson("BENCH_microkernels.json", Records);

  // SYSTEC_TRACE=<path>: rerun every case through fresh executors with
  // tracing on at Threads=8 and export one Chrome trace. The traced
  // pass is separate from (and after) the gate records above, so
  // BENCH_microkernels.json stays a tracing-off measurement. Why 8:
  // eight per-task copies of ssyrk's output exceed
  // PrivatizationBudgetBytes, so the parallel runtime activates its
  // inner loops instead of the outer one. A thread emits raw spans
  // only for the outermost loop it runs, so the worker chunks of those
  // inner loops are what put engine labels other than Interp
  // ([Fused/...], [Blocked/...]) into the trace CI checks.
  if (const char *TraceEnv = std::getenv("SYSTEC_TRACE")) {
    obs::setThreadName("main");
    obs::setTracingEnabled(true);
    for (size_t CI = 0; CI < Cases.size(); ++CI) {
      MicroCase &C = Cases[CI];
      CompileResult Compiled = compileEinsum(C.E);
      Tensor *Out = &Holders[CI]->tensor("out");
      for (unsigned Idx = 0; Idx < 2; ++Idx) {
        ExecOptions O = implOptions(Idx ? "fused" : "interp");
        O.Threads = 8;
        Executor E(Compiled.Optimized, O);
        for (auto &[Name, T] : C.Inputs)
          E.bind(Name, &T);
        E.bind(C.OutName, Out);
        checkOk(E.tryPrepare());
        for (int Run = 0; Run < 3; ++Run) {
          Out->setAllValues(0.0);
          checkOk(E.tryRun());
        }
      }
    }
    const std::string Path =
        *TraceEnv ? TraceEnv : "bench_microkernels.trace.json";
    if (obs::writeChromeTrace(Path))
      std::printf("wrote %s (%llu events, %llu dropped)\n", Path.c_str(),
                  static_cast<unsigned long long>(obs::traceEventCount()),
                  static_cast<unsigned long long>(obs::traceDroppedCount()));
    else
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    obs::setTracingEnabled(false);
  }
  return 0;
}
