//===- bench/BenchUtil.h - Shared benchmark harness -----------*- C++ -*-===//
///
/// \file
/// Shared machinery for the figure/table reproduction binaries: a
/// google-benchmark reporter that captures per-benchmark times so each
/// binary can print a speedup table normalized to naive Finch-style
/// execution (the red line in the paper's Figures 6-11), plus the
/// benchmark-scale matrix suite selection.
///
/// Methodology notes (matching paper Section 5.2): timings are the
/// benchmark library's steady-state averages; the optimized kernels
/// time only the main loop nests — data rearrangement (transposition,
/// diagonal splitting, output replication) is excluded, as in the
/// paper; counters are disabled inside timed regions. Engine rows
/// (naive/systec) share one executor so ratios reflect the symmetry
/// optimizations; native rows (taco/mkl/splatt stand-ins) are compiled
/// C++ and bound absolute performance.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_BENCH_BENCHUTIL_H
#define SYSTEC_BENCH_BENCHUTIL_H

#include "data/Generators.h"
#include "runtime/Executor.h"
#include "support/Counters.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace systec {
namespace bench {

/// Captures adjusted real time (seconds per iteration) for every run.
class CaptureReporter : public benchmark::ConsoleReporter {
public:
  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.run_type != Run::RT_Iteration)
        continue;
      // Strip the "/min_time:..." suffix the library appends.
      std::string Name = R.benchmark_name();
      size_t Cut = Name.find("/min_time");
      if (Cut != std::string::npos)
        Name.resize(Cut);
      Times[Name] = R.GetAdjustedRealTime();
    }
    benchmark::ConsoleReporter::ReportRuns(Runs);
  }

  /// Milliseconds per iteration for \p Name (benchmarks register with
  /// Unit(kMillisecond)); -1 when missing.
  double millis(const std::string &Name) const {
    auto It = Times.find(Name);
    return It == Times.end() ? -1.0 : It->second;
  }

private:
  std::map<std::string, double> Times;
};

/// The benchmark-scale suite: all of Table 2 when SYSTEC_BENCH_FULL is
/// set, otherwise a 12-matrix subset spanning the dimension/nnz range
/// (the artifact similarly reduces problem sizes to keep runtime
/// manageable).
inline std::vector<MatrixSpec> suiteForBench() {
  const std::vector<MatrixSpec> &Full = vuducSuite();
  if (std::getenv("SYSTEC_BENCH_FULL"))
    return Full;
  std::vector<std::string> Pick{
      "bayer02",  "bayer10", "coater2",  "gemat11",  "goodwin",
      "lnsp3937", "memplus", "orani678", "rdist1",   "saylr4",
      "sherman3", "shyy161"};
  std::vector<MatrixSpec> Out;
  for (const MatrixSpec &S : Full)
    for (const std::string &P : Pick)
      if (S.Name == P)
        Out.push_back(S);
  return Out;
}

/// Registers a benchmark that resets the output and reruns the kernel
/// body each iteration.
inline void registerRun(const std::string &Name,
                        const std::function<void()> &Reset,
                        const std::function<void()> &Run) {
  benchmark::RegisterBenchmark(Name.c_str(),
                               [Reset, Run](benchmark::State &St) {
                                 setCountersEnabled(false);
                                 for (auto _ : St) {
                                   Reset();
                                   Run();
                                 }
                                 setCountersEnabled(true);
                               })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.05);
}

/// One row of a speedup table.
struct Row {
  std::string Label;
  std::vector<std::pair<std::string, std::string>> Entries; // col -> bench
};

/// Prints a speedup table normalized to the column named "naive".
inline void printSpeedups(const CaptureReporter &Rep,
                          const std::string &Title,
                          const std::vector<std::string> &Columns,
                          const std::vector<Row> &Rows,
                          double ExpectedSpeedup = 0.0) {
  std::printf("\n=== %s ===\n", Title.c_str());
  std::printf("%-28s", "workload");
  for (const std::string &C : Columns)
    std::printf(" %13s", (C + "(ms)").c_str());
  std::printf(" %13s", "speedup");
  if (ExpectedSpeedup > 0)
    std::printf(" %13s", "expected");
  std::printf("\n");
  double Geo = 0.0;
  unsigned NGeo = 0;
  for (const Row &R : Rows) {
    std::printf("%-28s", R.Label.c_str());
    double Naive = -1, Systec = -1;
    for (const std::string &C : Columns) {
      double Ms = -1;
      for (const auto &[Col, BenchName] : R.Entries)
        if (Col == C)
          Ms = Rep.millis(BenchName);
      if (Ms >= 0)
        std::printf(" %13.3f", Ms);
      else
        std::printf(" %13s", "-");
      if (C == "naive")
        Naive = Ms;
      if (C == "systec")
        Systec = Ms;
    }
    if (Naive > 0 && Systec > 0) {
      double Speedup = Naive / Systec;
      std::printf(" %13.2f", Speedup);
      Geo += std::log(Speedup);
      ++NGeo;
    } else {
      std::printf(" %13s", "-");
    }
    if (ExpectedSpeedup > 0)
      std::printf(" %13.2f", ExpectedSpeedup);
    std::printf("\n");
  }
  if (NGeo)
    std::printf("%-28s geometric-mean speedup (systec vs naive): %.2f\n",
                "", std::exp(Geo / NGeo));
}

//===----------------------------------------------------------------------===//
// Machine-readable results
//===----------------------------------------------------------------------===//

/// One benchmark measurement for the perf-trajectory log.
struct BenchRecord {
  std::string Kernel;   ///< e.g. "ssymv"
  std::string Workload; ///< matrix / config label
  std::string Impl;     ///< "naive", "systec", "taco", ...
  unsigned Threads = 1;
  double Millis = -1;
  double GFlops = 0;   ///< 0 when the flop count is unknown
  std::string Options; ///< execOptionsSummary() of the run's
                       ///< ExecOptions; empty for native baselines
  /// Observability attachments from one instrumented post-timing run
  /// (annotateRecord): the run's exact counter deltas and the
  /// per-phase timing summary, both as JSON objects. Empty for native
  /// baselines, which have no executor.
  std::string CountersJson;
  std::string PhasesJson;
};

/// Aborts the bench binary with \p S's message unless it is ok: bench
/// workloads are generated in-process, so an error here is a bug.
inline void checkOk(const Status &S) {
  if (S.ok())
    return;
  std::fprintf(stderr, "bench: %s\n", S.str().c_str());
  std::abort();
}

/// Runs \p E once outside the timed region (counters on) and attaches
/// its ExecReport to \p R: counter deltas say *what* the configuration
/// executed, the phase summary says *where* its time goes — next to
/// the ms column, that is what tools/bench_check.py prints when a
/// ratio drifts. \p Reset restores the output, leaving workload state
/// exactly as the timed loop left it.
inline void annotateRecord(BenchRecord &R, Executor &E,
                           const std::function<void()> &Reset) {
  const bool Was = countersEnabled();
  setCountersEnabled(true);
  Reset();
  obs::ExecReport Rep;
  checkOk(E.tryRun(&Rep));
  setCountersEnabled(Was);
  R.CountersJson = obs::counterJson(Rep.Counters);
  R.PhasesJson = Rep.phasesJson();
}

/// The git SHA recorded with every benchmark row, so BENCH_*.json
/// entries are attributable across PRs. Resolved from the repository
/// at run time (benchmarks run from the build tree, which lives inside
/// the checkout); the configure-time SYSTEC_GIT_SHA macro is only the
/// fallback, since it goes stale when commits land without a
/// reconfigure.
inline const std::string &benchGitSha() {
  static const std::string Sha = []() -> std::string {
    if (FILE *P = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
      char Buf[64] = {0};
      const bool Got = std::fgets(Buf, sizeof(Buf), P) != nullptr;
      const bool Clean = pclose(P) == 0;
      if (Got && Clean) {
        std::string Out(Buf);
        while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
          Out.pop_back();
        if (!Out.empty())
          return Out;
      }
    }
#ifdef SYSTEC_GIT_SHA
    return SYSTEC_GIT_SHA;
#else
    return "unknown";
#endif
  }();
  return Sha;
}

inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S)
    if (C == '"' || C == '\\')
      (Out += '\\') += C;
    else
      Out += C;
  return Out;
}

/// Writes records as a JSON array to \p Path (e.g. "BENCH_ssymv.json")
/// so CI can track kernel / threads / GFLOP-s over time.
/// Every record carries the build's git SHA and the ExecOptions used,
/// so entries from different PRs (or ablation configs) stay
/// attributable when the files are concatenated or diffed.
inline void writeBenchJson(const std::string &Path,
                           const std::vector<BenchRecord> &Records) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return;
  }
  Out << "[\n";
  for (size_t I = 0; I < Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    char Num[96];
    std::string Line = "  {\"git_sha\": \"" + jsonEscape(benchGitSha()) +
                       "\", \"kernel\": \"" + jsonEscape(R.Kernel) +
                       "\", \"workload\": \"" + jsonEscape(R.Workload) +
                       "\", \"impl\": \"" + jsonEscape(R.Impl) + "\"";
    std::snprintf(Num, sizeof(Num),
                  ", \"threads\": %u, \"ms\": %.6f, \"gflops\": %.6f",
                  R.Threads, R.Millis, R.GFlops);
    Line += Num;
    Line += ", \"options\": \"" + jsonEscape(R.Options) + "\"";
    // Observability attachments are already JSON objects; embed them
    // verbatim when present so bench_check.py can explain deltas.
    if (!R.CountersJson.empty())
      Line += ", \"counters\": " + R.CountersJson;
    if (!R.PhasesJson.empty())
      Line += ", \"phases_ms\": " + R.PhasesJson;
    Line += I + 1 < Records.size() ? "},\n" : "}\n";
    Out << Line;
  }
  Out << "]\n";
  std::printf("wrote %s (%zu records)\n", Path.c_str(), Records.size());
}

/// Options for the per-loop engines only: the default list without the
/// native tier.
inline ExecOptions perLoopEngines() {
  ExecOptions O;
  O.Engines = {Engine::Blocked, Engine::Fused, Engine::Interp};
  return O;
}

/// Heap-allocated workload state kept alive for the benchmark run.
struct Holder {
  std::map<std::string, Tensor> Tensors;
  std::vector<std::unique_ptr<Executor>> Executors;

  Tensor &tensor(const std::string &Name) { return Tensors.at(Name); }

  /// An executor on the per-loop engines, named outright so no timed
  /// run tiers up to the native body mid-measurement.
  Executor &addExecutor(const Kernel &K) {
    Executors.push_back(std::make_unique<Executor>(K, perLoopEngines()));
    return *Executors.back();
  }
};

} // namespace bench
} // namespace systec

#endif // SYSTEC_BENCH_BENCHUTIL_H
