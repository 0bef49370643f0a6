//===- tests/observability_test.cpp ---------------------------*- C++ -*-===//
///
/// Tests for the execution tracing and metrics layer: span nesting and
/// the Chrome trace_event export, the thread pool's wait/execute
/// activity accounting, log-histogram merge algebra, and the
/// structured ExecReport API — including its two contracts that the
/// rest of the repo leans on: the disabled path emits zero events with
/// exact counter parity, and reports are identical across thread
/// counts modulo timing fields (structureKey()).
///
/// Global-state discipline: tracing is process-wide, so every test
/// that flips it restores the previous value, and clearTrace() runs
/// only while no instrumented code is executing. Timing assertions are
/// deliberately loose — CI containers can be 1-core, where workers of
/// a pool may barely run.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "jit/NativeKernelCache.h"
#include "kernels/Kernels.h"
#include "observability/Histogram.h"
#include "observability/Report.h"
#include "observability/Trace.h"
#include "parallel/ThreadPool.h"
#include "runtime/Executor.h"
#include "support/Counters.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace systec;

namespace {

/// RAII guard: sets the process-wide tracing flag and restores the
/// previous value on scope exit.
class TracingGuard {
public:
  explicit TracingGuard(bool On) : Was(obs::tracingEnabled()) {
    obs::setTracingEnabled(On);
  }
  ~TracingGuard() { obs::setTracingEnabled(Was); }

private:
  bool Was;
};

/// A small prepared ssymv executor over owned data.
struct SsymvFixture {
  Tensor A, X, Y;
  Executor E;

  explicit SsymvFixture(ExecOptions O, int64_t N = 200, uint64_t Seed = 7)
      : A(Tensor::dense({1})), X(Tensor::dense({1})),
        Y(Tensor::dense({N})),
        E(compileEinsum(makeSsymv()).Optimized, O) {
    Rng R(Seed);
    A = generateSymmetricTensor(2, N, 8 * N, R, TensorFormat::csf(2));
    X = generateDenseVector(N, R);
    E.bind("A", &A).bind("x", &X).bind("y", &Y);
    EXPECT_TRUE(E.tryPrepare().ok());
  }

  /// Runs once from a zeroed output; returns the run's report.
  obs::ExecReport run() {
    Y.setAllValues(0.0);
    obs::ExecReport Rep;
    EXPECT_TRUE(E.tryRun(&Rep).ok());
    return Rep;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// LogHistogram
//===----------------------------------------------------------------------===//

TEST(LogHistogram, BucketsByBitWidth) {
  EXPECT_EQ(obs::LogHistogram::bucketOf(0), 0u);
  EXPECT_EQ(obs::LogHistogram::bucketOf(1), 1u);
  EXPECT_EQ(obs::LogHistogram::bucketOf(2), 2u);
  EXPECT_EQ(obs::LogHistogram::bucketOf(3), 2u);
  EXPECT_EQ(obs::LogHistogram::bucketOf(4), 3u);
  EXPECT_EQ(obs::LogHistogram::bucketOf(1023), 10u);
  EXPECT_EQ(obs::LogHistogram::bucketOf(1024), 11u);
  EXPECT_EQ(obs::LogHistogram::bucketLo(0), 0u);
  EXPECT_EQ(obs::LogHistogram::bucketLo(1), 1u);
  EXPECT_EQ(obs::LogHistogram::bucketLo(11), 1024u);

  obs::LogHistogram H;
  H.add(0);
  H.add(5);
  H.add(6);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.total(), 11u);
  EXPECT_EQ(H.maxValue(), 6u);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(3), 2u); // 5 and 6 both in [4, 8)
  EXPECT_NEAR(H.mean(), 11.0 / 3.0, 1e-12);
}

TEST(LogHistogram, MergeIsAssociativeAndCommutative) {
  Rng R(42);
  auto Fill = [&R](unsigned N) {
    obs::LogHistogram H;
    for (unsigned I = 0; I < N; ++I)
      H.add(static_cast<uint64_t>(R.nextIndex(100000)));
    return H;
  };
  obs::LogHistogram A = Fill(37), B = Fill(11), C = Fill(53);

  obs::LogHistogram AB = A;
  AB.merge(B);
  obs::LogHistogram AB_C = AB;
  AB_C.merge(C);

  obs::LogHistogram BC = B;
  BC.merge(C);
  obs::LogHistogram A_BC = A;
  A_BC.merge(BC);

  EXPECT_TRUE(AB_C == A_BC); // associative

  obs::LogHistogram BA = B;
  BA.merge(A);
  EXPECT_TRUE(AB == BA); // commutative
  EXPECT_EQ(AB_C.count(), 37u + 11u + 53u);
}

TEST(LogHistogram, WindowDeltaRecoversTheSuffix) {
  obs::LogHistogram Before;
  Before.add(3);
  Before.add(100);
  obs::LogHistogram After = Before;
  After.add(7);
  After.add(900);

  obs::LogHistogram D = obs::LogHistogram::windowDelta(After, Before);
  EXPECT_EQ(D.count(), 2u);
  EXPECT_EQ(D.total(), 907u);
  EXPECT_EQ(D.bucketCount(obs::LogHistogram::bucketOf(7)), 1u);
  EXPECT_EQ(D.bucketCount(obs::LogHistogram::bucketOf(900)), 1u);
  EXPECT_EQ(D.bucketCount(obs::LogHistogram::bucketOf(3)), 0u);
}

TEST(LogHistogram, JsonOmitsEmptyBuckets) {
  obs::LogHistogram H;
  H.add(4);
  H.add(5);
  EXPECT_EQ(H.toJson(),
            "{\"count\":2,\"total\":9,\"max\":5,\"buckets\":{\"4\":2}}");
}

//===----------------------------------------------------------------------===//
// Trace buffers and spans
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledScopesEmitNothing) {
  TracingGuard G(false);
  const uint64_t Before = obs::traceEventCount();
  {
    obs::TraceScope S("noop", "test");
    EXPECT_FALSE(S.active());
    EXPECT_EQ(S.elapsedNs(), 0u);
  }
  EXPECT_EQ(obs::traceEventCount(), Before);
}

TEST(Trace, ScopesNestCorrectly) {
  TracingGuard G(true);
  obs::clearTrace();
  {
    obs::TraceScope Outer("outer", "test");
    EXPECT_TRUE(Outer.active());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      obs::TraceScope Inner("inner", "test", 42, 43);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::setTracingEnabled(false);

  const std::vector<obs::ThreadEvents> Collected = obs::collectTrace();
  const obs::TraceEvent *Outer = nullptr, *Inner = nullptr;
  for (const obs::ThreadEvents &T : Collected)
    for (const obs::TraceEvent &E : T.Events) {
      if (std::string(E.Name) == "outer")
        Outer = &E;
      if (std::string(E.Name) == "inner")
        Inner = &E;
    }
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  // The inner span's interval is contained in the outer's.
  EXPECT_GE(Inner->StartNs, Outer->StartNs);
  EXPECT_LE(Inner->StartNs + Inner->DurNs, Outer->StartNs + Outer->DurNs);
  EXPECT_GT(Outer->DurNs, Inner->DurNs);
  EXPECT_EQ(Inner->Arg0, 42);
  EXPECT_EQ(Inner->Arg1, 43);
}

TEST(Trace, InternedNamesAreStableAndDeduplicated) {
  const char *A = obs::internName("observability-test-name");
  const char *B = obs::internName("observability-test-name");
  EXPECT_EQ(A, B);
  EXPECT_STREQ(A, "observability-test-name");
}

TEST(Trace, ChromeExportIsWellFormed) {
  TracingGuard G(true);
  obs::clearTrace();
  obs::setThreadName("obs-test-main");
  {
    obs::TraceScope S("chrome\"span\\", "test"); // name needs escaping
  }
  obs::setTracingEnabled(false);

  const std::string Json = obs::chromeTraceJson();
  EXPECT_NE(Json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"M\""), std::string::npos); // thread_name
  EXPECT_NE(Json.find("obs-test-main"), std::string::npos);
  EXPECT_NE(Json.find("chrome\\\"span\\\\"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy; the CI step
  // additionally json.loads the exported file).
  int64_t Depth = 0;
  bool InString = false, Escaped = false;
  for (char C : Json) {
    if (Escaped) {
      Escaped = false;
      continue;
    }
    if (C == '\\') {
      Escaped = true;
      continue;
    }
    if (C == '"') {
      InString = !InString;
      continue;
    }
    if (InString)
      continue;
    if (C == '{' || C == '[')
      ++Depth;
    if (C == '}' || C == ']')
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
  EXPECT_FALSE(InString);
}

//===----------------------------------------------------------------------===//
// ThreadPool activity accounting
//===----------------------------------------------------------------------===//

TEST(PoolActivity, TasksAndBusyTimeAreAccounted) {
  ThreadPool Pool(2);
  const auto Before = Pool.activitySnapshot();
  ASSERT_EQ(Before.Workers.size(), 2u);

  const unsigned NTasks = 12;
  const uint64_t W0 = obs::nowNs();
  Pool.parallelFor(NTasks, [](unsigned) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  const uint64_t Wall = obs::nowNs() - W0;

  const auto After = Pool.activitySnapshot();
  const auto CallersB = Before.callersTotal();
  const auto CallersA = After.callersTotal();
  uint64_t Tasks = CallersA.Tasks - CallersB.Tasks;
  uint64_t Exec = CallersA.ExecNs - CallersB.ExecNs;
  obs::LogHistogram Rolled =
      obs::LogHistogram::windowDelta(CallersA.TaskNs, CallersB.TaskNs);
  for (size_t W = 0; W < After.Workers.size(); ++W) {
    const uint64_t WTasks =
        After.Workers[W].Tasks - Before.Workers[W].Tasks;
    const uint64_t WExec =
        After.Workers[W].ExecNs - Before.Workers[W].ExecNs;
    const uint64_t WWait =
        After.Workers[W].WaitNs - Before.Workers[W].WaitNs;
    Tasks += WTasks;
    Exec += WExec;
    Rolled.merge(obs::LogHistogram::windowDelta(
        After.Workers[W].TaskNs, Before.Workers[W].TaskNs));
    // A worker's in-batch wait + execute cannot exceed the batch wall
    // time (generously padded: 1-core CI makes scheduling coarse).
    EXPECT_LE(WWait + WExec, Wall * 3 + 10000000u);
  }
  // Every task ran exactly once, each takes >= 2ms of execute time,
  // and the histograms roll up to one sample per task.
  EXPECT_EQ(Tasks, NTasks);
  EXPECT_GE(Exec, uint64_t(NTasks) * 1500000u); // 2ms sleeps, lenient
  EXPECT_EQ(Rolled.count(), NTasks);
  EXPECT_GE(Rolled.maxValue(), 1500000u);
}

TEST(PoolActivity, InlinePoolAccountsTheCaller) {
  ThreadPool Pool(0); // everything runs inline on the caller
  const auto Before = Pool.activitySnapshot();
  Pool.parallelFor(5, [](unsigned) {});
  const auto After = Pool.activitySnapshot();
  EXPECT_EQ(After.callersTotal().Tasks - Before.callersTotal().Tasks, 5u);
  EXPECT_TRUE(After.Workers.empty());
}

TEST(PoolActivity, TracedBatchEmitsPoolSpans) {
  TracingGuard G(true);
  obs::clearTrace();
  ThreadPool Pool(2);
  Pool.parallelFor(8, [](unsigned) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  obs::setTracingEnabled(false);

  unsigned TaskSpans = 0, BatchSpans = 0, WaitSpans = 0;
  for (const obs::ThreadEvents &T : obs::collectTrace())
    for (const obs::TraceEvent &E : T.Events) {
      if (std::string(E.Cat) != "pool")
        continue;
      const std::string Name = E.Name;
      TaskSpans += Name == "task";
      BatchSpans += Name == "batch";
      WaitSpans += Name == "wait";
    }
  EXPECT_EQ(TaskSpans, 8u); // one per task, wherever it ran
  EXPECT_EQ(BatchSpans, 1u);
  // The caller's completion wait always emits one span; workers add
  // theirs only if they woke while the batch was still open.
  EXPECT_GE(WaitSpans, 1u);
}

//===----------------------------------------------------------------------===//
// ExecReport
//===----------------------------------------------------------------------===//

TEST(ExecReport, CarriesPhasesLoopsAndCounters) {
  TracingGuard G(true); // loop aggregates populate only when tracing
  SsymvFixture F(ExecOptions{});
  const obs::ExecReport R = F.run();
  obs::setTracingEnabled(false);

  for (const char *Phase :
       {"materialize", "plan-compile", "specialize", "execute", "merge"})
    EXPECT_TRUE([&] {
      for (const obs::PhaseStat &P : R.Phases)
        if (P.Name == Phase)
          return true;
      return false;
    }()) << "missing phase " << Phase;
  EXPECT_GT(R.phaseNs("execute"), 0u);
  EXPECT_GE(R.phaseNs("plan-compile"), R.phaseNs("specialize"));
  EXPECT_GE(R.phaseNs("execute"), R.phaseNs("merge"));

  ASSERT_FALSE(R.Loops.empty());
  uint64_t Calls = 0;
  for (const obs::LoopStat &L : R.Loops) {
    EXPECT_FALSE(L.Label.empty());
    EXPECT_TRUE(L.Engine == "Interp" || L.Engine == "Fused" ||
                L.Engine == "Blocked")
        << L.Engine;
    EXPECT_FALSE(L.Driver.empty());
    Calls += L.Calls;
  }
  EXPECT_GT(Calls, 0u); // tracing was on, aggregates collected

  // The report's counters are exactly this run's deltas.
  EXPECT_GT(R.Counters.SparseReads + R.Counters.ScalarOps, 0u);
  EXPECT_NE(R.Options.find("validate=none"), std::string::npos)
      << "fixture options are the defaults";

  // toJson mentions every section.
  const std::string Json = R.toJson();
  for (const char *Key :
       {"\"phases_ms\"", "\"loops\"", "\"workers\"", "\"counters\"",
        "\"options\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
}

TEST(ExecReport, DisabledTracingZeroEventsAndCounterParity) {
  // Baseline run with tracing on: collect the counter deltas.
  CounterSnapshot TracedCounters;
  {
    TracingGuard G(true);
    SsymvFixture F(ExecOptions{}, /*N=*/150, /*Seed=*/3);
    TracedCounters = F.run().Counters;
  }
  // Identical run with tracing off: no new events, same counters.
  {
    TracingGuard G(false);
    const uint64_t Events = obs::traceEventCount();
    SsymvFixture F(ExecOptions{}, /*N=*/150, /*Seed=*/3);
    const obs::ExecReport R = F.run();
    EXPECT_EQ(obs::traceEventCount(), Events)
        << "disabled tracing must not emit events";
    EXPECT_EQ(R.Counters.SparseReads, TracedCounters.SparseReads);
    EXPECT_EQ(R.Counters.Reductions, TracedCounters.Reductions);
    EXPECT_EQ(R.Counters.ScalarOps, TracedCounters.ScalarOps);
    EXPECT_EQ(R.Counters.OutputWrites, TracedCounters.OutputWrites);
    // Loop aggregates stay zero on the disabled path (hot loops
    // untimed).
    for (const obs::LoopStat &L : R.Loops) {
      EXPECT_EQ(L.Calls, 0u);
      EXPECT_EQ(L.Ns, 0u);
    }
  }
}

TEST(ExecReport, StructureKeyInvariantAcrossThreads) {
  TracingGuard G(false);
  std::vector<std::string> Keys;
  for (unsigned Threads : {1u, 2u, 4u}) {
    ExecOptions O;
    O.Threads = Threads;
    SsymvFixture F(O, /*N=*/300, /*Seed=*/11);
    const obs::ExecReport R = F.run();
    Keys.push_back(R.structureKey());
    if (Threads > 1) {
      // Pooled runs carry per-worker activity; the run's tasks all
      // landed somewhere.
      uint64_t Tasks = 0;
      for (const obs::WorkerStat &W : R.Workers)
        Tasks += W.Tasks;
      EXPECT_GT(Tasks, 0u);
    } else {
      EXPECT_TRUE(R.Workers.empty());
    }
  }
  ASSERT_EQ(Keys.size(), 3u);
  EXPECT_EQ(Keys[0], Keys[1]);
  EXPECT_EQ(Keys[1], Keys[2]);
}

TEST(ExecReport, BodyEngineNamesTheTierAcrossATierUp) {
  std::string Reason;
  if (!jit::NativeKernelCache::compilerAvailable(&Reason))
    GTEST_SKIP() << "no JIT toolchain: " << Reason;
  TracingGuard G(false);
  SsymvFixture F(ExecOptions{}, /*N=*/120, /*Seed=*/13);
  const obs::ExecReport Before = F.run();
  EXPECT_EQ(Before.BodyEngine, "blocked>fused>interp");
  EXPECT_NE(Before.toJson().find("\"body_engine\":\"blocked>fused>interp\""),
            std::string::npos);
  const Status S = F.E.awaitNative();
  ASSERT_TRUE(S.ok()) << S.str();
  const obs::ExecReport After = F.run();
  EXPECT_EQ(After.BodyEngine, "native");
  EXPECT_NE(After.toJson().find("\"body_engine\":\"native\""),
            std::string::npos);
  // The tier is not part of the structure: same phases, loops and
  // counters on both sides of the switch.
  EXPECT_EQ(After.structureKey(), Before.structureKey());
}

TEST(ExecReport, TracingFlagRecordsPhaseAndLoopSpans) {
  TracingGuard G(true);
  obs::clearTrace();
  SsymvFixture F(ExecOptions{}, /*N=*/100, /*Seed=*/5);
  F.run();
  obs::setTracingEnabled(false);

  // The trace contains the phase spans and at least one labeled,
  // engine-attributed loop span.
  bool SawExecute = false, SawLoop = false;
  for (const obs::ThreadEvents &T : obs::collectTrace())
    for (const obs::TraceEvent &E : T.Events) {
      const std::string Name = E.Name, Cat = E.Cat;
      SawExecute |= Cat == "phase" && Name == "execute";
      SawLoop |= Cat == "loop" && Name.find("loop ") == 0 &&
                 Name.find('[') != std::string::npos;
    }
  EXPECT_TRUE(SawExecute);
  EXPECT_TRUE(SawLoop);
}

//===----------------------------------------------------------------------===//
// Front-end phases
//===----------------------------------------------------------------------===//

namespace {
const std::vector<std::string> FrontEndPhases{
    "analyze", "symmetrize", "passes", "lower-naive", "lower-optimized"};
} // namespace

TEST(CompilePhases, RecordedInOrderWithoutTracing) {
  TracingGuard G(false);
  const uint64_t Events = obs::traceEventCount();
  const CompileResult A = compileEinsum(makeMttkrp(3));
  EXPECT_EQ(obs::traceEventCount(), Events);
  std::vector<std::string> Names;
  uint64_t Total = 0;
  for (const obs::PhaseStat &P : A.Phases) {
    Names.push_back(P.Name);
    Total += P.Ns;
  }
  EXPECT_EQ(Names, FrontEndPhases);
  EXPECT_GT(Total, 0u);
  // The report carries no timing: a second compile reads the same.
  EXPECT_EQ(A.report(), compileEinsum(makeMttkrp(3)).report());
}

TEST(CompilePhases, TracedSpansNestInLower) {
  TracingGuard G(true);
  obs::clearTrace();
  const CompileResult R = compileEinsum(makeTtm());
  obs::setTracingEnabled(false);

  const obs::TraceEvent *Lower = nullptr;
  std::vector<const obs::TraceEvent *> Phases;
  const std::vector<obs::ThreadEvents> Collected = obs::collectTrace();
  for (const obs::ThreadEvents &T : Collected)
    for (const obs::TraceEvent &E : T.Events) {
      if (std::string(E.Cat) != "compile")
        continue;
      if (std::string(E.Name) == "lower")
        Lower = &E;
      else
        Phases.push_back(&E);
    }
  ASSERT_NE(Lower, nullptr);
  ASSERT_EQ(Phases.size(), FrontEndPhases.size());
  for (size_t I = 0; I < Phases.size(); ++I) {
    EXPECT_EQ(Phases[I]->Name, FrontEndPhases[I]);
    EXPECT_EQ(Phases[I]->DurNs, R.Phases[I].Ns);
    EXPECT_GE(Phases[I]->StartNs, Lower->StartNs);
    EXPECT_LE(Phases[I]->StartNs + Phases[I]->DurNs,
              Lower->StartNs + Lower->DurNs);
    if (I)
      EXPECT_GE(Phases[I]->StartNs,
                Phases[I - 1]->StartNs + Phases[I - 1]->DurNs);
  }
}
