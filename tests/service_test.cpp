//===- tests/service_test.cpp ---------------------------------*- C++ -*-===//
///
/// The serving layer: PlanCache key/LRU/checkout semantics, the
/// Executor rebind fast path (cache hits skip plan compilation and
/// specialization, pinned by phase timers), KernelService request
/// lifecycle (hit/miss counters, admission control, per-request
/// cancellation), and a multi-executor concurrency stress suite
/// asserting per-request results bit-identical to solo runs under a
/// shared pool, mixed kernels, and random cancel injection. The stress
/// suite runs under TSan via the tsan_smoke target.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "parallel/ThreadPool.h"
#include "runtime/KernelService.h"
#include "runtime/PlanCache.h"
#include "support/Counters.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

using namespace systec;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// One workload: inputs plus output shape/initial value (mirrors the
/// end-to-end harness, smaller sizes — these run under TSan too).
struct Workload {
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  double OutInit = 0.0;
};

Workload makeWorkload(const std::string &Kernel, uint64_t Seed,
                      int64_t Scale = 1) {
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
  } else if (Kernel == "mttkrp3") {
    W.E = makeMttkrp(3);
    int64_t N = 7 + 2 * Scale, Rank = 4;
    W.Inputs.emplace("A", generateSymmetricTensor(3, N, 8 * N, R,
                                                  TensorFormat::csf(3)));
    W.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    W.OutDims = {N, Rank};
  } else {
    ADD_FAILURE() << "unknown kernel " << Kernel;
  }
  return W;
}

std::map<std::string, Tensor *> bindings(Workload &W, Tensor &Out) {
  std::map<std::string, Tensor *> B;
  for (auto &[Name, T] : W.Inputs)
    B[Name] = &T;
  B[W.E.Output->tensorName()] = &Out;
  return B;
}

Tensor freshOutput(const Workload &W) {
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  Out.setAllValues(W.OutInit);
  return Out;
}

/// Solo reference run: fresh compile + prepare + run, no service.
Tensor soloRun(Workload &W, ExecOptions Options = ExecOptions()) {
  CompileResult R = compileEinsum(W.E);
  Tensor Out = freshOutput(W);
  Executor E(R.Optimized, Options);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &Out);
  E.prepare();
  E.run();
  return Out;
}

/// Bit-identical comparison (== on every element; Inf compares equal
/// to Inf, and any drift — even 1 ulp — fails).
void expectBitIdentical(const Tensor &A, const Tensor &B,
                        const std::string &What) {
  ASSERT_EQ(A.vals().size(), B.vals().size()) << What;
  for (size_t I = 0; I < A.vals().size(); ++I)
    ASSERT_EQ(A.vals()[I], B.vals()[I]) << What << " element " << I;
}

} // namespace

//===----------------------------------------------------------------------===//
// PlanCache semantics
//===----------------------------------------------------------------------===//

TEST(PlanCache, KeyIsSensitiveToStructureNotValues) {
  Workload W1 = makeWorkload("ssymv", 1);
  Workload W2 = makeWorkload("ssymv", 2); // same structure, new values
  Tensor O1 = freshOutput(W1), O2 = freshOutput(W2);
  ExecOptions O;
  const std::string K1 = PlanCache::makeKey(W1.E, bindings(W1, O1), O);
  const std::string K2 = PlanCache::makeKey(W2.E, bindings(W2, O2), O);
  EXPECT_EQ(K1, K2) << "values must not affect the key";

  // A different operand dimension changes the key.
  Workload W3 = makeWorkload("ssymv", 1, 2);
  Tensor O3 = freshOutput(W3);
  EXPECT_NE(K1, PlanCache::makeKey(W3.E, bindings(W3, O3), O));

  // A structural option changes the key...
  ExecOptions Threaded;
  Threaded.Threads = 4;
  EXPECT_NE(K1, PlanCache::makeKey(W1.E, bindings(W1, O1), Threaded));
  ExecOptions NoMk;
  NoMk.Engines = {Engine::Interp};
  EXPECT_NE(K1, PlanCache::makeKey(W1.E, bindings(W1, O1), NoMk));

  // ...but the per-request knobs do not.
  ExecOptions PerRequest;
  CancelToken Tok;
  PerRequest.Cancel = &Tok;
  PerRequest.DeadlineMs = 50;
  PerRequest.ValidateInputs = ValidationLevel::Shallow;
  EXPECT_EQ(K1, PlanCache::makeKey(W1.E, bindings(W1, O1), PerRequest));

  // A different einsum is a different key.
  Workload W4 = makeWorkload("syprd", 1);
  Tensor O4 = freshOutput(W4);
  EXPECT_NE(K1, PlanCache::makeKey(W4.E, bindings(W4, O4), O));
}

TEST(PlanCache, CheckoutIsExclusiveAndLruEvicts) {
  Workload W = makeWorkload("ssymv", 1);
  CompileResult R = compileEinsum(W.E);

  PlanCache C(2);
  C.release("k1", std::make_unique<Executor>(R.Optimized, ExecOptions()));
  C.release("k2", std::make_unique<Executor>(R.Optimized, ExecOptions()));
  EXPECT_EQ(C.stats().Entries, 2u);

  // Checkout removes: a second acquire of the same key misses.
  std::unique_ptr<Executor> E1 = C.acquire("k1");
  EXPECT_NE(E1, nullptr);
  EXPECT_EQ(C.acquire("k1"), nullptr);
  EXPECT_EQ(C.stats().Hits, 1u);
  EXPECT_EQ(C.stats().Misses, 1u);

  // Release back, then exceed capacity: k2 is now least recently used.
  C.release("k1", std::move(E1));
  C.release("k3", std::make_unique<Executor>(R.Optimized, ExecOptions()));
  EXPECT_EQ(C.stats().Entries, 2u);
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.acquire("k2"), nullptr) << "k2 should have been evicted";
  EXPECT_NE(C.acquire("k3"), nullptr);

  // Capacity 0 disables caching entirely.
  PlanCache Off(0);
  Off.release("k", std::make_unique<Executor>(R.Optimized, ExecOptions()));
  EXPECT_EQ(Off.stats().Entries, 0u);
  EXPECT_EQ(Off.acquire("k"), nullptr);
}

//===----------------------------------------------------------------------===//
// Executor::rebind — the cache-hit fast path
//===----------------------------------------------------------------------===//

struct RebindParam {
  std::string Kernel;
  unsigned Threads;
};

class RebindSweep : public ::testing::TestWithParam<RebindParam> {};

TEST_P(RebindSweep, ReboundRunIsBitIdenticalAndSkipsCompilation) {
  const RebindParam &P = GetParam();
  ExecOptions Options;
  Options.Threads = P.Threads;

  Workload W1 = makeWorkload(P.Kernel, 1);
  Workload W2 = makeWorkload(P.Kernel, 2); // same structure, new values

  CompileResult R = compileEinsum(W1.E);
  Tensor Out1 = freshOutput(W1);
  Executor E(R.Optimized, Options);
  for (auto &[Name, T] : W1.Inputs)
    E.bind(Name, &T);
  E.bind(W1.E.Output->tensorName(), &Out1);
  ASSERT_TRUE(E.tryPrepare().ok());
  obs::ExecReport First;
  ASSERT_TRUE(E.tryRun(&First).ok());
  EXPECT_GT(First.phaseNs("plan-compile"), 0u);

  // Rebind onto the second workload's tensors and re-run.
  Tensor Out2 = freshOutput(W2);
  ASSERT_TRUE(E.rebind(bindings(W2, Out2), Options).ok());
  obs::ExecReport Second;
  ASSERT_TRUE(E.tryRun(&Second).ok());

  // The hit path must skip plan compilation and specialization
  // outright — pinned at exactly zero, not "small".
  EXPECT_EQ(Second.phaseNs("plan-compile"), 0u);
  EXPECT_EQ(Second.phaseNs("specialize"), 0u);

  // Results and counters are bit-identical to a fresh solo run over
  // the same tensors, and the structure key matches (same phases, same
  // loops, same counter deltas).
  Tensor Solo = soloRun(W2, Options);
  expectBitIdentical(Out2, Solo, P.Kernel + " rebound vs solo");
  CompileResult R2 = compileEinsum(W2.E);
  Tensor SoloOut = freshOutput(W2);
  Executor SoloE(R2.Optimized, Options);
  for (auto &[Name, T] : W2.Inputs)
    SoloE.bind(Name, &T);
  SoloE.bind(W2.E.Output->tensorName(), &SoloOut);
  ASSERT_TRUE(SoloE.tryPrepare().ok());
  obs::ExecReport SoloReport;
  ASSERT_TRUE(SoloE.tryRun(&SoloReport).ok());
  EXPECT_EQ(Second.structureKey(), SoloReport.structureKey());
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, RebindSweep,
    ::testing::Values(RebindParam{"ssymv", 1}, RebindParam{"ssymv", 4},
                      RebindParam{"bellmanford", 1},
                      RebindParam{"syprd", 4}, RebindParam{"ssyrk", 1},
                      RebindParam{"ssyrk", 4}, RebindParam{"mttkrp3", 4}),
    [](const ::testing::TestParamInfo<RebindParam> &I) {
      return I.param.Kernel + "_t" + std::to_string(I.param.Threads);
    });

TEST(Rebind, RejectsStructureMismatch) {
  Workload W = makeWorkload("ssymv", 1);
  CompileResult R = compileEinsum(W.E);
  Tensor Out = freshOutput(W);
  Executor E(R.Optimized, ExecOptions());
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &Out);
  ASSERT_TRUE(E.tryPrepare().ok());

  // Different dims.
  Workload Big = makeWorkload("ssymv", 1, 2);
  Tensor BigOut = freshOutput(Big);
  Status S = E.rebind(bindings(Big, BigOut), ExecOptions());
  EXPECT_EQ(S.code(), ErrCode::InvalidArgument);

  // Missing tensor.
  std::map<std::string, Tensor *> Partial;
  Partial["A"] = &W.Inputs.at("A");
  EXPECT_EQ(E.rebind(Partial, ExecOptions()).code(),
            ErrCode::UnboundTensor);

  // The executor stays runnable on its previous bindings after a
  // refused rebind.
  EXPECT_TRUE(E.tryRun().ok());
}

//===----------------------------------------------------------------------===//
// KernelService lifecycle
//===----------------------------------------------------------------------===//

TEST(KernelService, SecondRequestHitsTheCache) {
  ServiceOptions SO;
  SO.Workers = 1; // deterministic ordering
  KernelService Svc(SO);

  Workload W1 = makeWorkload("ssymv", 1);
  Workload W2 = makeWorkload("ssymv", 2);
  Tensor O1 = freshOutput(W1), O2 = freshOutput(W2);

  KernelRequest R1{"first", W1.E, bindings(W1, O1), ExecOptions()};
  auto H1 = Svc.submit(std::move(R1));
  ASSERT_TRUE(H1.ok());
  const RequestResult &Res1 = H1->wait();
  ASSERT_TRUE(Res1.St.ok()) << Res1.St.str();
  EXPECT_FALSE(Res1.CacheHit);
  EXPECT_GT(Res1.Report.phaseNs("plan-compile"), 0u);

  KernelRequest R2{"second", W2.E, bindings(W2, O2), ExecOptions()};
  auto H2 = Svc.submit(std::move(R2));
  ASSERT_TRUE(H2.ok());
  const RequestResult &Res2 = H2->wait();
  ASSERT_TRUE(Res2.St.ok()) << Res2.St.str();
  EXPECT_TRUE(Res2.CacheHit);
  // The pinned contract: a hit skips plan-compile and specialize.
  EXPECT_EQ(Res2.Report.phaseNs("plan-compile"), 0u);
  EXPECT_EQ(Res2.Report.phaseNs("specialize"), 0u);

  const KernelService::Stats St = Svc.stats();
  EXPECT_EQ(St.Cache.Hits, 1u);
  EXPECT_EQ(St.Cache.Misses, 1u);
  EXPECT_EQ(St.Completed, 2u);
  EXPECT_EQ(St.LatencyNs.count(), 2u);

  // Both results bit-identical to solo runs.
  Tensor Solo1 = soloRun(W1), Solo2 = soloRun(W2);
  expectBitIdentical(O1, Solo1, "first request");
  expectBitIdentical(O2, Solo2, "second request");
}

TEST(KernelService, PerRequestCountersReachReportAndAggregate) {
  setCountersEnabled(true);
  Workload W = makeWorkload("ssymv", 1);
  Tensor Out = freshOutput(W);
  ServiceOptions SO;
  SO.Workers = 1;
  KernelService Svc(SO);
  auto H = Svc.submit({"req", W.E, bindings(W, Out), ExecOptions()});
  ASSERT_TRUE(H.ok());
  const RequestResult &Res = H->wait();
  ASSERT_TRUE(Res.St.ok()) << Res.St.str();
  // The run did real work and its deltas are in the report...
  EXPECT_GT(Res.Report.Counters.SparseReads, 0u);
  // ...and in the service aggregate.
  EXPECT_EQ(Svc.stats().Counters.SparseReads,
            Res.Report.Counters.SparseReads);
}

TEST(KernelService, PreCancelledRequestAbortsCleanly) {
  ServiceOptions SO;
  SO.Workers = 1;
  KernelService Svc(SO);

  Workload W = makeWorkload("ssymv", 1);
  Tensor Out = freshOutput(W);
  const std::vector<double> InitVals = Out.vals();

  CancelToken Tok;
  Tok.cancel();
  ExecOptions O;
  O.Cancel = &Tok;
  auto H = Svc.submit({"cancelled", W.E, bindings(W, Out), O});
  ASSERT_TRUE(H.ok());
  const RequestResult &Res = H->wait();
  EXPECT_EQ(Res.St.code(), ErrCode::Cancelled);
  EXPECT_EQ(Res.Report.AbortReason, "cancelled");
  // Outputs untouched, and the aborted run's executor went back to the
  // cache (the plan survives a clean abort).
  EXPECT_EQ(Out.vals(), InitVals);
  EXPECT_EQ(Svc.stats().Failed, 1u);
  EXPECT_EQ(Svc.stats().Cache.Entries, 1u);

  // A fresh uncancelled request reuses the cached plan and completes.
  Tensor Out2 = freshOutput(W);
  auto H2 = Svc.submit({"retry", W.E, bindings(W, Out2), ExecOptions()});
  ASSERT_TRUE(H2.ok());
  const RequestResult &Res2 = H2->wait();
  ASSERT_TRUE(Res2.St.ok()) << Res2.St.str();
  EXPECT_TRUE(Res2.CacheHit);
  expectBitIdentical(Out2, soloRun(W), "post-cancel retry");
}

TEST(KernelService, AdmissionControlRejectsWhenQueueIsFull) {
  ServiceOptions SO;
  SO.Workers = 1;
  SO.QueueLimit = 3;
  KernelService Svc(SO);
  Svc.pause(); // nothing dequeues: the queue fills deterministically

  Workload W = makeWorkload("ssymv", 1);
  std::vector<Tensor> Outs;
  Outs.reserve(4);
  std::vector<RequestHandle> Handles;
  for (int I = 0; I < 3; ++I) {
    Outs.push_back(freshOutput(W));
    auto H = Svc.submit({"q" + std::to_string(I), W.E,
                         bindings(W, Outs.back()), ExecOptions()});
    ASSERT_TRUE(H.ok()) << "request " << I << " should be admitted";
    Handles.push_back(*H);
  }
  Outs.push_back(freshOutput(W));
  auto Rejected = Svc.submit(
      {"overflow", W.E, bindings(W, Outs.back()), ExecOptions()});
  ASSERT_FALSE(Rejected.ok());
  EXPECT_EQ(Rejected.status().code(), ErrCode::ResourceExhausted);

  Svc.resume();
  for (auto &H : Handles)
    EXPECT_TRUE(H.wait().St.ok());
  const KernelService::Stats St = Svc.stats();
  EXPECT_EQ(St.Submitted, 3u);
  EXPECT_EQ(St.Rejected, 1u);
  EXPECT_EQ(St.Completed, 3u);
}

TEST(KernelService, InvalidRequestsAreRejectedAtSubmit) {
  KernelService Svc;
  Workload W = makeWorkload("ssymv", 1);
  auto NoBindings = Svc.submit({"none", W.E, {}, ExecOptions()});
  ASSERT_FALSE(NoBindings.ok());
  EXPECT_EQ(NoBindings.status().code(), ErrCode::InvalidArgument);

  std::map<std::string, Tensor *> Null;
  Null["A"] = nullptr;
  auto NullBinding = Svc.submit({"null", W.E, Null, ExecOptions()});
  ASSERT_FALSE(NullBinding.ok());
  EXPECT_EQ(NullBinding.status().code(), ErrCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Concurrency stress: shared pool, mixed kernels, cancel injection
//===----------------------------------------------------------------------===//

TEST(ServiceStress, ConcurrentMixedKernelsMatchSoloBitForBit) {
  const std::vector<std::string> Kernels = {"ssymv", "syprd", "ssyrk",
                                            "mttkrp3"};
  const std::vector<unsigned> ThreadsSweep = {1, 4};

  // Solo references (and workload storage) first, single-threaded.
  struct Case {
    Workload W;
    Tensor Solo;
    ExecOptions Options;
  };
  std::vector<Case> Cases;
  for (const std::string &K : Kernels)
    for (unsigned T : ThreadsSweep)
      for (uint64_t Seed : {7u, 8u}) {
        Case C{makeWorkload(K, Seed), Tensor::dense({1}, 0.0), {}};
        C.Options.Threads = T;
        C.Solo = soloRun(C.W, C.Options);
        Cases.push_back(std::move(C));
      }

  // Two rounds through the service: round 0 populates the cache, round
  // 1 is all hits; both must match solo bit for bit.
  ServiceOptions SO;
  SO.Workers = 4;
  KernelService Svc(SO);
  for (int Round = 0; Round < 2; ++Round) {
    std::vector<Tensor> Outs;
    Outs.reserve(Cases.size());
    std::vector<RequestHandle> Handles;
    for (size_t I = 0; I < Cases.size(); ++I) {
      Outs.push_back(freshOutput(Cases[I].W));
      auto H = Svc.submit({"r" + std::to_string(Round) + "-" +
                               std::to_string(I),
                           Cases[I].W.E, bindings(Cases[I].W, Outs.back()),
                           Cases[I].Options});
      ASSERT_TRUE(H.ok());
      Handles.push_back(*H);
    }
    for (size_t I = 0; I < Handles.size(); ++I) {
      const RequestResult &Res = Handles[I].wait();
      ASSERT_TRUE(Res.St.ok()) << Res.St.str();
      ASSERT_TRUE(Res.Report.AbortReason.empty());
      expectBitIdentical(Outs[I], Cases[I].Solo,
                         "round " + std::to_string(Round) + " case " +
                             std::to_string(I));
    }
  }
  const KernelService::Stats St = Svc.stats();
  EXPECT_EQ(St.Completed, 2 * Cases.size());
  EXPECT_EQ(St.Failed, 0u);
  // The two seeds of each (kernel, threads) pair share a cache key, so
  // there are Cases/2 distinct keys. Round 1 guarantees one hit per
  // key (checkout is exclusive, so a same-key pair racing through
  // concurrent workers scores hit + miss); serialized pairs and round
  // 0 can add more.
  EXPECT_GE(St.Cache.Hits, Cases.size() / 2);
  EXPECT_EQ(St.RebindFailures, 0u);
}

TEST(ServiceStress, RandomCancelInjectionNeverCorruptsResults) {
  const std::vector<std::string> Kernels = {"ssymv", "ssyrk"};
  struct Case {
    Workload W;
    Tensor Solo;
    ExecOptions Options;
  };
  std::vector<Case> Cases;
  for (const std::string &K : Kernels)
    for (unsigned T : {1u, 4u}) {
      Case C{makeWorkload(K, 11, 2), Tensor::dense({1}, 0.0), {}};
      C.Options.Threads = T;
      C.Solo = soloRun(C.W, C.Options);
      Cases.push_back(std::move(C));
    }

  ServiceOptions SO;
  SO.Workers = 4;
  KernelService Svc(SO);

  const int Waves = 6;
  std::vector<Tensor> Outs;
  std::vector<std::vector<double>> Inits;
  std::vector<RequestHandle> Handles;
  std::vector<std::unique_ptr<CancelToken>> Tokens;
  std::vector<size_t> CaseOf;
  Outs.reserve(Waves * Cases.size());
  for (int Wv = 0; Wv < Waves; ++Wv)
    for (size_t I = 0; I < Cases.size(); ++I) {
      Outs.push_back(freshOutput(Cases[I].W));
      Inits.push_back(Outs.back().vals());
      Tokens.push_back(std::make_unique<CancelToken>());
      ExecOptions O = Cases[I].Options;
      // Every third request races a cancel; a mix of deadlines rides
      // along (generous enough to usually pass, tight enough to
      // occasionally fire under TSan).
      const size_t Idx = Outs.size() - 1;
      if (Idx % 3 == 0)
        O.Cancel = Tokens.back().get();
      if (Idx % 5 == 0)
        O.DeadlineMs = 200;
      auto H = Svc.submit({"inj" + std::to_string(Idx), Cases[I].W.E,
                           bindings(Cases[I].W, Outs.back()), O});
      ASSERT_TRUE(H.ok());
      Handles.push_back(*H);
      CaseOf.push_back(I);
    }

  // Cancel from a separate thread at staggered points mid-traffic.
  std::thread Canceller([&] {
    for (size_t Idx = 0; Idx < Tokens.size(); Idx += 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (Idx % 7)));
      Tokens[Idx]->cancel();
    }
  });
  Canceller.join();

  size_t Ok = 0, Aborted = 0;
  for (size_t Idx = 0; Idx < Handles.size(); ++Idx) {
    const RequestResult &Res = Handles[Idx].wait();
    if (Res.St.ok()) {
      ++Ok;
      // Completed requests are bit-identical to solo, reports clean.
      expectBitIdentical(Outs[Idx], Cases[CaseOf[Idx]].Solo,
                         "request " + std::to_string(Idx));
      EXPECT_TRUE(Res.Report.AbortReason.empty());
      if (Res.CacheHit)
        EXPECT_EQ(Res.Report.phaseNs("plan-compile"), 0u);
    } else {
      ++Aborted;
      // Aborted requests surface a real reason and leave the output
      // exactly as initialized.
      ASSERT_TRUE(Res.St.code() == ErrCode::Cancelled ||
                  Res.St.code() == ErrCode::DeadlineExceeded)
          << Res.St.str();
      EXPECT_FALSE(Res.Report.AbortReason.empty());
      EXPECT_EQ(Outs[Idx].vals(), Inits[Idx]) << "partial writes leaked";
    }
  }
  EXPECT_EQ(Ok + Aborted, Handles.size());
  const KernelService::Stats St = Svc.stats();
  EXPECT_EQ(St.Completed, Ok);
  EXPECT_EQ(St.Failed, Aborted);
}

//===----------------------------------------------------------------------===//
// Per-caller pool accounting under concurrent submitters
//===----------------------------------------------------------------------===//

TEST(ServiceStress, ConcurrentSubmittersGetSeparateCallerSlots) {
  ThreadPool Pool(2);
  std::atomic<unsigned> Id1{0}, Id2{0};
  auto Spin = [] {
    volatile double X = 1.0;
    for (int I = 0; I < 20000; ++I)
      X = X * 1.0000001;
    (void)X;
  };
  std::thread T1([&] {
    for (int I = 0; I < 4; ++I)
      Pool.parallelFor(6, [&](unsigned) { Spin(); });
    Id1 = Pool.currentCallerId();
  });
  std::thread T2([&] {
    for (int I = 0; I < 4; ++I)
      Pool.parallelFor(6, [&](unsigned) { Spin(); });
    Id2 = Pool.currentCallerId();
  });
  T1.join();
  T2.join();
  EXPECT_NE(Id1.load(), Id2.load())
      << "each submitting thread gets its own caller slot";

  const auto Snap = Pool.activitySnapshot();
  ASSERT_GT(Snap.Callers.size(), std::max(Id1.load(), Id2.load()));
  // Every task of every batch is accounted exactly once, across the
  // two caller slots and the workers.
  uint64_t Total = Snap.callersTotal().Tasks;
  for (const auto &W : Snap.Workers)
    Total += W.Tasks;
  EXPECT_EQ(Total, 2u * 4u * 6u);
  // Both submitters accumulated wait or exec time in their own slots
  // (ticket-FIFO submission always charges the queue wait to the
  // submitter that paid it).
  const auto &C1 = Snap.Callers[Id1.load()];
  const auto &C2 = Snap.Callers[Id2.load()];
  EXPECT_GT(C1.WaitNs + C1.ExecNs + C1.Tasks, 0u);
  EXPECT_GT(C2.WaitNs + C2.ExecNs + C2.Tasks, 0u);
}
