//===- perfbench/src/ServiceMixed.cpp - Open-loop serving -----*- C++ -*-===//
///
/// \file
/// Workload `service-mixed`: open loop into one KernelService with two
/// workers. Requests mix ssymv, syprd, bellmanford, ssyrk, ttm and
/// mttkrp3 at mid sizes with Threads in {1, 2} (12 request kinds, drawn
/// uniformly from the seed). About 10% carry a never-seen structure
/// (fresh extents, generated in set-up), so cache misses, compiles and
/// LRU evictions run beside rebind hits.
///
/// Timing follows the open-loop rules: request i is due at start + i/rate
/// whether or not earlier ones finished; its latency runs from that due
/// time to the moment a single collector thread observes its completion
/// (polling every handle, so completions are seen as they happen, not in
/// submission order); how late the generator submitted is reported.
///
/// After two seconds of warm-up traffic, about two thirds of the run
/// offer a fixed rate well below capacity (latencies, throughput); the
/// rest bisects for the highest offered rate that meets the p99 limit
/// without a growing backlog.
///
/// Why: queue wait, plan-cache checkout and rebind carry the load here,
/// together with the per-request re-materialization of transposes and
/// diagonal splits; a change that speeds hits but slows misses shows up
/// here and nowhere else.
///
//===----------------------------------------------------------------------===//

#include "Cases.h"
#include "Common.h"

#include "core/Compiler.h"
#include "runtime/KernelService.h"
#include "runtime/PlanCache.h"
#include "support/Counters.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>

using namespace systec;

namespace pb {

namespace {

const char *const MixKernels[] = {"ssymv", "syprd", "bellmanford",
                                  "ssyrk", "ttm",   "mttkrp3"};
const unsigned MixThreads[] = {1, 2};

/// Offered rate of the fixed-rate part (requests/s), well below capacity.
constexpr double FixedRate = 150;
/// The latency limit sustained_rps is defined against (p99, from due).
constexpr double P99LimitMs = 50;
/// Share of requests with a never-seen structure.
constexpr double FreshShare = 0.10;
/// The capacity search brackets [FixedRate, MaxRateFactor * FixedRate].
constexpr double MaxRateFactor = 8;
constexpr int SearchSteps = 6;
/// Untimed traffic before the fixed-rate part: caches, the allocator and
/// the kernel scheduler's placement of the threads requests wake settle.
constexpr double WarmupSeconds = 2;

CaseSize midSize(const std::string &K, int64_t Grow) {
  if (K == "ssymv" || K == "syprd" || K == "bellmanford")
    return {1000 + Grow, 8000, 0};
  if (K == "ssyrk")
    return {150 + Grow, 1200, 0};
  if (K == "ttm")
    return {24 + Grow, 1000, 8};
  return {40 + Grow, 2000, 8}; // mttkrp3
}

/// One request kind: a kernel case at its base size and a thread count,
/// with a pool of output tensors recycled by the collector.
struct Kind {
  KernelCase *Case = nullptr;
  unsigned Threads = 1;
  std::string Label;
  uint32_t Tag = 0;

  Tensor *take() {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Free.empty()) {
      Storage.push_back(Case->freshOutput());
      return &Storage.back();
    }
    Tensor *T = Free.back();
    Free.pop_back();
    return T;
  }
  void give(Tensor *T) {
    std::lock_guard<std::mutex> Lock(Mu);
    Free.push_back(T);
  }

private:
  std::mutex Mu;
  std::deque<Tensor> Storage; ///< stable addresses
  std::vector<Tensor *> Free;
};

struct FreshCase {
  std::unique_ptr<KernelCase> Case;
  size_t Kind = 0;
  Tensor Out;
};

struct Request {
  uint64_t Id = 0;
  size_t Kind = 0;
  bool Fresh = false;
  KernelCase *Case = nullptr;
  Tensor *Out = nullptr;
  uint64_t DueNs = 0, DoneNs = 0, SubmittedNs = 0;
  int64_t Span = -1;
  RequestHandle H;
  bool Ok = false, Hit = false;
  uint64_t FrontendNs = 0, RunNs = 0;
};

struct State {
  std::vector<std::unique_ptr<KernelCase>> Cases;
  std::vector<std::unique_ptr<Kind>> Kinds;
  std::vector<FreshCase> Fresh;
  size_t NextFresh = 0;
  uint64_t FreshReused = 0;
  std::unique_ptr<KernelService> Svc;
};

KernelRequest makeRequest(const Request &R, unsigned Threads) {
  KernelRequest K;
  K.Label = R.Case->Name + "#" + std::to_string(R.Id);
  K.E = R.Case->E;
  K.Bindings = R.Case->bindings(*R.Out);
  K.Options.Threads = Threads;
  return K;
}

/// Builds the cases, the fresh structures and the service, and warms the
/// plan cache with one request per kind (each a compile and prepare).
std::unique_ptr<State> setUp(RunContext &Ctx, size_t FreshCount) {
  auto S = std::make_unique<State>();
  for (const char *K : MixKernels) {
    S->Cases.push_back(std::make_unique<KernelCase>(
        makeCase(K, midSize(K, 0), Ctx.Seed, Reference::Baseline)));
    for (unsigned T : MixThreads) {
      auto Kd = std::make_unique<Kind>();
      Kd->Case = S->Cases.back().get();
      Kd->Threads = T;
      Kd->Label = std::string(K) + ".t" + std::to_string(T);
      Kd->Tag = tracer().tag(Kd->Label);
      S->Kinds.push_back(std::move(Kd));
    }
  }
  // Fresh structures: extents grown by 1, 2, ... per kernel, so no two
  // share a plan-cache key with each other or with a base case.
  Rng Pick(Ctx.Seed * 31 + 7);
  std::vector<int64_t> Grow(S->Kinds.size(), 0);
  for (size_t I = 0; I < FreshCount; ++I) {
    FreshCase F;
    F.Kind = size_t(Pick.nextIndex(int64_t(S->Kinds.size())));
    const std::string &K = S->Kinds[F.Kind]->Case->Name;
    const int64_t G = ++Grow[F.Kind / 2];
    F.Case = std::make_unique<KernelCase>(
        makeCase(K, midSize(K, G), Ctx.Seed + G, Reference::Baseline));
    F.Out = F.Case->freshOutput();
    S->Fresh.push_back(std::move(F));
  }
  ServiceOptions SO;
  SO.Workers = 2;
  S->Svc = std::make_unique<KernelService>(SO);
  for (auto &Kd : S->Kinds) {
    Request R;
    R.Case = Kd->Case;
    R.Out = Kd->take();
    Expected<RequestHandle> H = S->Svc->submit(makeRequest(R, Kd->Threads));
    const bool Ok = H.ok() && H->wait().St.ok() &&
                    outputMatches(*R.Out, R.Case->Expected);
    tally(Ctx, Ok);
    R.Out->setAllValues(R.Case->OutFill);
    Kd->give(R.Out);
  }
  return S;
}

struct PhaseResult {
  std::vector<std::unique_ptr<Request>> Done;
  uint64_t Offered = 0, Rejected = 0, OutstandingAtEnd = 0;
  uint64_t StartNs = 0, LastDoneNs = 0;
  std::vector<double> LateMs;

  std::vector<double> latenciesMs() const {
    std::vector<double> L;
    for (const auto &R : Done)
      L.push_back(nsToMs(R->DoneNs - R->DueNs));
    return L;
  }
  uint64_t failed() const {
    uint64_t F = Rejected;
    for (const auto &R : Done)
      F += !R->Ok;
    return F;
  }
  /// Meets the latency limit with no failures and no growing backlog
  /// (more than a limit's worth of arrivals still waiting at the end).
  bool sustained(double Rate) const {
    std::vector<double> L = latenciesMs();
    return failed() == 0 && !L.empty() &&
           percentile(L, 99) <= P99LimitMs &&
           double(OutstandingAtEnd) <= Rate * P99LimitMs / 1e3;
  }
};

/// Offers \p Rate requests/s for \p Seconds, then drains.
PhaseResult runPhase(RunContext &Ctx, State &S, double Rate, double Seconds,
                     uint64_t PhaseSeed, bool CountRejected) {
  PhaseResult P;
  std::mutex InboxMu;
  std::vector<std::unique_ptr<Request>> Inbox;
  bool GenDone = false;
  std::atomic<uint64_t> Completed{0};

  // The collector: sees completions as they happen, stamps them first,
  // then checks outputs and recycles tensors.
  std::thread Collector([&] {
    std::vector<std::unique_ptr<Request>> Pending;
    while (true) {
      bool Finished;
      {
        std::lock_guard<std::mutex> Lock(InboxMu);
        for (auto &R : Inbox)
          Pending.push_back(std::move(R));
        Inbox.clear();
        Finished = GenDone;
      }
      size_t NDone = 0;
      for (auto &R : Pending)
        if (R->H.done()) {
          R->DoneNs = nowNs();
          ++NDone;
        }
      if (!NDone) {
        if (Finished && Pending.empty())
          break;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      Completed += NDone;
      for (auto &R : Pending) {
        if (!R->DoneNs)
          continue;
        const uint64_t W0 = nowNs();
        const RequestResult &Res = R->H.wait();
        if (tracer().On)
          tracer().record("service.wait", S.Kinds[R->Kind]->Tag, R->Id, W0,
                          nowNs(), R->Span);
        R->Ok = Res.St.ok() && outputMatches(*R->Out, R->Case->Expected);
        R->Hit = Res.CacheHit;
        R->FrontendNs = Res.FrontendNs;
        R->RunNs =
            Res.Report.phaseNs("execute") + Res.Report.phaseNs("epilogue");
        R->H = RequestHandle();
        R->Out->setAllValues(R->Case->OutFill);
        if (!R->Fresh)
          S.Kinds[R->Kind]->give(R->Out);
        if (R->Span >= 0)
          tracer().finish(R->Span, R->DoneNs);
        P.LastDoneNs = std::max(P.LastDoneNs, R->DoneNs);
        P.Done.push_back(std::move(R));
      }
      Pending.erase(std::remove(Pending.begin(), Pending.end(), nullptr),
                    Pending.end());
    }
  });

  Rng Mix(PhaseSeed);
  P.StartNs = nowNs() + 1000000;
  const uint64_t EndNs = P.StartNs + uint64_t(Seconds * 1e9);
  for (uint64_t I = 0;; ++I) {
    const uint64_t Due = P.StartNs + uint64_t(double(I) * 1e9 / Rate);
    if (Due >= EndNs)
      break;
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(Due)));
    const uint64_t T0 = nowNs();
    P.LateMs.push_back(nsToMs(T0 - Due));

    auto R = std::make_unique<Request>();
    R->Id = (PhaseSeed << 24) + I + 1;
    R->DueNs = Due;
    R->Fresh = Mix.nextDouble() < FreshShare;
    R->Kind = size_t(Mix.nextIndex(int64_t(S.Kinds.size())));
    if (R->Fresh) {
      if (S.NextFresh == S.Fresh.size()) {
        S.NextFresh = 0;
        ++S.FreshReused;
      }
      FreshCase &F = S.Fresh[S.NextFresh++];
      R->Kind = F.Kind;
      R->Case = F.Case.get();
      R->Out = &F.Out;
    } else {
      R->Case = S.Kinds[R->Kind]->Case;
      R->Out = S.Kinds[R->Kind]->take();
    }
    const Kind &Kd = *S.Kinds[R->Kind];
    if (tracer().On)
      R->Span = tracer().record("service.request", Kd.Tag, R->Id, Due, 0, -1);
    Expected<RequestHandle> H = S.Svc->submit(makeRequest(*R, Kd.Threads));
    R->SubmittedNs = nowNs();
    if (tracer().On)
      tracer().record("service.submit", Kd.Tag, R->Id, T0, R->SubmittedNs,
                      R->Span);
    ++P.Offered;
    if (!H.ok()) {
      ++P.Rejected;
      if (R->Span >= 0)
        tracer().finish(R->Span, R->SubmittedNs);
      R->Out->setAllValues(R->Case->OutFill);
      if (!R->Fresh)
        S.Kinds[R->Kind]->give(R->Out);
      continue;
    }
    R->H = *H;
    std::lock_guard<std::mutex> Lock(InboxMu);
    Inbox.push_back(std::move(R));
  }
  P.OutstandingAtEnd = P.Offered - P.Rejected - Completed.load();
  {
    std::lock_guard<std::mutex> Lock(InboxMu);
    GenDone = true;
  }
  Collector.join();
  // Every completed request's output was checked; a rejection fails the
  // request only at the fixed rate (capacity probes overload on purpose,
  // and admission control is the service's answer to that).
  for (const auto &R : P.Done)
    tally(Ctx, R->Ok);
  if (CountRejected)
    for (uint64_t I = 0; I < P.Rejected; ++I)
      tally(Ctx, false);
  return P;
}

/// Per-kind latency summary of a fixed-rate phase (from due time).
KindSummary kindLatencies(RunContext &Ctx, State &S, const PhaseResult &P) {
  std::vector<std::vector<double>> PerKind(S.Kinds.size());
  for (const auto &R : P.Done)
    PerKind[R->Kind].push_back(nsToMs(R->DoneNs - R->DueNs));
  std::vector<std::pair<std::string, const std::vector<double> *>> Kinds;
  for (size_t K = 0; K < PerKind.size(); ++K)
    Kinds.push_back({S.Kinds[K]->Label, &PerKind[K]});
  return summarizeKinds(Kinds, Ctx);
}

/// Highest offered rate that is sustained (see PhaseResult::sustained):
/// a geometric bisection between the fixed rate and MaxRateFactor times
/// it; the answer is the geometric middle of the final bracket. A probe
/// that fails is run once more and fails only if the rerun fails too: a
/// single host stall of a few tens of ms can break the p99 of a short
/// probe, and one such fluke would otherwise discard half the bracket.
double searchCapacity(RunContext &Ctx, State &S, bool FixedOk,
                      double Seconds) {
  double Lo = FixedRate, Hi = FixedRate * MaxRateFactor;
  const double Step = Seconds / (SearchSteps + 2);
  if (!FixedOk) { // below the fixed rate: bracket downwards instead
    Hi = FixedRate;
    Lo = FixedRate / MaxRateFactor;
  }
  uint64_t Probe = 0;
  for (int I = 0; I < SearchSteps; ++I) {
    const double Mid = std::sqrt(Lo * Hi);
    bool Ok = false;
    for (int Try = 0; Try < 2 && !Ok; ++Try) {
      PhaseResult P =
          runPhase(Ctx, S, Mid, Step, Ctx.Seed * 1000 + 11 + Probe++, false);
      Ok = P.sustained(Mid);
      Ctx.note(fmt("capacity probe %.1f req/s: p99=%.3f ms outstanding=%llu "
                   "rejected=%llu -> %s",
                   Mid, percentile(P.latenciesMs(), 99),
                   (unsigned long long)P.OutstandingAtEnd,
                   (unsigned long long)P.Rejected,
                   Ok ? "sustained" : "not sustained"));
    }
    (Ok ? Lo : Hi) = Mid;
  }
  return std::sqrt(Lo * Hi);
}

/// Materializes kernel \p K's aliases from outside, exactly as the
/// executor's materialize step does: diagonal splits first (both halves
/// from one pass per source), then transposes (possibly of split halves).
void materializeFromOutside(const Kernel &K, const KernelCase &C,
                            uint32_t Tag) {
  std::map<std::string, const Tensor *> B;
  for (const auto &[Name, T] : C.Inputs)
    B[Name] = &T;
  std::deque<Tensor> Owned;
  std::map<std::string, std::pair<const Tensor *, const Tensor *>> Split;
  for (const SplitRequest &Req : K.Splits) {
    auto It = Split.find(Req.Source);
    if (It == Split.end()) {
      Scope Span("tensor.splitDiagonal", Tag);
      auto [Off, Diag] =
          B.at(Req.Source)->splitDiagonal(K.Decls.at(Req.Source).Symmetry);
      Owned.push_back(std::move(Off));
      const Tensor *OffP = &Owned.back();
      Owned.push_back(std::move(Diag));
      It = Split.insert({Req.Source, {OffP, &Owned.back()}}).first;
    }
    B[Req.Alias] = Req.DiagonalPart ? It->second.second : It->second.first;
  }
  for (const TransposeRequest &Req : K.Transposes) {
    const Tensor *Src = B.at(Req.Source);
    TensorFormat Format = TensorFormat::dense(Src->order());
    if (auto It = K.Decls.find(Req.Alias); It != K.Decls.end())
      Format = It->second.Format;
    Scope Span("tensor.transposed", Tag);
    Owned.push_back(Src->transposed(Req.ModePerm, Format));
    B[Req.Alias] = &Owned.back();
  }
}

/// Per-layer ledger of the serving path, timed from outside: the tensor
/// layer's materialization per kernel, and the runtime's PlanCache
/// checkout, rebind and miss front end, driven directly.
void ledger(RunContext &Ctx, State &S) {
  std::vector<double> RebindMs, MissMs;
  for (auto &CP : S.Cases) {
    KernelCase &C = *CP;
    const uint32_t Tag = tracer().tag(C.Name);
    const Kernel K = compileEinsum(C.E).Optimized;
    std::vector<double> MatMs;
    for (int I = 0; I < 15; ++I) {
      const uint64_t T0 = nowNs();
      materializeFromOutside(K, C, Tag);
      MatMs.push_back(nsToMs(nowNs() - T0));
    }
    Ctx.metric("tensor.transpose_ms." + C.Name, median(MatMs), "ms");

    ExecOptions O;
    Tensor Out = C.freshOutput();
    std::map<std::string, Tensor *> Bind = C.bindings(Out);
    std::string Key;
    {
      Scope Span("runtime.PlanCache::makeKey", Tag);
      Key = PlanCache::makeKey(C.E, Bind, O);
    }
    std::vector<double> Miss;
    PlanCache Cache(4);
    for (int I = 0; I < 3; ++I) {
      PlanCache Cold(4);
      const uint64_t T0 = nowNs();
      std::unique_ptr<Executor> Ex;
      {
        Scope Span("runtime.missFrontend", Tag);
        Ex = Cold.acquire(Key);
        if (!Ex) {
          Ex = std::make_unique<Executor>(compileEinsum(C.E).Optimized, O);
          for (auto &[Name, T] : Bind)
            Ex->bind(Name, T);
          if (!Ex->tryPrepare().ok())
            Ex.reset();
        }
      }
      Miss.push_back(nsToMs(nowNs() - T0));
      tally(Ctx, Ex != nullptr);
      if (Ex)
        Cache.release(Key, std::move(Ex));
    }
    MissMs.push_back(median(Miss));

    std::vector<double> Rebind;
    for (int I = 0; I < 20; ++I) {
      Tensor Fresh = C.freshOutput();
      std::map<std::string, Tensor *> NewBind = C.bindings(Fresh);
      std::unique_ptr<Executor> Ex;
      {
        Scope Span("runtime.PlanCache::acquire", Tag);
        Ex = Cache.acquire(Key);
      }
      if (!Ex) {
        tally(Ctx, false);
        break;
      }
      const uint64_t T0 = nowNs();
      Status St = [&] {
        Scope Span("runtime.rebind", Tag);
        return Ex->rebind(NewBind, O);
      }();
      Rebind.push_back(nsToMs(nowNs() - T0));
      const bool Ok = St.ok() && Ex->tryRunBody().ok() &&
                      Ex->tryRunEpilogue().ok() &&
                      outputMatches(Fresh, C.Expected);
      tally(Ctx, Ok);
      Scope Span("runtime.PlanCache::release", Tag);
      Cache.release(Key, std::move(Ex));
    }
    RebindMs.push_back(median(Rebind));
  }
  Ctx.metric("runtime.rebind_ms", mean(RebindMs), "ms");
  Ctx.metric("runtime.miss_frontend_ms", mean(MissMs), "ms");
}

} // namespace

void runServiceMixed(RunContext &Ctx) {
  setCountersEnabled(false);
  const double FixedSecs = Ctx.Seconds * (Ctx.Trace ? 0.5 : 0.65);
  // Enough fresh structures that every fresh request of the warm-up and
  // the fixed rate is never-seen (mean plus a wide margin). Later phases
  // reuse them round-robin: by then each has long been evicted from the
  // plan cache, so a reuse still misses, compiles and evicts.
  const size_t FreshCount =
      size_t(1.3 * FreshShare * FixedRate * (WarmupSeconds + FixedSecs)) + 16;

  const int Reps = Ctx.Trace ? 1 : 3;
  std::vector<double> SetupS;
  std::unique_ptr<State> S;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    S.reset();
    const uint64_t T0 = nowNs();
    S = setUp(Ctx, FreshCount);
    SetupS.push_back(double(nowNs() - T0) / 1e9);
  }
  Ctx.ChecksRan = true;

  // Warm-up traffic, checked but not recorded (see WarmupSeconds).
  runPhase(Ctx, *S, FixedRate, WarmupSeconds, Ctx.Seed * 1000 + 7, true);

  PhaseResult Fixed =
      runPhase(Ctx, *S, FixedRate, FixedSecs, Ctx.Seed * 1000, true);
  const KindSummary Sum = kindLatencies(Ctx, *S, Fixed);
  const std::vector<double> Lat = Fixed.latenciesMs();
  uint64_t Hits = 0;
  std::vector<double> HitFront, MissFront, QueueMs;
  for (const auto &R : Fixed.Done) {
    Hits += R->Hit;
    (R->Hit ? HitFront : MissFront).push_back(nsToMs(R->FrontendNs));
    // Queue wait, derived: submit-to-completion minus the service time
    // the program reports (front end + execute + epilogue).
    const double Svc = nsToMs(R->FrontendNs + R->RunNs);
    QueueMs.push_back(
        std::max(0.0, nsToMs(R->DoneNs - R->SubmittedNs) - Svc));
  }
  Ctx.note(fmt("fixed rate %.0f req/s for %.1f s: offered=%llu rejected=%llu "
               "outstanding_at_end=%llu fresh_reused=%llu",
               FixedRate, FixedSecs, (unsigned long long)Fixed.Offered,
               (unsigned long long)Fixed.Rejected,
               (unsigned long long)Fixed.OutstandingAtEnd,
               (unsigned long long)S->FreshReused));
  Ctx.note(fmt("program-reported front end: hits p50 %.3f ms, misses p50 "
               "%.3f ms (%zu misses)",
               median(HitFront), median(MissFront), MissFront.size()));

  if (!Ctx.Trace) {
    const double Secs = double(Fixed.LastDoneNs - Fixed.StartNs) / 1e9;
    const bool FixedOk = Fixed.sustained(FixedRate);
    Ctx.metric("op_ms_p10_geo", Sum.TypGeo, "ms");
    Ctx.metric("op_ms_tail_geo", Sum.TailGeo, "ms");
    const auto Completed =
        std::count_if(Fixed.Done.begin(), Fixed.Done.end(),
                      [](const auto &R) { return R->Ok; });
    Ctx.metric("ops_per_s", double(Completed) / Secs, "1/s");
    Ctx.metric("sustained_rps",
               searchCapacity(Ctx, *S, FixedOk, Ctx.Seconds - FixedSecs),
               "1/s");
    commonMetrics(Ctx, SetupS);
    return;
  }

  tracer().On = true;
  PhaseResult Traced =
      runPhase(Ctx, *S, FixedRate, FixedSecs, Ctx.Seed * 1000, true);
  Ctx.metric("trace.overhead_pct",
             100.0 * (median(Traced.latenciesMs()) / median(Lat) - 1.0),
             "%");
  const KernelService::Stats St = S->Svc->stats();
  Ctx.metric("service.queue_ms_p50", percentile(QueueMs, 50), "ms");
  Ctx.metric("service.queue_ms_p99", percentile(QueueMs, 99), "ms");
  Ctx.metric("runtime.plan_cache_hit_frac",
             double(Hits) / double(std::max<size_t>(Fixed.Done.size(), 1)),
             "frac");
  Ctx.metric("runtime.plan_cache_evictions", double(St.Cache.Evictions),
             "count");
  Ctx.metric("service.rebind_failures", double(St.RebindFailures), "count");
  Ctx.metric("loadgen.late_ms_p99", percentile(Fixed.LateMs, 99), "ms");
  Ctx.note(fmt("program-reported KernelService: queue wait mean %.3f ms, "
               "latency mean %.3f ms over %llu requests",
               St.QueueNs.mean() / 1e6, St.LatencyNs.mean() / 1e6,
               (unsigned long long)St.LatencyNs.count()));
  ledger(Ctx, *S);
  tracer().On = false;
}

} // namespace pb
