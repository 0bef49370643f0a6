//===- runtime/KernelService.cpp ------------------------------*- C++ -*-===//

#include "runtime/KernelService.h"

#include "core/Compiler.h"
#include "observability/Trace.h"

#include <cassert>

namespace systec {

const RequestResult &RequestHandle::wait() const {
  assert(St && "waiting on a default-constructed handle");
  std::unique_lock<std::mutex> Lock(St->Mu);
  St->Cv.wait(Lock, [&] { return St->Done; });
  return St->Res;
}

bool RequestHandle::done() const {
  assert(St && "polling a default-constructed handle");
  std::lock_guard<std::mutex> Lock(St->Mu);
  return St->Done;
}

KernelService::KernelService(ServiceOptions OptionsIn)
    : Options(OptionsIn), Cache(OptionsIn.CacheCapacity) {
  const unsigned N = Options.Workers ? Options.Workers : 1;
  Workers.reserve(N);
  for (unsigned W = 0; W < N; ++W)
    Workers.emplace_back([this, W] {
      obs::setThreadName("svc-" + std::to_string(W));
      workerLoop();
    });
}

KernelService::~KernelService() {
  std::deque<std::pair<KernelRequest, std::shared_ptr<RequestHandle::State>>>
      Remaining;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
    Paused = false;
    Remaining.swap(Queue);
    QueuedAt.clear();
  }
  WorkCv.notify_all();
  for (auto &[R, St] : Remaining) {
    {
      std::lock_guard<std::mutex> Lock(St->Mu);
      St->Res.St = Status::error(ErrCode::Cancelled,
                                 "service shut down before request '" +
                                     R.Label + "' ran");
      St->Done = true;
    }
    St->Cv.notify_all();
  }
  for (std::thread &T : Workers)
    T.join();
}

Expected<RequestHandle> KernelService::submit(KernelRequest R) {
  if (R.Bindings.empty())
    return Status::error(ErrCode::InvalidArgument,
                         "request '" + R.Label + "' binds no tensors");
  for (const auto &[Name, T] : R.Bindings)
    if (!T)
      return Status::error(ErrCode::InvalidArgument,
                           "request '" + R.Label +
                               "' binds null tensor under " + Name);
  RequestHandle H;
  H.St = std::make_shared<RequestHandle::State>();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopping)
      return Status::error(ErrCode::Cancelled, "service shutting down");
    if (Queue.size() >= Options.QueueLimit) {
      std::lock_guard<std::mutex> SLock(StatMu);
      ++Tallies.Rejected;
      return Status::error(ErrCode::ResourceExhausted,
                           "request queue full (limit " +
                               std::to_string(Options.QueueLimit) + ")");
    }
    Queue.emplace_back(std::move(R), H.St);
    QueuedAt.push_back(obs::nowNs());
  }
  {
    std::lock_guard<std::mutex> SLock(StatMu);
    ++Tallies.Submitted;
  }
  WorkCv.notify_one();
  return H;
}

void KernelService::pause() {
  std::lock_guard<std::mutex> Lock(Mu);
  Paused = true;
}

void KernelService::resume() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Paused = false;
  }
  WorkCv.notify_all();
}

void KernelService::workerLoop() {
  while (true) {
    KernelRequest R;
    std::shared_ptr<RequestHandle::State> St;
    uint64_t EnqueuedNs = 0;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      WorkCv.wait(Lock,
                  [&] { return Stopping || (!Paused && !Queue.empty()); });
      if (Stopping)
        return;
      R = std::move(Queue.front().first);
      St = std::move(Queue.front().second);
      Queue.pop_front();
      EnqueuedNs = QueuedAt.front();
      QueuedAt.pop_front();
    }
    const uint64_t Dequeued = obs::nowNs();
    RequestResult Res = process(R);
    const uint64_t Finished = obs::nowNs();
    {
      std::lock_guard<std::mutex> SLock(StatMu);
      Tallies.QueueNs.add(Dequeued - EnqueuedNs);
      Tallies.LatencyNs.add(Finished - EnqueuedNs);
      if (Res.St.ok()) {
        ++Tallies.Completed;
        obs::addCounters(Tallies.Counters, Res.Report.Counters);
      } else {
        ++Tallies.Failed;
      }
    }
    {
      std::lock_guard<std::mutex> Lock(St->Mu);
      St->Res = std::move(Res);
      St->Done = true;
    }
    St->Cv.notify_all();
  }
}

RequestResult KernelService::process(KernelRequest &R) {
  RequestResult Out;
  const std::string Key = PlanCache::makeKey(R.E, R.Bindings, R.Options);

  const uint64_t F0 = obs::nowNs();
  std::unique_ptr<Executor> Ex = Cache.acquire(Key);
  if (Ex) {
    if (Status S = Ex->rebind(R.Bindings, R.Options); S.ok()) {
      Out.CacheHit = true;
    } else {
      // A colliding key whose structure check refused the rebind;
      // drop the entry and compile fresh (correctness never depends on
      // the cache).
      std::lock_guard<std::mutex> SLock(StatMu);
      ++Tallies.RebindFailures;
      Ex.reset();
    }
  }
  if (!Ex) {
    CompileResult CR = compileEinsum(R.E);
    Ex = std::make_unique<Executor>(std::move(CR.Optimized), R.Options);
    for (const auto &[Name, T] : R.Bindings)
      Ex->bind(Name, T);
    if (Status S = Ex->tryPrepare(); !S.ok()) {
      Out.St = std::move(S).withContext("request '" + R.Label + "'");
      Out.FrontendNs = obs::nowNs() - F0;
      return Out; // never prepared; nothing worth caching
    }
  }
  Out.FrontendNs = obs::nowNs() - F0;

  Out.St = Ex->tryRun(&Out.Report);
  if (!Out.St.ok())
    Out.St = std::move(Out.St).withContext("request '" + R.Label + "'");
  // The plan survives completed runs and clean aborts alike (an
  // aborted run restores its outputs); keep it warm either way.
  Cache.release(Key, std::move(Ex));
  return Out;
}

KernelService::Stats KernelService::stats() const {
  Stats Out;
  {
    std::lock_guard<std::mutex> SLock(StatMu);
    Out = Tallies;
  }
  Out.Cache = Cache.stats();
  return Out;
}

} // namespace systec
