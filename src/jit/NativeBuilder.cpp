//===- jit/NativeBuilder.cpp - Background native builds -----------------===//

#include "jit/NativeBuilder.h"

#include "observability/Trace.h"

#include <algorithm>

namespace systec {
namespace jit {

void NativeBuild::wait() {
  std::unique_lock<std::mutex> Lock(Mu);
  Cv.wait(Lock, [&] { return done(); });
}

void NativeBuild::resolve(Expected<NativeKernelCache::Loaded> R) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Result.emplace(std::move(R));
    Done.store(true, std::memory_order_release);
  }
  Cv.notify_all();
}

bool NativeBuilder::Job::abandoned() const {
  return std::none_of(Waiters.begin(), Waiters.end(),
                      [](const std::weak_ptr<NativeBuild> &W) {
                        return !W.expired();
                      });
}

NativeBuilder &NativeBuilder::instance() {
  // The cache is constructed first, so it is destroyed after the
  // builder, whose shutdown may still be finishing a load.
  NativeKernelCache::instance();
  static NativeBuilder B;
  return B;
}

std::shared_ptr<NativeBuild> NativeBuilder::submit(std::string Source,
                                                   std::string CacheDir) {
  auto Build = std::make_shared<NativeBuild>();
  std::unique_lock<std::mutex> Lock(Mu);
  if (Stopping.load()) {
    Lock.unlock();
    Build->resolve(Status::error(ErrCode::Cancelled,
                                 "native builder shut down"));
    return Build;
  }
  auto Join = [&](const std::shared_ptr<Job> &J) {
    if (!J || J->Source != Source || J->Dir != CacheDir)
      return false;
    J->Waiters.push_back(Build);
    return true;
  };
  if (Join(Running) || std::any_of(Queue.begin(), Queue.end(), Join))
    return Build;
  if (Queue.size() >= MaxQueued)
    Queue.erase(std::remove_if(Queue.begin(), Queue.end(),
                               [](const std::shared_ptr<Job> &J) {
                                 return J->abandoned();
                               }),
                Queue.end());
  if (Queue.size() >= MaxQueued) {
    Lock.unlock();
    Build->resolve(Status::error(
        ErrCode::ResourceExhausted,
        "native build queue full (" + std::to_string(MaxQueued) +
            " jobs waiting)"));
    return Build;
  }
  auto J = std::make_shared<Job>();
  J->Source = std::move(Source);
  J->Dir = std::move(CacheDir);
  J->Waiters.push_back(Build);
  Queue.push_back(std::move(J));
  if (!Worker.joinable())
    Worker = std::thread([this] { workerLoop(); });
  Lock.unlock();
  WorkCv.notify_one();
  return Build;
}

void NativeBuilder::workerLoop() {
  obs::setThreadName("native-build");
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    WorkCv.wait(Lock, [&] { return Stopping.load() || !Queue.empty(); });
    if (Stopping.load())
      return;
    std::shared_ptr<Job> J = std::move(Queue.front());
    Queue.pop_front();
    if (J->abandoned())
      continue; // every executor that asked is gone
    Running = J;
    Lock.unlock();
    Expected<NativeKernelCache::Loaded> R =
        NativeKernelCache::instance().load(J->Source, J->Dir, &Stopping);
    Lock.lock();
    Running.reset();
    std::vector<std::shared_ptr<NativeBuild>> Live;
    for (const std::weak_ptr<NativeBuild> &W : J->Waiters)
      if (std::shared_ptr<NativeBuild> B = W.lock())
        Live.push_back(std::move(B));
    Lock.unlock();
    // The last waiter takes the result itself, so the worker keeps no
    // stake in the mapping once the build is handed over.
    for (size_t I = 0; I < Live.size(); ++I) {
      if (!R)
        Live[I]->resolve(R.status().clone());
      else if (I + 1 < Live.size())
        Live[I]->resolve(*R);
      else
        Live[I]->resolve(std::move(R));
    }
    Live.clear();
    Lock.lock();
  }
}

NativeBuilder::~NativeBuilder() {
  std::deque<std::shared_ptr<Job>> Dropped;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping.store(true);
    Dropped.swap(Queue);
  }
  WorkCv.notify_all();
  for (const std::shared_ptr<Job> &J : Dropped)
    for (const std::weak_ptr<NativeBuild> &W : J->Waiters)
      if (std::shared_ptr<NativeBuild> B = W.lock())
        B->resolve(Status::error(ErrCode::Cancelled,
                                 "native builder shut down"));
  if (Worker.joinable())
    Worker.join();
}

} // namespace jit
} // namespace systec
