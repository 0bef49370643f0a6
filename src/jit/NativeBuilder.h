//===- jit/NativeBuilder.h - Background native builds ---------*- C++ -*-===//
///
/// \file
/// The process-wide background worker that builds native bodies
/// (docs/CODEGEN.md, "Tiered execution"). An executor hands it an
/// emitted TU and keeps the returned NativeBuild; the worker loads it
/// through NativeKernelCache and resolves the build, and the executor
/// installs the body at the start of a later run.
///
///  - Bounded: at most MaxQueued jobs wait; a request beyond that
///    resolves at once with ErrCode::ResourceExhausted.
///  - Deduplicated: a request whose source and cache directory match a
///    queued or running job joins it, so one build serves every
///    executor of one kernel.
///  - Owner-scoped: the worker holds builds weakly. A job none of whose
///    executors is alive any more is dropped before it starts.
///  - Clean shutdown: at a normal process exit (return from main, or
///    exit()) queued jobs are dropped, a running compiler is killed and
///    reaped (NativeKernelCache::load's abort), and the worker is
///    joined; every unresolved build resolves with ErrCode::Cancelled.
///    A process ended by a signal runs no destructor: a compiler it
///    started finishes (or hangs) on its own (NativeKernelCache.h).
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_JIT_NATIVEBUILDER_H
#define SYSTEC_JIT_NATIVEBUILDER_H

#include "jit/NativeKernelCache.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace systec {
namespace jit {

/// One requested build. Its outcome is written once by the worker and
/// read by the requesting executor after done().
class NativeBuild {
public:
  /// Whether the build resolved (lock-free; the run-start check).
  bool done() const { return Done.load(std::memory_order_acquire); }
  /// Blocks until the build resolves.
  void wait();
  /// The outcome; only after done() or wait().
  Expected<NativeKernelCache::Loaded> &result() { return *Result; }

private:
  friend class NativeBuilder;
  void resolve(Expected<NativeKernelCache::Loaded> R);

  std::mutex Mu;
  std::condition_variable Cv;
  std::atomic<bool> Done{false};
  std::optional<Expected<NativeKernelCache::Loaded>> Result;
};

class NativeBuilder {
public:
  /// Jobs that may wait at once.
  static constexpr size_t MaxQueued = 64;

  /// The process-wide builder.
  static NativeBuilder &instance();

  /// Queues a build of \p Source into \p CacheDir (see
  /// NativeKernelCache::load) and returns its handle.
  std::shared_ptr<NativeBuild> submit(std::string Source,
                                      std::string CacheDir);

  ~NativeBuilder();

private:
  NativeBuilder() = default;

  struct Job {
    std::string Source, Dir;
    std::vector<std::weak_ptr<NativeBuild>> Waiters;
    bool abandoned() const;
  };

  void workerLoop();

  std::mutex Mu;
  std::condition_variable WorkCv;
  std::deque<std::shared_ptr<Job>> Queue;
  std::shared_ptr<Job> Running; ///< the job the worker is building
  /// One worker, started by the first submit: it is enough for every
  /// Threads=1 kind of kernels-exec to run native by the end of its 3 s
  /// warm-up from a cold cache on a 4-CPU VM (docs/CODEGEN.md).
  std::thread Worker;
  std::atomic<bool> Stopping{false};
};

} // namespace jit
} // namespace systec

#endif // SYSTEC_JIT_NATIVEBUILDER_H
