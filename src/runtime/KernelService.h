//===- runtime/KernelService.h - Long-running kernel service --*- C++ -*-===//
///
/// \file
/// The serving layer over the SySTeC runtime: a long-running service
/// that accepts einsum execution requests, compiles each distinct
/// (einsum, operand structure, options) once into a prepared Executor
/// cached in a PlanCache, and runs many in-flight requests concurrently
/// over the shared process ThreadPool.
///
/// Request lifecycle: submit() enqueues the request and returns a
/// future-like RequestHandle (or ErrCode::ResourceExhausted when the
/// admission queue is full — backpressure, not blocking). A service
/// worker dequeues it, checks the plan cache:
///  - hit: the cached executor is rebound onto the request's tensors
///    (Executor::rebind — no parsing, lowering, plan compilation, or
///    specialization; the run's report shows those phases at 0),
///  - miss (or a rebind the structure check rejects): the einsum is
///    compiled through the full pipeline and a fresh executor prepared,
/// then runs with the request's per-request knobs (cancellation token,
/// deadline, input validation, tracing), and the executor returns to
/// the cache. Each request gets its own by-value ExecReport carrying
/// exactly its counts; the service aggregates those per-request
/// snapshots itself (stats().Counters).
///
/// Fairness: concurrent request executions share the persistent
/// ThreadPool; batches from different requests interleave in strict
/// arrival order (the pool's submission ticket queue), and each
/// request's report windows its own per-caller activity slot.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_RUNTIME_KERNELSERVICE_H
#define SYSTEC_RUNTIME_KERNELSERVICE_H

#include "ir/Einsum.h"
#include "observability/Histogram.h"
#include "observability/Report.h"
#include "runtime/Executor.h"
#include "runtime/PlanCache.h"
#include "support/Status.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace systec {

struct ServiceOptions {
  /// Service worker threads draining the request queue — the number of
  /// requests in flight at once. Each in-flight request additionally
  /// fans out over the shared ThreadPool when its options ask for
  /// Threads > 1.
  unsigned Workers = 2;
  /// Admission control: submit() rejects with ResourceExhausted once
  /// this many requests are queued (in-flight requests do not count).
  size_t QueueLimit = 64;
  /// Plan-cache capacity (distinct executors kept warm); 0 disables
  /// caching.
  size_t CacheCapacity = 32;
};

/// One execution request: a declared einsum (formats, fills, symmetries
/// set on the declarations), the tensors to run it over, and the
/// execution options. The structural options select/key the compiled
/// plan; Cancel / DeadlineMs / ValidateInputs / Tracing apply to this
/// request only. Bound tensors must outlive the request's completion.
struct KernelRequest {
  std::string Label; ///< for logs/benches; not part of the cache key
  Einsum E;
  std::map<std::string, Tensor *> Bindings;
  ExecOptions Options;
};

/// What one request produced. Move-only (owns a Status).
struct RequestResult {
  Status St = Status::success();
  /// The run's by-value report (phase timings, loops, workers, exact
  /// counter deltas). On an aborted run, AbortReason is set and the
  /// phases describe the aborted attempt; on a front-end failure the
  /// report is empty.
  obs::ExecReport Report;
  bool CacheHit = false;   ///< plan came from the cache (rebind path)
  uint64_t FrontendNs = 0; ///< lowering + plan compile + prepare on a
                           ///< miss; the rebind repatch on a hit
};

/// Future-like handle to one submitted request. Copyable; all copies
/// share the result state, which outlives the service.
class RequestHandle {
public:
  /// Blocks until the request finished; returns the result (valid as
  /// long as any handle copy is alive).
  const RequestResult &wait() const;
  bool done() const;

private:
  friend class KernelService;
  struct State {
    mutable std::mutex Mu;
    mutable std::condition_variable Cv;
    bool Done = false;
    RequestResult Res;
  };
  std::shared_ptr<State> St;
};

class KernelService {
public:
  /// Service-level observability: admission tallies, end-to-end and
  /// queue-wait latency histograms, the plan cache's hit/miss/evict
  /// counters, and the aggregate of every completed request's exact
  /// counter deltas.
  struct Stats {
    uint64_t Submitted = 0;
    uint64_t Rejected = 0;  ///< admission-control rejections
    uint64_t Completed = 0; ///< finished ok
    uint64_t Failed = 0;    ///< finished with an error status
    /// Cache hits whose rebind was refused (structure mismatch under a
    /// colliding key); the request fell back to a fresh compile.
    uint64_t RebindFailures = 0;
    obs::LogHistogram LatencyNs; ///< submit -> completion
    obs::LogHistogram QueueNs;   ///< submit -> dequeue (admission wait)
    CounterSnapshot Counters;    ///< sum of completed requests' deltas
    PlanCache::Stats Cache;
  };

  explicit KernelService(ServiceOptions Options = ServiceOptions());
  /// Fails every still-queued request with ErrCode::Cancelled, waits
  /// for in-flight requests to finish, and joins the workers.
  ~KernelService();

  KernelService(const KernelService &) = delete;
  KernelService &operator=(const KernelService &) = delete;

  /// Enqueues \p R. Fails with ResourceExhausted when the queue is at
  /// QueueLimit (admission control) and InvalidArgument on a request
  /// with no bindings or a null tensor.
  Expected<RequestHandle> submit(KernelRequest R);

  /// Stops workers from dequeuing (in-flight requests finish). With
  /// submissions still accepted, the queue fills deterministically —
  /// how the admission-control tests exercise rejection.
  void pause();
  void resume();

  Stats stats() const;

private:
  void workerLoop();
  /// Compile-or-rebind, run, and release back to the cache.
  RequestResult process(KernelRequest &R);

  const ServiceOptions Options;
  PlanCache Cache;

  mutable std::mutex Mu;
  std::condition_variable WorkCv;
  std::deque<std::pair<KernelRequest,
                       std::shared_ptr<RequestHandle::State>>>
      Queue; ///< each entry also carries its enqueue timestamp below
  std::deque<uint64_t> QueuedAt;
  bool Paused = false;
  bool Stopping = false;
  std::vector<std::thread> Workers;

  // Stats (guarded by StatMu so completion never contends with submit).
  mutable std::mutex StatMu;
  Stats Tallies;
};

} // namespace systec

#endif // SYSTEC_RUNTIME_KERNELSERVICE_H
