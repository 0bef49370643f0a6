//===- runtime/PlanCache.h - Compiled-plan cache --------------*- C++ -*-===//
///
/// \file
/// LRU cache of prepared Executors for the long-running kernel service:
/// repeated requests for the same (einsum, operand structure, execution
/// options) skip einsum parsing, lowering, plan compilation, and
/// specialization — the cached executor is checked out, rebound onto
/// the request's tensors (Executor::rebind), run, and returned.
///
/// Key contract (makeKey): two requests share a plan exactly when all
/// of the following match —
///  - the einsum text and every declaration's format / fill / symmetry
///    (these drive the symmetry pipeline and lowering),
///  - every bound operand's name, storage format, dimensions, and fill
///    value (the compiled walkers, strides, and fused engines are
///    specialized to this structure — values are free to differ),
///  - the structural ExecOptions, as structuralOptionsSummary renders
///    them: threads, schedule, walk (sparse walk), lift (bound
///    lifting), privbudget_bytes (privatization budget) and engines
///    (the resolved engine list).
/// Per-request knobs — cancellation token, deadline, input
/// validation — are deliberately NOT part of the key; Executor::rebind
/// adopts them per request.
///
/// Checkout semantics: acquire() *removes* the entry, so one cached
/// executor never runs two requests concurrently. Concurrent requests
/// for the same key simply miss and compile fresh; release() re-inserts
/// the most recently finished executor (dropping any duplicate already
/// present) and evicts least-recently-used entries beyond capacity.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_RUNTIME_PLANCACHE_H
#define SYSTEC_RUNTIME_PLANCACHE_H

#include "ir/Einsum.h"
#include "runtime/Executor.h"

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

namespace systec {

class PlanCache {
public:
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t Entries = 0; ///< currently cached (checked-out excluded)
  };

  /// \p Capacity of 0 disables caching: every acquire misses and
  /// release destroys the executor.
  explicit PlanCache(size_t Capacity) : Capacity(Capacity) {}

  /// The cache key for one request (see the key contract above).
  /// \p Bindings supplies the operand structure; tensors the einsum
  /// does not mention are ignored by the executor, so including them
  /// in the key is harmless (callers normally bind exactly the
  /// declared tensors).
  static std::string makeKey(const Einsum &E,
                             const std::map<std::string, Tensor *> &Bindings,
                             const ExecOptions &O);

  /// Checks out the executor cached under \p Key, removing it from the
  /// cache (exclusive use). Null on a miss. Counts one hit or miss.
  std::unique_ptr<Executor> acquire(const std::string &Key);

  /// Returns a (still valid) executor to the cache under \p Key,
  /// making it the most recently used entry. A duplicate entry under
  /// the same key (a concurrent request that compiled fresh) is
  /// replaced; entries beyond capacity evict least-recently-used.
  void release(const std::string &Key, std::unique_ptr<Executor> E);

  Stats stats() const;

  /// Drops every cached entry (stats keep their tallies).
  void clear();

private:
  using Entry = std::pair<std::string, std::unique_ptr<Executor>>;

  const size_t Capacity;
  mutable std::mutex Mu;
  /// MRU-first; the map indexes into the list for O(log n) lookup.
  std::list<Entry> Lru;
  std::map<std::string, std::list<Entry>::iterator> Index;
  uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

} // namespace systec

#endif // SYSTEC_RUNTIME_PLANCACHE_H
