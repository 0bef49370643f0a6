//===- jit/NativeKernelCache.h - Compiled-.so on-disk cache ---*- C++ -*-===//
///
/// \file
/// Content-hash-keyed cache of JIT-compiled kernel shared objects. The
/// key is FNV-1a over (emitted source, compiler identification line,
/// compile flags), so a cached `.so` is valid for exactly the code it
/// was built from: any change to the emitter, the ABI structs (embedded
/// in the source), the compiler, or the flags produces a different hash
/// and simply misses. Entries live on disk as `<dir>/<hash>.{cpp,so}`
/// and are reused across processes and KernelService restarts — a warm
/// start performs no compiler invocation at all (Loaded::CompileNs
/// pinned at 0), making the cache the natural persistence layer under
/// the in-memory PlanCache.
///
/// Concurrency: compilation writes to `<hash>.so.tmp.<pid>` and
/// atomically renames into place, so concurrent processes racing on the
/// same key each produce a valid object and the last rename wins;
/// dlopened handles are shared process-wide through an internal
/// registry, so N executors of one kernel hold one mapping.
///
/// Ownership: the cache directory (created with mode 0700 when missing)
/// and every `.so` must belong to the effective user — the path itself
/// and its symlink target alike — before anything is written to or
/// dlopened from it; the default path is predictable and the names are
/// reproducible hashes, so another user's directory or file is refused.
///
/// Fallback contract: every failure path — no host compiler on PATH,
/// a cache directory or object another user owns, compilation error,
/// dlopen/dlsym failure — returns a typed Status (never aborts). `SYSTEC_JIT_DISABLE=1` forces the unavailable path
/// (for testing degraded environments); `SYSTEC_JIT_CXX` overrides the
/// compiler (default: the compiler that built the library, then `c++`).
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_JIT_NATIVEKERNELCACHE_H
#define SYSTEC_JIT_NATIVEKERNELCACHE_H

#include "jit/NativeAbi.h"
#include "support/Status.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace systec {
namespace jit {

class NativeKernelCache {
public:
  /// One loaded kernel: the resolved entry point plus a shared
  /// ownership stake in the dlopened object (the mapping stays valid
  /// while any copy of Handle lives).
  struct Loaded {
    NativeKernelFn Fn = nullptr;
    std::shared_ptr<void> Handle;
    /// Nanoseconds spent inside the compiler invocation for this load;
    /// 0 when the .so came from disk or the in-process handle registry
    /// (the acceptance signal that a warm start recompiled nothing).
    uint64_t CompileNs = 0;
    std::string SoPath;
  };

  /// The process-wide cache (shared dlopen registry).
  static NativeKernelCache &instance();

  /// Compiles (or reuses) \p Source and returns its entry point.
  /// \p CacheDir names the on-disk cache directory; empty resolves to
  /// $SYSTEC_JIT_CACHE_DIR, then a per-user temp default.
  Expected<Loaded> load(const std::string &Source,
                        const std::string &CacheDir);

  /// Whether a host compiler is available right now (probes once;
  /// SYSTEC_JIT_DISABLE is re-read per call). On false, \p Reason (if
  /// non-null) receives the explanation load() would return.
  static bool compilerAvailable(std::string *Reason = nullptr);

  /// The compiler identification line mixed into cache keys (first
  /// line of `--version`); empty when unavailable.
  static std::string compilerId();

  /// Testing hook: drops the in-process dlopen registry so the next
  /// load() must go to disk — simulates a fresh process over a warm
  /// cache directory. Existing Loaded handles stay valid (shared
  /// ownership); only future loads re-open.
  void dropHandles();

private:
  std::mutex Mu;
  std::map<std::string, Loaded> Handles; ///< content hash -> loaded
};

} // namespace jit
} // namespace systec

#endif // SYSTEC_JIT_NATIVEKERNELCACHE_H
