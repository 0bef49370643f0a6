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
/// Verification: the `.cpp` the cache compiles is the emitted source
/// plus one exported key symbol naming the hash and the source length.
/// Every object must be a whole ELF file before `dlopen` (which faults
/// on a truncated one instead of failing) and carry this key after it;
/// a cached file that fails either check, or that `dlopen` rejects, is
/// rebuilt once.
///
/// The compiler runs without a shell (posix_spawn, PATH-searched), in
/// its own process group, under a timeout (setCompileTimeoutMs); a
/// compiler that overruns it, or whose caller aborts the load, is
/// killed with its whole group and reaped before load() returns, so no
/// compiler outlives the call. Its own group keeps the terminal's
/// SIGINT from reaching it: a host ended by a signal, which runs no
/// destructor and so no abort, leaves a running compiler to finish (or
/// hang) on its own.
///
/// Concurrency: the cache lock covers only the registry lookup and the
/// publish, never a compile (nor the compiler probe), so a registry hit
/// never waits behind an unrelated build. Concurrent loads of one key
/// share a single build: later callers wait for it (or for their own
/// abort) and take the object it publishes; when it fails they build
/// for themselves, since a failure may belong to its caller's
/// directory, timeout or abort. Compilation writes
/// to `<hash>.so.tmp.<pid>` and atomically renames into place, so
/// processes racing on the same key each produce a valid object and the
/// last rename wins; dlopened handles are shared process-wide through
/// the registry, so N executors of one kernel hold one mapping.
///
/// Ownership: the cache directory (created with mode 0700 when missing)
/// and every `.so` must belong to the effective user — the path itself
/// and its symlink target alike — before anything is written to or
/// dlopened from it; the default path is predictable and the names are
/// reproducible hashes, so another user's directory or file is refused.
/// A directory its owner cannot write (mode without u+w) serves warm
/// objects but refuses cold builds.
///
/// Fallback contract: every failure path — no host compiler on PATH,
/// a cache directory or object another user owns, a read-only cache
/// directory, compilation error or timeout, dlopen/dlsym failure —
/// returns a typed Status (never aborts). `SYSTEC_JIT_DISABLE=1` forces
/// the unavailable path (for testing degraded environments);
/// `SYSTEC_JIT_CXX` overrides the compiler (default: the compiler that
/// built the library, then `c++`). Both are read on every call.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_JIT_NATIVEKERNELCACHE_H
#define SYSTEC_JIT_NATIVEKERNELCACHE_H

#include "jit/NativeAbi.h"
#include "support/Status.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
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

  /// How long one compiler run may take before it is killed.
  static constexpr uint64_t DefaultCompileTimeoutMs = 60000;

  /// The process-wide cache (shared dlopen registry).
  static NativeKernelCache &instance();

  /// Compiles (or reuses) \p Source and returns its entry point.
  /// \p CacheDir names the on-disk cache directory; empty resolves to
  /// $SYSTEC_JIT_CACHE_DIR, then a per-user temp default. When
  /// \p Abort becomes true while the compiler runs, the compiler is
  /// killed and the load fails with ErrCode::Cancelled.
  Expected<Loaded> load(const std::string &Source,
                        const std::string &CacheDir,
                        const std::atomic<bool> *Abort = nullptr);

  /// Whether a host compiler is available right now (probes each
  /// compiler command once; SYSTEC_JIT_DISABLE is re-read per call).
  /// On false, \p Reason (if non-null) receives the explanation load()
  /// would return.
  static bool compilerAvailable(std::string *Reason = nullptr);

  /// The compiler identification line mixed into cache keys (first
  /// line of `--version`); empty when unavailable.
  static std::string compilerId();

  /// Testing hook: drops the in-process dlopen registry so the next
  /// load() must go to disk — simulates a fresh process over a warm
  /// cache directory. Existing Loaded handles stay valid (shared
  /// ownership); only future loads re-open.
  void dropHandles();

  /// Testing hook: sets the compiler timeout (probe and compile) of
  /// later runs; DefaultCompileTimeoutMs restores the default.
  void setCompileTimeoutMs(uint64_t Ms);

private:
  std::mutex Mu;
  std::condition_variable BuildCv;
  std::map<std::string, Loaded> Handles; ///< content hash -> loaded
  /// Hashes being built; loads of one of them wait for it.
  std::set<std::string> InFlight;
};

} // namespace jit
} // namespace systec

#endif // SYSTEC_JIT_NATIVEKERNELCACHE_H
