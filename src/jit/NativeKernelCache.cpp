//===- jit/NativeKernelCache.cpp - Compiled-.so on-disk cache -----------===//

#include "jit/NativeKernelCache.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

namespace systec {
namespace jit {

namespace {

namespace fs = std::filesystem;

/// Flags the cache compiles with; part of the content hash. No
/// fast-math: the native body must stay bit-identical to the
/// interpreter. -w because the emitted flat-slot style leaves unused
/// variables by design.
const char *compileFlags() { return "-std=c++17 -O2 -fPIC -shared -w"; }

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string fnv1aHex(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// The compiler command: $SYSTEC_JIT_CXX, else the compiler that built
/// the library (baked by CMake), else `c++`.
std::string compilerCommand() {
  if (const char *Env = std::getenv("SYSTEC_JIT_CXX"); Env && *Env)
    return Env;
#ifdef SYSTEC_HOST_CXX
  return SYSTEC_HOST_CXX;
#else
  return "c++";
#endif
}

std::string defaultCacheDir() {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Base = Tmp && *Tmp ? Tmp : "/tmp";
  return Base + "/systec-jit-cache-" + std::to_string(getuid());
}

/// Requires that the effective user owns \p Path: both the path as given
/// (lstat, so a planted symlink is refused) and what it resolves to
/// (stat). The default cache directory has a predictable name and
/// cached objects are named by a reproducible hash, so anything another
/// user created there could hand dlopen an object they wrote.
Status requireOwned(const std::string &Path, const char *What) {
  struct stat L, S;
  const uid_t Me = ::geteuid();
  if (::lstat(Path.c_str(), &L) == 0 && ::stat(Path.c_str(), &S) == 0 &&
      L.st_uid == Me && S.st_uid == Me)
    return Status::success();
  return Status::error(ErrCode::ResourceExhausted,
                       std::string("refusing ") + What + " '" + Path +
                           "': not owned by the effective user (uid " +
                           std::to_string(Me) + ")");
}

/// Creates \p Dir (mode 0700; missing parents with default modes) and
/// requires that the effective user owns it — checked before anything
/// is written to or loaded from it.
Status prepareCacheDir(const std::string &Dir) {
  fs::path P(Dir);
  if (!P.has_filename())
    P = P.parent_path(); // "dir/" names "dir"
  std::error_code EC;
  fs::create_directories(P.parent_path(), EC);
  if (::mkdir(P.c_str(), 0700) != 0 && errno != EEXIST)
    return Status::error(ErrCode::ResourceExhausted,
                         "cannot create cache dir '" + Dir +
                             "': " + std::strerror(errno));
  return requireOwned(Dir, "cache directory");
}

std::string readFirstLine(const std::string &Path) {
  std::ifstream In(Path);
  std::string Line;
  std::getline(In, Line);
  return Line;
}

std::string readTail(const std::string &Path, size_t MaxBytes = 2000) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string All = SS.str();
  if (All.size() > MaxBytes)
    All = "..." + All.substr(All.size() - MaxBytes);
  return All;
}

/// One-time probe of the host compiler: runs `--version`, remembers
/// availability and the identification line. Cached per process (the
/// compiler does not come and go); the SYSTEC_JIT_DISABLE escape hatch
/// is checked dynamically by callers so tests can flip it per case.
struct ToolchainProbe {
  bool Available = false;
  std::string Command;
  std::string Id;
  std::string Reason;
};

const ToolchainProbe &probeToolchain() {
  static const ToolchainProbe P = [] {
    ToolchainProbe T;
    T.Command = compilerCommand();
    const std::string Dir = defaultCacheDir();
    if (Status S = prepareCacheDir(Dir); !S.ok()) {
      T.Reason = "toolchain probe: " + S.str();
      return T;
    }
    std::string Out = Dir + "/probe-" + std::to_string(getpid()) + ".txt";
    std::error_code EC;
    std::string Cmd =
        "\"" + T.Command + "\" --version > \"" + Out + "\" 2>&1";
    int Rc = std::system(Cmd.c_str());
    if (Rc != 0) {
      T.Reason = "host compiler '" + T.Command +
                 "' not runnable (--version exited " + std::to_string(Rc) +
                 ")";
    } else {
      T.Id = readFirstLine(Out);
      T.Available = !T.Id.empty();
      if (!T.Available)
        T.Reason = "host compiler '" + T.Command +
                   "' produced no version banner";
    }
    fs::remove(Out, EC);
    return T;
  }();
  return P;
}

bool jitDisabled() {
  const char *Env = std::getenv("SYSTEC_JIT_DISABLE");
  return Env && *Env && std::string(Env) != "0";
}

} // namespace

NativeKernelCache &NativeKernelCache::instance() {
  static NativeKernelCache C;
  return C;
}

bool NativeKernelCache::compilerAvailable(std::string *Reason) {
  if (jitDisabled()) {
    if (Reason)
      *Reason = "JIT disabled by SYSTEC_JIT_DISABLE";
    return false;
  }
  const ToolchainProbe &P = probeToolchain();
  if (!P.Available && Reason)
    *Reason = P.Reason;
  return P.Available;
}

std::string NativeKernelCache::compilerId() {
  const ToolchainProbe &P = probeToolchain();
  return P.Available ? P.Id : std::string();
}

void NativeKernelCache::dropHandles() {
  std::lock_guard<std::mutex> Lock(Mu);
  Handles.clear();
}

Expected<NativeKernelCache::Loaded>
NativeKernelCache::load(const std::string &Source,
                        const std::string &CacheDir) {
  std::string Reason;
  if (!compilerAvailable(&Reason))
    return Status::error(ErrCode::ResourceExhausted, Reason)
        .withContext("native kernel cache");

  std::string Dir = CacheDir;
  if (Dir.empty())
    if (const char *Env = std::getenv("SYSTEC_JIT_CACHE_DIR"); Env && *Env)
      Dir = Env;
  if (Dir.empty())
    Dir = defaultCacheDir();
  if (Status S = prepareCacheDir(Dir); !S.ok())
    return std::move(S).withContext("native kernel cache");

  const ToolchainProbe &P = probeToolchain();
  const std::string Hash =
      fnv1aHex(Source + '\0' + P.Id + '\0' + compileFlags());

  std::lock_guard<std::mutex> Lock(Mu);
  if (auto It = Handles.find(Hash); It != Handles.end()) {
    Loaded L = It->second;
    L.CompileNs = 0; // registry hit: nothing compiled for this load
    return L;
  }

  std::error_code EC;

  const std::string Base = Dir + "/" + Hash;
  const std::string So = Base + ".so";
  uint64_t CompileNs = 0;

  if (!fs::exists(So, EC)) {
    // Cold: persist the source next to the object (debuggability and
    // the compile input), then build to a temp name and rename — the
    // atomic publish that makes concurrent same-key compiles safe.
    const std::string Pid = std::to_string(getpid());
    const std::string CppTmp = Base + ".cpp.tmp." + Pid;
    const std::string Cpp = Base + ".cpp";
    {
      std::ofstream Out(CppTmp);
      Out << Source;
      if (!Out)
        return Status::error(ErrCode::ResourceExhausted,
                             "cannot write source '" + CppTmp + "'")
            .withContext("native kernel cache");
    }
    fs::rename(CppTmp, Cpp, EC);
    if (EC)
      return Status::error(ErrCode::ResourceExhausted,
                           "cannot publish source '" + Cpp +
                               "': " + EC.message())
          .withContext("native kernel cache");

    const std::string SoTmp = So + ".tmp." + Pid;
    const std::string Log = Base + ".log." + Pid;
    std::string Cmd = "\"" + P.Command + "\" " + compileFlags() +
                      " -o \"" + SoTmp + "\" \"" + Cpp + "\" 2> \"" +
                      Log + "\"";
    const uint64_t T0 = nowNs();
    int Rc = std::system(Cmd.c_str());
    CompileNs = nowNs() - T0;
    if (Rc != 0) {
      std::string Tail = readTail(Log);
      fs::remove(Log, EC);
      fs::remove(SoTmp, EC);
      return Status::error(ErrCode::Internal,
                           "compilation failed (exit " +
                               std::to_string(Rc) + "): " + Tail)
          .withContext("native kernel cache")
          .withContext(Cpp);
    }
    fs::remove(Log, EC);
    fs::rename(SoTmp, So, EC);
    if (EC)
      return Status::error(ErrCode::ResourceExhausted,
                           "cannot publish object '" + So +
                               "': " + EC.message())
          .withContext("native kernel cache");
  }

  if (Status S = requireOwned(So, "cached object"); !S.ok())
    return std::move(S).withContext("native kernel cache");
  void *Handle = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *E = dlerror();
    return Status::error(ErrCode::Internal,
                         "dlopen failed: " + std::string(E ? E : "?"))
        .withContext("native kernel cache")
        .withContext(So);
  }
  std::shared_ptr<void> Shared(Handle, [](void *H) { dlclose(H); });
  void *Sym = dlsym(Handle, nativeEntrySymbol());
  if (!Sym)
    return Status::error(ErrCode::Internal,
                         std::string("entry symbol '") +
                             nativeEntrySymbol() + "' not found")
        .withContext("native kernel cache")
        .withContext(So);

  Loaded L;
  L.Fn = reinterpret_cast<NativeKernelFn>(Sym);
  L.Handle = std::move(Shared);
  L.CompileNs = CompileNs;
  L.SoPath = So;
  Handles.emplace(Hash, L);
  return L;
}

} // namespace jit
} // namespace systec
