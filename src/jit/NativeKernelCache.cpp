//===- jit/NativeKernelCache.cpp - Compiled-.so on-disk cache -----------===//

#include "jit/NativeKernelCache.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <dlfcn.h>
#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace systec {
namespace jit {

namespace {

namespace fs = std::filesystem;

/// Flags the cache compiles with; part of the content hash. No
/// fast-math: the native body must stay bit-identical to the
/// interpreter. -w because the emitted flat-slot style leaves unused
/// variables by design.
const char *compileFlags() { return "-std=c++17 -O2 -fPIC -shared -w"; }

/// The exported symbol the cache appends to every TU it compiles and
/// checks after dlopen (see the header's "Verification").
const char *keySymbol() { return "systec_native_key"; }

/// Compiler timeout of later runs (setCompileTimeoutMs).
std::atomic<uint64_t> CompileTimeoutMs{
    NativeKernelCache::DefaultCompileTimeoutMs};

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

/// A cold build writes into \p Dir; its owner must be able to. Checked
/// on the mode bits rather than by trying, so a directory its owner
/// made read-only is refused even where the process could override the
/// bits.
Status requireWritable(const std::string &Dir) {
  struct stat S;
  if (::stat(Dir.c_str(), &S) == 0 && (S.st_mode & S_IWUSR))
    return Status::success();
  return Status::error(ErrCode::ResourceExhausted,
                       "cache directory '" + Dir +
                           "' is read-only; cannot build a new object");
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

/// How one spawned tool run ended.
struct SpawnResult {
  bool Exited0 = false;  ///< ran and exited with status 0
  bool TimedOut = false; ///< killed at the timeout
  bool Aborted = false;  ///< killed because the caller aborted
  std::string Error;     ///< why it failed, when it did
};

/// Runs \p Argv (Argv[0] searched on PATH; no shell) with stdin from
/// /dev/null and stdout and stderr into \p OutPath, in a process group
/// of its own, for at most CompileTimeoutMs. On timeout or when
/// \p Abort becomes true the whole group is killed and the child reaped
/// before this returns, so nothing the tool started outlives the call.
SpawnResult runTimed(const std::vector<std::string> &Argv,
                     const std::string &OutPath,
                     const std::atomic<bool> *Abort) {
  SpawnResult R;
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  posix_spawn_file_actions_t Files;
  posix_spawn_file_actions_init(&Files);
  posix_spawn_file_actions_addopen(&Files, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&Files, 1, OutPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_adddup2(&Files, 1, 2);
  posix_spawnattr_t Attr;
  posix_spawnattr_init(&Attr);
  sigset_t NoSignals;
  sigemptyset(&NoSignals);
  posix_spawnattr_setsigmask(&Attr, &NoSignals);
  posix_spawnattr_setpgroup(&Attr, 0);
  posix_spawnattr_setflags(&Attr, POSIX_SPAWN_SETPGROUP |
                                      POSIX_SPAWN_SETSIGMASK);
  pid_t Pid = 0;
  const int Rc =
      posix_spawnp(&Pid, Args[0], &Files, &Attr, Args.data(), environ);
  posix_spawnattr_destroy(&Attr);
  posix_spawn_file_actions_destroy(&Files);
  if (Rc != 0) {
    R.Error = "cannot start '" + Argv[0] + "': " + std::strerror(Rc);
    return R;
  }
  const uint64_t TimeoutMs = CompileTimeoutMs.load();
  const uint64_t Deadline = nowNs() + TimeoutMs * 1000000ull;
  unsigned SleepUs = 200;
  for (;;) {
    int St = 0;
    const pid_t W = ::waitpid(Pid, &St, WNOHANG);
    if (W == Pid) {
      R.Exited0 = WIFEXITED(St) && WEXITSTATUS(St) == 0;
      if (!R.Exited0)
        R.Error = WIFEXITED(St)
                      ? "exited " + std::to_string(WEXITSTATUS(St))
                      : "killed by signal " + std::to_string(WTERMSIG(St));
      return R;
    }
    if (W < 0 && errno != EINTR) {
      R.Error = std::string("waitpid: ") + std::strerror(errno);
      return R;
    }
    const bool Stop = Abort && Abort->load();
    if (Stop || nowNs() >= Deadline) {
      ::kill(-Pid, SIGKILL);
      while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR) {
      }
      (Stop ? R.Aborted : R.TimedOut) = true;
      R.Error = Stop ? "abandoned: the caller aborted the build"
                     : "killed after the " + std::to_string(TimeoutMs) +
                           " ms timeout";
      return R;
    }
    ::usleep(SleepUs);
    SleepUs = std::min(SleepUs * 2, 5000u);
  }
}

/// One probe of a host compiler: runs `--version`, remembers
/// availability and the identification line.
struct ToolchainProbe {
  bool Available = false;
  bool Aborted = false; ///< the caller aborted it: nothing was learned
  std::string Command;
  std::string Id;
  std::string Reason;
};

/// Probes by compiler command. Namespace-scope, so they outlive the
/// background builder (constructed on first use) at exit.
std::mutex ProbeMu;
std::map<std::string, ToolchainProbe> Probes;
std::atomic<unsigned> ProbeRuns{0};

/// The probe of the current compiler command, run once per command
/// (the compiler does not come and go, but SYSTEC_JIT_CXX may change);
/// the SYSTEC_JIT_DISABLE escape hatch is checked dynamically by
/// callers so tests can flip it per case. The compiler runs outside
/// ProbeMu, so a slow one holds up no other caller, and an aborted
/// probe is not remembered.
ToolchainProbe probeToolchain(const std::atomic<bool> *Abort = nullptr) {
  const std::string Command = compilerCommand();
  {
    std::lock_guard<std::mutex> Lock(ProbeMu);
    if (auto It = Probes.find(Command); It != Probes.end())
      return It->second;
  }
  ToolchainProbe T;
  T.Command = Command;
  const std::string Dir = defaultCacheDir();
  if (Status S = prepareCacheDir(Dir); !S.ok()) {
    T.Reason = "toolchain probe: " + S.str();
  } else {
    std::string Out = Dir + "/probe-" + std::to_string(getpid()) + "-" +
                      std::to_string(ProbeRuns++) + ".txt";
    SpawnResult R = runTimed({T.Command, "--version"}, Out, Abort);
    if (!R.Exited0) {
      T.Aborted = R.Aborted;
      T.Reason = "host compiler '" + T.Command +
                 "' not runnable (--version: " + R.Error + ")";
    } else {
      T.Id = readFirstLine(Out);
      T.Available = !T.Id.empty();
      if (!T.Available)
        T.Reason = "host compiler '" + T.Command +
                   "' produced no version banner";
    }
    std::error_code EC;
    fs::remove(Out, EC);
  }
  if (T.Aborted)
    return T;
  std::lock_guard<std::mutex> Lock(ProbeMu);
  return Probes.emplace(Command, std::move(T)).first->second;
}

bool jitDisabled() {
  const char *Env = std::getenv("SYSTEC_JIT_DISABLE");
  return Env && *Env && std::string(Env) != "0";
}

/// Whether \p So is a whole ELF object: its program headers, loaded
/// segments and section headers all lie inside the file. dlopen maps
/// the segments of a cut-off object past its end and faults (SIGBUS)
/// on touching them instead of failing, so this check comes first.
bool elfIntact(const std::string &So) {
  std::ifstream In(So, std::ios::binary);
  ElfW(Ehdr) H;
  if (!In.read(reinterpret_cast<char *>(&H), sizeof(H)) ||
      std::memcmp(H.e_ident, ELFMAG, SELFMAG) != 0 ||
      H.e_phentsize != sizeof(ElfW(Phdr)))
    return false;
  std::error_code EC;
  const uint64_t Size = fs::file_size(So, EC);
  auto Within = [&](uint64_t Off, uint64_t Len) {
    return Off <= Size && Len <= Size - Off;
  };
  if (EC || !Within(H.e_phoff, uint64_t(H.e_phnum) * sizeof(ElfW(Phdr))) ||
      !Within(H.e_shoff, uint64_t(H.e_shnum) * H.e_shentsize))
    return false;
  In.seekg(static_cast<std::streamoff>(H.e_phoff));
  for (unsigned I = 0; I < H.e_phnum; ++I) {
    ElfW(Phdr) P;
    if (!In.read(reinterpret_cast<char *>(&P), sizeof(P)) ||
        (P.p_type == PT_LOAD && !Within(P.p_offset, P.p_filesz)))
      return false;
  }
  return true;
}

/// dlopens \p So and checks its entry point and key symbol.
Expected<NativeKernelCache::Loaded> openVerified(const std::string &So,
                                                 const std::string &Key) {
  if (!elfIntact(So))
    return Status::error(ErrCode::Internal,
                         "not a whole ELF object (truncated?)");
  void *Handle = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *E = dlerror();
    return Status::error(ErrCode::Internal,
                         "dlopen failed: " + std::string(E ? E : "?"));
  }
  std::shared_ptr<void> Shared(Handle, [](void *H) { dlclose(H); });
  const char *Found = static_cast<const char *>(dlsym(Handle, keySymbol()));
  if (!Found || Key != Found)
    return Status::error(ErrCode::Internal,
                         std::string("key symbol '") + keySymbol() +
                             (Found ? "' names another build" : "' missing"));
  void *Sym = dlsym(Handle, nativeEntrySymbol());
  if (!Sym)
    return Status::error(ErrCode::Internal,
                         std::string("entry symbol '") +
                             nativeEntrySymbol() + "' not found");
  NativeKernelCache::Loaded L;
  L.Fn = reinterpret_cast<NativeKernelFn>(Sym);
  L.Handle = std::move(Shared);
  L.SoPath = So;
  return L;
}

/// Loads `<Dir>/<Hash>.so`, building it first when it is missing, and
/// rebuilding it once when the cached file fails to open or verify.
Expected<NativeKernelCache::Loaded>
openOrBuild(const std::string &Dir, const std::string &Hash,
            const std::string &Source, const ToolchainProbe &P,
            const std::atomic<bool> *Abort) {
  std::error_code EC;
  const std::string Base = Dir + "/" + Hash;
  const std::string So = Base + ".so";
  const std::string Key = Hash + "-" + std::to_string(Source.size());

  if (fs::exists(So, EC)) {
    if (Status S = requireOwned(So, "cached object"); !S.ok())
      return S;
    if (auto L = openVerified(So, Key))
      return L;
    fs::remove(So, EC); // unusable: rebuild it below
  }
  if (Status S = requireWritable(Dir); !S.ok())
    return S;

  // Persist the compiled input next to the object (debuggability and
  // the compile input), then build to a temp name and rename — the
  // atomic publish that makes concurrent same-key compiles safe.
  const std::string Pid = std::to_string(getpid());
  const std::string CppTmp = Base + ".cpp.tmp." + Pid;
  const std::string Cpp = Base + ".cpp";
  {
    std::ofstream Out(CppTmp);
    Out << Source << "\nextern \"C\" const char " << keySymbol()
        << "[] = \"" << Key << "\";\n";
    if (!Out)
      return Status::error(ErrCode::ResourceExhausted,
                           "cannot write source '" + CppTmp + "'");
  }
  fs::rename(CppTmp, Cpp, EC);
  if (EC)
    return Status::error(ErrCode::ResourceExhausted,
                         "cannot publish source '" + Cpp +
                             "': " + EC.message());

  const std::string SoTmp = So + ".tmp." + Pid;
  const std::string Log = Base + ".log." + Pid;
  std::vector<std::string> Argv{P.Command};
  std::istringstream Flags(compileFlags());
  for (std::string F; Flags >> F;)
    Argv.push_back(F);
  Argv.insert(Argv.end(), {"-o", SoTmp, Cpp});
  const uint64_t T0 = nowNs();
  SpawnResult R = runTimed(Argv, Log, Abort);
  const uint64_t CompileNs = nowNs() - T0;
  if (!R.Exited0) {
    std::string Tail = R.TimedOut || R.Aborted ? "" : readTail(Log);
    fs::remove(Log, EC);
    fs::remove(SoTmp, EC);
    const ErrCode Code = R.TimedOut  ? ErrCode::DeadlineExceeded
                         : R.Aborted ? ErrCode::Cancelled
                                     : ErrCode::Internal;
    return Status::error(Code, "compilation failed (" + R.Error + ")" +
                                   (Tail.empty() ? "" : ": " + Tail))
        .withContext(Cpp);
  }
  fs::remove(Log, EC);
  fs::rename(SoTmp, So, EC);
  if (EC)
    return Status::error(ErrCode::ResourceExhausted,
                         "cannot publish object '" + So +
                             "': " + EC.message());
  if (Status S = requireOwned(So, "cached object"); !S.ok())
    return S;
  auto L = openVerified(So, Key);
  if (!L)
    return L.takeStatus().withContext(So);
  L->CompileNs = CompileNs;
  return L;
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
  const ToolchainProbe P = probeToolchain();
  if (!P.Available && Reason)
    *Reason = P.Reason;
  return P.Available;
}

std::string NativeKernelCache::compilerId() {
  const ToolchainProbe P = probeToolchain();
  return P.Available ? P.Id : std::string();
}

void NativeKernelCache::dropHandles() {
  std::lock_guard<std::mutex> Lock(Mu);
  Handles.clear();
}

void NativeKernelCache::setCompileTimeoutMs(uint64_t Ms) {
  CompileTimeoutMs.store(Ms);
}

Expected<NativeKernelCache::Loaded>
NativeKernelCache::load(const std::string &Source,
                        const std::string &CacheDir,
                        const std::atomic<bool> *Abort) {
  if (jitDisabled())
    return Status::error(ErrCode::ResourceExhausted,
                         "JIT disabled by SYSTEC_JIT_DISABLE")
        .withContext("native kernel cache");
  const ToolchainProbe P = probeToolchain(Abort);
  if (!P.Available)
    return Status::error(P.Aborted ? ErrCode::Cancelled
                                   : ErrCode::ResourceExhausted,
                         P.Reason)
        .withContext("native kernel cache");

  std::string Dir = CacheDir;
  if (Dir.empty())
    if (const char *Env = std::getenv("SYSTEC_JIT_CACHE_DIR"); Env && *Env)
      Dir = Env;
  if (Dir.empty())
    Dir = defaultCacheDir();
  if (Status S = prepareCacheDir(Dir); !S.ok())
    return std::move(S).withContext("native kernel cache");

  const std::string Hash =
      fnv1aHex(Source + '\0' + P.Id + '\0' + compileFlags());

  // The lock covers the registry lookup and the publish only. A load
  // that finds the key in flight waits for that build (or its own
  // abort) and takes the object it publishes. A failed build is not
  // shared: its directory, timeout or abort may be its caller's own,
  // so a waiter then builds for itself.
  {
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      if (auto It = Handles.find(Hash); It != Handles.end()) {
        Loaded L = It->second;
        L.CompileNs = 0; // registry hit: nothing compiled for this load
        return L;
      }
      if (!InFlight.count(Hash))
        break;
      if (Abort && Abort->load())
        return Status::error(ErrCode::Cancelled,
                             "abandoned: the caller aborted the build")
            .withContext("native kernel cache");
      BuildCv.wait_for(Lock, std::chrono::milliseconds(5));
    }
    InFlight.insert(Hash);
  }

  Expected<Loaded> L = openOrBuild(Dir, Hash, Source, P, Abort);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (L)
      Handles[Hash] = *L;
    InFlight.erase(Hash);
  }
  BuildCv.notify_all();
  if (!L)
    return L.takeStatus().withContext("native kernel cache");
  return L;
}

} // namespace jit
} // namespace systec
