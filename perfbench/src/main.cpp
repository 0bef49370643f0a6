//===- perfbench/src/main.cpp - Benchmark entry point ---------*- C++ -*-===//
///
/// \file
/// systec_bench --workload <kernels-exec|compile-cold|service-mixed>
///              --seed <n> --seconds <s> --trace <0|1>
///              [--out-dir <dir>] [--sha <git sha>]
///
/// Runs one workload in this process and prints, as the last line of
/// standard output, {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
/// the per-layer ledger of this workload, and the spans go to
/// <out-dir>/spans-<workload>-<seed>.json. Exits 1 when any output check
/// failed, 2 on a usage or set-up error.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "jit/NativeKernelCache.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

using namespace pb;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: systec_bench --workload "
               "<kernels-exec|compile-cold|service-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--sha <s>]\n",
               Msg);
  std::exit(2);
}

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return unsigned(CPU_COUNT(&Set));
  return std::thread::hardware_concurrency();
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  RunContext Ctx;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      Ctx.Workload = V;
    else if (A == "--seed")
      Ctx.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      Ctx.Seconds = std::atof(V);
    else if (A == "--trace")
      Ctx.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--out-dir")
      Ctx.OutDir = V;
    else if (A == "--sha")
      Ctx.Sha = V;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (Ctx.Seconds <= 0)
    usage("--seconds must be positive");

  std::filesystem::create_directories(Ctx.scratchDir());
  std::printf("record: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d,\"git_sha\":\"%s\",\"nproc\":%u,"
              "\"compiler_id\":\"%s\"}\n",
              Ctx.Workload.c_str(), (unsigned long long)Ctx.Seed, Ctx.Seconds,
              int(Ctx.Trace), Ctx.Sha.c_str(), nproc(),
              systec::jit::NativeKernelCache::compilerId().c_str());

  if (Ctx.Workload == "kernels-exec")
    runKernelsExec(Ctx);
  else if (Ctx.Workload == "compile-cold")
    runCompileCold(Ctx);
  else if (Ctx.Workload == "service-mixed")
    runServiceMixed(Ctx);
  else
    usage(("unknown workload " + Ctx.Workload).c_str());

  if (Ctx.Trace) {
    const std::string Path = Ctx.OutDir + "/spans-" + Ctx.Workload + "-" +
                             std::to_string(Ctx.Seed) + ".json";
    const bool Wrote = tracer().write(
        Path, {{"workload", Ctx.Workload},
               {"seed", std::to_string(Ctx.Seed)},
               {"git_sha", Ctx.Sha},
               {"nproc", std::to_string(nproc())},
               {"compiler_id", systec::jit::NativeKernelCache::compilerId()}});
    Ctx.note(fmt("spans: %zu written to %s%s", tracer().size(), Path.c_str(),
                 Wrote ? "" : " (FAILED)"));
    std::printf("self time by span (ms):\n");
    for (const auto &[Name, A] : tracer().selfTimes())
      std::printf("  %-34s calls=%-7llu total=%10.3f self=%10.3f\n",
                  Name.c_str(), (unsigned long long)A.Calls, A.TotalMs,
                  A.SelfMs);
  }
  std::error_code Ec;
  std::filesystem::remove_all(Ctx.scratchDir(), Ec);

  for (const std::string &N : Ctx.Notes)
    std::printf("%s\n", N.c_str());
  const bool Correct = Ctx.ChecksRan && Ctx.Failed == 0 && Ctx.Attempted > 0;
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Ctx.Attempted) +
                     ", \"failed\": " + std::to_string(Ctx.Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Ctx.Metrics) {
    Line += (First ? "\"" : ", \"") + Name + "\": {\"value\": " +
            jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
