//===- perfbench/src/Common.cpp -------------------------------*- C++ -*-===//

#include "Common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <unistd.h>

namespace pb {

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / double(V.size());
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(std::max(X, 1e-12));
  return std::exp(S / double(V.size()));
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = P / 100.0 * double(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

double tailPercentile(size_t MinSamples) {
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (double(MinSamples) * (1.0 - P / 100.0) >= 10.0)
      return P;
  return 50.0;
}

KindSummary summarizeKinds(
    const std::vector<std::pair<std::string, const std::vector<double> *>>
        &Kinds,
    RunContext &Ctx) {
  KindSummary S;
  S.MinSamples = SIZE_MAX;
  for (const auto &K : Kinds)
    S.MinSamples = std::min(S.MinSamples, K.second->size());
  S.TailPct = tailPercentile(S.MinSamples);
  S.Count = Kinds.size();
  std::vector<double> Typ, Tails;
  for (const auto &[Label, Ms] : Kinds) {
    Typ.push_back(percentile(*Ms, TypicalPct));
    Tails.push_back(percentile(*Ms, S.TailPct));
    S.TypSumMs += Typ.back();
    Ctx.note(fmt("kind %-24s n=%-5zu p%g=%8.3f ms p50=%8.3f ms p%g=%8.3f ms",
                 Label.c_str(), Ms->size(), TypicalPct, Typ.back(),
                 median(*Ms), S.TailPct, Tails.back()));
  }
  S.TypGeo = geomean(Typ);
  S.TailGeo = geomean(Tails);
  Ctx.note(fmt("tail = p%g: the highest standard percentile with at least "
               "ten samples beyond it at the smallest kind's n=%zu",
               S.TailPct, S.MinSamples));
  return S;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {

thread_local std::vector<int64_t> OpenStack;

uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{0};
  thread_local const uint32_t Id = Next++;
  return Id;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

Tracer &tracer() {
  static Tracer T;
  return T;
}

uint32_t Tracer::tag(const std::string &Label) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = TagIds.find(Label);
  if (It != TagIds.end())
    return It->second;
  const uint32_t Id = static_cast<uint32_t>(Tags.size());
  Tags.push_back(Label);
  TagIds.emplace(Label, Id);
  return Id;
}

int64_t Tracer::open(const char *Name, uint32_t Tag, uint64_t Req) {
  const uint32_t Thread = threadIndex();
  const int64_t Parent = OpenStack.empty() ? -1 : OpenStack.back();
  const uint64_t Start = nowNs();
  int64_t Idx;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Req && Parent >= 0)
      Req = Spans[Parent].Req;
    Idx = static_cast<int64_t>(Spans.size());
    Spans.push_back(Span{Name, Tag, Start, 0, Parent, Req, Thread});
  }
  OpenStack.push_back(Idx);
  return Idx;
}

void Tracer::close(int64_t Idx) {
  const uint64_t End = nowNs();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Spans[Idx].EndNs = End;
  }
  if (!OpenStack.empty() && OpenStack.back() == Idx)
    OpenStack.pop_back();
}

int64_t Tracer::record(const char *Name, uint32_t Tag, uint64_t Req,
                       uint64_t StartNs, uint64_t EndNs, int64_t Parent) {
  std::lock_guard<std::mutex> Lock(Mu);
  const int64_t Idx = static_cast<int64_t>(Spans.size());
  Spans.push_back(Span{Name, Tag, StartNs, EndNs, Parent, Req, threadIndex()});
  return Idx;
}

void Tracer::finish(int64_t Idx, uint64_t EndNs) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[Idx].EndNs = EndNs;
}

std::vector<double> Tracer::durationsMs(const std::string &Name,
                                        int64_t Tag) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.EndNs && Name == S.Name && (Tag < 0 || S.Tag == uint32_t(Tag)))
      Out.push_back(nsToMs(S.EndNs - S.StartNs));
  return Out;
}

std::map<std::string, Tracer::Aggregate> Tracer::selfTimes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans) {
    if (S.Parent < 0 || !S.EndNs)
      continue;
    const Span &P = Spans[S.Parent];
    const uint64_t Lo = std::max(S.StartNs, P.StartNs);
    const uint64_t Hi = std::min(S.EndNs, P.EndNs ? P.EndNs : S.EndNs);
    if (Hi > Lo)
      ChildNs[S.Parent] += Hi - Lo;
  }
  std::map<std::string, Aggregate> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (!S.EndNs)
      continue;
    const uint64_t Dur = S.EndNs - S.StartNs;
    Aggregate &A = Out[S.Name];
    ++A.Calls;
    A.TotalMs += nsToMs(Dur);
    A.SelfMs += nsToMs(Dur > ChildNs[I] ? Dur - ChildNs[I] : 0);
  }
  return Out;
}

bool Tracer::write(
    const std::string &Path,
    const std::vector<std::pair<std::string, std::string>> &Header) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  const auto Self = selfTimes();
  std::lock_guard<std::mutex> Lock(Mu);
  const uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "{\"otherData\":{";
  for (size_t I = 0; I < Header.size(); ++I)
    Out << (I ? "," : "") << '"' << jsonEscape(Header[I].first) << "\":\""
        << jsonEscape(Header[I].second) << '"';
  Out << "},\n\"selfTimeMs\":{";
  bool First = true;
  for (const auto &[Name, A] : Self) {
    Out << (First ? "" : ",") << '"' << jsonEscape(Name)
        << "\":{\"calls\":" << A.Calls << ",\"total\":" << A.TotalMs
        << ",\"self\":" << A.SelfMs << '}';
    First = false;
  }
  Out << "},\n\"traceEvents\":[\n";
  First = true;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (!S.EndNs)
      continue;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  S.Thread, double(S.StartNs - Base) / 1e3,
                  double(S.EndNs - S.StartNs) / 1e3);
    Out << (First ? "" : ",\n") << "{\"name\":\"" << jsonEscape(S.Name)
        << "\"," << Buf << ",\"args\":{\"id\":" << I << ",\"parent\":" << S.Parent
        << ",\"req\":" << S.Req << ",\"tag\":\"" << jsonEscape(Tags[S.Tag])
        << "\"}}";
    First = false;
  }
  Out << "\n]}\n";
  return bool(Out);
}

//===----------------------------------------------------------------------===//
// Misc
//===----------------------------------------------------------------------===//

std::string RunContext::scratchDir() const {
  return OutDir + "/scratch-" + Workload + "-" + std::to_string(::getpid());
}

std::string fmt(const char *Format, ...) {
  char Buf[1024];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  return Buf;
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

void commonMetrics(RunContext &Ctx, const std::vector<double> &SetupS) {
  Ctx.metric("setup_s", median(SetupS), "s");
  Ctx.metric("ok_frac",
             1.0 - double(Ctx.Failed) /
                       double(std::max<uint64_t>(Ctx.Attempted, 1)),
             "frac");
  Ctx.metric("peak_rss_mb", peakRssMb(), "MiB");
}

void closedLoopMetrics(RunContext &Ctx, const KindSummary &Kinds,
                       const std::vector<double> &SetupS) {
  const double OpsPerS = double(Kinds.Count) / (Kinds.TypSumMs / 1e3);
  Ctx.metric("op_ms_p10_geo", Kinds.TypGeo, "ms");
  Ctx.metric("op_ms_tail_geo", Kinds.TailGeo, "ms");
  Ctx.metric("ops_per_s", OpsPerS, "1/s");
  Ctx.metric("sustained_rps", OpsPerS, "1/s");
  commonMetrics(Ctx, SetupS);
}

} // namespace pb
