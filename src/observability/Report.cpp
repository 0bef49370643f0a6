//===- observability/Report.cpp - Structured execution stats --*- C++ -*-===//

#include "observability/Report.h"

#include <cstdio>

namespace systec {
namespace obs {

uint64_t ExecReport::phaseNs(const std::string &Name) const {
  for (const PhaseStat &P : Phases)
    if (P.Name == Name)
      return P.Ns;
  return 0;
}

std::string counterJson(const CounterSnapshot &C) {
  auto N = [](uint64_t V) { return std::to_string(V); };
  return "{\"sparse_reads\":" + N(C.SparseReads) +
         ",\"reductions\":" + N(C.Reductions) +
         ",\"scalar_ops\":" + N(C.ScalarOps) +
         ",\"output_writes\":" + N(C.OutputWrites) +
         ",\"fused_blocked_panels\":" + N(C.FusedBlockedPanels) +
         ",\"fused_blocked_stores\":" + N(C.FusedBlockedStores) + "}";
}

void addCounters(CounterSnapshot &C, const CounterSnapshot &O) {
  C.SparseReads += O.SparseReads;
  C.Reductions += O.Reductions;
  C.ScalarOps += O.ScalarOps;
  C.OutputWrites += O.OutputWrites;
  C.FusedBlockedPanels += O.FusedBlockedPanels;
  C.FusedBlockedStores += O.FusedBlockedStores;
}

std::string ExecReport::structureKey() const {
  std::string Out = "phases:";
  for (const PhaseStat &P : Phases)
    (Out += P.Name) += ',';
  Out += ";loops:";
  for (const LoopStat &L : Loops)
    Out += L.Label + "/" + L.Engine + "/" + L.Driver + ",";
  Out += ";counters:" + counterJson(Counters);
  return Out;
}

std::string ExecReport::phasesJson() const {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I < Phases.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "\"%s\":%.6f",
                  Phases[I].Name.c_str(), Phases[I].Ns / 1e6);
    Out += Buf;
    if (I + 1 < Phases.size())
      Out += ',';
  }
  Out += '}';
  return Out;
}

std::string ExecReport::toJson() const {
  std::string Out = "{\"phases_ms\":" + phasesJson() + ",\"loops\":[";
  for (size_t I = 0; I < Loops.size(); ++I) {
    const LoopStat &L = Loops[I];
    Out += "{\"label\":\"" + L.Label + "\",\"engine\":\"" + L.Engine +
           "\",\"driver\":\"" + L.Driver +
           "\",\"calls\":" + std::to_string(L.Calls) +
           ",\"ns\":" + std::to_string(L.Ns) + "}";
    if (I + 1 < Loops.size())
      Out += ',';
  }
  Out += "],\"workers\":[";
  for (size_t I = 0; I < Workers.size(); ++I) {
    const WorkerStat &W = Workers[I];
    Out += "{\"name\":\"" + W.Name +
           "\",\"wait_ns\":" + std::to_string(W.WaitNs) +
           ",\"exec_ns\":" + std::to_string(W.ExecNs) +
           ",\"tasks\":" + std::to_string(W.Tasks) +
           ",\"task_ns\":" + W.TaskNs.toJson() + "}";
    if (I + 1 < Workers.size())
      Out += ',';
  }
  Out += "],\"counters\":" + counterJson(Counters) + ",\"options\":\"" +
         Options + "\"";
  if (!AbortReason.empty())
    Out += ",\"abort_reason\":\"" + AbortReason + "\"";
  Out += '}';
  return Out;
}

} // namespace obs
} // namespace systec
