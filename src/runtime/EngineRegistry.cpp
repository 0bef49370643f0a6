//===- runtime/EngineRegistry.cpp - Engine-list resolution ----*- C++ -*-===//

#include "runtime/EngineRegistry.h"

#include <algorithm>

namespace systec {

const char *engineName(Engine E) {
  switch (E) {
  case Engine::Native:
    return "native";
  case Engine::Blocked:
    return "blocked";
  case Engine::Fused:
    return "fused";
  case Engine::Interp:
    return "interp";
  }
  return "unknown";
}

bool parseEngine(const std::string &Name, Engine &Out) {
  for (Engine E : {Engine::Native, Engine::Blocked, Engine::Fused,
                   Engine::Interp})
    if (Name == engineName(E)) {
      Out = E;
      return true;
    }
  return false;
}

EngineResolution resolveEngines(const std::vector<Engine> &Requested) {
  EngineResolution R;
  for (Engine E : Requested) {
    if (std::find(R.Order.begin(), R.Order.end(), E) != R.Order.end())
      continue; // duplicate
    if (E == Engine::Native && !R.Order.empty()) {
      R.Notes.push_back("engines: native is whole-body and only "
                        "effective as the first preference -> dropped");
      continue;
    }
    R.Order.push_back(E);
  }
  if (std::find(R.Order.begin(), R.Order.end(), Engine::Blocked) !=
          R.Order.end() &&
      std::find(R.Order.begin(), R.Order.end(), Engine::Fused) ==
          R.Order.end()) {
    // Blocked engines are specializations of the fused ones; insert
    // the prerequisite right after Blocked.
    auto It = std::find(R.Order.begin(), R.Order.end(), Engine::Blocked);
    R.Order.insert(It + 1, Engine::Fused);
    R.Notes.push_back("engines: blocked without fused -> fused inserted");
  }
  if (std::find(R.Order.begin(), R.Order.end(), Engine::Interp) ==
      R.Order.end())
    R.Order.push_back(Engine::Interp);
  R.UseNative = R.Order.front() == Engine::Native;
  R.UseFused = std::find(R.Order.begin(), R.Order.end(), Engine::Fused) !=
               R.Order.end();
  R.UseBlocked = std::find(R.Order.begin(), R.Order.end(),
                           Engine::Blocked) != R.Order.end();
  return R;
}

std::string enginesSummary(const std::vector<Engine> &Order) {
  std::string S;
  for (Engine E : Order) {
    if (!S.empty())
      S += '>';
    S += engineName(E);
  }
  return S;
}

} // namespace systec
