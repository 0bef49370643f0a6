//===- support/Counters.cpp -----------------------------------*- C++ -*-===//

#include "support/Counters.h"

#include <atomic>

namespace systec {

namespace {
// Atomic so worker threads can poll the gate race-free while the main
// thread toggles it around timed regions.
std::atomic<bool> CountersOn{true};
} // namespace

bool countersEnabled() {
  return CountersOn.load(std::memory_order_relaxed);
}
void setCountersEnabled(bool Enabled) {
  CountersOn.store(Enabled, std::memory_order_relaxed);
}

} // namespace systec
