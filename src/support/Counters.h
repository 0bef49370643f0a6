//===- support/Counters.h - Execution statistics --------------*- C++ -*-===//
///
/// \file
/// Execution counters used to validate the paper's "reads only 1/n! of
/// the tensor" and "performs 1/m! of the computations" claims. Counting
/// is compiled in unconditionally but gated by a cheap flag so
/// benchmark timings can disable it. Each run accumulates its counts in
/// its own execution context and hands them out in its report
/// (ExecReport::Counters).
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_SUPPORT_COUNTERS_H
#define SYSTEC_SUPPORT_COUNTERS_H

#include <cstdint>

namespace systec {

/// The counts of one run (or a sum of runs). Also the per-context delta
/// block the runtime accumulates into (see runtime/Plan.h).
struct CounterSnapshot {
  /// Nonzero elements read from sparse/structured input tensors.
  uint64_t SparseReads = 0;
  /// Scalar reductions performed into outputs or workspaces.
  uint64_t Reductions = 0;
  /// Elementwise scalar operations (multiplies/adds inside expressions).
  uint64_t ScalarOps = 0;
  /// Writes to output tensors (including replication copies).
  uint64_t OutputWrites = 0;
  /// Column panels executed by the blocked output engine and the
  /// streaming/writeback stores it actually issued. OutputWrites keeps
  /// the interpreter's per-element accounting (counter parity), so
  /// OutputWrites - FusedBlockedStores is the store traffic blocking
  /// removed on register-accumulated panels.
  uint64_t FusedBlockedPanels = 0;
  uint64_t FusedBlockedStores = 0;
};

/// Whether the runtime updates counters. Defaults to on; benchmarks turn
/// it off around timed regions.
bool countersEnabled();
void setCountersEnabled(bool Enabled);

} // namespace systec

#endif // SYSTEC_SUPPORT_COUNTERS_H
