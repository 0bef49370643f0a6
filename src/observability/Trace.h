//===- observability/Trace.h - Execution tracing --------------*- C++ -*-===//
///
/// \file
/// Lock-free per-thread span tracing for the execution stack, modeled
/// on the NBS TExecutorCounters activity-scope idiom: instrumented code
/// opens RAII TraceScopes (or calls emitSpan directly) around phases,
/// plan loops, pool tasks, and wait/execute activity; each thread
/// appends completed spans to its own TraceBuffer; exporters walk all
/// buffers after the fact and produce Chrome `trace_event` JSON
/// (loadable in chrome://tracing or https://ui.perfetto.dev) or raw
/// event snapshots for tests and the ExecReport API.
///
/// Cost discipline: everything is gated on one process-wide flag read
/// with relaxed ordering. When tracing is disabled a TraceScope
/// constructor is a single predictable branch and no clock is read, so
/// the runtime's hot paths stay clean (pinned by the perf_smoke
/// overhead test); per-plan-loop instrumentation additionally hides
/// behind the per-run ExecCtx::TraceOn snapshot exactly like the
/// counter flag.
///
/// Concurrency contract: a TraceBuffer is appended to only by its
/// owning thread. Events become visible to readers through a
/// release-store of the element count (acquire-loaded by readers), and
/// storage grows in fixed blocks published with release stores, so
/// concurrent export while workers keep tracing is race-free (checked
/// under TSan by the tsan_smoke target). Buffers are registered in a
/// process-wide registry and intentionally outlive their threads, like
/// the global ThreadPool.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_OBSERVABILITY_TRACE_H
#define SYSTEC_OBSERVABILITY_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace systec {
namespace obs {

/// Master switch, off by default and the one way to turn tracing on.
/// It is process-wide because the shared ThreadPool's workers cannot
/// belong to one executor.
bool tracingEnabled();
void setTracingEnabled(bool Enabled);

/// Monotonic nanoseconds since the process's first use of the clock.
uint64_t nowNs();

/// Interns \p S into a process-lifetime string table and returns a
/// stable pointer (events store `const char *` names so the hot append
/// path never allocates). Intended for cold paths: plan compilation,
/// registration. Thread-safe.
const char *internName(const std::string &S);

/// One completed span. Name/Cat must be string literals or interned.
struct TraceEvent {
  const char *Name = nullptr;
  const char *Cat = nullptr;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  int64_t Arg0 = 0;
  int64_t Arg1 = 0;
};

/// Appends a completed span to the calling thread's buffer. The caller
/// must have checked tracingEnabled() (emitSpan does not re-check).
void emitSpan(const char *Name, const char *Cat, uint64_t StartNs,
              uint64_t DurNs, int64_t Arg0 = 0, int64_t Arg1 = 0);

/// Names the calling thread in trace exports ("main", "worker-3").
/// First writer wins; later calls are ignored.
void setThreadName(const std::string &Name);

/// RAII span: records the start time at construction and appends one
/// complete event at destruction. A no-op (no clock read, no buffer
/// touch) when tracing is disabled at construction.
class TraceScope {
public:
  TraceScope(const char *Name, const char *Cat, int64_t Arg0 = 0,
             int64_t Arg1 = 0) {
    if (tracingEnabled()) {
      E.Name = Name;
      E.Cat = Cat;
      E.Arg0 = Arg0;
      E.Arg1 = Arg1;
      E.StartNs = nowNs();
      Active = true;
    }
  }
  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;
  ~TraceScope() {
    if (Active) {
      E.DurNs = nowNs() - E.StartNs;
      emitSpan(E.Name, E.Cat, E.StartNs, E.DurNs, E.Arg0, E.Arg1);
    }
  }

  bool active() const { return Active; }
  /// Nanoseconds elapsed since construction (0 when inactive).
  uint64_t elapsedNs() const { return Active ? nowNs() - E.StartNs : 0; }

private:
  TraceEvent E;
  bool Active = false;
};

/// One thread's events plus its identity, as snapshotted by collect().
struct ThreadEvents {
  unsigned Tid = 0;
  std::string Name;
  std::vector<TraceEvent> Events;
};

/// Snapshots every registered buffer (acquire-reads the published
/// counts; events appended after the snapshot are not included).
std::vector<ThreadEvents> collectTrace();

/// Total events across all buffers, and events dropped because a
/// buffer hit its capacity cap (never blocks or reallocates the hot
/// path; drops are counted instead).
uint64_t traceEventCount();
uint64_t traceDroppedCount();

/// Resets every buffer to empty and zeroes the dropped count. Only
/// safe while no instrumented code is running (tests, between bench
/// configurations).
void clearTrace();

/// Renders the collected events as a Chrome trace_event JSON document
/// ({"traceEvents":[...]}; ph="X" complete events, microsecond
/// timestamps, one tid per registered thread, thread_name metadata).
std::string chromeTraceJson();

/// Writes chromeTraceJson() to \p Path; false on I/O failure.
bool writeChromeTrace(const std::string &Path);

} // namespace obs
} // namespace systec

#endif // SYSTEC_OBSERVABILITY_TRACE_H
