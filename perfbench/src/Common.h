//===- perfbench/src/Common.h - Shared benchmark machinery ----*- C++ -*-===//
///
/// \file
/// Pieces every workload of the SySTeC benchmark shares: the clock and
/// order statistics, the benchmark's own span recorder (layers are timed
/// from outside, around calls to their public functions — nothing here
/// reaches into src/), the metric sink that becomes the result line, and
/// the run context parsed from the command line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

struct RunContext;

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double nsToMs(uint64_t Ns) { return double(Ns) / 1e6; }

//===----------------------------------------------------------------------===//
// Order statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
double mean(const std::vector<double> &V);
double geomean(const std::vector<double> &V);

/// Linear-interpolated percentile \p P in [0, 100].
double percentile(std::vector<double> V, double P);

/// The tail percentile the benchmark reports for op kinds with at least
/// \p MinSamples samples each: the highest of p99.9, p99, p95, p90, p75
/// and p50 that still has ten samples beyond it.
double tailPercentile(size_t MinSamples);

/// The percentile the benchmark reports as an op kind's typical latency.
/// Not the median: per-op times on a shared host are bimodal (the host's
/// fast and slow states, the slow one imposed by other tenants), and the
/// mix of the two modes shifts from run to run, carrying the median and
/// any mean with it. Every run has samples in the fast mode and a low
/// percentile sits in it, so it reads the program rather than the host.
constexpr double TypicalPct = 10;

/// Per-kind latency summary shared by the workloads: the geometric means
/// over kinds of each kind's typical latency (TypicalPct) and tail (at
/// tailPercentile of the smallest kind), the sum of the typical
/// latencies, plus notes giving every kind's numbers.
struct KindSummary {
  size_t Count = 0;
  double TypGeo = 0;
  double TypSumMs = 0;
  double TailGeo = 0;
  double TailPct = 0;
  size_t MinSamples = 0;
};
KindSummary summarizeKinds(
    const std::vector<std::pair<std::string, const std::vector<double> *>>
        &Kinds,
    RunContext &Ctx);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded call: which public function (Name, "layer.function"),
/// which op kind it served (Tag), when, the span that caused it, and the
/// request id shared by every span of one op.
struct Span {
  const char *Name = "";
  uint32_t Tag = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t Parent = -1;
  uint64_t Req = 0;
  uint32_t Thread = 0;
};

/// In-memory span store, written out once at exit. Recording is off in
/// end-to-end runs: the Scope guards then cost one branch.
class Tracer {
public:
  bool On = false;

  uint32_t tag(const std::string &Label);

  /// Opens a span on the calling thread, nested under that thread's
  /// innermost open span. Returns its index (-1 when off).
  int64_t open(const char *Name, uint32_t Tag, uint64_t Req);
  void close(int64_t Idx);
  /// Records an already-finished interval (e.g. a request's lifetime
  /// from its due time, observed by the collector).
  int64_t record(const char *Name, uint32_t Tag, uint64_t Req,
                 uint64_t StartNs, uint64_t EndNs, int64_t Parent);
  /// Sets the end of a span recorded with EndNs = 0.
  void finish(int64_t Idx, uint64_t EndNs);

  /// Durations (ms) of every span named \p Name with tag \p Tag
  /// (any tag when \p Tag is negative).
  std::vector<double> durationsMs(const std::string &Name,
                                  int64_t Tag = -1) const;

  /// Per span name: calls, total and self time (total minus the part of
  /// the interval its children cover).
  struct Aggregate {
    uint64_t Calls = 0;
    double TotalMs = 0;
    double SelfMs = 0;
  };
  std::map<std::string, Aggregate> selfTimes() const;

  /// Chrome trace_event JSON (spans as complete events; parent, request
  /// id and tag in args) plus the self-time table and \p Header fields.
  bool write(const std::string &Path,
             const std::vector<std::pair<std::string, std::string>> &Header)
      const;

  size_t size() const { return Spans.size(); }

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  std::vector<std::string> Tags{""};
  std::map<std::string, uint32_t> TagIds;
};

Tracer &tracer();

/// RAII span around one call into the program.
class Scope {
public:
  Scope(const char *Name, uint32_t Tag = 0, uint64_t Req = 0)
      : Idx(tracer().On ? tracer().open(Name, Tag, Req) : -1) {}
  ~Scope() {
    if (Idx >= 0)
      tracer().close(Idx);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  int64_t Idx;
};

//===----------------------------------------------------------------------===//
// Metrics and the run context
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};

struct RunContext {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_out";
  std::string Sha = "unknown";

  // Filled by the workload.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;   ///< failed, rejected, or wrong output
  bool ChecksRan = false;
  std::map<std::string, Metric> Metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> Notes;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Per-run scratch directory (JIT caches), removed at exit.
  std::string scratchDir() const;
};

/// Counts one attempted op and its failure, if any.
inline void tally(RunContext &Ctx, bool Ok) {
  ++Ctx.Attempted;
  if (!Ok)
    ++Ctx.Failed;
}

std::string fmt(const char *Format, ...)
    __attribute__((format(printf, 1, 2)));

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// The end-to-end metrics every workload reports the same way: setup_s
/// (median of the set-ups), ok_frac and peak_rss_mb.
void commonMetrics(RunContext &Ctx, const std::vector<double> &SetupS);

/// The end-to-end metrics of a closed loop with one client: ops_per_s is
/// its completion rate with every kind at its typical latency (a round
/// runs every kind once), and with no queue sustained_rps equals it.
void closedLoopMetrics(RunContext &Ctx, const KindSummary &Kinds,
                       const std::vector<double> &SetupS);

// The three workloads (one process each).
void runKernelsExec(RunContext &Ctx);
void runCompileCold(RunContext &Ctx);
void runServiceMixed(RunContext &Ctx);

/// STREAM-triad bandwidth (GB/s) and FMA peak (GFLOP/s) of one core,
/// measured in-process; notes state array and cache sizes.
struct Ceiling {
  double TriadGBs = 0;
  double FmaGFlops = 0;
};
Ceiling probeCeiling(RunContext &Ctx);

} // namespace pb

#endif // PERFBENCH_COMMON_H
