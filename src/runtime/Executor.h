//===- runtime/Executor.h - Kernel execution engine -----------*- C++ -*-===//
///
/// \file
/// Lowers a Kernel's loop-nest IR into an executable plan and runs it
/// over bound tensors. This plays the role Finch's compiler plays in the
/// original SySTeC: accesses to sparse tensors act as iterators over
/// stored coordinates, and comparisons between index variables are
/// lifted into loop bounds (paper Section 2.2), which is what makes the
/// canonical-triangle restriction cheap.
///
/// Semantics note: when a loop is driven by a sparse access ("walker"),
/// iteration visits only stored coordinates. This is sound when missing
/// coordinates annihilate every reduction in the loop body (fill = 0
/// under (+,*), fill = inf under (min,+)); every kernel produced by the
/// SySTeC pipeline and the naive lowering satisfies this. For oracle
/// testing the executor can disable walkers and bound lifting.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_RUNTIME_EXECUTOR_H
#define SYSTEC_RUNTIME_EXECUTOR_H

#include "ir/Kernel.h"
#include "observability/Report.h"
#include "runtime/EngineRegistry.h"
#include "support/Status.h"
#include "tensor/Tensor.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace systec {

namespace detail {
class PlanNode;
struct ExecCtx;
struct RunControl;
} // namespace detail

/// Execution options (ablation switches).
struct ExecOptions {
  /// Ordered engine-preference list (runtime/EngineRegistry.h), the
  /// one place engines are chosen. tryPrepare() normalizes it
  /// (EngineResolution); the default resolves to blocked>fused>interp.
  /// Dropping Fused (or Blocked) is the ablation switch for the
  /// micro-kernel specializer (or the blocked output engine); outputs
  /// and counters are identical either way. {Engine::Native, ...} asks
  /// for the JIT-compiled whole-body engine with graceful typed
  /// fallback to the rest of the list (nativeStatus() records why).
  std::vector<Engine> Engines = {Engine::Blocked, Engine::Fused,
                                 Engine::Interp};
  /// On-disk directory for the native engine's compiled-.so cache
  /// (src/jit/NativeKernelCache.h). Empty resolves to the
  /// SYSTEC_JIT_CACHE_DIR environment variable, then a per-user temp
  /// default. Per-request (NOT part of the PlanCache structural key):
  /// the cache is content-hash keyed, so any directory yields identical
  /// plans — only cold-compile time differs.
  std::string NativeCacheDir;
  /// Drive loops from sparse accesses; disabling iterates dense extents
  /// (oracle mode).
  bool EnableSparseWalk = true;
  /// Lift comparisons into loop bounds; disabling evaluates them as
  /// residual predicates.
  bool EnableBoundLifting = true;
  /// Parallel lanes for loops the parallelism analysis marked safe.
  /// 1 keeps the plan fully sequential. N > 1 splits each parallel
  /// loop into N tasks run on the shared thread pool: triangle-balanced
  /// chunks on loops the analysis marks triangular, static blocks
  /// otherwise (parallel/Schedule.h). Outputs not indexed by the loop
  /// variable get per-task privatized accumulators merged in task
  /// order, so results are reproducible for a fixed Threads.
  unsigned Threads = 1;
  /// Ceiling, in bytes, on privatized accumulator storage summed over
  /// all tasks of one parallel loop. A loop whose privatization would
  /// exceed it is left sequential at that level and never allocates;
  /// an inner annotated loop (typically with disjoint writes) runs
  /// parallel instead. The default is 2^24 doubles.
  size_t PrivatizationBudgetBytes = size_t(1) << 27;
  /// Structural integrity checks run by tryPrepare() on every bound
  /// tensor before anything dereferences its level arrays (Shallow:
  /// O(levels) size/endpoint agreement; Deep: O(nnz) fiber scans; see
  /// Tensor::validate). None keeps the hot path untouched — no check,
  /// no extra report phase. A failing tensor surfaces as
  /// ErrCode::InvalidTensor from tryPrepare(), naming the tensor.
  ValidationLevel ValidateInputs = ValidationLevel::None;
  /// Wall-clock budget for one tryRunBody() in milliseconds; 0 = none.
  /// The deadline is polled cooperatively (task-claim boundaries and
  /// every iteration of plan/kernel driver loops, with clock reads
  /// decimated), so overshoot is bounded by one loop-body execution.
  /// An expired run aborts with ErrCode::DeadlineExceeded: outputs are
  /// restored to their pre-run values, the run's counters are
  /// discarded, and the run's report records the reason in AbortReason.
  int64_t DeadlineMs = 0;
  /// Optional cooperative cancellation token, polled at the same
  /// checkpoints as the deadline. The caller keeps ownership (the
  /// token must outlive every run that uses it) and may cancel() from
  /// any thread; a cancelled run aborts with ErrCode::Cancelled under
  /// the same discard-partial-results contract as deadlines.
  CancelToken *Cancel = nullptr;
};

/// Result of the plan-specialization pass for one prepared executor
/// (surfaced by bench_ablation and the perf_smoke/annihilation tests).
/// A leaf loop's body holds no loop; any other loop is a nest loop.
/// Nest loops other than blocked ones are interpreted by design and
/// counted in neither SpecializedLoops nor GenericLoops.
struct MicroKernelStats {
  /// Loops on a fused engine: leaves with a MicroKernel, plus nests
  /// with a blocked engine.
  uint64_t SpecializedLoops = 0;
  /// Leaf loops the specializer declined (left to the interpreter).
  uint64_t GenericLoops = 0;

  /// Walker registration outcomes (plan compilation).
  uint64_t WalkersRegistered = 0; ///< walkers bound to plan loops

  /// Fused leaves by driver shape (which fused engine iterates). These
  /// and the operand and intersection counters below count fused
  /// leaves only.
  uint64_t FusedRangeDrivers = 0;
  uint64_t FusedDenseDrivers = 0;
  uint64_t FusedSparseDrivers = 0;
  uint64_t FusedRunLengthDrivers = 0;
  uint64_t FusedBandedDrivers = 0;

  /// Intersection shapes (per-shape coverage of the formerly-declined
  /// specializer gaps; each is assertable in tests/perf_smoke.cpp).
  /// Total non-driving walkers bound into fused intersection loops.
  uint64_t FusedCoWalkers = 0;
  /// Fused loops intersecting more than two walkers (one driver plus
  /// two or more co-walkers — the N-way multi-finger merge).
  uint64_t FusedNWalkerLoops = 0;
  /// Co-walkers matched positionally on structured levels (run
  /// containment / interval containment instead of a crd merge).
  uint64_t FusedRunLengthCoWalkers = 0;
  uint64_t FusedBandedCoWalkers = 0;
  /// Lut operands bound inside fused bodies (one table entry per call).
  uint64_t FusedLutFactors = 0;

  /// Nest loops running the register/cache-blocked output engine
  /// (column panels over the dense output mode), and the subset in the
  /// Accum or Workspace mode, whose panel accumulators live in
  /// registers across the whole sparse walk (output cell invariant in
  /// the inner driver — one writeback per panel lane per row). The
  /// runtime panel/store counts are the FusedBlockedPanels /
  /// FusedBlockedStores report counters.
  uint64_t BlockedLoops = 0;
  uint64_t BlockedAccumLoops = 0;
};

/// One-line rendering of the structural options of \p O — the ones a
/// compiled plan embodies ("threads=4 walk=on ... engines=...").
/// The PlanCache key's options part; NativeCacheDir is absent because
/// the .so cache is content-hash keyed.
std::string structuralOptionsSummary(const ExecOptions &O);

/// structuralOptionsSummary plus the per-request fields (validation,
/// deadline, cancel), recorded with every run report and with
/// benchmark JSON so BENCH_* entries are attributable across PRs.
std::string execOptionsSummary(const ExecOptions &O);

/// Compiles and runs one Kernel over bound tensors. Every entry point
/// returns a Status; client input never aborts the process.
///
/// Usage:
///   Executor Exec(Kernel);
///   Exec.bind("A", &A).bind("x", &X).bind("y", &Y);
///   obs::ExecReport Report;
///   if (Status S = Exec.tryPrepare(); !S.ok())  // aliases + plan
///     return S;
///   if (Status S = Exec.tryRun(&Report); !S.ok())  // body + epilogue
///     return S;
class Executor {
public:
  explicit Executor(Kernel K, ExecOptions Options = ExecOptions());
  ~Executor();
  Executor(Executor &&);
  Executor &operator=(Executor &&) = delete;

  /// Binds a tensor by declaration name. The tensor must outlive the
  /// executor and match the declaration's order. A null tensor is
  /// rejected by tryPrepare().
  Executor &bind(const std::string &Name, Tensor *T);

  /// Materializes transposes/splits requested by the kernel and compiles
  /// the execution plan; call after all binds. Sanitizes the options
  /// (recoverable absurdities — Threads=0, oversubscription beyond
  /// 4x the hardware — are clamped and recorded in
  /// optionClamps(); a negative deadline is ErrCode::InvalidOptions),
  /// rejects a null binding (InvalidArgument), and, when
  /// ValidateInputs != None, runs Tensor::validate on every bound
  /// tensor before any level array is dereferenced. Plan compilation
  /// is the one checker of the kernel against the bound tensors:
  /// unbound tensors, arity mismatches, inconsistent extents,
  /// non-dense write or replicate targets, loops without an extent and
  /// conditions that cannot be placed come back as a typed Status. On
  /// error the executor stays unprepared.
  [[nodiscard]] Status tryPrepare();

  /// Runs the main loop nest followed by the epilogue. tryRunBody()
  /// runs only the main loop nest (what the paper times). Both
  /// complete normally, or abort with ErrCode::Cancelled /
  /// DeadlineExceeded when the run's Cancel token fires or DeadlineMs
  /// expires. Aborted runs restore every output tensor to its pre-run
  /// values and discard the run's counter deltas; the report's
  /// AbortReason records the reason. With no token and no deadline
  /// these never fail after a successful tryPrepare() and add zero
  /// per-iteration cost.
  ///
  /// When \p Out is non-null it receives this run's report by value —
  /// a snapshot the caller owns outright, valid forever (including an
  /// aborted run's report, with AbortReason set). Reports leave the
  /// executor only this way.
  [[nodiscard]] Status tryRun(obs::ExecReport *Out = nullptr);
  [[nodiscard]] Status tryRunBody(obs::ExecReport *Out = nullptr);
  /// Runs only the replication epilogue and extends the preceding
  /// body run's report with it. Not cancellable: it is a cheap
  /// deterministic copy pass, and interrupting it would leave
  /// half-replicated outputs. Fails only before tryPrepare().
  [[nodiscard]] Status tryRunEpilogue(obs::ExecReport *Out = nullptr);

  /// Points this prepared executor at fresh tensors of identical
  /// structure — the plan-cache hit path, skipping einsum parsing,
  /// lowering, plan compilation, and specialization entirely (the
  /// rebound run's report shows plan-compile and specialize phases at
  /// 0). The compiled plan names tensors only by slot, so rebinding
  /// checks the structure, materializes aliases, and fills the operand
  /// table; nothing in the plan itself changes. Every originally-bound
  /// name must appear in \p NewBindings with the same format
  /// descriptor, dims, and fill value as the tensor the plan was
  /// compiled against; \p RunOptions must agree with the compiled
  /// options on every structural knob (threads, engines —
  /// the plan-cache key guarantees this) and supplies the per-request
  /// knobs the plan adopts: Cancel, DeadlineMs, ValidateInputs.
  /// Materialized aliases (diagonal splits, transposes) are rebuilt
  /// from the new tensors. On error the executor keeps its previous
  /// bindings and stays runnable. Fails with InvalidArgument when two
  /// originally-distinct names were bound to one tensor and the new
  /// bindings disagree (the rebind would be ambiguous; compile fresh).
  [[nodiscard]] Status rebind(const std::map<std::string, Tensor *> &NewBindings,
                              const ExecOptions &RunOptions);

  /// Human-readable notes for every option value tryPrepare() clamped
  /// ("threads 0 -> 1", ...). Empty when the options were sane.
  const std::vector<std::string> &optionClamps() const { return Clamps; }

  const Kernel &kernel() const { return K; }

  /// The tensor bound (or materialized) under \p Name; null if unknown.
  Tensor *lookup(const std::string &Name) const;

  /// Specialization outcome of tryPrepare(): how many plan loops run as
  /// fused micro-kernels vs. the generic interpreter.
  const MicroKernelStats &microKernelStats() const { return MKStats; }

  /// The normalized engine preference order tryPrepare() resolved from
  /// Options.Engines (empty before prepare).
  const std::vector<Engine> &engines() const { return Resolved.Order; }

  /// Outcome of the native (JIT) engine build when Engine::Native led
  /// the preference list: ok() when the body runs natively; otherwise a
  /// typed Status saying why the executor fell back to the rest of the
  /// list (ErrCode::ResourceExhausted when no host compiler is
  /// available, Internal for a compile/emission failure — the run
  /// itself still succeeds either way). Ok-and-meaningless when Native
  /// was never requested.
  const Status &nativeStatus() const { return NativeStatus; }

  /// True when tryRunBody() dispatches to the JIT-compiled native body.
  bool usesNativeEngine() const { return NativePlan != nullptr; }

  /// The C-ABI translation unit emitted for the native engine (empty
  /// unless Native led the preference list and emission succeeded —
  /// populated even if the subsequent compile/dlopen failed, for
  /// diagnostics and compile-check tests).
  const std::string &nativeSource() const { return NativeSource; }

private:
  friend class PlanCompiler;

  Kernel K;
  ExecOptions Options;
  std::map<std::string, Tensor *> Bound;
  /// Structural signature of one user binding, captured at tryPrepare()
  /// entry while the tensor was alive — what rebind() checks
  /// replacements against (bound tensors only have to outlive their own
  /// run, not the executor's stay in a plan cache).
  struct BindingSig {
    TensorFormat Format;
    std::vector<int64_t> Dims;
    double Fill = 0.0;
    /// The first (in name order) user name bound to the same tensor, or
    /// empty: rebind() requires the replacements to keep the sharing.
    std::string SharedWith;
  };
  std::map<std::string, BindingSig> UserSig;
  /// Per access id and per output id, the binding name the plan slot
  /// resolves (recorded once, at plan compilation).
  std::vector<std::string> AccessNames, OutputNames;
  std::vector<std::unique_ptr<Tensor>> Owned;

  std::unique_ptr<detail::PlanNode> BodyPlan;
  std::unique_ptr<detail::PlanNode> EpiloguePlan;
  std::unique_ptr<detail::ExecCtx> Ctx;
  MicroKernelStats MKStats;
  bool Prepared = false;

  /// Engine preference order resolved by sanitizeOptions().
  EngineResolution Resolved;
  /// JIT-compiled whole-body plan (null unless Native resolved first
  /// AND the build succeeded); tryRunBody() dispatches to it over
  /// BodyPlan. Holds the dlopened .so alive via a shared handle.
  std::unique_ptr<detail::PlanNode> NativePlan;
  /// Why NativePlan is null although Native was requested (see
  /// nativeStatus()).
  Status NativeStatus;
  /// Emitted native TU (see nativeSource()).
  std::string NativeSource;
  /// Wall time of the native source emission + compiler invocation at
  /// prepare; 0 on a warm .so-cache hit (the acceptance signal for
  /// cross-process cache reuse) and on rebind. Reported as the
  /// "native-compile" phase whenever Native was requested.
  uint64_t NativeCompileNs = 0;

  /// Option values tryPrepare() clamped (see optionClamps()).
  std::vector<std::string> Clamps;
  /// Shared stop state for controlled runs (cancel token + deadline),
  /// lazily created; the plan's execution contexts point at it.
  std::unique_ptr<detail::RunControl> Ctl;

  [[nodiscard]] Status sanitizeOptions();
  /// Materializes the kernel's diagonal splits and transposes over the
  /// bindings in \p B, replacing split/transposed names and appending
  /// the materialized tensors to \p O. Shared by tryPrepare() and
  /// rebind() so both paths build aliases identically.
  [[nodiscard]] Status materializeAliases(std::map<std::string, Tensor *> &B,
                                          std::vector<std::unique_ptr<Tensor>> &O);
  /// Fills the execution context's operand table from Bound: every
  /// access's and output's tensor, the OutPtr bases, and fresh cursors
  /// (Pos, LocParent, LocIdx). The one place a plan meets its tensors:
  /// tryPrepare() calls it after plan compilation, rebind() after
  /// materializing aliases.
  void bindSlots();

  /// The current run's report: filled by tryRunBody(), extended by
  /// tryRunEpilogue(), copied out through their Out parameters.
  obs::ExecReport Report;
  /// Prepare-phase timings, repeated into every run's report.
  uint64_t MaterializeNs = 0;
  uint64_t PlanCompileNs = 0;
  uint64_t SpecializeNs = 0;
  /// Input-validation time; the "validate" phase is reported only when
  /// ValidateInputs != None, so default runs keep their structureKey.
  uint64_t ValidateNs = 0;
  /// Per plan-loop (indexed by trace id) label/engine/driver metadata
  /// recorded at plan compilation; cloned into each report with the
  /// run's call/time aggregates filled in.
  std::vector<obs::LoopStat> LoopMeta;
};

} // namespace systec

#endif // SYSTEC_RUNTIME_EXECUTOR_H
