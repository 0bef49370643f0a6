//===- runtime/MicroKernels.h - Fused plan micro-kernels ------*- C++ -*-===//
///
/// \file
/// Runtime specialization layer for the plan interpreter. The
/// PlanSpecializer pass (specializeLoop) pattern-matches compiled leaf
/// loops — plan loops whose body holds no loop — into fused loop
/// bodies that read `Level::Ptr/Crd` and `Tensor::vals()` directly
/// instead of dispatching a virtual plan node and a switch-driven
/// expression VM per element. Kernels hold only structure (access ids,
/// levels, strides); the raw arrays are read from the execution
/// context's access table once per loop execution, at the bind each
/// engine performs anyway. Nest loops run in the interpreter
/// (PlanLoop::rangeBody): the savings are in the leaves, where each
/// canonical entry is read once and feeds every equivalent update. The
/// one nest-level engine is the blocked panel engine below. Covered
/// leaf shapes:
///
///  - sparse-row dot / axpy (one sparse walker, invariant cofactors),
///  - dense axpy / scale-accumulate with strided output (dense range),
///  - N-way walker intersection: one driver plus any number of
///    co-walkers (up to MKDriver::MaxCoWalkers) of any level kind —
///    sparse co-walkers advance by sorted multi-finger merge with
///    galloping catch-up, RunLength co-walkers by run containment,
///    Banded co-walkers by interval containment, matching the
///    interpreter's per-element locate positionally,
///  - run-aware RunLength and interval-aware Banded driver loops over
///    raw Ptr/RunEnd and Lo/Hi/Off arrays (format-general drivers),
///  - Lut operands (lookup tables over index-equality bits, paper
///    4.2.5) whose bits do not mention the loop variable: one table
///    entry per call,
///  - register/cache-blocked output panels (MKBlockedEngine below): a
///    nest over one fused leaf, whose variable strides a dense output
///    mode while the leaf's sparse walk is invariant in it, tiles that
///    mode into fixed-width column panels — one fiber walk per panel,
///    per-lane bound operands, and register-resident accumulators for
///    the workspace/accumulator forms (Engine::Blocked).
///
/// Every operand of a fused leaf binds once per call: a value, or a
/// base pointer plus strides over the loop position and the matched
/// walker positions. The specializer declines a leaf with an operand
/// that would have to consult the execution context per element — a
/// SparseLoad (random access into a sparse tensor, emitted where the
/// annihilation analysis vetoes walking it), a read of a scalar an item
/// of the leaf writes that no preceding def substitutes, or a Lut whose
/// bits name the loop variable — and the leaf runs in the interpreter.
///
/// A fused leaf runs in one of two forms (LoopStat::Form reports which).
/// The *straight-line loop* (MKLine) takes unguarded leaves of 1-5
/// statements over a coordinate range or a sparse walk without
/// co-walkers, whose statements all reduce in one semiring, (*, +) or
/// (+, min). Its shape — driver, semiring, statement count, per-element
/// factor count, register-tail length and which statements reduce into
/// a scalar — is a set of template parameters chosen once at
/// specialization, so each element reads the driver value once and runs
/// every statement in program order with no dispatch: SySTeC's one read
/// of a canonical entry feeding every equivalent update. Per call it
/// folds each range statement's invariant factor prefix, binds each
/// distinct dense operand once, and keeps invariant tail factors and
/// scalar accumulators in registers; defs store their last element's
/// value after the walk, since after substitution no statement reads
/// one.
/// The instantiated set (LineShapes in MicroKernels.cpp) is bounded and
/// named: the leaves of the eight paper kernels, naive and optimized —
/// on sparse walks single statements into a tensor cell or a scalar
/// with up to two register-tail factors, and ssymv's and bellmanford's
/// read-once pairs; on ranges one statement of 1-4 dense factors, and
/// ttm's and mttkrp3-5's strict blocks of 3-5 statements — which also
/// covers every shape of the single-statement sparse loop it replaced.
/// Every other leaf — guarded (the diagonal leaves of ttm and
/// mttkrp3-5), intersecting, other-semiring, or of another shape — runs
/// the *generic* per-statement path: a switch per statement per element
/// over the same bound operands.
///
/// Correctness contract: a fused loop is *bit-identical* to the generic
/// interpreted path (same factor fold order, same reduction order, same
/// iteration order) and produces *exactly* the same execution counters
/// (deltas are accumulated per loop execution and flushed once). The
/// generic path remains both the fallback — any unmatched shape, level
/// kind, or operand — and the testing oracle.
///
/// Parallel integration: micro-kernels hang off `PlanLoop::Fused` (the
/// blocked engine off `PlanLoop::Blocked`) and are invoked from
/// `PlanLoop::execRange` with a task's `[Lo, Hi]` coordinate sub-range
/// and the task context's (possibly repointed) `OutPtr` bases, so
/// privatization and chunk scheduling work unchanged. All bind-time
/// state — level arrays and value bases read from the task context's
/// access table, co-walker fingers — lives on the stack: one
/// MicroKernel may run concurrently from many task contexts, and a
/// task range re-derives its bound state at its own bind, keeping split
/// execution bit-reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_RUNTIME_MICROKERNELS_H
#define SYSTEC_RUNTIME_MICROKERNELS_H

#include "runtime/Plan.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace systec {
namespace detail {

/// Compile-time description of one value source in a fused statement.
struct MKOperand {
  enum class Kind : uint8_t {
    Const,    ///< literal
    Scalar,   ///< ScalarVal slot no item of the loop writes
    Walked,   ///< fully-driven access: T->val(Pos[order])
    Dense,    ///< vals[sum(IndexVal[Slot] * Stride) + VStride * v]
    Driver,   ///< driving walker's value at the current position
    CoDriver, ///< co-walker Slot's value at its matched position
    Lut,      ///< lookup table over index-comparison bits that do not
              ///< mention the loop variable
  };
  Kind K = Kind::Const;
  double Lit = 0;
  unsigned Slot = 0; ///< Scalar slot, access id (Walked / Dense), or
                     ///< co-walker index (CoDriver)
  std::vector<std::pair<unsigned, int64_t>> BaseTerms; ///< Dense
  int64_t VStride = 0;                                 ///< Dense
  /// Lut: compiled equality bits and table (mirrors VInstr).
  std::vector<CAtom> LutBits;
  std::vector<double> LutTable;
};

/// One fused statement: Dst Reduce= fold(Combine, Factors...), folded
/// left-to-right exactly as the expression VM evaluates the original
/// program (the specializer only accepts programs whose op tree is a
/// left-deep chain, so the fold order is preserved bit for bit).
struct MKStmt {
  OpKind Combine = OpKind::Mul;
  std::optional<OpKind> Reduce;
  std::vector<MKOperand> Factors;
  bool ScalarDst = false;
  unsigned ScalarSlot = 0;
  unsigned OutId = 0;
  std::vector<std::pair<unsigned, int64_t>> DstBaseTerms;
  int64_t DstVStride = 0;
};

/// One item of a fused loop body, executed in order per iteration.
struct MKItem {
  enum class Kind : uint8_t {
    Def,  ///< scalar definition (no counter contribution, plain store)
    Stmt, ///< assignment (counts Reductions / OutputWrites / ScalarOps)
  };
  Kind K = Kind::Stmt;
  /// Residual guard (conjunction of the PlanIf conditions wrapping this
  /// item). Evaluated per iteration; guards that do not mention the
  /// loop variable are hoisted to bind time.
  bool HasGuard = false;
  CCond Guard;
  bool GuardDynamic = false; ///< guard mentions the loop variable
  MKStmt S;
};

/// One non-driving walker of an intersection loop. The driver emits
/// candidate coordinates in ascending order; each co-walker either
/// aliases the driver's position (same fiber, checked per execution
/// like the interpreter) or resolves the candidate positionally by its
/// level kind: sparse fibers keep a forward finger (multi-finger merge
/// with galloping catch-up), RunLength fibers a forward run finger,
/// Dense and Banded fibers compute positions directly. A missing
/// coordinate in any co-walker skips the body — the same intersection
/// the generic interpreter evaluates with per-element locate calls.
struct MKCoWalker {
  LevelKind Kind = LevelKind::Dense;
  bool SameFiber = false; ///< same tensor and level as the driver
  unsigned AccessId = 0, Level = 0;
  bool Bottom = false;
  bool CountReads = false; ///< bottom level of a sparse-format tensor
};

/// Iteration source of a fused loop.
struct MKDriver {
  enum class Kind : uint8_t {
    Range,         ///< plain coordinate range (no walkers)
    DenseWalk,     ///< walker over a dense level (position = parent*dim+v)
    SparseWalk,    ///< walker over a sparse level (Ptr/Crd arrays)
    RunLengthWalk, ///< run-aware walk over a RunLength level
                   ///< (Ptr/RunEnd arrays; every coordinate visited,
                   ///< position = run index)
    BandedWalk,    ///< interval walk over a Banded level
                   ///< (Lo/Hi/Off arrays)
  };
  Kind K = Kind::Range;
  unsigned AccessId = 0, Level = 0;
  bool Bottom = false;
  bool CountReads = false; ///< bottom level of a sparse-format tensor

  /// Cap on co-walkers so bind-time finger state fits fixed stack
  /// arrays (the interpreter handles any count; wider intersections
  /// stay interpreted).
  static constexpr unsigned MaxCoWalkers = 4;
  /// Non-driving walkers, resolved per candidate in registration order
  /// exactly like the interpreter's walker list.
  std::vector<MKCoWalker> Cos;
};

/// The register/cache-blocked output engine (paper's ssyrk/syprd/ttm
/// memory-wall shape). Installed on a nest loop, as PlanLoop::Blocked,
/// when
///
///  - the nest's driver is a plain Range (no walkers, so every access
///    position — in particular the inner fiber — is invariant across
///    the nest variable `u`) or a sparse walk of another access,
///  - its body is one unguarded fused leaf loop driven by a sparse
///    walk with no co-walkers — either alone (the *direct*
///    form: the child assignment writes a tensor destination striding
///    `u` by a nonzero PanelStride, lanes provably disjoint via
///    DstVStride * (fiber dim - 1) < PanelStride) or in the workspace
///    triple the pipeline emits for `C[i,u] += A_row(j) * B[j,u]`
///    (`w = <const>; for j: w R= ...; C[i,u] R= w` — the *workspace*
///    form: the panel's workspace cells live in registers and the
///    final store strides `u`), and
///  - every factor is either per-element in the child driver in a
///    prebindable way (the driver's value, dense loads with a value
///    stride) or invariant in it (resolvable once per panel lane:
///    constants, scalars, walked values and Luts).
///
/// Execution tiles `u` into Width-wide panels anchored at absolute
/// multiples of Width: each panel binds its lanes once (per-lane child
/// bounds from the child's Lo/Hi terms, per-lane operand values /
/// dense bases, per-lane destination pointers), then walks the shared
/// fiber ONCE, updating every active lane per element — instead of
/// re-binding and re-walking the fiber once per `u`, as the
/// interpreted nest over the fused child does. When the destination
/// does not depend on the child driver (DstVStride == 0, the
/// `C[i,k] += A_row(j) * B[j,k]` accumulator shape), the panel's cells
/// live in registers across the whole walk and are written back once
/// per panel.
///
/// Bit-identity: panel lanes write disjoint cells, and within a cell
/// the contribution order is the fiber order — exactly the
/// interpreter's — so results are identical for every Width and every
/// task-range split, including ragged boundary panels. Counter parity
/// is exact: each executed element-lane charges the same SparseReads /
/// ScalarOps / Reductions / OutputWrites the interpreter charges; the
/// blocked engine's own FusedBlockedPanels / FusedBlockedStores
/// counters are additive telemetry on top.
class MKBlockedEngine {
public:
  /// Per-factor binding class, precomputed at specialization.
  enum class FClass : uint8_t {
    LaneImm,  ///< invariant in the child driver: one value per lane
    Driver,   ///< the child driver's value at the current position
    LaneDense ///< dense load: per-lane base pointer, per-element stride
  };

  unsigned USlot = 0;        ///< nest (panel) variable slot
  PlanLoop *Child = nullptr; ///< child loop: Lo/Hi terms and extent
  unsigned ChildSlot = 0;
  /// Nest driver supplying the panel lanes: Range (lanes are
  /// consecutive coordinates, anchored at absolute Width multiples) or
  /// SparseWalk (lanes are consecutive stored coordinates of the nest
  /// fiber; the lane bind updates the nest access's position so walked
  /// factors read the lane's value, and charges the driver's
  /// SparseReads per lane exactly like the generic nest).
  MKDriver Nest;
  MKDriver D; ///< child driver (SparseWalk, no co-walkers)
  OpKind Combine = OpKind::Mul;
  /// Per-element reduction of the child assignment (into the tensor
  /// cell directly for the direct form, into the workspace scalar for
  /// the workspace form). nullopt overwrites.
  std::optional<OpKind> ElemReduce;
  /// Workspace form only: the final `dst R= w` store's reduction.
  std::optional<OpKind> FinalReduce;
  unsigned OutId = 0;
  int64_t PanelStride = 0; ///< dst stride of `u` (nonzero)
  int64_t DstVStride = 0;  ///< dst stride of the child variable (>= 0)
  /// Destination base terms with `u` removed (invariant across a run).
  std::vector<std::pair<unsigned, int64_t>> DstInvTerms;
  std::vector<MKOperand> Factors; ///< child factor list, order kept
  std::vector<FClass> Classes;    ///< per factor

  /// How panel lanes reach memory. Stream: the child destination
  /// depends on the child driver — per-element lane stores. Accum: the
  /// destination cell is invariant across the walk — lanes accumulate
  /// in registers and store once per panel. Workspace: like Accum, but
  /// through the pipeline's explicit workspace scalar (register-seeded
  /// from the def's constant, folded into the tensor cell once per
  /// lane by the final store).
  enum class BMode : uint8_t { Stream, Accum, Workspace };
  BMode Mode = BMode::Stream;
  unsigned WsSlot = 0; ///< workspace scalar slot (Workspace mode)
  double WsInit = 0;   ///< the def's constant (Workspace mode)
  /// Panel width, from the panel mode's extent at install: 8, or 4
  /// for modes narrower than 8.
  unsigned Width = 4;

  /// Dedicated panel walks for the two-factor Mul-fold / Add-reduce
  /// cores (ssyrk's driver * per-column-scalar and the SpMM-style
  /// driver * dense-row accumulation); every other accepted shape runs
  /// the generic per-lane fold, still one fiber walk per panel.
  enum class Fast : uint8_t { None, Axpy2, Accum2 };
  Fast FastPath = Fast::None;

  static constexpr unsigned MaxWidth = 8;

  void run(ExecCtx &C, int64_t Lo, int64_t Hi);
};

class MicroKernel;

/// The straight-line plan of a fused leaf (see the file comment),
/// decided once at specialization. Run is the instantiation of the
/// leaf's shape; null leaves the leaf on the generic per-statement
/// path.
struct MKLine {
  using Fn = void (*)(const MicroKernel &, ExecCtx &, int64_t, int64_t);
  Fn Run = nullptr;
  /// Item indices of the statements and of the defs, in program order.
  std::vector<unsigned> Stmts, Defs;
  /// Counter charges per element, summed over the leaf's items: the
  /// folds' scalar ops, the statements (reductions) and the tensor
  /// statements (output writes).
  uint64_t Ops = 0, Reductions = 0, Writes = 0;
  /// Range drivers only: the one v stride of every per-element factor
  /// and of every destination, so an element computes two offsets, not
  /// one product per factor.
  int64_t FactorStride = 0, DstStride = 0;
  /// The distinct dense operands among the statements' per-element
  /// factors (same access, same bound terms), each bound once per call
  /// however many statements read it; LoadOf[s * E + f] indexes the
  /// operand of statement s's per-element factor f (E from the shape).
  std::vector<MKOperand> Loads;
  std::vector<uint8_t> LoadOf;
};

/// A fused leaf loop. Attached to PlanLoop::Fused by the specializer
/// and run from PlanLoop::execRange in place of the generic walker
/// dispatch.
class MicroKernel {
public:
  unsigned Slot = 0; ///< loop variable slot
  MKDriver D;
  std::vector<MKItem> Items;
  MKLine Line;

  void run(ExecCtx &C, int64_t Lo, int64_t Hi);

  /// Caps enforced by the specializer so the engine can bind into
  /// fixed-size stack arrays.
  static constexpr unsigned MaxFactors = 8;
  static constexpr unsigned MaxItems = 12;
};

/// Specialization-time knobs threaded from ExecOptions, plus the
/// compile context the blocked-shape matcher needs.
struct MKSpecializeOptions {
  bool UseBlocked = true;
  /// Output tensors registered so far; a dense factor reading an output
  /// array declines blocking (reordering element visits across lanes
  /// could otherwise observe the loop's own stores differently).
  const std::vector<Tensor *> *OutputTensors = nullptr;
};

/// Whether the plan subtree \p N holds a PlanLoop: a loop whose body
/// does not is a leaf loop, any other a nest loop.
bool containsLoop(const PlanNode *N);

/// The PlanSpecializer pass over \p L, whose body has already been
/// compiled (inner loops specialized bottom-up). A leaf loop gets
/// L.Fused; a nest loop only ever gets L.Blocked, when it has the panel
/// shape and Opts.UseBlocked is set. Returns whether either was
/// installed; otherwise L is untouched and the interpreted path stays
/// authoritative.
bool specializeLoop(PlanLoop &L, const std::vector<AccessState> &Accesses,
                    const MKSpecializeOptions &Opts = MKSpecializeOptions());

} // namespace detail
} // namespace systec

#endif // SYSTEC_RUNTIME_MICROKERNELS_H
