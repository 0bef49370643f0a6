//===- runtime/MicroKernels.h - Fused plan micro-kernels ------*- C++ -*-===//
///
/// \file
/// Runtime specialization layer for the plan interpreter. The
/// PlanSpecializer pass (specializeLoop) pattern-matches compiled loop
/// subtrees — innermost `PlanLoop` + `PlanAssign` bodies and the
/// dense-over-sparse nests produced by the ssymv/ssyrk/syprd/ttm/mttkrp
/// lowerings — into fused loop bodies that read `Level::Ptr/Crd` and
/// `Tensor::vals()` directly instead of dispatching a virtual plan node
/// and a switch-driven expression VM per element. Covered shapes:
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
///  - SparseLoad operands inside fused bodies, chaining the stateful
///    per-access locator (Tensor::locateHinted) through the context;
///    row-invariant level prefixes are prebound once per loop execution
///    (per row of a nest, per task range under parallel splits) so the
///    inner loop only resolves the levels that actually vary,
///  - Lut operands (lookup tables over index-equality bits, paper
///    4.2.5): bind-time constants when their bits do not mention the
///    loop variable, per-element contextual evaluation when they do,
///  - scalar reads of slots written in the same loop, observed live per
///    element via the contextual statement path (what the interpreter
///    does), instead of rejecting the loop,
///  - multi-level nest fusion: an outer walker loop whose body is
///    scalar defs, once-per-iteration assigns, and already-fused (or
///    generic) child loops, executed without per-iteration virtual
///    dispatch,
///  - register/cache-blocked output panels (MKBlockedEngine below):
///    fused nests whose variable strides a dense output mode while the
///    inner sparse walk is invariant in it tile that mode into
///    fixed-width column panels — one fiber walk per panel, per-lane
///    bound operands, and register-resident accumulators for the
///    workspace/accumulator forms (Engine::Blocked /
///    ExecOptions::BlockWidth).
///
/// Correctness contract: a fused loop is *bit-identical* to the generic
/// interpreted path (same factor fold order, same reduction order, same
/// iteration order) and produces *exactly* the same execution counters
/// (deltas are accumulated per loop execution and flushed once). The
/// generic path remains both the fallback — any unmatched shape, level
/// kind, or operand — and the testing oracle.
///
/// Parallel integration: micro-kernels hang off `PlanLoop::Fused` and
/// are invoked from `PlanLoop::execRange` with a task's `[Lo, Hi]`
/// coordinate sub-range and the task context's (possibly repointed)
/// `OutPtr` bases, so privatization and chunk scheduling work
/// unchanged. All bind-time state — including co-walker fingers and
/// per-row prebound locator positions — lives on the stack: one
/// MicroKernel may run concurrently from many task contexts, and a
/// task range re-derives its prebound state at its own bind, keeping
/// split execution bit-reproducible.
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
    Const,      ///< literal
    Scalar,     ///< ScalarVal slot (prebound unless Live)
    Walked,     ///< fully-driven access: T->val(Pos[order])
    Dense,      ///< Arr[sum(IndexVal[Slot] * Stride) + VStride * v]
    Driver,     ///< driving walker's value at the current position
    CoDriver,   ///< co-walker Slot's value at its matched position
    SparseLoad, ///< random access chaining the stateful locator
                ///< (runtime/Plan.h sparseLoadValue), evaluated per
                ///< element through the execution context
    Lut,        ///< lookup table over index-comparison bits; bind-time
                ///< constant unless the bits mention the loop variable
  };
  Kind K = Kind::Const;
  double Lit = 0;
  unsigned Slot = 0;           ///< Scalar slot, access id
                               ///< (Walked / SparseLoad), or co-walker
                               ///< index (CoDriver)
  /// Scalar only: the slot is written by an item of the same loop, so
  /// the read must observe the current ScalarVal per element (exactly
  /// like the interpreter) instead of prebinding at loop entry. Forces
  /// the owning statement through the contextual engine.
  bool Live = false;
  const double *Arr = nullptr; ///< Dense: cached valsData() of the
                               ///< accessed tensor (stable for a live
                               ///< tensor)
  Tensor *ArrT = nullptr;      ///< Dense: the tensor Arr was cached
                               ///< from, so rebind can re-derive Arr
                               ///< for a replacement tensor
  std::vector<std::pair<unsigned, int64_t>> BaseTerms; ///< Dense
  int64_t VStride = 0;                                 ///< Dense
  /// SparseLoad: per level (top first), the index slot providing that
  /// level's coordinate (mirrors VInstr::LevelSlots).
  std::vector<unsigned> LevelSlots;
  /// SparseLoad (innermost loops only): number of leading levels whose
  /// coordinate slots do not mention the loop variable. These are
  /// row-invariant, so the engine resolves them once at bind time
  /// (per-row prebinding) and per-element evaluation continues from the
  /// cached position — or returns Fill outright when the prefix is
  /// absent. 0 disables prebinding for this operand.
  uint8_t PrebindLevels = 0;
  unsigned PrebindIdx = 0; ///< slot in the engine's prebind array
  double Fill = 0;         ///< the accessed tensor's fill value
  /// Lut: compiled equality bits and table (mirrors VInstr). LutDynamic
  /// is true when some bit mentions the loop variable, forcing
  /// per-element contextual evaluation.
  std::vector<CAtom> LutBits;
  std::vector<double> LutTable;
  bool LutDynamic = false;
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
    Loop, ///< nested plan loop, dispatched once per iteration
  };
  Kind K = Kind::Stmt;
  /// Residual guard (conjunction of the PlanIf conditions wrapping this
  /// item). Evaluated per iteration; guards that do not mention the
  /// loop variable are hoisted to bind time in the innermost engine.
  bool HasGuard = false;
  CCond Guard;
  bool GuardDynamic = false; ///< guard mentions the loop variable
  MKStmt S;                  ///< Def / Stmt payload
  PlanLoop *Child = nullptr; ///< Loop payload
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
  const int64_t *Ptr = nullptr, *Crd = nullptr;  ///< Sparse / RunLength
  const int64_t *RunEnd = nullptr;               ///< RunLength
  const int64_t *BLo = nullptr, *BHi = nullptr,  ///< Banded
      *BOff = nullptr;
  const double *Vals = nullptr;
  int64_t Dim = 0;
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
  /// Raw level arrays, cached at specialization (stable for a live
  /// tensor; only the parent position is resolved per run). Ptr/Crd
  /// for Sparse, Ptr/RunEnd for RunLength, BLo/BHi/BOff for Banded.
  const int64_t *Ptr = nullptr, *Crd = nullptr;
  const int64_t *RunEnd = nullptr;
  const int64_t *BLo = nullptr, *BHi = nullptr, *BOff = nullptr;
  const double *Vals = nullptr;
  int64_t Dim = 0;

  /// Cap on co-walkers so bind-time finger state fits fixed stack
  /// arrays (the interpreter handles any count; wider intersections
  /// stay interpreted).
  static constexpr unsigned MaxCoWalkers = 4;
  /// Non-driving walkers, resolved per candidate in registration order
  /// exactly like the interpreter's walker list.
  std::vector<MKCoWalker> Cos;
};

/// The register/cache-blocked output engine (paper's ssyrk/syprd/ttm
/// memory-wall shape). Installed on a fused *nest* loop when
///
///  - the nest's driver is a plain Range (no walkers, so every access
///    position — in particular the inner fiber — is invariant across
///    the nest variable `u`),
///  - its body is one unguarded child loop, innermost-fused, driven by
///    a sparse walk with no co-walkers — either alone (the *direct*
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
///    constants, scalars, walked values, SparseLoads and Luts whose
///    slots avoid the child variable).
///
/// Execution tiles `u` into Width-wide panels anchored at absolute
/// multiples of Width: each panel binds its lanes once (per-lane child
/// bounds from the child's Lo/Hi terms, per-lane operand values /
/// dense bases, per-lane destination pointers), then walks the shared
/// fiber ONCE, updating every active lane per element — instead of
/// re-binding and re-walking the fiber once per `u` and re-resolving
/// row-invariant SparseLoads once per *element* as the unblocked nest
/// does. When the destination does not depend on the child driver
/// (DstVStride == 0, the `C[i,k] += A_row(j) * B[j,k]` accumulator
/// shape), the panel's cells live in registers across the whole walk
/// and are written back once per panel.
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
  unsigned SparseLoadFactors = 0; ///< factors charging a SparseRead

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
  unsigned Width = 4;  ///< panel width, resolved at install

  /// Dedicated panel walks for the two-factor Mul-fold / Add-reduce
  /// cores (ssyrk's driver * per-column-scalar and the SpMM-style
  /// driver * dense-row accumulation); every other accepted shape runs
  /// the generic per-lane fold, still one fiber walk per panel.
  enum class Fast : uint8_t { None, Axpy2, Accum2 };
  Fast FastPath = Fast::None;

  static constexpr unsigned MaxWidth = 8;

  void run(ExecCtx &C, int64_t Lo, int64_t Hi);
};

/// A fused loop. Attached to PlanLoop::Fused by the specializer and run
/// from PlanLoop::execRange in place of the generic walker dispatch.
class MicroKernel {
public:
  unsigned Slot = 0;      ///< loop variable slot
  bool Innermost = false; ///< no Loop items: tight prebound engine
  MKDriver D;
  std::vector<MKItem> Items;
  /// Blocked output engine replacing the generic nest dispatch (null
  /// when the shape does not match or blocking is disabled; the nest
  /// path below then runs — both are bit-identical to the interpreter).
  std::unique_ptr<MKBlockedEngine> Blocked;

  void run(ExecCtx &C, int64_t Lo, int64_t Hi);

  /// Re-derives every raw pointer this kernel baked at specialization
  /// (driver/co-walker level arrays, dense operand bases, blocked-engine
  /// state) from the repatched access table and tensor map in \p R.
  /// Does NOT recurse into Loop items' children: those PlanLoops are
  /// owned by the enclosing Body tree, which rebinds them itself.
  void rebind(const RebindCtx &R);

  /// Caps enforced by the specializer so the innermost engine can bind
  /// into fixed-size stack arrays.
  static constexpr unsigned MaxFactors = 8;
  static constexpr unsigned MaxItems = 12;
  /// Cap on per-row prebound SparseLoad operands per loop (excess
  /// operands simply skip prebinding; values are identical either way).
  static constexpr unsigned MaxPrebinds = 8;

private:
  void runInner(ExecCtx &C, int64_t Lo, int64_t Hi);
  void runNest(ExecCtx &C, int64_t Lo, int64_t Hi);
};

/// Specialization-time knobs threaded from ExecOptions, plus the
/// compile context the blocked-shape matcher needs.
struct MKSpecializeOptions {
  bool UseBlocked = true;
  unsigned BlockWidth = 0; ///< 0 = auto from the panel mode's extent
  /// Output tensors registered so far; a dense factor reading an output
  /// array declines blocking (reordering element visits across lanes
  /// could otherwise observe the loop's own stores differently).
  const std::vector<Tensor *> *OutputTensors = nullptr;
};

/// The PlanSpecializer pass: attempts to fuse \p L (whose body has
/// already been compiled, with inner loops specialized bottom-up). On
/// success installs L.Fused and returns true; on any unmatched shape
/// leaves L untouched (the interpreted path stays authoritative).
bool specializeLoop(PlanLoop &L, const std::vector<AccessState> &Accesses,
                    const MKSpecializeOptions &Opts = MKSpecializeOptions());

} // namespace detail
} // namespace systec

#endif // SYSTEC_RUNTIME_MICROKERNELS_H
