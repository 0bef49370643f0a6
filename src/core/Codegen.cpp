//===- core/Codegen.cpp ---------------------------------------*- C++ -*-===//

#include "core/Codegen.h"

#include "runtime/Plan.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace systec {

//===----------------------------------------------------------------------===//
// Native TU emission (the JIT engine's source backend)
//===----------------------------------------------------------------------===//

namespace {

using detail::AccessState;
using detail::CAtom;
using detail::ExecCtx;
using detail::PlanAssign;
using detail::PlanDef;
using detail::PlanIf;
using detail::PlanLoop;
using detail::PlanNode;
using detail::PlanReplicate;
using detail::PlanSeq;
using detail::VInstr;
using detail::VKind;
using detail::VProgram;

/// Exact-round-trip double literal: hexfloat for finite values (the
/// emitted body must reproduce the interpreter's constants bit for
/// bit), INFINITY/NAN macros otherwise (<math.h> is included).
std::string nativeDouble(double V) {
  if (std::isnan(V))
    return "NAN";
  if (std::isinf(V))
    return V > 0 ? "INFINITY" : "-INFINITY";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

/// Emits one compiled plan as a self-contained C++ TU with a C ABI
/// entry point. Every translation rule mirrors the interpreter
/// (runtime/Plan.cpp) statement for statement — bounds, walker drivers,
/// co-walker intersection order, expression fold order, multiplicity
/// handling, and the counter charge points — so the native body is
/// bit-identical with exact counter parity by construction.
class NativeTUEmitter {
public:
  NativeTUEmitter(const PlanNode &Root, const ExecCtx &Ctx,
                  const std::string &KernelName)
      : Root(Root), Ctx(Ctx), KernelName(KernelName) {}

  Expected<NativeEmitResult> emit() {
    std::ostringstream Body;
    emitNode(&Root, Body, 1);
    if (!Err.ok())
      return std::move(Err);
    NativeEmitResult R;
    R.Source = assemble(Body.str());
    R.Args = Args;
    return R;
  }

private:
  const PlanNode &Root;
  const ExecCtx &Ctx;
  std::string KernelName;

  std::vector<unsigned> Args; // access ids, one per distinct tensor
  std::map<const Tensor *, unsigned> ArgIdx;
  std::vector<std::string> LutDefs;
  unsigned TmpCount = 0;
  unsigned ScopeCount = 0;
  Status Err;

  void fail(const std::string &What) {
    if (Err.ok())
      Err = Status::error(ErrCode::InvalidArgument,
                          "native emission: " + What);
  }

  static std::string num(uint64_t V) { return std::to_string(V); }
  static std::string snum(int64_t V) { return std::to_string(V); }
  /// \p Prefix followed by \p N, built by appending: `"t" + num(N)`
  /// trips GCC 12's -Wrestrict false positive in
  /// operator+(const char *, std::string &&).
  static std::string tag(char Prefix, uint64_t N) {
    std::string S(1, Prefix);
    S += num(N);
    return S;
  }
  std::string newTmp() { return tag('t', TmpCount++); }
  unsigned newScope() { return ScopeCount++; }

  /// The argument number of \p AccessId's tensor: arguments are
  /// numbered by distinct tensor in first-use order, and each records
  /// the first access that reached it.
  unsigned argOf(unsigned AccessId) {
    const Tensor *T = Ctx.Accesses[AccessId].T;
    auto It = ArgIdx.find(T);
    if (It != ArgIdx.end())
      return It->second;
    unsigned Id = static_cast<unsigned>(Args.size());
    Args.push_back(AccessId);
    ArgIdx.emplace(T, Id);
    return Id;
  }

  std::string tens(unsigned AccessId) {
    return "T[" + num(argOf(AccessId)) + "]";
  }
  std::string lev(unsigned AccessId, unsigned L) {
    return tens(AccessId) + ".levels[" + num(L) + "]";
  }
  static std::string ivar(unsigned Slot) { return tag('i', Slot); }
  static std::string svar(unsigned Slot) { return tag('s', Slot); }
  static std::string pvar(unsigned AccessId, unsigned Level) {
    std::string S = tag('p', AccessId);
    S += '_';
    S += num(Level);
    return S;
  }

  /// evalOp fold step with the interpreter's operand order; the min/max
  /// helpers replicate std::min/std::max tie and NaN behavior exactly.
  static std::string foldOp(OpKind Op, const std::string &A,
                            const std::string &B) {
    switch (Op) {
    case OpKind::Add:
      return "(" + A + " + " + B + ")";
    case OpKind::Mul:
      return "(" + A + " * " + B + ")";
    case OpKind::Sub:
      return "(" + A + " - " + B + ")";
    case OpKind::Div:
      return "(" + A + " / " + B + ")";
    case OpKind::Min:
      return "systec_min(" + A + ", " + B + ")";
    case OpKind::Max:
      return "systec_max(" + A + ", " + B + ")";
    }
    return "0.0";
  }

  static std::string cmpExpr(const CAtom &A) {
    return ivar(A.A) + " " + cmpKindName(A.Kind) + " " + ivar(A.B);
  }

  std::string slotStrideSum(
      const std::vector<std::pair<unsigned, int64_t>> &SlotStride) {
    if (SlotStride.empty())
      return "0";
    std::string Out;
    for (const auto &[Slot, Stride] : SlotStride) {
      if (!Out.empty())
        Out += " + ";
      Out += ivar(Slot) + " * " + snum(Stride);
    }
    return Out;
  }

  /// Random access through \p I's fibertree, mirroring Tensor::locate
  /// level by level (locateHinted's galloping cursor is a perf device
  /// that returns identical positions, so a plain binary search is
  /// emitted). Returns the name of the temp holding the value.
  std::string emitSparseLoad(const VInstr &I, std::ostringstream &OS,
                             const std::string &Pad) {
    const Tensor *T = Ctx.Accesses[I.Id].T;
    std::string Tmp = newTmp();
    OS << Pad << "const double " << Tmp << " = [&]() -> double {\n";
    OS << Pad << "  int64_t pos = 0;\n";
    for (unsigned L = 0; L < T->order(); ++L) {
      const std::string C = ivar(I.LevelSlots[L]);
      const std::string LV = lev(I.Id, L);
      switch (T->level(L).Kind) {
      case LevelKind::Dense:
        OS << Pad << "  pos = pos * " << LV << ".dim + " << C << ";\n";
        break;
      case LevelKind::Sparse:
        OS << Pad << "  {\n"
           << Pad << "    const int64_t e = " << LV << ".ptr[pos + 1];\n"
           << Pad << "    const int64_t q = systec_lb(" << LV << ".crd, "
           << LV << ".ptr[pos], e, " << C << ");\n"
           << Pad << "    if (q == e || " << LV << ".crd[q] != " << C
           << ") return " << tens(I.Id) << ".fill;\n"
           << Pad << "    pos = q;\n"
           << Pad << "  }\n";
        break;
      case LevelKind::RunLength:
        OS << Pad << "  {\n"
           << Pad << "    const int64_t e = " << LV << ".ptr[pos + 1];\n"
           << Pad << "    const int64_t q = systec_ub(" << LV
           << ".run_end, " << LV << ".ptr[pos], e, " << C << ");\n"
           << Pad << "    if (q == e) return " << tens(I.Id) << ".fill;\n"
           << Pad << "    pos = q;\n"
           << Pad << "  }\n";
        break;
      case LevelKind::Banded:
        OS << Pad << "  if (" << C << " < " << LV << ".lo[pos] || " << C
           << " >= " << LV << ".hi[pos]) return " << tens(I.Id) << ".fill;\n"
           << Pad << "  pos = " << LV << ".off[pos] + (" << C << " - "
           << LV << ".lo[pos]);\n";
        break;
      }
    }
    OS << Pad << "  return " << tens(I.Id) << ".vals[pos];\n";
    OS << Pad << "}();\n";
    return Tmp;
  }

  /// Decompiles a VProgram into temp statements in program order and
  /// returns the expression for the final stack value. Counter charges
  /// are compile-time constants: every instruction evaluates exactly
  /// once per program evaluation, so one aggregate increment per
  /// counter replaces the VM's per-instruction bookkeeping.
  std::string emitProgram(const VProgram &P, std::ostringstream &OS,
                          unsigned Indent) {
    std::string Pad(2 * Indent, ' ');
    std::vector<std::string> Stack;
    uint64_t SparseReads = 0, ScalarOps = 0;
    for (const VInstr &I : P.Code) {
      switch (I.Kind) {
      case VKind::Lit:
        Stack.push_back(nativeDouble(I.Lit));
        break;
      case VKind::Scalar:
        Stack.push_back(svar(I.Id));
        break;
      case VKind::Walked: {
        Stack.push_back(tens(I.Id) + ".vals[" +
                        pvar(I.Id, Ctx.Accesses[I.Id].T->order()) + "]");
        break;
      }
      case VKind::DenseLoad:
        Stack.push_back(tens(I.Id) + ".vals[" +
                        slotStrideSum(I.SlotStride) + "]");
        break;
      case VKind::SparseLoad:
        ++SparseReads;
        Stack.push_back(emitSparseLoad(I, OS, Pad));
        break;
      case VKind::Op: {
        if (Stack.size() < I.NArgs || I.NArgs == 0) {
          fail("malformed expression program");
          return "0.0";
        }
        std::string Acc = Stack[Stack.size() - I.NArgs];
        for (unsigned K = 1; K < I.NArgs; ++K)
          Acc = foldOp(I.Op, Acc, Stack[Stack.size() - I.NArgs + K]);
        Stack.resize(Stack.size() - I.NArgs);
        std::string Tmp = newTmp();
        OS << Pad << "const double " << Tmp << " = " << Acc << ";\n";
        Stack.push_back(Tmp);
        ScalarOps += I.NArgs - 1;
        break;
      }
      case VKind::Lut: {
        unsigned LutId = static_cast<unsigned>(LutDefs.size());
        std::vector<std::string> Vals;
        for (double V : I.LutTable)
          Vals.push_back(nativeDouble(V));
        LutDefs.push_back("static const double systec_lut" + num(LutId) +
                          "[] = {" + join(Vals, ", ") + "};");
        std::string Mask;
        for (size_t B = 0; B < I.LutBits.size(); ++B) {
          if (B)
            Mask += " | ";
          Mask += "((" + cmpExpr(I.LutBits[B]) + ") ? " +
                  num(uint64_t(1) << B) + "u : 0u)";
        }
        if (Mask.empty())
          Mask = "0u";
        std::string Tmp = newTmp();
        OS << Pad << "const double " << Tmp << " = systec_lut"
           << num(LutId) << "[" << Mask << "];\n";
        Stack.push_back(Tmp);
        break;
      }
      }
    }
    if (SparseReads)
      OS << Pad << "n_sparse_reads += " << num(SparseReads) << ";\n";
    if (ScalarOps)
      OS << Pad << "n_scalar_ops += " << num(ScalarOps) << ";\n";
    return Stack.empty() ? std::string("0.0") : Stack.back();
  }

  /// Tensor::locate for one co-walker level, by the statically known
  /// level kind; assigns -1 to \p Dst on a miss (Dense never misses).
  void emitLocate(unsigned AccessId, unsigned Level,
                  const std::string &Parent, const std::string &Coord,
                  const std::string &Dst, std::ostringstream &OS,
                  const std::string &Pad) {
    const std::string LV = lev(AccessId, Level);
    switch (Ctx.Accesses[AccessId].T->level(Level).Kind) {
    case LevelKind::Dense:
      OS << Pad << "const int64_t " << Dst << " = " << Parent << " * "
         << LV << ".dim + " << Coord << ";\n";
      break;
    case LevelKind::Sparse:
      OS << Pad << "int64_t " << Dst << ";\n"
         << Pad << "{\n"
         << Pad << "  const int64_t e = " << LV << ".ptr[" << Parent
         << " + 1];\n"
         << Pad << "  const int64_t q = systec_lb(" << LV << ".crd, "
         << LV << ".ptr[" << Parent << "], e, " << Coord << ");\n"
         << Pad << "  " << Dst << " = (q == e || " << LV << ".crd[q] != "
         << Coord << ") ? -1 : q;\n"
         << Pad << "}\n";
      break;
    case LevelKind::RunLength:
      OS << Pad << "int64_t " << Dst << ";\n"
         << Pad << "{\n"
         << Pad << "  const int64_t e = " << LV << ".ptr[" << Parent
         << " + 1];\n"
         << Pad << "  const int64_t q = systec_ub(" << LV << ".run_end, "
         << LV << ".ptr[" << Parent << "], e, " << Coord << ");\n"
         << Pad << "  " << Dst << " = (q == e) ? -1 : q;\n"
         << Pad << "}\n";
      break;
    case LevelKind::Banded:
      OS << Pad << "const int64_t " << Dst << " = (" << Coord << " < "
         << LV << ".lo[" << Parent << "] || " << Coord << " >= " << LV
         << ".hi[" << Parent << "]) ? -1 : " << LV << ".off[" << Parent
         << "] + (" << Coord << " - " << LV << ".lo[" << Parent
         << "]);\n";
      break;
    }
  }

  /// The interpreter's Step lambda, inlined into the driver loop body:
  /// advance the driver's position path, charge the driver read, match
  /// every co-walker (skipping to the next driver candidate on a
  /// missing intersection — `continue` targets the innermost enclosing
  /// driver loop, exactly like the lambda's early return), set the
  /// index slot, execute the body.
  void emitStep(const PlanLoop &L, const std::string &Coord,
                const std::string &Child, std::ostringstream &OS,
                unsigned Indent) {
    std::string Pad(2 * Indent, ' ');
    const PlanLoop::WalkerRef &W = L.Walkers[0];
    const AccessState &A = Ctx.Accesses[W.AccessId];
    OS << Pad << pvar(W.AccessId, W.Level + 1) << " = " << Child
       << ";\n";
    if (W.Bottom && A.SparseFormat)
      OS << Pad << "++n_sparse_reads;\n";
    for (size_t K = 1; K < L.Walkers.size(); ++K) {
      const PlanLoop::WalkerRef &O = L.Walkers[K];
      const AccessState &OA = Ctx.Accesses[O.AccessId];
      const std::string OPar = pvar(O.AccessId, O.Level);
      if (OA.T == A.T && O.Level == W.Level) {
        // Statically same fiber: the dynamic parent-equality check
        // reuses the driver's child position (identical to a locate,
        // minus the search).
        std::string Dst = "oc" + num(newScope());
        OS << Pad << "int64_t " << Dst << ";\n";
        OS << Pad << "if (" << OPar << " == "
           << pvar(W.AccessId, W.Level) << ") {\n";
        OS << Pad << "  " << Dst << " = " << Child << ";\n";
        OS << Pad << "} else {\n";
        emitLocate(O.AccessId, O.Level, OPar, Coord, Dst + "_f", OS,
                   Pad + "  ");
        OS << Pad << "  " << Dst << " = " << Dst << "_f;\n";
        OS << Pad << "}\n";
        OS << Pad << "if (" << Dst << " < 0) continue;\n";
        OS << Pad << pvar(O.AccessId, O.Level + 1) << " = " << Dst
           << ";\n";
      } else {
        std::string Dst = "oc" + num(newScope());
        emitLocate(O.AccessId, O.Level, OPar, Coord, Dst, OS, Pad);
        if (OA.T->level(O.Level).Kind != LevelKind::Dense)
          OS << Pad << "if (" << Dst << " < 0) continue;\n";
        OS << Pad << pvar(O.AccessId, O.Level + 1) << " = " << Dst
           << ";\n";
      }
      if (O.Bottom && OA.SparseFormat)
        OS << Pad << "++n_sparse_reads;\n";
    }
    OS << Pad << ivar(L.Slot) << " = " << Coord << ";\n";
    emitNode(L.Body.get(), OS, Indent);
  }

  void emitLoop(const PlanLoop &L, std::ostringstream &OS,
                unsigned Indent) {
    std::string Pad(2 * Indent, ' ');
    unsigned N = newScope();
    const std::string Lo = "lo" + num(N), Hi = "hi" + num(N);
    OS << Pad << "{ // loop slot " << L.Slot << "\n";
    std::string P1 = Pad + "  ";
    OS << P1 << "int64_t " << Lo << " = 0, " << Hi << " = "
       << snum(L.Extent - 1) << ";\n";
    for (const auto &[S, D] : L.LoTerms)
      OS << P1 << "if (" << ivar(S) << " + (" << snum(D) << ") > " << Lo
         << ") " << Lo << " = " << ivar(S) << " + (" << snum(D)
         << ");\n";
    for (const auto &[S, D] : L.HiTerms)
      OS << P1 << "if (" << ivar(S) << " + (" << snum(D) << ") < " << Hi
         << ") " << Hi << " = " << ivar(S) << " + (" << snum(D)
         << ");\n";
    OS << P1 << "if (" << Lo << " <= " << Hi << ") {\n";
    unsigned BodyIndent = Indent + 2;
    std::string P2 = Pad + "    ";

    if (L.Walkers.empty()) {
      const std::string V = "v" + num(N);
      OS << P2 << "for (int64_t " << V << " = " << Lo << "; " << V
         << " <= " << Hi << "; ++" << V << ") {\n";
      OS << P2 << "  " << ivar(L.Slot) << " = " << V << ";\n";
      emitNode(L.Body.get(), OS, BodyIndent + 1);
      OS << P2 << "}\n";
    } else {
      const PlanLoop::WalkerRef &W = L.Walkers[0];
      const AccessState &A = Ctx.Accesses[W.AccessId];
      const std::string Par = "par" + num(N);
      const std::string LV = lev(W.AccessId, W.Level);
      OS << P2 << "const int64_t " << Par << " = "
         << pvar(W.AccessId, W.Level) << ";\n";
      switch (A.T->level(W.Level).Kind) {
      case LevelKind::Dense: {
        const std::string V = "v" + num(N);
        OS << P2 << "for (int64_t " << V << " = " << Lo << "; " << V
           << " <= " << Hi << "; ++" << V << ") {\n";
        emitStep(L, V, Par + " * " + LV + ".dim + " + V, OS,
                 BodyIndent + 1);
        OS << P2 << "}\n";
        break;
      }
      case LevelKind::Sparse: {
        const std::string B = "b" + num(N), E = "e" + num(N);
        const std::string Q = "q" + num(N), C = "c" + num(N);
        OS << P2 << "int64_t " << B << " = " << LV << ".ptr[" << Par
           << "];\n";
        OS << P2 << "const int64_t " << E << " = " << LV << ".ptr["
           << Par << " + 1];\n";
        OS << P2 << "if (" << Lo << " > 0) " << B << " = systec_lb("
           << LV << ".crd, " << B << ", " << E << ", " << Lo << ");\n";
        OS << P2 << "for (int64_t " << Q << " = " << B << "; " << Q
           << " < " << E << "; ++" << Q << ") {\n";
        OS << P2 << "  const int64_t " << C << " = " << LV << ".crd["
           << Q << "];\n";
        OS << P2 << "  if (" << C << " > " << Hi << ") break;\n";
        emitStep(L, C, Q, OS, BodyIndent + 1);
        OS << P2 << "}\n";
        break;
      }
      case LevelKind::RunLength: {
        const std::string St = "start" + num(N), KP = "k" + num(N);
        const std::string En = "end" + num(N), V = "v" + num(N);
        OS << P2 << "int64_t " << St << " = 0;\n";
        OS << P2 << "for (int64_t " << KP << " = " << LV << ".ptr["
           << Par << "]; " << KP << " < " << LV << ".ptr[" << Par
           << " + 1]; ++" << KP << ") {\n";
        OS << P2 << "  const int64_t " << En << " = " << LV
           << ".run_end[" << KP << "];\n";
        OS << P2 << "  for (int64_t " << V << " = (" << St << " > "
           << Lo << " ? " << St << " : " << Lo << "); " << V << " < "
           << En << "; ++" << V << ") {\n";
        OS << P2 << "    if (" << V << " > " << Hi << ") goto done"
           << N << ";\n";
        emitStep(L, V, KP, OS, BodyIndent + 2);
        OS << P2 << "  }\n";
        OS << P2 << "  " << St << " = " << En << ";\n";
        OS << P2 << "  if (" << St << " > " << Hi << ") goto done" << N
           << ";\n";
        OS << P2 << "}\n";
        OS << P2 << "done" << N << ":;\n";
        break;
      }
      case LevelKind::Banded: {
        const std::string B = "b" + num(N), E = "e" + num(N);
        const std::string V = "v" + num(N);
        OS << P2 << "const int64_t " << B << " = (" << Lo << " > " << LV
           << ".lo[" << Par << "]) ? " << Lo << " : " << LV << ".lo["
           << Par << "];\n";
        OS << P2 << "const int64_t " << E << " = (" << Hi << " < " << LV
           << ".hi[" << Par << "] - 1) ? " << Hi << " : " << LV
           << ".hi[" << Par << "] - 1;\n";
        OS << P2 << "for (int64_t " << V << " = " << B << "; " << V
           << " <= " << E << "; ++" << V << ") {\n";
        emitStep(L, V,
                 LV + ".off[" + Par + "] + (" + V + " - " + LV +
                     ".lo[" + Par + "])",
                 OS, BodyIndent + 1);
        OS << P2 << "}\n";
        break;
      }
      }
    }
    OS << P1 << "}\n";
    OS << Pad << "}\n";
  }

  void emitAssign(const PlanAssign &A, std::ostringstream &OS,
                  unsigned Indent) {
    std::string Pad(2 * Indent, ' ');
    std::string V = emitProgram(A.Rhs, OS, Indent);
    // Multiplicity, mirroring PlanAssign::exec: the plan compiler
    // already folded the Mult>1 additive-reduce case into the Rhs
    // program; what remains at runtime is the uncounted scale of
    // non-reducing assignments and the repeat loop of rare non-add,
    // non-idempotent reductions.
    unsigned Times = 1;
    if (A.Mult > 1) {
      if (A.Reduce && opInfo(*A.Reduce).Idempotent) {
        // Duplicate updates collapse under idempotent reductions.
      } else if (!A.Reduce || *A.Reduce == OpKind::Add) {
        std::string Tmp = newTmp();
        OS << Pad << "const double " << Tmp << " = " << V << " * "
           << nativeDouble(static_cast<double>(A.Mult)) << ";\n";
        V = Tmp;
      } else {
        Times = A.Mult;
      }
    }
    std::string P1 = Pad;
    if (Times > 1) {
      OS << Pad << "for (unsigned rep = 0; rep < " << num(Times)
         << "; ++rep) {\n";
      P1 = Pad + "  ";
    }
    if (A.ScalarTarget) {
      const std::string Dst = svar(A.ScalarSlot);
      OS << P1 << Dst << " = "
         << (A.Reduce ? foldOp(*A.Reduce, Dst, V) : V) << ";\n";
      OS << P1 << "++n_reductions;\n";
    } else {
      unsigned N = newScope();
      const std::string Pos = "pos" + num(N);
      const std::string Dst = "outs[" + num(A.OutId) + "][" + Pos + "]";
      OS << P1 << "const int64_t " << Pos << " = "
         << slotStrideSum(A.SlotStride) << ";\n";
      OS << P1 << Dst << " = "
         << (A.Reduce ? foldOp(*A.Reduce, Dst, V) : V) << ";\n";
      OS << P1 << "++n_reductions;\n";
      OS << P1 << "++n_output_writes;\n";
    }
    if (Times > 1)
      OS << Pad << "}\n";
  }

  void emitNode(const PlanNode *N, std::ostringstream &OS,
                unsigned Indent) {
    if (!Err.ok() || !N)
      return;
    std::string Pad(2 * Indent, ' ');
    if (auto *Seq = dynamic_cast<const PlanSeq *>(N)) {
      for (const detail::PlanPtr &C : Seq->Children)
        emitNode(C.get(), OS, Indent);
      return;
    }
    if (auto *If = dynamic_cast<const PlanIf *>(N)) {
      std::vector<std::string> Disj;
      for (const std::vector<CAtom> &D : If->Cond.Disjuncts) {
        std::vector<std::string> Atoms;
        for (const CAtom &A : D)
          Atoms.push_back(cmpExpr(A));
        Disj.push_back(Atoms.empty() ? std::string("true")
                                     : "(" + join(Atoms, " && ") + ")");
      }
      OS << Pad << "if ("
         << (Disj.empty() ? std::string("false") : join(Disj, " || "))
         << ") {\n";
      emitNode(If->Body.get(), OS, Indent + 1);
      OS << Pad << "}\n";
      return;
    }
    if (auto *Def = dynamic_cast<const PlanDef *>(N)) {
      std::string V = emitProgram(Def->Init, OS, Indent);
      OS << Pad << svar(Def->Slot) << " = " << V << ";\n";
      return;
    }
    if (auto *Assign = dynamic_cast<const PlanAssign *>(N)) {
      emitAssign(*Assign, OS, Indent);
      return;
    }
    if (auto *Loop = dynamic_cast<const PlanLoop *>(N)) {
      emitLoop(*Loop, OS, Indent);
      return;
    }
    if (dynamic_cast<const PlanReplicate *>(N)) {
      fail("replication node in the body plan (epilogues stay "
           "interpreted)");
      return;
    }
    fail("unrecognized plan node");
  }

  std::string assemble(const std::string &Body) {
    std::ostringstream OS;
    OS << "// Native kernel TU for '" << KernelName
       << "', emitted by systec (core/Codegen.cpp).\n";
    OS << "// Self-contained: struct layouts mirror jit/NativeAbi.h; "
          "do not edit.\n";
    OS << "#include <stdint.h>\n#include <math.h>\n\n";
    OS << "struct systec_nlevel {\n"
          "  int32_t kind;\n"
          "  int64_t dim;\n"
          "  const int64_t *ptr;\n"
          "  const int64_t *crd;\n"
          "  const int64_t *run_end;\n"
          "  const int64_t *lo;\n"
          "  const int64_t *hi;\n"
          "  const int64_t *off;\n"
          "};\n"
          "struct systec_ntensor {\n"
          "  int64_t order;\n"
          "  const systec_nlevel *levels;\n"
          "  const double *vals;\n"
          "  double fill;\n"
          "};\n"
          "struct systec_ncounters {\n"
          "  int64_t sparse_reads;\n"
          "  int64_t reductions;\n"
          "  int64_t scalar_ops;\n"
          "  int64_t output_writes;\n"
          "};\n\n";
    OS << "static inline int64_t systec_lb(const int64_t *a, int64_t lo,"
          " int64_t hi, int64_t v) {\n"
          "  while (lo < hi) {\n"
          "    const int64_t m = lo + (hi - lo) / 2;\n"
          "    if (a[m] < v) lo = m + 1; else hi = m;\n"
          "  }\n"
          "  return lo;\n"
          "}\n"
          "static inline int64_t systec_ub(const int64_t *a, int64_t lo,"
          " int64_t hi, int64_t v) {\n"
          "  while (lo < hi) {\n"
          "    const int64_t m = lo + (hi - lo) / 2;\n"
          "    if (a[m] <= v) lo = m + 1; else hi = m;\n"
          "  }\n"
          "  return lo;\n"
          "}\n"
          "// Bit-exact std::min / std::max (tie keeps the first "
          "operand, NaN falls through to it).\n"
          "static inline double systec_min(double a, double b) { return "
          "(b < a) ? b : a; }\n"
          "static inline double systec_max(double a, double b) { return "
          "(a < b) ? b : a; }\n\n";
    for (const std::string &L : LutDefs)
      OS << L << "\n";
    if (!LutDefs.empty())
      OS << "\n";
    OS << "extern \"C\" int64_t systec_native_run(\n"
          "    const systec_ntensor *T, double *const *outs,\n"
          "    systec_ncounters *ctrs) {\n";
    OS << "  (void)T;\n  (void)outs;\n";
    // Flat persistent slots, exactly like the interpreter's ExecCtx:
    // every index, scalar, and fibertree-position variable lives for
    // the whole body; loops assign rather than declare.
    for (size_t I = 0; I < Ctx.IndexVal.size(); ++I)
      OS << "  int64_t " << ivar(static_cast<unsigned>(I)) << " = 0;\n";
    for (size_t S = 0; S < Ctx.ScalarVal.size(); ++S)
      OS << "  double " << svar(static_cast<unsigned>(S)) << " = 0;\n";
    for (size_t A = 0; A < Ctx.Accesses.size(); ++A) {
      const AccessState &St = Ctx.Accesses[A];
      if (!St.T)
        continue;
      for (unsigned L = 0; L <= St.T->order(); ++L)
        OS << "  int64_t " << pvar(static_cast<unsigned>(A), L)
           << " = 0;\n";
    }
    OS << "  int64_t n_sparse_reads = 0, n_reductions = 0;\n";
    OS << "  int64_t n_scalar_ops = 0, n_output_writes = 0;\n\n";
    OS << Body;
    OS << "\n  ctrs->sparse_reads = n_sparse_reads;\n"
          "  ctrs->reductions = n_reductions;\n"
          "  ctrs->scalar_ops = n_scalar_ops;\n"
          "  ctrs->output_writes = n_output_writes;\n"
          "  return 0;\n"
          "}\n";
    return OS.str();
  }
};

} // namespace

Expected<NativeEmitResult> emitNativeTU(const detail::PlanNode &Body,
                                        const detail::ExecCtx &Ctx,
                                        const std::string &KernelName) {
  return NativeTUEmitter(Body, Ctx, KernelName).emit();
}

} // namespace systec
