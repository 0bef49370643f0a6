//===- parallel/ParallelAnalysis.cpp --------------------------*- C++ -*-===//

#include "parallel/ParallelAnalysis.h"

#include "ir/TreeIds.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>

namespace systec {

namespace {

/// A set of dense ids; ids below 64 live in one inline word.
class IdSet {
public:
  void insert(unsigned Id) {
    if (Id < 64) {
      Low |= uint64_t(1) << Id;
      return;
    }
    if (Id / 64 > High.size())
      High.resize(Id / 64);
    High[Id / 64 - 1] |= uint64_t(1) << (Id % 64);
  }
  bool contains(unsigned Id) const {
    if (Id < 64)
      return Low >> Id & 1;
    return Id / 64 <= High.size() && (High[Id / 64 - 1] >> (Id % 64) & 1);
  }
  void intersect(const IdSet &O) {
    Low &= O.Low;
    High.resize(std::min(High.size(), O.High.size()));
    for (size_t I = 0; I < High.size(); ++I)
      High[I] &= O.High[I];
  }

private:
  uint64_t Low = 0;
  std::vector<uint64_t> High;
};

/// The reduction operators of every write to one target.
struct WriteOps {
  bool AllReduce = true;
  std::optional<OpKind> Op; ///< the first reduction operator
  bool Consistent = true;   ///< every reduction uses Op

  void add(std::optional<OpKind> W) {
    if (!W)
      AllReduce = false;
    else if (!Op)
      Op = W;
    else if (*Op != *W)
      Consistent = false;
  }
  /// The one associative operator every write reduces with, if any.
  std::optional<OpKind> mergeOp() const {
    if (AllReduce && Consistent && Op && opInfo(*Op).Associative)
      return Op;
    return std::nullopt;
  }
};

/// A write target's id and the summary of its writes.
struct TargetWrites {
  unsigned Id;
  IdSet Indices; ///< tensors: the indices every write's target carries
  WriteOps Ops;
};

/// Everything the classifier needs about a loop's body, keyed by name
/// ids of the analysis.
struct BodyFacts {
  std::vector<TargetWrites> Tensors, Scalars;
  IdSet ScalarDefs;    ///< DefScalar inside the subtree
  IdSet TensorReads;   ///< tensors read on any right-hand side
  IdSet ScalarReads;   ///< scalars read on any right-hand side
  IdSet InnerLoopVars; ///< loop indices inside the subtree
  /// (a, b) for every a < b or a <= b atom of a condition, sorted and
  /// without duplicates.
  std::vector<std::pair<unsigned, unsigned>> OrderAtoms;
  bool SawReplicate = false;

  static TargetWrites &target(std::vector<TargetWrites> &Ts, unsigned Id,
                              bool &New) {
    for (TargetWrites &T : Ts)
      if (T.Id == Id) {
        New = false;
        return T;
      }
    New = true;
    return Ts.emplace_back(TargetWrites{Id, IdSet(), WriteOps()});
  }

  void addAtoms(const std::vector<std::pair<unsigned, unsigned>> &More) {
    if (More.empty())
      return;
    std::vector<std::pair<unsigned, unsigned>> Out;
    Out.reserve(OrderAtoms.size() + More.size());
    std::set_union(OrderAtoms.begin(), OrderAtoms.end(), More.begin(),
                   More.end(), std::back_inserter(Out));
    OrderAtoms.swap(Out);
  }
};

/// One analysis: the name ids, the walk that collects a body's facts
/// and the classifier over them.
class Analysis {
public:
  /// Adds \p S's facts to \p F.
  void collect(const StmtPtr &S, BodyFacts &F) {
    switch (S->kind()) {
    case StmtKind::Block:
      for (const StmtPtr &C : S->stmts())
        collect(C, F);
      return;
    case StmtKind::If:
      collectAtoms(S->condition(), F);
      collect(S->body(), F);
      return;
    case StmtKind::Loop:
      F.InnerLoopVars.insert(Indices.intern(S->loopIndex()));
      collect(S->body(), F);
      return;
    case StmtKind::DefScalar:
      F.ScalarDefs.insert(Scalars.intern(S->scalarName()));
      collectRhs(*S->rhs(), F);
      return;
    case StmtKind::Assign: {
      collectRhs(*S->rhs(), F);
      const Expr &Lhs = *S->lhs();
      bool New;
      if (Lhs.kind() == ExprKind::Scalar) {
        BodyFacts::target(F.Scalars, Scalars.intern(Lhs.scalarName()), New)
            .Ops.add(S->reduceOp());
        return;
      }
      IdSet Idx;
      for (const std::string &I : Lhs.indices())
        Idx.insert(Indices.intern(I));
      TargetWrites &T =
          BodyFacts::target(F.Tensors, Tensors.intern(Lhs.tensorName()), New);
      if (New)
        T.Indices = std::move(Idx);
      else
        T.Indices.intersect(Idx);
      T.Ops.add(S->reduceOp());
      return;
    }
    case StmtKind::Replicate:
      F.SawReplicate = true;
      return;
    }
    unreachable("unknown statement kind");
  }

  /// The contract of a loop over index \p Var whose body has facts
  /// \p F. An unsafe loop's contract is empty.
  LoopParallelism classify(const BodyFacts &F, unsigned Var) const {
    if (F.SawReplicate)
      return {}; // replication touches the whole output; keep sequential
    LoopParallelism LP;
    // Tensor targets.
    for (const TargetWrites &W : F.Tensors) {
      if (F.TensorReads.contains(W.Id))
        return {}; // cross-iteration read/write dependence possible
      const std::string &Name = Tensors.name(W.Id);
      if (W.Indices.contains(Var)) {
        LP.Tensors[Name] = WriteClass::Disjoint;
      } else if (std::optional<OpKind> Op = W.Ops.mergeOp()) {
        LP.Tensors[Name] = WriteClass::Reduction;
        LP.TensorMergeOps[Name] = *Op;
      } else {
        return {}; // shared overwrite or mixed-operator reduction
      }
    }
    // Scalar targets not defined in the body.
    for (const TargetWrites &W : F.Scalars) {
      if (F.ScalarDefs.contains(W.Id))
        continue; // iteration-private temporary
      std::optional<OpKind> Op = W.Ops.mergeOp();
      if (!Op)
        return {}; // overwrite of a loop-carried scalar, or mixed operators
      if (F.ScalarReads.contains(W.Id))
        return {}; // partial sums must not be observed mid-loop
      LP.ScalarMergeOps[Scalars.name(W.Id)] = *Op;
    }
    // Workload shape: canonical-triangle chains below/above this loop.
    const unsigned Below = reachCount(F, Var, /*Below=*/true);
    const unsigned Above = reachCount(F, Var, /*Below=*/false);
    if (Below > 0 && Above == 0)
      LP.TriangleDepth = static_cast<int>(Below);
    else if (Above > 0 && Below == 0)
      LP.TriangleDepth = -static_cast<int>(Above);
    LP.Safe = true;
    return LP;
  }

  NameIds Indices;

private:
  NameIds Tensors, Scalars;

  void collectRhs(const Expr &E, BodyFacts &F) {
    switch (E.kind()) {
    case ExprKind::Access:
      F.TensorReads.insert(Tensors.intern(E.tensorName()));
      return;
    case ExprKind::Scalar:
      F.ScalarReads.insert(Scalars.intern(E.scalarName()));
      return;
    case ExprKind::Call:
      for (const ExprPtr &A : E.args())
        collectRhs(*A, F);
      return;
    default:
      return;
    }
  }

  void collectAtoms(const Cond &C, BodyFacts &F) {
    std::vector<std::pair<unsigned, unsigned>> Atoms;
    for (const Conj &D : C.disjuncts())
      for (const CmpAtom &A : D.Atoms) {
        if (A.Kind == CmpKind::LT || A.Kind == CmpKind::LE)
          Atoms.push_back({Indices.intern(A.Lhs), Indices.intern(A.Rhs)});
        else if (A.Kind == CmpKind::GT || A.Kind == CmpKind::GE)
          Atoms.push_back({Indices.intern(A.Rhs), Indices.intern(A.Lhs)});
      }
    std::sort(Atoms.begin(), Atoms.end());
    Atoms.erase(std::unique(Atoms.begin(), Atoms.end()), Atoms.end());
    F.addAtoms(Atoms);
  }

  /// Distinct inner loop variables transitively ordered below/above
  /// \p Var through the collected a <= b atoms.
  unsigned reachCount(const BodyFacts &F, unsigned Var, bool Below) const {
    std::vector<bool> Seen(Indices.size());
    Seen[Var] = true;
    std::vector<unsigned> Work{Var};
    unsigned N = 0;
    while (!Work.empty()) {
      const unsigned Cur = Work.back();
      Work.pop_back();
      for (const auto &[Lo, Hi] : F.OrderAtoms) {
        const unsigned From = Below ? Hi : Lo, To = Below ? Lo : Hi;
        if (From == Cur && !Seen[To]) {
          Seen[To] = true;
          Work.push_back(To);
          N += F.InnerLoopVars.contains(To);
        }
      }
    }
    return N;
  }
};

} // namespace

LoopParallelism analyzeLoopParallelism(const StmtPtr &Loop) {
  assert(Loop->kind() == StmtKind::Loop && "expects a loop");
  Analysis A;
  const unsigned Var = A.Indices.intern(Loop->loopIndex());
  BodyFacts F;
  A.collect(Loop->body(), F);
  return A.classify(F, Var);
}

} // namespace systec
