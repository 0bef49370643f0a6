//===- ir/Cond.h - Index comparison conditions -----------------*- C++ -*-===//
///
/// \file
/// Conditions over index variables in disjunctive normal form. The
/// symmetrization stage guards each equivalence-group block with a
/// conjunction of comparisons between permutable indices (e.g.
/// `i < k && k == l`), and the consolidation transform (paper 4.2.4)
/// replaces blocks with the *union* of their conditions — which DNF
/// makes a concatenation. The runtime lifts conjunction atoms into loop
/// bounds, mirroring Finch's behaviour (paper Section 2.2).
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_IR_COND_H
#define SYSTEC_IR_COND_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace systec {

/// Comparison kinds between two index variables.
enum class CmpKind { LT, LE, EQ, NE, GT, GE };

/// Surface syntax for \p Kind, e.g. "<=".
const char *cmpKindName(CmpKind Kind);

/// Evaluates \p Kind on concrete coordinates.
bool evalCmp(CmpKind Kind, int64_t A, int64_t B);

/// The comparison with swapped operands: A cmp B == B cmp' A.
CmpKind swapCmp(CmpKind Kind);

/// The logical negation of the comparison.
CmpKind negateCmp(CmpKind Kind);

/// An atomic comparison between two index variables.
struct CmpAtom {
  CmpKind Kind;
  std::string Lhs;
  std::string Rhs;

  bool operator==(const CmpAtom &Other) const {
    return Kind == Other.Kind && Lhs == Other.Lhs && Rhs == Other.Rhs;
  }
  std::string str() const;
};

/// A conjunction of atoms; empty means `true`.
struct Conj {
  std::vector<CmpAtom> Atoms;

  bool operator==(const Conj &Other) const { return Atoms == Other.Atoms; }
  std::string str() const;
};

class Cond;

/// Simplifies a DNF condition: deduplicates disjuncts and merges
/// single-atom disjuncts over the same variable pair (e.g.
/// `(i < j) || (i == j)` becomes `i <= j`, which the runtime can lift
/// into a loop bound).
Cond simplifyCond(const Cond &C);

/// A condition in disjunctive normal form; no disjuncts means `false`,
/// a single empty disjunct means `true`.
class Cond {
public:
  Cond() = default;

  static Cond always();
  static Cond never() { return Cond(); }
  static Cond atom(CmpKind Kind, std::string Lhs, std::string Rhs);
  static Cond conj(std::vector<CmpAtom> Atoms);

  bool isAlways() const;
  bool isNever() const { return Disjuncts.empty(); }

  const std::vector<Conj> &disjuncts() const { return Disjuncts; }

  /// Conjunction with an extra atom (distributed over disjuncts).
  Cond withAtom(CmpKind Kind, const std::string &Lhs,
                const std::string &Rhs) const;

  /// Union of conditions (paper 4.2.4 consolidation): appends B's
  /// disjuncts that A lacks. Takes A by value so an accumulating caller
  /// moves it in instead of copying it.
  static Cond unionOf(Cond A, const Cond &B);

  /// Evaluates against an environment resolving index names.
  bool eval(const std::function<int64_t(const std::string &)> &Env) const;

  /// Renames index variables via simultaneous substitution.
  Cond renamed(
      const std::function<std::string(const std::string &)> &Map) const;

  std::string str() const;

  bool operator==(const Cond &Other) const {
    return Disjuncts == Other.Disjuncts;
  }

private:
  std::vector<Conj> Disjuncts;
};

} // namespace systec

#endif // SYSTEC_IR_COND_H
