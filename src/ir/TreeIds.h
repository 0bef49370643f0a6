//===- ir/TreeIds.h - Dense ids for a kernel's names and accesses -*- C++ -*-===//
///
/// \file
/// One walk over a kernel's statement trees gives every loop index,
/// access index, scalar and tensor name a dense id, and every tensor
/// access an id keyed by (tensor id, index ids): two accesses share an
/// id exactly when they name the same tensor with the same index list,
/// that is, when they print alike. Analyses that run over the trees
/// then key their tables by these ids instead of by rendered text.
/// Conditions are not interned: a name only a condition uses has no
/// id, and findIndex() says so.
///
/// Access and Scalar expressions and DefScalar statements are found by
/// address, so the trees must outlive the table. A node built after
/// add() (a rewrite's new If or Loop) has no entry of its own, but
/// rewrites reuse the expressions and definitions underneath, which
/// do. A table belongs to one prepare or one compile; it is never
/// shared.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_IR_TREEIDS_H
#define SYSTEC_IR_TREEIDS_H

#include "ir/Stmt.h"

#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace systec {

/// Dense ids for names, in first-intern order.
class NameIds {
public:
  unsigned intern(const std::string &Name);
  std::optional<unsigned> find(const std::string &Name) const;
  const std::string &name(unsigned Id) const { return Names[Id]; }
  unsigned size() const { return unsigned(Names.size()); }

private:
  std::unordered_map<std::string, unsigned> Ids;
  std::vector<std::string> Names;
};

class TreeIds {
public:
  /// Interns every name and access of \p Root.
  void add(const StmtPtr &Root);
  /// Records, for each loop of \p Root (added before), the accesses its
  /// body reads, inner loops first, so reads() answers each loop from
  /// one list.
  void listLoopReads(const StmtPtr &Root);

  unsigned indexCount() const { return Indices.size(); }
  unsigned scalarCount() const { return Scalars.size(); }
  unsigned accessCount() const { return unsigned(Accesses.size()); }

  const std::string &indexName(unsigned Id) const { return Indices.name(Id); }
  const std::string &tensorName(unsigned Id) const { return Tensors.name(Id); }

  /// Id of a name the trees use; std::nullopt for any other name.
  std::optional<unsigned> findIndex(const std::string &Name) const {
    return Indices.find(Name);
  }
  std::optional<unsigned> findScalar(const std::string &Name) const {
    return Scalars.find(Name);
  }

  /// Id of a Scalar expression's name.
  unsigned scalarId(const Expr &Scalar) const { return node(&Scalar); }
  /// Id of the scalar a DefScalar statement defines.
  unsigned scalarId(const Stmt &Def) const { return node(&Def); }
  /// Id of an Access expression.
  unsigned accessId(const Expr &Access) const { return node(&Access); }

  /// Tensor id of access \p Id.
  unsigned accessTensor(unsigned Id) const { return Accesses[Id].front(); }
  /// Index ids of access \p Id, one per mode.
  std::span<const unsigned> accessIndices(unsigned Id) const {
    return std::span<const unsigned>(Accesses[Id]).subspan(1);
  }

  /// The distinct accesses read on the right-hand sides of assignments
  /// and scalar definitions under \p S, in order of first preorder
  /// occurrence. A loop that listLoopReads() saw answers from the list
  /// recorded then; other nodes combine their children's answers.
  std::vector<unsigned> reads(const Stmt &S) const;

private:
  NameIds Indices, Scalars, Tensors;
  /// Per access id: the tensor id, then the index ids.
  std::vector<std::vector<unsigned>> Accesses;
  std::map<std::vector<unsigned>, unsigned> AccessIndex; ///< inverse
  std::vector<unsigned> Key; ///< scratch access key
  /// Access and Scalar expressions and DefScalar statements -> id.
  std::unordered_map<const void *, unsigned> NodeIds;
  /// Loop statement -> reads() of its body.
  std::unordered_map<const Stmt *, std::vector<unsigned>> LoopReads;

  unsigned node(const void *N) const;
  void internStmt(const Stmt &S);
  void internExpr(const Expr &E);
  void recordLoopReads(const Stmt &S);
};

} // namespace systec

#endif // SYSTEC_IR_TREEIDS_H
