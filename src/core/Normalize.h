//===- core/Normalize.h - Interned assignment normal forms ----*- C++ -*-===//
///
/// \file
/// Normalization of tensor assignments (paper Section 4.1 stage 4):
/// (1) operands of commutative operators are sorted by a deterministic
/// key, and (2) indices within a symmetric part of a tensor's partition
/// are sorted to be concordant with the canonical chain order. Two
/// assignments generated by different permutations are redundant exactly
/// when their normal forms coincide, which is what the optimization
/// passes key on.
///
/// The normalizer is a table of interned (hash-consed) expressions: each
/// structurally distinct expression gets an id, so a normal form is an
/// id, a form is a pair of ids and every signature the front end buckets
/// on is a tuple of ids. A literal is interned by its value's bits. Each
/// id's sort key and normal form are computed once. One table
/// serves one compilation (the SymKernel it builds owns it); it is not
/// shared between threads.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_CORE_NORMALIZE_H
#define SYSTEC_CORE_NORMALIZE_H

#include "ir/Einsum.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace systec {

/// Hash of a tuple of ids (FNV-1a over its words), for maps keyed by
/// structural keys and signatures.
struct IdTupleHash {
  size_t operator()(const std::vector<uint32_t> &Ids) const;
};

/// Interns expressions relative to an einsum's declarations and
/// normalizes them under an index ranking (lower rank = earlier in the
/// canonical chain, i.e. provably smaller value inside the restricted
/// iteration space).
class FormTable {
public:
  using Id = uint32_t;
  /// Stands for "no expression" inside id tuples (e.g. a missing
  /// factor).
  static constexpr Id None = UINT32_MAX;

  FormTable(const Einsum &E, std::map<std::string, int> IndexRank);

  /// The id of \p Ex's structure: equal ids mean structurally equal
  /// expressions.
  Id intern(const ExprPtr &Ex);
  /// The interned name (tensor, scalar or index).
  Id name(const std::string &Name);
  /// The table's tree for \p I.
  ExprPtr expr(Id I) const { return Nodes[I].Ex; }

  /// Registers the simultaneous index substitution \p Pairs (From ->
  /// To; names not listed map to themselves) and returns its handle.
  /// Handle 0 is the identity.
  unsigned substitution(const std::vector<std::pair<Id, Id>> &Pairs);

  /// Normal form of \p I after substitution \p S renames its access
  /// indices: symmetric tensor mode tuples and commutative operands
  /// sorted. A lookup table is a leaf; none is ever renamed. Renaming is folded into normalizing,
  /// so a renamed but unnormalized tree is never built. Each id's plain
  /// normal form (S = 0) is computed once.
  Id normalize(Id I, unsigned S = 0);

  /// Deterministic sort key of \p I's structure; distinct structures
  /// have distinct keys (a literal's key renders it exactly). The
  /// reference is valid until the next call that interns.
  const std::string &sortKey(Id I);

private:
  struct Node {
    ExprPtr Ex;
    const std::vector<uint32_t> *Key = nullptr; ///< owned by Index
    Id Norm = None;
    std::string SortKey; ///< empty until first asked for
  };

  /// Finds or adds the node with structural key \p Key; \p Make builds
  /// its expression on a miss.
  template <typename MakeFn>
  Id lookup(const std::vector<uint32_t> &Key, MakeFn Make);
  /// Rank used for sorting; indices without an explicit rank sort after
  /// ranked ones, alphabetically.
  int rankOf(const std::string &Index) const;
  Id internAccess(Id Tensor, const std::vector<Id> &Indices);
  Id internCall(OpKind Op, const std::vector<Id> &Args);

  /// Symmetric parts (size >= 2) per tensor name id.
  std::unordered_map<Id, std::vector<std::vector<unsigned>>> SymParts;
  std::map<std::string, int> IndexRank;

  std::vector<Node> Nodes;
  /// Structural key (kind tag, then names, ids or value bits) -> id.
  std::unordered_map<std::vector<uint32_t>, Id, IdTupleHash> Index;
  /// Every tree interned so far, by address. Trees that are not a
  /// node's own are kept alive in Aliases so no address is reused.
  std::unordered_map<const Expr *, Id> ByPtr;
  std::vector<ExprPtr> Aliases;
  std::unordered_map<std::string, Id> NameIds;
  std::vector<std::string> Names;
  std::vector<int> NameRank; ///< rankOf per name id
  std::vector<std::vector<Id>> Substs; ///< dense name maps
  std::vector<uint32_t> Scratch;        ///< key under construction
};

} // namespace systec

#endif // SYSTEC_CORE_NORMALIZE_H
