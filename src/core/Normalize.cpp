//===- core/Normalize.cpp -------------------------------------*- C++ -*-===//

#include "core/Normalize.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace systec {

namespace {

/// First word of a node's structural key.
enum KeyTag : uint32_t { TagLit, TagScalar, TagAccess, TagCall, TagLut };

void pushDouble(std::vector<uint32_t> &Key, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  Key.push_back(static_cast<uint32_t>(Bits));
  Key.push_back(static_cast<uint32_t>(Bits >> 32));
}

} // namespace

size_t IdTupleHash::operator()(const std::vector<uint32_t> &Ids) const {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint32_t V : Ids) {
    H ^= V;
    H *= 0x100000001b3ull;
  }
  return static_cast<size_t>(H ^ (H >> 29));
}

FormTable::FormTable(const Einsum &E, std::map<std::string, int> IndexRankIn)
    : IndexRank(std::move(IndexRankIn)), Substs(1) {
  for (const auto &[Tensor, D] : E.Decls) {
    std::vector<std::vector<unsigned>> Parts;
    for (const std::vector<unsigned> &Part : D.Symmetry.parts())
      if (Part.size() >= 2)
        Parts.push_back(Part);
    if (!Parts.empty())
      SymParts.emplace(name(Tensor), std::move(Parts));
  }
}

int FormTable::rankOf(const std::string &Index) const {
  auto It = IndexRank.find(Index);
  return It == IndexRank.end() ? 1 << 20 : It->second;
}

FormTable::Id FormTable::name(const std::string &N) {
  auto [It, New] = NameIds.try_emplace(N, static_cast<Id>(Names.size()));
  if (New) {
    Names.push_back(N);
    NameRank.push_back(rankOf(N));
  }
  return It->second;
}

template <typename MakeFn>
FormTable::Id FormTable::lookup(const std::vector<uint32_t> &Key,
                                MakeFn Make) {
  if (auto It = Index.find(Key); It != Index.end())
    return It->second;
  const Id I = static_cast<Id>(Nodes.size());
  Node N;
  N.Key = &Index.emplace(Key, I).first->first;
  N.Ex = Make();
  ByPtr.emplace(N.Ex.get(), I);
  Nodes.push_back(std::move(N));
  return I;
}

FormTable::Id FormTable::intern(const ExprPtr &Ex) {
  if (auto It = ByPtr.find(Ex.get()); It != ByPtr.end())
    return It->second;
  std::vector<Id> Args; // operands first: interning them reuses Scratch
  if (Ex->kind() == ExprKind::Call)
    for (const ExprPtr &A : Ex->args())
      Args.push_back(intern(A));
  Scratch.clear();
  switch (Ex->kind()) {
  case ExprKind::Literal:
    Scratch.push_back(TagLit);
    pushDouble(Scratch, Ex->literalValue());
    break;
  case ExprKind::Scalar:
    Scratch = {TagScalar, name(Ex->scalarName())};
    break;
  case ExprKind::Access:
    Scratch = {TagAccess, name(Ex->tensorName())};
    for (const std::string &I : Ex->indices())
      Scratch.push_back(name(I));
    break;
  case ExprKind::Call:
    Scratch = {TagCall, static_cast<uint32_t>(Ex->op())};
    Scratch.insert(Scratch.end(), Args.begin(), Args.end());
    break;
  case ExprKind::Lut:
    Scratch = {TagLut, static_cast<uint32_t>(Ex->lutBits().size())};
    for (const CmpAtom &B : Ex->lutBits()) {
      Scratch.push_back(static_cast<uint32_t>(B.Kind));
      Scratch.push_back(name(B.Lhs));
      Scratch.push_back(name(B.Rhs));
    }
    for (double V : Ex->lutTable())
      pushDouble(Scratch, V);
    break;
  }
  const Id I = lookup(Scratch, [&] { return Ex; });
  // Another tree with this structure was interned first: remember this
  // one too, keeping it alive so its address cannot be reused.
  if (Nodes[I].Ex != Ex) {
    ByPtr.emplace(Ex.get(), I);
    Aliases.push_back(Ex);
  }
  return I;
}

FormTable::Id FormTable::internAccess(Id Tensor,
                                      const std::vector<Id> &Indices) {
  Scratch = {TagAccess, Tensor};
  Scratch.insert(Scratch.end(), Indices.begin(), Indices.end());
  return lookup(Scratch, [&] {
    std::vector<std::string> Idx;
    Idx.reserve(Indices.size());
    for (Id N : Indices)
      Idx.push_back(Names[N]);
    return Expr::access(Names[Tensor], std::move(Idx));
  });
}

FormTable::Id FormTable::internCall(OpKind Op, const std::vector<Id> &Args) {
  Scratch = {TagCall, static_cast<uint32_t>(Op)};
  Scratch.insert(Scratch.end(), Args.begin(), Args.end());
  return lookup(Scratch, [&] {
    std::vector<ExprPtr> Trees;
    Trees.reserve(Args.size());
    for (Id A : Args)
      Trees.push_back(Nodes[A].Ex);
    ExprPtr Call = Expr::call(Op, std::move(Trees));
    // Normalizing keeps a call's arity and its operands' kinds, so
    // Expr::call has nothing to flatten.
    assert(Call->kind() == ExprKind::Call &&
           Call->args().size() == Args.size() && "call reshaped");
    return Call;
  });
}

unsigned FormTable::substitution(const std::vector<std::pair<Id, Id>> &Pairs) {
  std::vector<Id> Map(Names.size());
  for (Id N = 0; N < Map.size(); ++N)
    Map[N] = N;
  for (const auto &[From, To] : Pairs)
    Map[From] = To;
  Substs.push_back(std::move(Map));
  return static_cast<unsigned>(Substs.size() - 1);
}

FormTable::Id FormTable::normalize(Id I, unsigned S) {
  if (S == 0 && Nodes[I].Norm != None)
    return Nodes[I].Norm;
  auto Sub = [this, S](Id N) {
    return N < Substs[S].size() ? Substs[S][N] : N;
  };
  // Index owns the key and never moves it while nodes are added.
  const std::vector<uint32_t> &Key = *Nodes[I].Key;
  Id R = I;
  switch (Key[0]) {
  case TagAccess: {
    const Id Tensor = Key[1];
    std::vector<Id> Idx(Key.size() - 2);
    for (size_t K = 2; K < Key.size(); ++K)
      Idx[K - 2] = Sub(Key[K]);
    if (auto It = SymParts.find(Tensor); It != SymParts.end()) {
      std::vector<Id> Part;
      for (const std::vector<unsigned> &Modes : It->second) {
        Part.clear();
        for (unsigned M : Modes)
          Part.push_back(Idx[M]);
        std::sort(Part.begin(), Part.end(), [this](Id A, Id B) {
          if (NameRank[A] != NameRank[B])
            return NameRank[A] < NameRank[B];
          return Names[A] < Names[B];
        });
        for (size_t P = 0; P < Modes.size(); ++P)
          Idx[Modes[P]] = Part[P];
      }
    }
    R = internAccess(Tensor, Idx);
    break;
  }
  case TagCall: {
    const OpKind Op = static_cast<OpKind>(Key[1]);
    std::vector<Id> Args(Key.size() - 2);
    for (size_t K = 2; K < Key.size(); ++K)
      Args[K - 2] = normalize(Key[K], S);
    if (opInfo(Op).Commutative) {
      for (Id A : Args)
        sortKey(A);
      std::stable_sort(Args.begin(), Args.end(), [this](Id A, Id B) {
        return Nodes[A].SortKey < Nodes[B].SortKey;
      });
    }
    R = internCall(Op, Args);
    break;
  }
  default:
    // Literals and scalars carry no indices. Lookup tables do, but only
    // the LUT pass builds them, as factors, which are never renamed.
    assert((Key[0] != TagLut || S == 0) && "renaming a lookup table");
    break;
  }
  if (S == 0)
    Nodes[I].Norm = R;
  Nodes[R].Norm = R;
  return R;
}

const std::string &FormTable::sortKey(Id I) {
  if (!Nodes[I].SortKey.empty())
    return Nodes[I].SortKey;
  const ExprPtr Ex = Nodes[I].Ex;
  std::string K;
  switch (Ex->kind()) {
  case ExprKind::Literal: {
    // Six significant digits, as printed, unless they do not read back
    // exactly: literals that print alike keep distinct keys.
    const double V = Ex->literalValue();
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", V);
    const double Back = std::strtod(Buf, nullptr);
    if (std::memcmp(&Back, &V, sizeof(V)) != 0 && !std::isnan(V))
      std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    K.append("0:").append(Buf);
    break;
  }
  case ExprKind::Scalar:
    K.append("1:").append(Ex->scalarName());
    break;
  case ExprKind::Access:
    K.append("2:").append(Ex->tensorName());
    for (const std::string &Idx : Ex->indices())
      K.append(":").append(std::to_string(rankOf(Idx))).append(".").append(
          Idx);
    break;
  case ExprKind::Call: {
    K.append("3:").append(opInfo(Ex->op()).Ident);
    const std::vector<uint32_t> &Key = *Nodes[I].Key;
    for (size_t A = 2; A < Key.size(); ++A)
      K.append("(").append(sortKey(Key[A])).append(")");
    break;
  }
  case ExprKind::Lut: // multiplicities only, which print exactly
    K.append("4:").append(Ex->str());
    break;
  }
  Nodes[I].SortKey = std::move(K);
  return Nodes[I].SortKey;
}

} // namespace systec
