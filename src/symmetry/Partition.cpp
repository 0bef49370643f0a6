//===- symmetry/Partition.cpp ---------------------------------*- C++ -*-===//

#include "symmetry/Partition.h"

#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

namespace systec {

Partition::Partition(unsigned OrderIn,
                     std::vector<std::vector<unsigned>> PartsIn)
    : Order(OrderIn), Parts(std::move(PartsIn)) {
  // Normalize: sort modes within parts, sort parts by first mode, then
  // validate coverage.
  for (auto &Part : Parts) {
    assert(!Part.empty() && "empty part in partition");
    std::sort(Part.begin(), Part.end());
  }
  std::sort(Parts.begin(), Parts.end(),
            [](const auto &A, const auto &B) { return A[0] < B[0]; });
  PartIndex.assign(Order, ~0u);
  for (unsigned P = 0; P < Parts.size(); ++P) {
    for (unsigned M : Parts[P]) {
      if (M >= Order)
        fatalError("partition mentions mode out of range");
      if (PartIndex[M] != ~0u)
        fatalError("partition parts are not disjoint");
      PartIndex[M] = P;
    }
  }
  for (unsigned M = 0; M < Order; ++M)
    if (PartIndex[M] == ~0u)
      fatalError("partition does not cover every mode");
}

Partition Partition::none(unsigned Order) {
  std::vector<std::vector<unsigned>> Parts;
  for (unsigned M = 0; M < Order; ++M)
    Parts.push_back({M});
  return Partition(Order, std::move(Parts));
}

Partition Partition::full(unsigned Order) {
  std::vector<unsigned> All;
  for (unsigned M = 0; M < Order; ++M)
    All.push_back(M);
  return Partition(Order, {All});
}

Partition Partition::parse(unsigned Order, const std::string &Text) {
  std::vector<std::vector<unsigned>> Parts;
  std::vector<bool> Mentioned(Order, false);
  size_t I = 0;
  while (I < Text.size()) {
    if (std::isspace(static_cast<unsigned char>(Text[I]))) {
      ++I;
      continue;
    }
    if (Text[I] != '{')
      fatalError("partition syntax: expected '{' in \"" + Text + "\"");
    size_t Close = Text.find('}', I);
    if (Close == std::string::npos)
      fatalError("partition syntax: missing '}' in \"" + Text + "\"");
    std::vector<unsigned> Part;
    for (const std::string &Piece :
         splitAndTrim(Text.substr(I + 1, Close - I - 1), ',')) {
      if (Piece.empty())
        continue;
      unsigned M = static_cast<unsigned>(std::stoul(Piece));
      if (M >= Order)
        fatalError("partition mode " + Piece + " out of range");
      Part.push_back(M);
      Mentioned[M] = true;
    }
    if (!Part.empty())
      Parts.push_back(std::move(Part));
    I = Close + 1;
  }
  for (unsigned M = 0; M < Order; ++M)
    if (!Mentioned[M])
      Parts.push_back({M});
  return Partition(Order, std::move(Parts));
}

bool Partition::samePart(unsigned A, unsigned B) const {
  assert(A < Order && B < Order && "mode out of range");
  return PartIndex[A] == PartIndex[B];
}

unsigned Partition::partOf(unsigned M) const {
  assert(M < Order && "mode out of range");
  return PartIndex[M];
}

bool Partition::hasSymmetry() const {
  for (const auto &Part : Parts)
    if (Part.size() >= 2)
      return true;
  return false;
}

bool Partition::isFull() const {
  return Parts.size() == 1 && Parts[0].size() == Order;
}

uint64_t Partition::symmetryOrder() const {
  uint64_t Result = 1;
  for (const auto &Part : Parts)
    for (uint64_t K = 2; K <= Part.size(); ++K)
      Result *= K;
  return Result;
}

bool Partition::isCanonical(const std::vector<int64_t> &Coords) const {
  assert(Coords.size() == Order && "coordinate arity mismatch");
  for (const auto &Part : Parts)
    for (size_t I = 0; I + 1 < Part.size(); ++I)
      if (Coords[Part[I]] > Coords[Part[I + 1]])
        return false;
  return true;
}

std::vector<int64_t>
Partition::canonicalize(const std::vector<int64_t> &Coords) const {
  assert(Coords.size() == Order && "coordinate arity mismatch");
  std::vector<int64_t> Out = Coords;
  for (const auto &Part : Parts) {
    std::vector<int64_t> Vals;
    for (unsigned M : Part)
      Vals.push_back(Out[M]);
    std::sort(Vals.begin(), Vals.end());
    for (size_t I = 0; I < Part.size(); ++I)
      Out[Part[I]] = Vals[I];
  }
  return Out;
}

bool Partition::isOnDiagonal(const std::vector<int64_t> &Coords) const {
  assert(Coords.size() == Order && "coordinate arity mismatch");
  for (const auto &Part : Parts)
    for (size_t I = 0; I < Part.size(); ++I)
      for (size_t J = I + 1; J < Part.size(); ++J)
        if (Coords[Part[I]] == Coords[Part[J]])
          return true;
  return false;
}

uint64_t Partition::orbitSize(const std::vector<int64_t> &Coords) const {
  assert(Coords.size() == Order && "coordinate arity mismatch");
  uint64_t Result = 1;
  for (const auto &Part : Parts) {
    // Distinct arrangements of the multiset of coordinates in this part:
    // |part|! / prod(multiplicity!).
    std::map<int64_t, uint64_t> Mult;
    for (unsigned M : Part)
      ++Mult[Coords[M]];
    uint64_t Numer = 1;
    for (uint64_t K = 2; K <= Part.size(); ++K)
      Numer *= K;
    uint64_t Denom = 1;
    for (const auto &[Val, Count] : Mult)
      for (uint64_t K = 2; K <= Count; ++K)
        Denom *= K;
    Result *= Numer / Denom;
  }
  return Result;
}

std::string Partition::str() const {
  std::ostringstream OS;
  for (const auto &Part : Parts) {
    OS << "{";
    for (size_t I = 0; I < Part.size(); ++I) {
      if (I)
        OS << ",";
      OS << Part[I];
    }
    OS << "}";
  }
  return OS.str();
}

} // namespace systec
