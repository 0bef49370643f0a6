//===- examples/graph_shortest_path.cpp - Min-plus Bellman-Ford -*- C++-*-===//
///
/// \file
/// Single-source shortest paths on an undirected weighted graph. The
/// adjacency matrix of an undirected graph is symmetric (paper Section
/// 1), and the Bellman-Ford relaxation y[i] min= A[i,j] + d[j] is a
/// tensor kernel over the (min,+) semiring — SySTeC symmetrizes it even
/// though it uses neither + nor * as the reduction (paper Section
/// 5.2.2). This example builds the einsum by hand (no kernel factory),
/// compiles it, and iterates relaxations to convergence, reading only
/// the upper triangle of the adjacency matrix in every step.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "runtime/Executor.h"

#include <cstdio>
#include <limits>

using namespace systec;

int main() {
  const double Inf = std::numeric_limits<double>::infinity();
  const int64_t NumNodes = 3000;

  // 1. Describe the relaxation step from scratch.
  Einsum Step = parseEinsum("relax", "y[i] min= A[i,j] + d[j]");
  Step.LoopOrder = {"j", "i"};
  Step.declare("A", TensorFormat::csf(2), /*Fill=*/Inf);
  Step.setSymmetry("A", Partition::full(2));
  Step.declare("d", TensorFormat::dense(1));
  Step.declare("y", TensorFormat::dense(1), Inf);

  CompileResult R = compileEinsum(Step);
  std::printf("optimized relaxation step:\n%s\n",
              R.Optimized.str().c_str());

  // 2. A random undirected graph: symmetric edge weights, fill = inf.
  Rng Random(99);
  Tensor Weights = generateSymmetricTensor(2, NumNodes, 4 * NumNodes,
                                           Random, TensorFormat::csf(2),
                                           Inf);

  // 3. Distances: source node 0.
  Tensor Dist = Tensor::dense({NumNodes}, Inf);
  Dist.setAllValues(Inf);
  Dist.denseRef({0}) = 0.0;
  Tensor Next = Tensor::dense({NumNodes}, Inf);

  Executor Exec(R.Optimized);
  Exec.bind("A", &Weights).bind("d", &Dist).bind("y", &Next);
  if (Status S = Exec.tryPrepare(); !S.ok()) {
    std::fprintf(stderr, "%s\n", S.str().c_str());
    return 1;
  }

  // 4. Relax until fixpoint (at most |V|-1 rounds).
  uint64_t Reads = 0;
  unsigned Rounds = 0;
  for (; Rounds < NumNodes - 1; ++Rounds) {
    // y starts from the current distances (self-paths).
    Next.vals() = Dist.vals();
    obs::ExecReport Report;
    if (Status S = Exec.tryRun(&Report); !S.ok()) {
      std::fprintf(stderr, "%s\n", S.str().c_str());
      return 1;
    }
    Reads += Report.Counters.SparseReads;
    if (Next.vals() == Dist.vals())
      break;
    Dist.vals() = Next.vals();
  }

  unsigned Reached = 0;
  double MaxDist = 0;
  for (double V : Dist.vals())
    if (V < Inf) {
      ++Reached;
      MaxDist = std::max(MaxDist, V);
    }
  std::printf("converged after %u rounds\n", Rounds + 1);
  std::printf("reached %u of %lld nodes; eccentricity of source %.4f\n",
              Reached, static_cast<long long>(NumNodes), MaxDist);
  std::printf("edge reads per round (symmetric kernel): ~%llu of %zu "
              "stored\n",
              static_cast<unsigned long long>(Reads / (Rounds + 1)),
              Weights.storedCount());
  return Reached > 0 ? 0 : 1;
}
