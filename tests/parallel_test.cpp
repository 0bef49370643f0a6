//===- tests/parallel_test.cpp --------------------------------*- C++ -*-===//
///
/// Tests for the parallel execution runtime: the thread pool, the
/// chunk partitioners (static and triangle-balanced), the parallelism
/// analysis (disjoint writes, reduction privatization, triangle
/// detection), and a determinism suite asserting bit-identical outputs
/// across Threads in {1, 2, 3, 4, 8} for the paper kernels on exact-sum
/// (integer-valued) data.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "observability/Trace.h"
#include "parallel/ParallelAnalysis.h"
#include "parallel/Schedule.h"
#include "parallel/ThreadPool.h"
#include "runtime/Executor.h"
#include "support/Counters.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>

using namespace systec;

namespace {
// The tsan_smoke target reruns the ThreadPool suite with
// SYSTEC_TSAN_TRACE=1: tracing stays on for the whole binary, so the
// sanitizer exercises the trace buffers' single-writer append and
// release/acquire publish protocol under real pool contention.
[[maybe_unused]] const bool TraceEnvHook = [] {
  if (std::getenv("SYSTEC_TSAN_TRACE"))
    obs::setTracingEnabled(true);
  return true;
}();
} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> Hits(257);
  Pool.parallelFor(257, [&](unsigned T) { ++Hits[T]; });
  for (const std::atomic<int> &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool Pool(0);
  int64_t Sum = 0; // no atomics needed: everything runs on this thread
  Pool.parallelFor(100, [&](unsigned T) { Sum += T; });
  EXPECT_EQ(Sum, 99 * 100 / 2);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool Pool(2);
  std::atomic<int> Total{0};
  Pool.parallelFor(4, [&](unsigned) {
    // Nested batch must not deadlock; it runs on the calling thread.
    Pool.parallelFor(8, [&](unsigned) { ++Total; });
  });
  EXPECT_EQ(Total.load(), 32);
}

TEST(ThreadPool, ManySmallBatches) {
  ThreadPool Pool(4);
  std::atomic<int64_t> Sum{0};
  for (int B = 0; B < 200; ++B)
    Pool.parallelFor(5, [&](unsigned T) { Sum += T; });
  EXPECT_EQ(Sum.load(), 200 * 10);
}

TEST(ThreadPool, GrowsInPlace) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 1u);
  Pool.ensureWorkers(3);
  EXPECT_EQ(Pool.workerCount(), 3u);
  Pool.ensureWorkers(2); // never shrinks
  EXPECT_EQ(Pool.workerCount(), 3u);
  std::atomic<int> Hits{0};
  Pool.parallelFor(64, [&](unsigned) { ++Hits; });
  EXPECT_EQ(Hits.load(), 64);
}

//===----------------------------------------------------------------------===//
// Schedule
//===----------------------------------------------------------------------===//

namespace {

void expectTiles(const std::vector<ChunkRange> &Chunks, int64_t Lo,
                 int64_t Hi) {
  ASSERT_FALSE(Chunks.empty());
  EXPECT_EQ(Chunks.front().Lo, Lo);
  EXPECT_EQ(Chunks.back().Hi, Hi);
  for (size_t K = 0; K < Chunks.size(); ++K) {
    EXPECT_LE(Chunks[K].Lo, Chunks[K].Hi) << "chunk " << K << " empty";
    if (K)
      EXPECT_EQ(Chunks[K].Lo, Chunks[K - 1].Hi + 1);
  }
}

} // namespace

TEST(Schedule, StaticBlocksTileTheRange) {
  auto Chunks = staticBlocks(0, 99, 4);
  ASSERT_EQ(Chunks.size(), 4u);
  expectTiles(Chunks, 0, 99);
  for (const ChunkRange &C : Chunks)
    EXPECT_EQ(C.Hi - C.Lo + 1, 25);
}

TEST(Schedule, StaticBlocksClampToRangeSize) {
  auto Chunks = staticBlocks(5, 7, 8);
  ASSERT_EQ(Chunks.size(), 3u);
  expectTiles(Chunks, 5, 7);
}

TEST(Schedule, DepthZeroIsStatic) {
  // makeChunks calls triangleBalanced on every parallel loop, so a loop
  // the analysis did not mark triangular (depth 0) gets exactly the
  // static blocks.
  auto Same = [](int64_t Lo, int64_t Hi, unsigned C) {
    auto Tri = triangleBalanced(Lo, Hi, C, 0);
    auto Sta = staticBlocks(Lo, Hi, C);
    ASSERT_EQ(Tri.size(), Sta.size())
        << "[" << Lo << ", " << Hi << "] in " << C;
    for (size_t K = 0; K < Tri.size(); ++K) {
      EXPECT_EQ(Tri[K].Lo, Sta[K].Lo) << "chunk " << K;
      EXPECT_EQ(Tri[K].Hi, Sta[K].Hi) << "chunk " << K;
    }
  };
  Same(3, 2, 4);   // empty range
  Same(0, -5, 1);  // empty range
  Same(7, 7, 1);   // a single coordinate
  Same(7, 7, 8);   // a single coordinate, more chunks than coordinates
  Same(5, 7, 8);   // C > N
  Same(0, 99, 4);  // even split
  Same(0, 9, 3);   // ragged
  Same(11, 47, 5); // ragged, offset
  Same(0, 999, 7); // ragged
  EXPECT_TRUE(triangleBalanced(3, 2, 4, 0).empty());
  EXPECT_EQ(triangleBalanced(5, 7, 8, 0).size(), 3u);
}

TEST(Schedule, TriangleBalancedEqualizesAscendingWork) {
  // Work under coordinate v is proportional to v + 1 (inner loop runs
  // to v): triangle chunks must carry near-equal weight while static
  // blocks differ by ~2x between first and last.
  const int64_t N = 10000;
  auto Tri = triangleBalanced(0, N - 1, 8, /*TriDepth=*/1);
  ASSERT_EQ(Tri.size(), 8u);
  expectTiles(Tri, 0, N - 1);
  double MinW = 1e300, MaxW = 0;
  for (const ChunkRange &C : Tri) {
    double W = triangleWeight(C, 0, N - 1, 1);
    MinW = std::min(MinW, W);
    MaxW = std::max(MaxW, W);
  }
  EXPECT_LT(MaxW / MinW, 1.2) << "triangle chunks should be balanced";
  // Ascending work => the first chunk spans more coordinates than the
  // last.
  EXPECT_GT(Tri.front().Hi - Tri.front().Lo,
            4 * (Tri.back().Hi - Tri.back().Lo));

  auto Static = staticBlocks(0, N - 1, 8);
  double FirstW = triangleWeight(Static.front(), 0, N - 1, 1);
  double LastW = triangleWeight(Static.back(), 0, N - 1, 1);
  EXPECT_GT(LastW / FirstW, 5.0) << "static blocks are imbalanced here";
}

TEST(Schedule, TriangleBalancedDescending) {
  auto Tri = triangleBalanced(0, 9999, 8, /*TriDepth=*/-1);
  ASSERT_EQ(Tri.size(), 8u);
  expectTiles(Tri, 0, 9999);
  double MinW = 1e300, MaxW = 0;
  for (const ChunkRange &C : Tri) {
    double W = triangleWeight(C, 0, 9999, -1);
    MinW = std::min(MinW, W);
    MaxW = std::max(MaxW, W);
  }
  EXPECT_LT(MaxW / MinW, 1.2);
  // Descending work => wide chunks cover the light high end.
  EXPECT_GT(Tri.back().Hi - Tri.back().Lo,
            4 * (Tri.front().Hi - Tri.front().Lo));
}

TEST(Schedule, TriangleDepthTwo) {
  auto Tri = triangleBalanced(0, 4999, 6, /*TriDepth=*/2);
  ASSERT_EQ(Tri.size(), 6u);
  expectTiles(Tri, 0, 4999);
  double MinW = 1e300, MaxW = 0;
  for (const ChunkRange &C : Tri) {
    double W = triangleWeight(C, 0, 4999, 2);
    MinW = std::min(MinW, W);
    MaxW = std::max(MaxW, W);
  }
  EXPECT_LT(MaxW / MinW, 1.35);
}

TEST(Schedule, DegenerateRanges) {
  EXPECT_TRUE(staticBlocks(3, 2, 4).empty());
  auto One = triangleBalanced(7, 7, 8, 1);
  ASSERT_EQ(One.size(), 1u);
  EXPECT_EQ(One[0].Lo, 7);
  EXPECT_EQ(One[0].Hi, 7);
}

//===----------------------------------------------------------------------===//
// ParallelAnalysis
//===----------------------------------------------------------------------===//

namespace {

/// Outermost loops of a (possibly multi-nest) body.
std::vector<StmtPtr> topLoops(const StmtPtr &Body) {
  std::vector<StmtPtr> Out;
  if (Body->kind() == StmtKind::Loop) {
    Out.push_back(Body);
  } else if (Body->kind() == StmtKind::Block) {
    for (const StmtPtr &C : Body->stmts())
      if (C->kind() == StmtKind::Loop)
        Out.push_back(C);
  }
  return Out;
}

} // namespace

TEST(ParallelAnalysis, SsymvOuterLoopsPrivatizeOutput) {
  CompileResult R = compileEinsum(makeSsymv());
  std::vector<StmtPtr> Nests = topLoops(R.Optimized.Body);
  ASSERT_GE(Nests.size(), 1u);
  for (const StmtPtr &L : Nests) {
    LoopParallelism LP = analyzeLoopParallelism(L);
    EXPECT_TRUE(LP.Safe);
    // y[i] is written under the j loop: reduction privatization.
    ASSERT_TRUE(LP.TensorMergeOps.count("y"));
    EXPECT_EQ(LP.TensorMergeOps.at("y"), OpKind::Add);
  }
  // The off-diagonal nest iterates the strict triangle i < j.
  EXPECT_EQ(analyzeLoopParallelism(Nests[0]).TriangleDepth, 1);
}

TEST(ParallelAnalysis, SsyrkOuterLoopPrivatizesAndInnerIsDisjoint) {
  CompileResult R = compileEinsum(makeSsyrk());
  std::vector<StmtPtr> Nests = topLoops(R.Optimized.Body);
  // Off-diagonal (i < j) and diagonal (i == j) nests.
  ASSERT_GE(Nests.size(), 1u);
  for (const StmtPtr &K : Nests) {
    LoopParallelism LPk = analyzeLoopParallelism(K);
    ASSERT_TRUE(LPk.Safe);
    EXPECT_TRUE(LPk.TensorMergeOps.count("C"));

    // Walk to the j loop under k: its writes carry j, so no
    // accumulators are needed at that level.
    StmtPtr Cur = K->body();
    while (Cur->kind() != StmtKind::Loop) {
      ASSERT_TRUE(Cur->kind() == StmtKind::Block ||
                  Cur->kind() == StmtKind::If);
      Cur = Cur->kind() == StmtKind::Block ? Cur->stmts()[0] : Cur->body();
    }
    LoopParallelism LPj = analyzeLoopParallelism(Cur);
    EXPECT_TRUE(LPj.Safe);
    EXPECT_FALSE(LPj.needsPrivatization());
    ASSERT_TRUE(LPj.Tensors.count("C"));
    EXPECT_EQ(LPj.Tensors.at("C"), WriteClass::Disjoint);
  }
}

TEST(ParallelAnalysis, MinReductionPrivatizesWithMin) {
  CompileResult R = compileEinsum(makeBellmanFord());
  for (const StmtPtr &L : topLoops(R.Optimized.Body)) {
    LoopParallelism LP = analyzeLoopParallelism(L);
    ASSERT_TRUE(LP.Safe);
    ASSERT_TRUE(LP.TensorMergeOps.count("y"));
    EXPECT_EQ(LP.TensorMergeOps.at("y"), OpKind::Min);
  }
}

TEST(ParallelAnalysis, ScalarWorkspaceDefinedOutsideIsPrivatized) {
  // { w = 0; for i: w += A[i,j]; y[j] += w } analyzed at the i loop:
  // w's definition is outside the loop body, so it must merge.
  StmtPtr Loop = Stmt::loop(
      "i", Stmt::assign(Expr::scalar("w"), OpKind::Add,
                        Expr::access("A", {"i", "j"})));
  LoopParallelism LP = analyzeLoopParallelism(Loop);
  ASSERT_TRUE(LP.Safe);
  ASSERT_TRUE(LP.ScalarMergeOps.count("w"));
  EXPECT_EQ(LP.ScalarMergeOps.at("w"), OpKind::Add);
}

TEST(ParallelAnalysis, SharedOverwriteIsRejected) {
  // for i: y[0-d] = A[i]  — last writer wins; not parallelizable.
  StmtPtr Loop = Stmt::loop(
      "i", Stmt::assign(Expr::access("y", {}), std::nullopt,
                        Expr::access("A", {"i"})));
  EXPECT_FALSE(analyzeLoopParallelism(Loop).Safe);
}

TEST(ParallelAnalysis, ReadOfWrittenTensorIsRejected) {
  // for i: y[i] += y[i-ish read through other index] — conservative no.
  StmtPtr Loop = Stmt::loop(
      "i", Stmt::assign(Expr::access("y", {"i"}), OpKind::Add,
                        Expr::access("y", {"j"})));
  EXPECT_FALSE(analyzeLoopParallelism(Loop).Safe);
}

TEST(ParallelAnalysis, DisjointOverwriteIsAllowed) {
  StmtPtr Loop = Stmt::loop(
      "i", Stmt::assign(Expr::access("y", {"i"}), std::nullopt,
                        Expr::access("A", {"i"})));
  LoopParallelism LP = analyzeLoopParallelism(Loop);
  EXPECT_TRUE(LP.Safe);
  EXPECT_FALSE(LP.needsPrivatization());
}

//===----------------------------------------------------------------------===//
// Determinism suite
//===----------------------------------------------------------------------===//

namespace {

/// Quantizes stored values to small integers so every reduction order
/// produces the same (exactly representable) sums: the bit-identical
/// check below is then meaningful for privatized Add merges.
void quantize(Tensor &T) {
  for (double &V : T.vals())
    if (std::isfinite(V))
      V = std::floor(V * 16.0);
}

struct DetCase {
  std::string Name;
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  double OutInit = 0.0;
};

std::vector<DetCase> determinismCases() {
  std::vector<DetCase> Cases;
  Rng R(20260731);
  const int64_t N = 150;

  {
    DetCase C{"ssymv", makeSsymv(), {}, {N}, 0.0};
    C.Inputs.emplace("A", generateSymmetricTensor(2, N, 5 * N, R,
                                                  TensorFormat::csf(2)));
    C.Inputs.emplace("x", generateDenseVector(N, R));
    Cases.push_back(std::move(C));
  }
  {
    DetCase C{"ssyrk", makeSsyrk(), {}, {N, N}, 0.0};
    C.Inputs.emplace("A", generateSparseMatrix(N, N, 6 * N, R,
                                               TensorFormat::csf(2)));
    Cases.push_back(std::move(C));
  }
  {
    const int64_t Dim = 40, Rank = 8;
    DetCase C{"mttkrp3", makeMttkrp(3), {}, {Dim, Rank}, 0.0};
    C.Inputs.emplace("A", generateSymmetricTensor(3, Dim, 300, R,
                                                  TensorFormat::csf(3)));
    C.Inputs.emplace("B", generateDenseMatrix(Dim, Rank, R));
    Cases.push_back(std::move(C));
  }
  for (DetCase &C : Cases)
    for (auto &[Name, T] : C.Inputs)
      quantize(T);
  return Cases;
}

Tensor runKernel(const Kernel &K, DetCase &C, const ExecOptions &O,
                 CounterSnapshot *Counts = nullptr) {
  Tensor Out = Tensor::dense(C.OutDims, 0.0);
  Out.setAllValues(C.OutInit);
  Executor E(K, O);
  for (auto &[Name, T] : C.Inputs)
    E.bind(Name, &T);
  E.bind(C.E.Output->tensorName(), &Out);
  obs::ExecReport Rep;
  EXPECT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(E.tryRun(&Rep).ok());
  if (Counts)
    *Counts = Rep.Counters;
  return Out;
}

} // namespace

TEST(Determinism, BitIdenticalAcrossThreadCounts) {
  for (DetCase &C : determinismCases()) {
    CompileResult R = compileEinsum(C.E);
    for (const Kernel *K : {&R.Naive, &R.Optimized}) {
      ExecOptions Base;
      Tensor Ref = runKernel(*K, C, Base);
      for (unsigned Threads : {2u, 3u, 4u, 8u}) {
        ExecOptions O;
        O.Threads = Threads;
        Tensor Out = runKernel(*K, C, O);
        EXPECT_EQ(Tensor::maxAbsDiff(Ref, Out), 0.0)
            << C.Name << " kernel " << K->Name << " threads " << Threads;
      }
    }
  }
}

TEST(Determinism, RepeatedRunsAreStable) {
  // Same Threads twice: identical results, although the pool hands
  // chunks to whichever thread is free (accumulators are task-indexed,
  // not thread-indexed).
  DetCase C = std::move(determinismCases()[0]);
  CompileResult R = compileEinsum(C.E);
  ExecOptions O;
  O.Threads = 4;
  Tensor A = runKernel(R.Optimized, C, O);
  Tensor B = runKernel(R.Optimized, C, O);
  EXPECT_EQ(Tensor::maxAbsDiff(A, B), 0.0);
}

TEST(Determinism, RealValuedWithinTolerance) {
  // Uniform real values: parallel merge reorders additions, so allow
  // rounding-level drift relative to the sequential run.
  Rng R(99);
  const int64_t N = 200;
  Tensor A = generateSymmetricTensor(2, N, 6 * N, R, TensorFormat::csf(2));
  Tensor X = generateDenseVector(N, R);
  CompileResult C = compileEinsum(makeSsymv());
  Tensor Ref = Tensor::dense({N});
  {
    Executor E(C.Optimized);
    E.bind("A", &A).bind("x", &X).bind("y", &Ref);
    ASSERT_TRUE(E.tryPrepare().ok());
    ASSERT_TRUE(E.tryRun().ok());
  }
  for (unsigned Threads : {2u, 8u}) {
    Tensor Y = Tensor::dense({N});
    ExecOptions O;
    O.Threads = Threads;
    Executor E(C.Optimized, O);
    E.bind("A", &A).bind("x", &X).bind("y", &Y);
    ASSERT_TRUE(E.tryPrepare().ok());
    ASSERT_TRUE(E.tryRun().ok());
    EXPECT_LE(Tensor::maxAbsDiff(Ref, Y), 1e-10);
  }
}

TEST(Determinism, PrivatizationBudgetFallbackStaysCorrect) {
  // A budget too small for ssyrk's dense C forces the executor off the
  // outer (privatizing) k loop onto the inner disjoint j loop.
  DetCase C = std::move(determinismCases()[1]);
  ASSERT_EQ(C.Name, "ssyrk");
  CompileResult R = compileEinsum(C.E);
  ExecOptions Base;
  Tensor Ref = runKernel(R.Optimized, C, Base);
  ExecOptions O;
  O.Threads = 4;
  O.PrivatizationBudgetBytes = 8192; // << N*N doubles
  Tensor Out = runKernel(R.Optimized, C, O);
  EXPECT_EQ(Tensor::maxAbsDiff(Ref, Out), 0.0);
}

//===----------------------------------------------------------------------===//
// Runtime integration
//===----------------------------------------------------------------------===//

TEST(ParallelRuntime, CountersStayExact) {
  DetCase C = std::move(determinismCases()[0]);
  CompileResult R = compileEinsum(C.E);
  setCountersEnabled(true);
  CounterSnapshot Seq, Par;
  runKernel(R.Optimized, C, ExecOptions(), &Seq);
  ExecOptions O;
  O.Threads = 8;
  runKernel(R.Optimized, C, O, &Par);
  EXPECT_EQ(Seq.SparseReads, Par.SparseReads);
  EXPECT_EQ(Seq.ScalarOps, Par.ScalarOps);
  EXPECT_EQ(Seq.Reductions, Par.Reductions);
  EXPECT_EQ(Seq.OutputWrites, Par.OutputWrites);
}

namespace {
/// Pool tasks run by one report's run, over every worker and the caller.
uint64_t poolTasks(const obs::ExecReport &Rep) {
  uint64_t Tasks = 0;
  for (const obs::WorkerStat &W : Rep.Workers)
    Tasks += W.Tasks;
  return Tasks;
}
} // namespace

TEST(ParallelRuntime, SparseTopLevelWalkerSplits) {
  // A loop driven by a top-level Sparse walker: chunks gallop to their
  // start coordinate (the range-splitting iterator). No compiler marked
  // the hand-built loop; prepare classifies it and, at Threads 4, runs
  // it as parallel chunks.
  Kernel K;
  K.Name = "sparsesum";
  K.LoopOrder = {"i"};
  K.OutputName = "y";
  K.Body = Stmt::loop("i", Stmt::assign(Expr::access("y", {}), OpKind::Add,
                                        Expr::access("r", {"i"})));
  Coo Entries({1000});
  double Total = 0;
  for (int64_t I = 3; I < 1000; I += 7) {
    Entries.add({I}, static_cast<double>(I % 13));
    Total += I % 13;
  }
  TensorFormat F;
  F.Levels = {LevelKind::Sparse};
  Tensor Rt = Tensor::fromCoo(std::move(Entries), F);
  for (unsigned Threads : {1u, 4u}) {
    Tensor Y = Tensor::dense({1});
    ExecOptions O;
    O.Threads = Threads;
    Executor E(K, O);
    E.bind("r", &Rt).bind("y", &Y);
    ASSERT_TRUE(E.tryPrepare().ok());
    obs::ExecReport Rep;
    ASSERT_TRUE(E.tryRun(&Rep).ok());
    EXPECT_EQ(Y.at({0}), Total) << "threads " << Threads;
    if (Threads > 1)
      EXPECT_GT(poolTasks(Rep), 0u);
  }
}

TEST(ParallelRuntime, HandBuiltSharedOverwriteStaysSequential) {
  // for i: y[] = r[i] overwrites one cell on every iteration, so the
  // classifier rejects the loop: at Threads 4 it runs no pool task and
  // leaves the last entry's value, as at Threads 1.
  Kernel K;
  K.Name = "lastentry";
  K.LoopOrder = {"i"};
  K.OutputName = "y";
  K.Body = Stmt::loop("i", Stmt::assign(Expr::access("y", {}), std::nullopt,
                                        Expr::access("r", {"i"})));
  Coo Entries({1000});
  for (int64_t I = 3; I < 1000; I += 6)
    Entries.add({I}, static_cast<double>(I % 13 + 1));
  TensorFormat F;
  F.Levels = {LevelKind::Sparse};
  Tensor Rt = Tensor::fromCoo(std::move(Entries), F);
  for (unsigned Threads : {1u, 4u}) {
    Tensor Y = Tensor::dense({1}, -1.0);
    ExecOptions O;
    O.Threads = Threads;
    Executor E(K, O);
    E.bind("r", &Rt).bind("y", &Y);
    ASSERT_TRUE(E.tryPrepare().ok());
    obs::ExecReport Rep;
    ASSERT_TRUE(E.tryRun(&Rep).ok());
    EXPECT_EQ(Y.at({0}), 999 % 13 + 1) << "threads " << Threads;
    EXPECT_EQ(poolTasks(Rep), 0u) << "threads " << Threads;
  }
}

TEST(ParallelRuntime, ThreadsOneRunsNoPoolTask) {
  // At Threads=1 prepare classifies no loop: the run starts no pool
  // task on any worker or caller and merges nothing.
  DetCase C = std::move(determinismCases()[0]);
  const CompileResult R = compileEinsum(C.E);
  ExecOptions O;
  O.Threads = 1;

  Tensor A = Tensor::dense(C.OutDims, 0.0);
  A.setAllValues(C.OutInit);
  Executor E(R.Optimized, O);
  for (auto &[Name, T] : C.Inputs)
    E.bind(Name, &T);
  E.bind(C.E.Output->tensorName(), &A);
  ASSERT_TRUE(E.tryPrepare().ok());
  const ThreadPool::ActivitySnapshot Before =
      ThreadPool::global().activitySnapshot();
  obs::ExecReport Rep;
  ASSERT_TRUE(E.tryRun(&Rep).ok());
  const ThreadPool::ActivitySnapshot After =
      ThreadPool::global().activitySnapshot();
  auto TasksMoved = [](const std::vector<ThreadPool::ActivityCounters> &B,
                       const std::vector<ThreadPool::ActivityCounters> &A) {
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I].Tasks != (I < B.size() ? B[I].Tasks : 0))
        return true;
    return false;
  };
  EXPECT_FALSE(TasksMoved(Before.Workers, After.Workers));
  EXPECT_FALSE(TasksMoved(Before.Callers, After.Callers));
  EXPECT_EQ(Rep.phaseNs("merge"), 0u);
}

//===----------------------------------------------------------------------===//
// Parallel replication epilogue
//===----------------------------------------------------------------------===//

namespace {
/// Per-cell reference for replicateSymmetric: visits every coordinate
/// and copies each non-canonical one from its canonicalized tuple
/// through the level walks of Tensor::at and Tensor::denseRef. Returns
/// the number of copies.
uint64_t replicateReference(Tensor &T, const Partition &Sym) {
  const unsigned N = T.order();
  uint64_t Copies = 0;
  std::vector<int64_t> Coords(N, 0);
  std::function<void(unsigned)> Walk = [&](unsigned M) {
    if (M == N) {
      if (!Sym.isCanonical(Coords)) {
        T.denseRef(Coords) = T.at(Sym.canonicalize(Coords));
        ++Copies;
      }
      return;
    }
    for (Coords[M] = 0; Coords[M] < T.dim(M); ++Coords[M])
      Walk(M + 1);
  };
  Walk(0);
  return Copies;
}
} // namespace

TEST(ParallelRuntime, ReplicateSymmetricDeterministicAcrossThreads) {
  // The replication epilogue is a strided copy over the dense value
  // array, split over mode 0 across the pool. For every partition shape
  // and thread count it must reproduce the per-cell reference bit for
  // bit and copy exactly the non-canonical cells.
  struct Case {
    const char *Sym;
    std::vector<int64_t> Dims;
  };
  const Case Cases[] = {
      {"{0,1}", {37, 37}},
      {"{1,2}", {7, 12, 12}}, // ttm's output: singleton, stride-1 mode 0
      {"{0,2}", {9, 4, 9}},   // non-adjacent modes
      {"{0,1,2}", {13, 13, 13}},
      {"{0,1}{2,3}", {6, 6, 5, 5}},
      {"{0,2}{1,3}", {6, 5, 6, 5}},
      {"{1,2,3}", {4, 7, 7, 7}},
      {"{0,1,2,3,4}", {5, 5, 5, 5, 5}},
      {"{0}", {9}},         // order 1: every cell is canonical
      {"{0,1}", {0, 0}},    // zero extent in mode 0
      {"{1,2}", {3, 0, 0}}, // zero extent past mode 0
  };
  Rng R(31415);
  for (const Case &C : Cases) {
    Tensor Base = Tensor::dense(C.Dims);
    const Partition Sym = Partition::parse(Base.order(), C.Sym);
    SCOPED_TRACE(Sym.str() + " over " + Base.summary());
    for (double &V : Base.vals())
      V = R.nextDouble();
    uint64_t NonCanonical = 0;
    Base.forEach([&](const std::vector<int64_t> &Coords, double) {
      NonCanonical += !Sym.isCanonical(Coords);
    });
    Tensor Ref = Base;
    EXPECT_EQ(replicateReference(Ref, Sym), NonCanonical);
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      Tensor Out = Base;
      EXPECT_EQ(replicateSymmetric(Out, Sym, Threads), NonCanonical)
          << "threads " << Threads;
      ASSERT_EQ(Out.vals().size(), Ref.vals().size());
      for (size_t I = 0; I < Ref.vals().size(); ++I)
        ASSERT_EQ(Out.vals()[I], Ref.vals()[I])
            << "threads " << Threads << " element " << I;
    }
  }
}

TEST(ParallelRuntime, ReplicateEpilogueThreadedViaExecutor) {
  // End to end: the replication epilogues of ssyrk (C is 30x30 under
  // {0,1}) and ttm (C is R x n x n under {1,2}) run threaded when the
  // executor is parallel. At every thread count the whole run (body +
  // epilogue) gives the same result and the same OutputWrites, and the
  // epilogue's share of OutputWrites is the number of non-canonical
  // cells. Integer-valued data keeps the body's privatized sums exact,
  // so the result is bit-identical across thread counts.
  Rng R(2718);
  struct Case {
    Einsum E;
    std::map<std::string, Tensor> Inputs;
    std::vector<int64_t> OutDims;
    uint64_t EpilogueWrites;
  };
  const int64_t N = 12, Rank = 5;
  std::vector<Case> Cases;
  Cases.push_back({makeSsyrk(),
                   {{"A", generateSymmetricTensor(2, 30, 120, R,
                                                  TensorFormat::csf(2))}},
                   {30, 30},
                   30 * 29 / 2});
  Cases.push_back(
      {makeTtm(),
       {{"A", generateSymmetricTensor(3, N, 6 * N, R, TensorFormat::csf(3))},
        {"B", generateDenseMatrix(N, Rank, R)}},
       {Rank, N, N},
       static_cast<uint64_t>(Rank * N * (N - 1) / 2)});
  for (Case &K : Cases) {
    SCOPED_TRACE(K.E.Name);
    for (auto &[Name, T] : K.Inputs)
      for (double &V : T.vals())
        V = std::floor(V * 8);
    CompileResult C = compileEinsum(K.E);
    Tensor Seq = Tensor::dense(K.OutDims);
    uint64_t SeqWrites = 0;
    for (unsigned Threads : {1u, 2u, 4u}) {
      Tensor Out = Tensor::dense(K.OutDims);
      ExecOptions O;
      O.Threads = Threads;
      Executor E(C.Optimized, O);
      for (auto &[Name, T] : K.Inputs)
        E.bind(Name, &T);
      E.bind("C", &Out);
      obs::ExecReport Body, Full;
      ASSERT_TRUE(E.tryPrepare().ok());
      ASSERT_TRUE(E.tryRunBody(&Body).ok());
      ASSERT_TRUE(E.tryRunEpilogue(&Full).ok());
      EXPECT_EQ(Full.Counters.OutputWrites - Body.Counters.OutputWrites,
                K.EpilogueWrites)
          << "threads " << Threads;
      if (Threads == 1) {
        Seq = Out;
        SeqWrites = Full.Counters.OutputWrites;
      }
      EXPECT_EQ(Full.Counters.OutputWrites, SeqWrites)
          << "threads " << Threads;
      EXPECT_EQ(Tensor::maxAbsDiff(Seq, Out), 0.0) << "threads " << Threads;
    }
  }
}

//===----------------------------------------------------------------------===//
// ExecOptions sanitization (docs/ROBUSTNESS.md): absurd-but-runnable
// values clamp with a recorded note; genuinely meaningless ones are a
// typed InvalidOptions error from tryPrepare.
//===----------------------------------------------------------------------===//

namespace {
/// One prepared-ready ssyrk setup shared by the sanitization tests.
struct SanitizeSetup {
  CompileResult C = compileEinsum(makeSsyrk());
  Tensor A, Out;
  SanitizeSetup() : Out(Tensor::dense({12, 12})) {
    Rng R(99);
    A = generateSymmetricTensor(2, 12, 40, R, TensorFormat::csf(2));
  }
  void bindInto(Executor &E) { E.bind("A", &A).bind("C", &Out); }
};

bool anyClampContains(const Executor &E, const std::string &Needle) {
  for (const std::string &Note : E.optionClamps())
    if (Note.find(Needle) != std::string::npos)
      return true;
  return false;
}
} // namespace

TEST(ExecOptionsSanitize, ZeroThreadsClampsToOneAndRuns) {
  SanitizeSetup S;
  ExecOptions O;
  O.Threads = 0;
  Executor E(S.C.Optimized, O);
  S.bindInto(E);
  ASSERT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(anyClampContains(E, "threads 0 -> 1")) << "no clamp recorded";
  EXPECT_TRUE(E.tryRun().ok());
}

TEST(ExecOptionsSanitize, AbsurdThreadCountClampsToHardwareMultiple) {
  SanitizeSetup S;
  ExecOptions O;
  O.Threads = 1u << 20; // a million lanes: oversubscription, not an error
  Executor E(S.C.Optimized, O);
  S.bindInto(E);
  ASSERT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(anyClampContains(E, "4x hardware concurrency"));
  EXPECT_TRUE(E.tryRun().ok());
}

TEST(ExecOptionsSanitize, SupportedValuesRecordNoClamps) {
  // Any Threads up to 4x hardware concurrency is part of the supported
  // contract (the fuzz matrix samples it); it may not produce a note.
  SanitizeSetup S;
  ExecOptions O;
  O.Threads = 4;
  Executor E(S.C.Optimized, O);
  S.bindInto(E);
  ASSERT_TRUE(E.tryPrepare().ok());
  EXPECT_TRUE(E.optionClamps().empty());
}

TEST(ExecOptionsSanitize, NegativeDeadlineIsInvalidOptions) {
  // A negative deadline has no sane clamp (0 means "no deadline", so
  // clamping would silently drop the caller's intent): typed error.
  SanitizeSetup S;
  ExecOptions O;
  O.DeadlineMs = -5;
  Executor E(S.C.Optimized, O);
  S.bindInto(E);
  Status St = E.tryPrepare();
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), ErrCode::InvalidOptions);
  EXPECT_NE(St.str().find("DeadlineMs"), std::string::npos) << St.str();
}
