//===- tests/codegen_test.cpp ---------------------------------*- C++ -*-===//
///
/// Tests for what the C++ backend (emitNativeTU) carries: compiler
/// decisions pinned on the optimized kernel's IR listing, the lifted
/// triangle bound in ssymv's native TU, and a standalone compile of the
/// emitted TUs with the compiler that built the library.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace systec;

//===----------------------------------------------------------------------===//
// Compiler decisions on the optimized kernel's IR
//===----------------------------------------------------------------------===//

TEST(OptimizedKernel, MttkrpGroupsByTwoAndHoistsSharedRead) {
  std::string S = compileEinsum(makeMttkrp(3)).Optimized.str();
  // Distributive grouping: the off-diagonal updates carry a factor of 2.
  EXPECT_NE(S.find("C[i, j] += 2 * t_A_i_k_l * "), std::string::npos) << S;
  // Common access elimination: A_nondiag is read once, above the rank
  // loop, and shared by the three updates.
  size_t Def = S.find("t_A_i_k_l = A_nondiag[i, k, l]");
  ASSERT_NE(Def, std::string::npos) << S;
  EXPECT_LT(Def, S.find("for j=_")) << S;
}

TEST(OptimizedKernel, BellmanFordReducesOnlyWithMin) {
  std::string S = compileEinsum(makeBellmanFord()).Optimized.str();
  EXPECT_NE(S.find("y[i] min= t_A_i_j + d[j]"), std::string::npos) << S;
  EXPECT_EQ(S.find("+="), std::string::npos)
      << "min-reduction must not emit additive updates:\n"
      << S;
}

//===----------------------------------------------------------------------===//
// Native (JIT) TU emission
//===----------------------------------------------------------------------===//

namespace {

/// Binds a paper-kernel workload and prepares with the native engine
/// leading, returning the emitted C-ABI TU (populated by tryPrepare
/// even when the subsequent JIT build cannot run).
std::string emitNativeFor(const std::string &Name) {
  Rng R(101);
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  if (Name == "ssymv") {
    E = makeSsymv();
    Inputs.emplace("A", generateSymmetricTensor(2, 20, 80, R,
                                                TensorFormat::csf(2)));
    Inputs.emplace("x", generateDenseVector(20, R));
    OutDims = {20};
  } else if (Name == "syprd") {
    E = makeSyprd();
    Inputs.emplace("A", generateSymmetricTensor(2, 20, 80, R,
                                                TensorFormat::csf(2)));
    Inputs.emplace("x", generateDenseVector(20, R));
    OutDims = {1};
  } else {
    E = makeMttkrp(3);
    Inputs.emplace("A", generateSymmetricTensor(3, 9, 72, R,
                                                TensorFormat::csf(3)));
    Inputs.emplace("B", generateDenseMatrix(9, 4, R));
    OutDims = {9, 4};
  }
  Tensor Out = Tensor::dense(OutDims, 0.0);
  ExecOptions Opt;
  Opt.Engines = {Engine::Native, Engine::Fused, Engine::Interp};
  Executor Ex(compileEinsum(E).Optimized, Opt);
  for (auto &[N, T] : Inputs)
    Ex.bind(N, &T);
  Ex.bind(E.Output->tensorName(), &Out);
  Status S = Ex.tryPrepare();
  EXPECT_TRUE(S.ok()) << S.str();
  return Ex.nativeSource();
}

} // namespace

TEST(NativeTU, SsymvLiftsTriangleBound) {
  // The off-diagonal nest's `if i < j` becomes the inner loop's upper
  // bound: hi clamps to i0 - 1, and the sparse walk breaks past it.
  std::string Src = emitNativeFor("ssymv");
  size_t Clamp = Src.find("if (i0 + (-1) < hi1) hi1 = i0 + (-1);");
  ASSERT_NE(Clamp, std::string::npos) << Src;
  EXPECT_NE(Src.find("if (c1 > hi1) break;", Clamp), std::string::npos)
      << Src;
}

/// The emitted native TU must be self-contained: it compiles as a
/// standalone translation unit with no include path at all (the C ABI
/// structs are embedded in the source — that embedding IS the cache's
/// compatibility contract).
class NativeTUCompiles : public ::testing::TestWithParam<const char *> {};

TEST_P(NativeTUCompiles, SelfContained) {
#ifndef SYSTEC_CXX
  GTEST_SKIP() << "compiler paths not configured";
#else
  std::string Src = emitNativeFor(GetParam());
  ASSERT_FALSE(Src.empty());
  EXPECT_NE(Src.find("extern \"C\""), std::string::npos);
  EXPECT_NE(Src.find("systec_native_run"), std::string::npos);
  std::string Path = ::testing::TempDir() + "/systec_native_" +
                     GetParam() + ".cpp";
  std::string Obj = ::testing::TempDir() + "/systec_native_" + GetParam() +
                    ".o";
  {
    std::ofstream OutF(Path);
    OutF << Src;
  }
  // Deliberately no -I: a TU that needs one is a broken contract.
  std::string Cmd = std::string(SYSTEC_CXX) + " -std=c++17 -c -o " + Obj +
                    " -w " + Path;
  int Rc = std::system(Cmd.c_str());
  EXPECT_EQ(Rc, 0) << "native TU failed to compile:\n" << Src;
  std::remove(Obj.c_str());
#endif
}

INSTANTIATE_TEST_SUITE_P(PaperKernels, NativeTUCompiles,
                         ::testing::Values("ssymv", "syprd", "mttkrp3"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });
