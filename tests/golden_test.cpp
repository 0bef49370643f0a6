//===- tests/golden_test.cpp ----------------------------------*- C++ -*-===//
///
/// Pins the front end's output (analysis, symmetrize, the Section 4.2
/// passes and both lowerings) so a change meant to speed it up cannot
/// move it unnoticed:
///
///  - the full `CompileResult::report()` of the eight paper kernels,
///    compared with the checked-in `tests/golden/paper_kernels.txt`
///    (the report's "naive kernel" section is `Naive.str()`);
///  - an FNV-1a-64 digest of `report()` for the same kernels under
///    each of the ten single-switch-off `PipelineOptions`;
///  - an FNV-1a-64 digest of `report()` for the fuzz corpus's einsums
///    `makeCase(S).E`, S = 0-2999.
///
/// A change that means to move the front end regenerates all three:
///
///   SYSTEC_GOLDEN_UPDATE=1 ./golden_test
///
/// rewrites the text file and prints the two digests to paste below.
///
//===----------------------------------------------------------------------===//

#include "FuzzHarness.h"

#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace systec;

#ifndef SYSTEC_GOLDEN_DIR
#error "golden_test requires SYSTEC_GOLDEN_DIR"
#endif

namespace {

const char *const FuzzCorpusDigest = "78895e4184295796";
const char *const AblationDigest = "c84fb4193c0e9b3b";

std::vector<std::pair<std::string, Einsum>> paperKernels() {
  return {{"ssymv", makeSsymv()},     {"bellmanford", makeBellmanFord()},
          {"syprd", makeSyprd()},     {"ssyrk", makeSsyrk()},
          {"ttm", makeTtm()},         {"mttkrp3", makeMttkrp(3)},
          {"mttkrp4", makeMttkrp(4)}, {"mttkrp5", makeMttkrp(5)}};
}

/// FNV-1a-64 over \p Bytes, continuing from \p Hash.
uint64_t fnv1a(uint64_t Hash, const std::string &Bytes) {
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

bool updating() { return std::getenv("SYSTEC_GOLDEN_UPDATE") != nullptr; }

/// Every single-switch-off pipeline, in declaration order.
std::vector<PipelineOptions> ablations() {
  std::vector<PipelineOptions> Out;
  for (bool PipelineOptions::*Switch :
       {&PipelineOptions::VisibleOutputRestriction,
        &PipelineOptions::DistributiveGrouping,
        &PipelineOptions::CommonAccessElimination,
        &PipelineOptions::ConsolidateBlocks,
        &PipelineOptions::GroupAcrossBranches,
        &PipelineOptions::SimplicialLut, &PipelineOptions::DiagonalSplit,
        &PipelineOptions::Concordize, &PipelineOptions::Workspace,
        &PipelineOptions::Parallelize}) {
    PipelineOptions O;
    O.*Switch = false;
    Out.push_back(O);
  }
  return Out;
}

} // namespace

TEST(Golden, PaperKernelReportsMatchCheckedInText) {
  std::ostringstream Got;
  for (const auto &[Name, E] : paperKernels())
    Got << "##### " << Name << "\n" << compileEinsum(E).report();
  const std::string Path = std::string(SYSTEC_GOLDEN_DIR) +
                           "/paper_kernels.txt";
  if (updating()) {
    std::ofstream(Path) << Got.str();
    std::printf("rewrote %s\n", Path.c_str());
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path;
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got.str(), Want.str())
      << "front-end output moved; if intended, regenerate with "
         "SYSTEC_GOLDEN_UPDATE=1 ./golden_test";
}

TEST(Golden, AblationMatrixDigest) {
  uint64_t Hash = FnvBasis;
  for (const PipelineOptions &O : ablations())
    for (const auto &[Name, E] : paperKernels())
      Hash = fnv1a(Hash, compileEinsum(E, O).report());
  if (updating())
    std::printf("AblationDigest = \"%s\"\n", hex(Hash).c_str());
  else
    EXPECT_EQ(hex(Hash), AblationDigest);
}

TEST(Golden, FuzzCorpusDigest) {
  uint64_t Hash = FnvBasis;
  for (uint64_t S = 0; S < 3000; ++S)
    Hash = fnv1a(Hash, compileEinsum(fuzzharness::makeCase(S).E).report());
  if (updating())
    std::printf("FuzzCorpusDigest = \"%s\"\n", hex(Hash).c_str());
  else
    EXPECT_EQ(hex(Hash), FuzzCorpusDigest);
}
