//===- core/Compiler.cpp --------------------------------------*- C++ -*-===//

#include "core/Compiler.h"

#include "observability/Trace.h"

#include <sstream>

namespace systec {

std::string CompileResult::report() const {
  std::ostringstream OS;
  OS << "=== einsum ===\n" << Source.str() << "\n";
  for (const auto &[Name, D] : Source.Decls) {
    OS << "  " << Name << ": " << D.Format.str() << ", fill "
       << D.Fill;
    if (D.Symmetry.hasSymmetry())
      OS << ", symmetry " << D.Symmetry.str();
    if (D.IsOutput)
      OS << " (output)";
    OS << "\n";
  }
  OS << "=== analysis ===\n" << Analysis.str() << "\n";
  OS << "=== symmetrized ===\n" << Sym.str();
  OS << "=== naive kernel ===\n" << Naive.str();
  OS << "=== optimized kernel ===\n" << Optimized.str();
  if (!Optimized.Transposes.empty()) {
    OS << "transposes:";
    for (const TransposeRequest &T : Optimized.Transposes)
      OS << " " << T.Alias << "<-" << T.Source;
    OS << "\n";
  }
  if (!Optimized.Splits.empty()) {
    OS << "splits:";
    for (const SplitRequest &S : Optimized.Splits)
      OS << " " << S.Alias;
    OS << "\n";
  }
  return OS.str();
}

CompileResult compileEinsum(const Einsum &E,
                            const PipelineOptions &Options) {
  // The whole front end is one trace span, with one child span per
  // phase. Not an ExecReport phase: lowering happens before any
  // Executor exists, so the phases land in CompileResult::Phases.
  obs::TraceScope Lower("lower", "compile");
  CompileResult R;
  R.Source = E;
  uint64_t Start = obs::nowNs();
  auto EndPhase = [&](const char *Name) {
    const uint64_t Now = obs::nowNs();
    R.Phases.push_back({Name, Now - Start});
    if (Lower.active())
      obs::emitSpan(Name, "compile", Start, Now - Start);
    Start = Now;
  };
  R.Analysis = analyzeSymmetry(E);
  EndPhase("analyze");
  R.Sym = symmetrize(E, R.Analysis);
  EndPhase("symmetrize");
  runPasses(R.Sym, Options);
  EndPhase("passes");
  R.Naive = lowerNaive(E);
  EndPhase("lower-naive");
  R.Optimized = lowerSymmetric(R.Sym);
  EndPhase("lower-optimized");
  return R;
}

} // namespace systec
