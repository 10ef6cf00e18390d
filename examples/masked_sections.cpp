//===- examples/masked_sections.cpp - Figure 10 walk-through ----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stage-by-stage walk through the paper's Figure 10: disjoint strided
/// array-section assignments become full-shape masked MOVEs, block
/// together into a single computation burst, and compile to the masked
/// PEAC pseudocode of the figure ("Move (mask?A:5*A) into B").
///
//===----------------------------------------------------------------------===//

#include "driver/Config.h"
#include "driver/Workloads.h"
#include "nir/Printer.h"
#include "transform/Transforms.h"

#include <cstdio>

using namespace f90y;
using namespace f90y::driver;

int main() {
  std::printf("Figure 10 walk-through: masked-section blocking\n\n");
  std::printf("source:\n%s\n", figure10Source().c_str());

  Config Cfg; // f90yc's defaults on 16 PEs.
  Cfg.Pes = 16;
  Compilation C(Cfg.compileOptions());
  if (!C.compile(figure10Source())) {
    std::fprintf(stderr, "compile failed:\n%s", C.diags().str().c_str());
    return 1;
  }

  std::printf("--- stage 1: lowered NIR (sections still restrictors) "
              "---\n%s\n",
              nir::printImp(C.artifacts().RawNIR).c_str());
  std::printf("--- stage 2: after masking + blocking (one masked MOVE "
              "over S) ---\n%s\n",
              nir::printImp(C.artifacts().OptimizedNIR).c_str());
  std::printf("--- stage 3: PEAC (the mask is computed from the "
              "coordinate subgrid) ---\n%s\n",
              C.artifacts().Compiled.peacListing().c_str());

  transform::PhaseStats Stats =
      transform::countPhases(C.artifacts().OptimizedNIR);
  std::printf("phases: %u computation, %u communication  "
              "(paper: \"two PEAC routines\")\n\n",
              Stats.ComputationPhases, Stats.CommunicationPhases);

  Execution Exec(Cfg.machine(), Cfg.executionOptions());
  auto Report = Exec.run(C.artifacts().Compiled.Program);
  if (!Report) {
    std::fprintf(stderr, "run failed:\n%s", Exec.diags().str().c_str());
    return 1;
  }
  // Show a slice of B: odd rows hold n (7), even rows hold 5n (35).
  int H = Exec.executor().fieldHandle("b");
  std::printf("b(1,1)=%g  b(2,1)=%g  b(31,5)=%g  b(32,5)=%g\n",
              Exec.runtime().readElement(H, {0, 0}),
              Exec.runtime().readElement(H, {1, 0}),
              Exec.runtime().readElement(H, {30, 4}),
              Exec.runtime().readElement(H, {31, 4}));
  return 0;
}
