//===- examples/quickstart.cpp - Fortran-90-Y in five minutes ---------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: compile a small data-parallel Fortran-90 program through
/// the full pipeline and run it on the simulated CM/2, showing each
/// stage's artifact — the lowered NIR, the transformed (blocked) NIR, the
/// generated PEAC node code, and the simulated execution report.
///
//===----------------------------------------------------------------------===//

#include "driver/Config.h"
#include "nir/Printer.h"

#include <cstdio>

using namespace f90y;
using namespace f90y::driver;

int main() {
  // A miniature of the paper's Section 2.1 example: whole-array
  // arithmetic plus a shifted update.
  const char *Source = R"f90(
program quickstart
integer, parameter :: n = 32
real a(n,n), b(n,n)
integer i, j
forall (i=1:n, j=1:n) a(i,j) = real(i) + 0.5*real(j)
b = 2.0*a + 1.0
b = b + cshift(a, 1, 1)
print *, 'corner:', b(1,1), b(n,n)
end program quickstart
)f90";

  // f90yc's defaults on a small machine, which keeps the demo instant;
  // leave Pes unset for the full 2048-PE CM-2. driver::applyFlag sets any
  // other f90yc knob (-profile=, -comm=, -threads=, ...).
  Config Cfg;
  Cfg.Pes = 16;

  Compilation C(Cfg.compileOptions());
  if (!C.compile(Source)) {
    std::fprintf(stderr, "compilation failed:\n%s",
                 C.diags().str().c_str());
    return 1;
  }

  std::printf("=== NIR after semantic lowering ===\n%s\n",
              nir::printImp(C.artifacts().RawNIR).c_str());
  std::printf("=== NIR after transformation (comm extraction, blocking) "
              "===\n%s\n",
              nir::printImp(C.artifacts().OptimizedNIR).c_str());
  std::printf("=== Generated PEAC node code ===\n%s\n",
              C.artifacts().Compiled.peacListing().c_str());

  Execution Exec(Cfg.machine(), Cfg.executionOptions());
  auto Report = Exec.run(C.artifacts().Compiled.Program);
  if (!Report) {
    std::fprintf(stderr, "execution failed:\n%s",
                 Exec.diags().str().c_str());
    return 1;
  }

  std::printf("=== Program output ===\n%s\n", Report->Output.c_str());
  std::printf("=== Simulated CM/2 execution ===\n");
  std::printf("node cycles:  %12.0f\n", Report->Ledger.NodeCycles);
  std::printf("call cycles:  %12.0f\n", Report->Ledger.CallCycles);
  std::printf("comm cycles:  %12.0f\n", Report->Ledger.CommCycles);
  std::printf("host cycles:  %12.0f\n", Report->Ledger.HostCycles);
  std::printf("flops:        %12llu\n",
              static_cast<unsigned long long>(Report->Ledger.Flops));
  std::printf("time:         %12.3f ms\n", Report->seconds() * 1e3);
  std::printf("executed:     %12.3f GFLOPS\n", Report->executedGflops());
  return 0;
}
