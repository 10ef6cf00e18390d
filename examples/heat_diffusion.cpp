//===- examples/heat_diffusion.cpp - stencil relaxation demo ----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Jacobi heat-diffusion stencil: the canonical "grid-local computation
/// plus nearest-neighbor communication" workload of Section 2.2. The demo
/// sweeps the machine size, showing how the same compiled program scales
/// with PEs (the layout, subgrid sizing, and cycle model all come from the
/// runtime geometry). Each size runs with f90yc's knobs (driver::Config);
/// the demo exits 1 if a compile or run fails, or if a size's final
/// maximum temperature is more than 1e-6 (relative) off the reference
/// interpreter's.
///
/// Usage: heat_diffusion [N] [steps]   (default 128 8)
///
//===----------------------------------------------------------------------===//

#include "driver/Config.h"
#include "driver/Workloads.h"
#include "interp/Interpreter.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace f90y;
using namespace f90y::driver;

int main(int argc, char **argv) {
  int64_t N = argc > 1 ? std::atoll(argv[1]) : 128;
  int64_t Steps = argc > 2 ? std::atoll(argv[2]) : 8;
  std::string Src = heatSource(N, Steps);

  std::printf("Jacobi heat diffusion, %lldx%lld grid, %lld steps\n\n",
              static_cast<long long>(N), static_cast<long long>(N),
              static_cast<long long>(Steps));

  // Reference flops (machine-size independent) and final temperatures.
  Config Cfg; // f90yc's defaults; -pes= varies below.
  Compilation RC(Cfg.compileOptions());
  if (!RC.compile(Src)) {
    std::fprintf(stderr, "compile failed:\n%s", RC.diags().str().c_str());
    return 1;
  }
  DiagnosticEngine Diags;
  interp::Interpreter Interp(Diags);
  if (!Interp.run(RC.artifacts().RawNIR)) {
    std::fprintf(stderr, "reference run failed:\n%s", Diags.str().c_str());
    return 1;
  }
  uint64_t Flops = Interp.flopCount();
  double RefMax = 0;
  for (const interp::RtVal &V : Interp.getArray("u")->Data)
    RefMax = V.asReal() > RefMax ? V.asReal() : RefMax;

  std::printf("  %6s %10s %10s %10s %12s\n", "PEs", "subgrid", "GFLOPS",
              "comm%", "time (ms)");
  double MachineMax = 0;
  for (unsigned PEs : {32u, 128u, 512u, 2048u}) {
    Cfg.Pes = PEs;
    Compilation C(Cfg.compileOptions());
    if (!C.compile(Src)) {
      std::fprintf(stderr, "compile failed:\n%s", C.diags().str().c_str());
      return 1;
    }
    Execution Exec(Cfg.machine(), Cfg.executionOptions());
    auto Report = Exec.run(C.artifacts().Compiled.Program);
    if (!Report) {
      std::fprintf(stderr, "run failed:\n%s", Exec.diags().str().c_str());
      return 1;
    }
    int64_t Subgrid = N * N / PEs;
    if (Subgrid < 1)
      Subgrid = 1;
    std::printf("  %6u %10lld %10.2f %9.1f%% %12.2f\n", PEs,
                static_cast<long long>(Subgrid), Report->gflopsFor(Flops),
                100.0 * Report->Ledger.CommCycles / Report->Ledger.total(),
                Report->seconds() * 1e3);
    // Verify the machine result against the reference at every size.
    int H = Exec.executor().fieldHandle("u");
    MachineMax = Exec.runtime().reduce(runtime::ReduceOp::Max, H);
    if (!(std::abs(MachineMax - RefMax) <= 1e-6 * std::abs(RefMax))) {
      std::fprintf(stderr, "%u PEs: max temperature %.17g, reference %.17g\n",
                   PEs, MachineMax, RefMax);
      return 1;
    }
  }

  std::printf("\nfinal max temperature: machine %.6f, reference %.6f\n",
              MachineMax, RefMax);
  return 0;
}
