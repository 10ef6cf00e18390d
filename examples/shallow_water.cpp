//===- examples/shallow_water.cpp - the paper's SWE benchmark ---------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's headline workload: the shallow-water equations, "a series
/// of circular shifts interspersed with blocks of local computation, and
/// so ... an ideal problem for a SIMD, data-parallel machine like the
/// CM/2". Compiles and runs SWE on the full simulated machine under all
/// three compiler profiles, each with f90yc's knobs for that profile
/// (driver::Config), and prints the sustained-GFLOPS comparison. Exits 1
/// if a compile or run fails, or if a profile's final mean pressure is
/// more than 1e-6 (relative) off the reference interpreter's.
///
/// Usage: shallow_water [N] [steps]   (default 256 4)
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
  int64_t N = argc > 1 ? std::atoll(argv[1]) : 256;
  int64_t Steps = argc > 2 ? std::atoll(argv[2]) : 4;
  std::string Src = sweSource(N, Steps);
  Config Cfg; // f90yc's defaults: the full 2048-PE CM-2.

  std::printf("shallow-water equations, %lldx%lld grid, %lld timesteps, "
              "%u PEs\n\n",
              static_cast<long long>(N), static_cast<long long>(N),
              static_cast<long long>(Steps), Cfg.machine().NumPEs);

  // Reference flop count (the benchmark numerator) and final pressure.
  Compilation RC(Cfg.compileOptions());
  if (!RC.compile(Src)) {
    std::fprintf(stderr, "compile failed:\n%s", RC.diags().str().c_str());
    return 1;
  }
  DiagnosticEngine Diags;
  interp::Interpreter Interp(Diags);
  if (!Interp.run(RC.artifacts().RawNIR)) {
    std::fprintf(stderr, "reference run failed:\n%s",
                 Diags.str().c_str());
    return 1;
  }
  uint64_t Flops = Interp.flopCount();
  double RefSum = 0;
  for (const interp::RtVal &V : Interp.getArray("p")->Data)
    RefSum += V.asReal();
  const double RefMean = RefSum / static_cast<double>(N * N);
  std::printf("useful flops: %llu\n\n",
              static_cast<unsigned long long>(Flops));

  struct NamedProfile {
    const char *Name;
    Profile P;
  };
  double MachineMean = 0;
  for (NamedProfile NP : {NamedProfile{"Fortran-90-Y", Profile::F90Y},
                          NamedProfile{"CMF-style", Profile::CMFStyle},
                          NamedProfile{"naive", Profile::Naive}}) {
    // Each profile as f90yc -profile= runs it (comm follows the profile).
    Cfg.Prof = NP.P;
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
    std::printf("%-14s %6.2f GFLOPS  (%zu PEAC routines, %.1f ms "
                "simulated)\n",
                NP.Name, Report->gflopsFor(Flops),
                C.artifacts().Compiled.Program.Routines.size(),
                Report->seconds() * 1e3);
    // Sanity: the simulated machine and the reference interpreter agree
    // on the final pressure field's mean.
    int H = Exec.executor().fieldHandle("p");
    MachineMean = Exec.runtime().reduce(runtime::ReduceOp::Sum, H) /
                  static_cast<double>(N * N);
    if (!(std::abs(MachineMean - RefMean) <= 1e-6 * std::abs(RefMean))) {
      std::fprintf(stderr, "%s: mean pressure %.17g, reference %.17g\n",
                   NP.Name, MachineMean, RefMean);
      return 1;
    }
  }

  std::printf("\nfinal mean pressure: machine %.6f, reference %.6f\n",
              MachineMean, RefMean);
  return 0;
}
