//===- bench/bench_fault_overhead.cpp - zero-fault plumbing overhead --------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the host wall-clock cost of the fault-injection plumbing when
/// no faults are enabled. The recoverable error path (RtStatus returns,
/// runFaultableComm gating, the per-dispatch injector probe) threads
/// through every hot operation of the simulated machine; with no injector
/// attached it must be free - the target is under 2% overhead against the
/// same simulation, and the simulated cycle ledger must be bit-identical
/// with and without an (all-zero-probability) injector attached.
///
/// Usage: bench_fault_overhead [N] [steps] [reps]   (default 256 6 5)
///
/// Exits nonzero if the ledger diverges; prints the overhead percentage.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"
#include "driver/Workloads.h"
#include "invariance/Invariance.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace f90y;
using namespace f90y::driver;

int main(int argc, char **argv) {
  int64_t N = argc > 1 ? std::atoll(argv[1]) : 256;
  int64_t Steps = argc > 2 ? std::atoll(argv[2]) : 6;
  int Reps = argc > 3 ? std::atoi(argv[3]) : 5;
  if (Reps < 1)
    Reps = 1;

  cm2::CostModel Machine; // Full 2048-PE slicewise CM-2 at 7 MHz.
  std::printf("zero-fault overhead of the recoverable error path "
              "(SWE %lldx%lld, %lld steps, %u PEs, best of %d)\n\n",
              static_cast<long long>(N), static_cast<long long>(N),
              static_cast<long long>(Steps), Machine.NumPEs, Reps);

  auto C = bench::compileOrDie(sweSource(N, Steps), Profile::F90Y, Machine);
  const host::HostProgram &Program = C->artifacts().Compiled.Program;

  // Baseline: no injector attached at all (the default fast path).
  ExecutionOptions Plain;
  Plain.Threads = 1; // Serial: measures per-op overhead, not pool noise.
  bench::Sample Base = bench::measure(Program, Machine, Plain, Reps);

  // Worst honest case of the plumbing: an injector IS attached (an
  // all-zero spec attaches none), so every transient gate and dispatch
  // probe runs - but at the smallest positive probability (~5e-324) none
  // ever fires, so the simulation itself must not change.
  ExecutionOptions Probed = Plain;
  std::string Error;
  if (!support::FaultSpec::parse("router-drop:5e-324,grid-timeout:5e-324",
                                 Probed.Faults, Error)) {
    std::fprintf(stderr, "spec: %s\n", Error.c_str());
    return 1;
  }
  bench::Sample Probe = bench::measure(Program, Machine, Probed, Reps);

  if (std::string Diff = invariance::diffReport(Base.Report, Probe.Report);
      !Diff.empty()) {
    std::fprintf(stderr,
                 "FAIL: never-firing injector changed the simulation: %s\n",
                 Diff.c_str());
    return 1;
  }

  double OverheadPct =
      Base.Millis > 0 ? (Probe.Millis / Base.Millis - 1.0) * 100.0 : 0.0;
  std::printf("  %-28s %9.2f ms\n", "no injector (fast path)", Base.Millis);
  std::printf("  %-28s %9.2f ms\n", "attached, never fires", Probe.Millis);
  std::printf("\n  overhead: %+.2f%% (target < 2%%)\n", OverheadPct);
  std::printf("  ledger and output: bit-identical\n");
  // Wall-clock noise on shared hosts makes a hard exit-code gate flaky;
  // the binding checks above are the determinism ones.
  return 0;
}
