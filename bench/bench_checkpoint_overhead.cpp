//===- bench/bench_checkpoint_overhead.cpp - checkpoint write cost ----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the host wall-clock cost of periodic checkpointing on the
/// shallow-water time-stepping workload. Checkpoint writes happen on the
/// host side of the simulation (between steps) and charge no simulated
/// cycles, so the checkpointed run's output and cycle ledger must be
/// bit-identical to the plain run's - that is the hard gate here. The
/// wall target is under 2% overhead at -checkpoint-every=100; wall noise
/// on shared hosts makes that advisory (printed, not exit-coded).
///
/// Usage: bench_checkpoint_overhead [N] [steps] [reps]  (default 64 200 3)
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

namespace {

void removeGenerations(const std::string &Path, unsigned Keep) {
  std::remove(Path.c_str());
  for (unsigned I = 1; I <= Keep; ++I)
    std::remove((Path + "." + std::to_string(I)).c_str());
}

} // namespace

int main(int argc, char **argv) {
  int64_t N = argc > 1 ? std::atoll(argv[1]) : 64;
  int64_t Steps = argc > 2 ? std::atoll(argv[2]) : 200;
  int Reps = argc > 3 ? std::atoi(argv[3]) : 3;
  if (Reps < 1)
    Reps = 1;
  const uint64_t Every = 100;

  cm2::CostModel Machine; // Full 2048-PE slicewise CM-2 at 7 MHz.
  std::printf("checkpoint overhead on the SWE stepping loop "
              "(%lldx%lld, %lld steps, every %llu, %u PEs, best of %d)\n\n",
              static_cast<long long>(N), static_cast<long long>(N),
              static_cast<long long>(Steps),
              static_cast<unsigned long long>(Every), Machine.NumPEs,
              Reps);

  auto C = bench::compileOrDie(sweSource(N, Steps), Profile::F90Y, Machine);
  const host::HostProgram &Program = C->artifacts().Compiled.Program;

  ExecutionOptions Plain;
  Plain.Threads = 1; // Serial: measures write cost, not pool noise.
  bench::Sample Base = bench::measure(Program, Machine, Plain, Reps);

  ExecutionOptions Ckpted = Plain;
  Ckpted.Checkpoint.Path = "bench_ckpt_overhead.ck";
  Ckpted.Checkpoint.Every = Every;
  bench::Sample Ck = bench::measure(Program, Machine, Ckpted, Reps);
  removeGenerations(Ckpted.Checkpoint.Path, Ckpted.Checkpoint.Keep);

  // The hard gate: checkpoint writes live outside the simulated machine,
  // so everything the simulation produces must be untouched.
  if (std::string Diff = invariance::diffReport(Base.Report, Ck.Report);
      !Diff.empty()) {
    std::fprintf(stderr,
                 "FAIL: periodic checkpointing changed the simulation: %s\n",
                 Diff.c_str());
    return 1;
  }

  double OverheadPct =
      Base.Millis > 0 ? (Ck.Millis / Base.Millis - 1.0) * 100.0 : 0.0;
  std::printf("  %-28s %9.2f ms\n", "no checkpointing", Base.Millis);
  std::printf("  %-28s %9.2f ms\n", "checkpoint every 100 steps",
              Ck.Millis);
  std::printf("\n  overhead: %+.2f%% (target < 2%%)\n", OverheadPct);
  std::printf("  ledger and output: bit-identical\n");

  bench::Report Rep("checkpoint_overhead");
  Rep.set("grid_n", N);
  Rep.set("steps", Steps);
  Rep.set("checkpoint_every", Every);
  Rep.set("reps", Reps);
  Rep.set("base_ms", Base.Millis);
  Rep.set("checkpointed_ms", Ck.Millis);
  Rep.set("overhead_pct", OverheadPct);
  Rep.set("bit_identical", std::string("yes"));
  Rep.write();
  return 0;
}
