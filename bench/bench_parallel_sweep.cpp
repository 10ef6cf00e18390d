//===- bench/bench_parallel_sweep.cpp - host-thread scaling of the sim ------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures host wall-clock scaling of the simulated CM/2 when the PE
/// sweep and communication ops run on the support::ThreadPool, and
/// verifies the determinism contract: program output and every cycle
/// ledger field must be bit-identical at every thread count (the chunk
/// decomposition depends only on problem size, and per-chunk partials
/// are combined in chunk order).
///
/// Usage: bench_parallel_sweep [N] [steps] [maxthreads]   (default 512 6 hw)
///
/// Exits nonzero if any thread count diverges from the serial run.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"
#include "driver/Workloads.h"
#include "invariance/Invariance.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace f90y;
using namespace f90y::driver;

int main(int argc, char **argv) {
  int64_t N = argc > 1 ? std::atoll(argv[1]) : 512;
  int64_t Steps = argc > 2 ? std::atoll(argv[2]) : 6;
  unsigned HW = support::ThreadPool::defaultThreads();
  unsigned MaxThreads =
      argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : HW;
  if (MaxThreads == 0)
    MaxThreads = HW;

  cm2::CostModel Machine; // Full 2048-PE slicewise CM-2 at 7 MHz.

  std::printf("host-thread scaling of the CM/2 simulation (SWE %lldx%lld, "
              "%lld steps, %u PEs; %u hardware threads)\n\n",
              static_cast<long long>(N), static_cast<long long>(N),
              static_cast<long long>(Steps), Machine.NumPEs, HW);

  auto C = bench::compileOrDie(sweSource(N, Steps), Profile::F90Y, Machine);
  const host::HostProgram &Program = C->artifacts().Compiled.Program;

  std::vector<unsigned> Counts{1};
  for (unsigned T = 2; T < MaxThreads; T *= 2)
    Counts.push_back(T);
  if (MaxThreads > 1)
    Counts.push_back(MaxThreads);

  std::printf("  %8s %10s %9s\n", "threads", "ms", "speedup");
  bench::Sample Serial;
  bool Ok = true;
  for (unsigned T : Counts) {
    ExecutionOptions EOpts;
    EOpts.Threads = T;
    // Min of two runs: the simulation is deterministic, so variance is
    // host noise only.
    bench::Sample S = bench::measure(Program, Machine, EOpts, 2);
    if (T == 1)
      Serial = S;
    const std::string Diff = invariance::diffReport(Serial.Report, S.Report);
    std::printf("  %8u %10.2f %8.2fx%s\n", T, S.Millis,
                Serial.Millis / S.Millis, Diff.empty() ? "" : "  MISMATCH");
    if (!Diff.empty()) {
      Ok = false;
      std::fprintf(stderr, "determinism violation at %u threads: %s\n", T,
                   Diff.c_str());
    }
  }

  if (Ok)
    std::printf("\nall thread counts produced identical output and cycle "
                "ledger\n");
  return Ok ? 0 : 1;
}
