//===- bench/bench_trace_overhead.cpp - observability overhead --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the host wall-clock cost of the observability subsystem and
/// verifies its two contracts on a real workload:
///
///   1. Disabled is free: with no recorder attached, every
///      instrumentation site reduces to one null-pointer test. The
///      simulation (output + cycle ledger, bit for bit) must match the
///      pre-observability runtime, and the target overhead of the guards
///      themselves is under 2%.
///   2. Observation does not perturb: attaching a TraceRecorder and a
///      MetricsRegistry must leave output and ledger bit-identical -
///      tracing a run never changes the run. On top of that, the
///      wall-normalized trace export and the metrics export must be
///      byte-identical across repeated traced runs (the determinism
///      contract -threads=N relies on).
///
/// Usage: bench_trace_overhead [N] [steps] [reps]   (default 256 6 5)
///
/// Exits nonzero on any determinism violation; prints overhead.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"
#include "driver/Workloads.h"
#include "invariance/Invariance.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace f90y;
using namespace f90y::driver;

namespace {

struct TracedRun {
  bench::Sample S;
  size_t Events = 0;
};

TracedRun runTraced(const std::string &Source, const cm2::CostModel &Machine,
                    int Reps) {
  TracedRun R;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    // Fresh recorders and a fresh compile per rep, as f90yc -trace= has.
    observe::TraceRecorder Trace;
    observe::MetricsRegistry Metrics;
    Compilation C(CompileOptions::forProfile(Profile::F90Y, Machine));
    C.setObservability(&Trace, &Metrics);
    if (!C.compile(Source)) {
      std::fprintf(stderr, "compile failed:\n%s", C.diags().str().c_str());
      std::exit(1);
    }
    ExecutionOptions EOpts;
    EOpts.Threads = 1;
    EOpts.Trace = &Trace;
    EOpts.Metrics = &Metrics;
    bench::Sample S =
        bench::measure(C.artifacts().Compiled.Program, Machine, EOpts, 1);
    if (Rep == 0 || S.Millis < R.S.Millis)
      R.S.Millis = S.Millis;
    R.S.Report = S.Report;
    R.Events = Trace.eventCount();
  }
  return R;
}

} // namespace

int main(int argc, char **argv) {
  int64_t N = argc > 1 ? std::atoll(argv[1]) : 256;
  int64_t Steps = argc > 2 ? std::atoll(argv[2]) : 6;
  int Reps = argc > 3 ? std::atoi(argv[3]) : 5;
  if (Reps < 1)
    Reps = 1;

  cm2::CostModel Machine; // Full 2048-PE slicewise CM-2 at 7 MHz.
  std::printf("observability overhead (SWE %lldx%lld, %lld steps, %u PEs, "
              "best of %d)\n\n",
              static_cast<long long>(N), static_cast<long long>(N),
              static_cast<long long>(Steps), Machine.NumPEs, Reps);

  std::string Src = sweSource(N, Steps);
  auto C = bench::compileOrDie(Src, Profile::F90Y, Machine);
  const host::HostProgram &Program = C->artifacts().Compiled.Program;

  // Baseline: no recorder attached (the shipped default).
  ExecutionOptions Plain;
  Plain.Threads = 1; // Serial: measures per-site overhead, not pool noise.
  bench::Sample Base = bench::measure(Program, Machine, Plain, Reps);

  // Traced: full dual-clock trace + metrics on every rep.
  TracedRun Traced = runTraced(Src, Machine, Reps);

  bool Ok = true;
  if (std::string Diff = invariance::diffReport(Base.Report, Traced.S.Report);
      !Diff.empty()) {
    std::fprintf(stderr, "FAIL: tracing changed the simulation: %s\n",
                 Diff.c_str());
    Ok = false;
  }
  // The normalized trace and metrics exports are a pure function of the
  // (source, machine) pair: every rep exports the same bytes (less the
  // peac.engine.* routine-cache counters, which see earlier reps).
  const invariance::Leg Serial{{"-threads=1", "-comm=sync"}};
  const invariance::Record First = invariance::run(Src, Serial, true);
  for (int Rep = 1; Rep < Reps && Ok; ++Rep)
    if (std::string Diff =
            invariance::diffHost(First, invariance::run(Src, Serial, true));
        !Diff.empty()) {
      std::fprintf(stderr, "FAIL: repeated traced runs differ: %s\n",
                   Diff.c_str());
      Ok = false;
    }

  double OverheadPct =
      Base.Millis > 0 ? (Traced.S.Millis / Base.Millis - 1.0) * 100.0 : 0.0;
  std::printf("  %-28s %9.2f ms\n", "no recorder (fast path)", Base.Millis);
  std::printf("  %-28s %9.2f ms  (%zu events)\n", "trace + metrics attached",
              Traced.S.Millis, Traced.Events);
  std::printf("\n  tracing overhead: %+.2f%% (disabled-path target < 2%%)\n",
              OverheadPct);
  if (Ok)
    std::printf("  output and ledger: bit-identical traced vs untraced\n"
                "  normalized trace and metrics exports: byte-identical "
                "across %d reps\n",
                Reps);
  // As in bench_fault_overhead, the wall-clock number is informational;
  // the determinism checks are the binding ones.
  return Ok ? 0 : 1;
}
