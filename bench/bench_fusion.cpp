//===- bench/bench_fusion.cpp - cross-statement elementwise fusion ----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what cross-statement elementwise fusion (f90yc -fuse=) buys
/// on the workload it exists for: an SWE timestep loop written the way
/// application programmers write it, as chains of named single-use
/// elementwise temporaries (sweTempsSource). Per-statement compilation
/// materializes every link of every chain as a full-grid store plus a
/// reload; fusion folds each chain into one whole-expression MOVE and
/// deletes the temporaries outright.
///
/// Legs:
///
///   fuse=off   the F90Y pipeline with Transforms.Fusion disabled
///   fuse=on    the default pipeline (fusion between mask-sections and
///              domain blocking)
///
/// Binding checks (exit nonzero on any failure):
///   - fuse.temps_eliminated > 0 and fuse.moves_fused > 0 on this source
///   - the invariance harness over bench::switchMatrix: fuse=on and
///     fuse=off agree in output and the logical values of every field at
///     each -comm=sync/runtime-overlap x -faults=off/on setting (fusion
///     never reassociates: the consumer evaluates the producer's exact
///     expression tree), and each of those 8 legs holds the Host contract
///     at -threads=1/8 x -exec=compiled/interp (output, raw field
///     storage, ledger and fault counters bitwise, traced or not, and
///     killed halfway and restored)
///   - simulated NodeCycles strictly drop under fusion (the cost model
///     stops charging the temporaries' stores and reloads)
///   - warm-sweep wall-clock speedup >= 1.3x (the ISSUE 9 acceptance
///     bar; dispatch count and memory traffic both shrink)
///
/// Usage: bench_fusion [N] [steps] [reps]   (default 128 4 3)
///
/// Writes BENCH_fusion.json.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"
#include "driver/Workloads.h"
#include "observe/Metrics.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace f90y;
using namespace f90y::driver;

namespace {

/// Compiles \p Source with fusion forced on or off (everything else the
/// F90Y profile); exits on compile failure. Metrics, when given, receive
/// the pass gauges (fuse.temps_eliminated and friends).
std::unique_ptr<Compilation> compileWithFusion(const std::string &Source,
                                               const cm2::CostModel &Machine,
                                               bool Fuse,
                                               observe::MetricsRegistry *M) {
  CompileOptions Opts = CompileOptions::forProfile(Profile::F90Y, Machine);
  Opts.Transforms.Fusion = Fuse;
  auto C = std::make_unique<Compilation>(Opts);
  if (M)
    C->setObservability(nullptr, M);
  if (!C->compile(Source)) {
    std::fprintf(stderr, "compile (fuse=%s) failed:\n%s", Fuse ? "on" : "off",
                 C->diags().str().c_str());
    std::exit(1);
  }
  return C;
}

} // namespace

int main(int argc, char **argv) {
  int64_t N = argc > 1 ? std::atoll(argv[1]) : 128;
  int Steps = argc > 2 ? std::atoi(argv[2]) : 4;
  int Reps = argc > 3 ? std::atoi(argv[3]) : 3;
  if (Reps < 1)
    Reps = 1;

  cm2::CostModel Machine; // The stock 2048-PE CM/2.
  std::string Source = sweTempsSource(N, Steps);

  observe::MetricsRegistry FuseMetrics;
  auto Fused = compileWithFusion(Source, Machine, true, &FuseMetrics);
  auto Unfused = compileWithFusion(Source, Machine, false, nullptr);

  uint64_t TempsEliminated =
      static_cast<uint64_t>(FuseMetrics.value("fuse.temps_eliminated"));
  uint64_t MovesFused =
      static_cast<uint64_t>(FuseMetrics.value("fuse.moves_fused"));
  uint64_t BytesSaved =
      static_cast<uint64_t>(FuseMetrics.value("fuse.bytes_saved"));
  auto InstrCount = [](const Compilation &C) {
    uint64_t Total = 0;
    for (const peac::Routine &R : C.artifacts().Compiled.Program.Routines)
      Total += R.bodyInstructionCount();
    return Total;
  };
  size_t FusedRoutines = Fused->artifacts().Compiled.Program.Routines.size();
  size_t UnfusedRoutines =
      Unfused->artifacts().Compiled.Program.Routines.size();
  uint64_t FusedInstrs = InstrCount(*Fused);
  uint64_t UnfusedInstrs = InstrCount(*Unfused);

  std::printf("cross-statement elementwise fusion "
              "(temp-chain SWE %lldx%lld, %d steps, best of %d)\n",
              static_cast<long long>(N), static_cast<long long>(N), Steps,
              Reps);
  std::printf("  temps eliminated: %llu   moves fused: %llu   "
              "bytes saved/step: %llu\n",
              static_cast<unsigned long long>(TempsEliminated),
              static_cast<unsigned long long>(MovesFused),
              static_cast<unsigned long long>(BytesSaved));
  std::printf("  PEAC routines: %zu (fuse=on) vs %zu (fuse=off), "
              "instructions: %llu vs %llu\n\n",
              FusedRoutines, UnfusedRoutines,
              static_cast<unsigned long long>(FusedInstrs),
              static_cast<unsigned long long>(UnfusedInstrs));

  bool Ok = true;
  if (TempsEliminated == 0 || MovesFused == 0) {
    std::fprintf(stderr, "FAIL: fusion eliminated no temporaries on the "
                         "temp-chain SWE source\n");
    Ok = false;
  }
  // Domain blocking already merges consecutive computation MOVEs into
  // multi-clause routines in both legs, so the routine count can tie;
  // the statement-level win shows up as eliminated store/reload
  // instructions inside the blocked routines.
  if (FusedInstrs >= UnfusedInstrs) {
    std::fprintf(stderr,
                 "FAIL: fusion did not reduce the PEAC instruction count\n");
    Ok = false;
  }

  // Warm-sweep measurement: the steady state of a timestep loop (routine
  // cache warm after the first dispatch), serial host sweep so wall time
  // is comparable across legs.
  ExecutionOptions Warm;
  Warm.Threads = 1;
  bench::Sample FusedRun =
      bench::measure(Fused->artifacts().Compiled.Program, Machine, Warm, Reps);
  bench::Sample UnfusedRun = bench::measure(
      Unfused->artifacts().Compiled.Program, Machine, Warm, Reps);
  const runtime::CycleLedger &FusedLedger = FusedRun.Report.Ledger,
                             &UnfusedLedger = UnfusedRun.Report.Ledger;

  double Speedup =
      FusedRun.Millis > 0 ? UnfusedRun.Millis / FusedRun.Millis : 0;
  double SimSpeedup = FusedLedger.total() > 0
                          ? UnfusedLedger.total() / FusedLedger.total()
                          : 0;
  std::printf("  %-24s %9.2f ms   %14.0f node cycles\n", "fuse=off",
              UnfusedRun.Millis, UnfusedLedger.NodeCycles);
  std::printf("  %-24s %9.2f ms   %14.0f node cycles\n", "fuse=on",
              FusedRun.Millis, FusedLedger.NodeCycles);
  std::printf("  warm sweep speedup: %.2fx wall (target >= 1.3x), "
              "%.2fx simulated\n\n",
              Speedup, SimSpeedup);

  if (FusedLedger.NodeCycles >= UnfusedLedger.NodeCycles) {
    std::fprintf(stderr, "FAIL: fusion did not reduce simulated NodeCycles\n");
    Ok = false;
  }
  if (Speedup < 1.3) {
    std::fprintf(stderr, "FAIL: warm sweep speedup %.2fx below the 1.3x "
                         "target\n",
                 Speedup);
    Ok = false;
  }

  // Equivalence matrix: fuse=on must match fuse=off bit for bit at every
  // comm x faults setting, and within each leg the host knobs (threads,
  // engine) may not move a byte of output, field storage or ledger.
  const invariance::Matrix M = bench::switchMatrix("-fuse=on", "-fuse=off");
  const size_t Combos = M.Model.size() / 2 * invariance::hostLegs().size();
  if (std::string Diff = invariance::check(Source, M).Divergence;
      !Diff.empty()) {
    std::fprintf(stderr, "FAIL: %s\n", Diff.c_str());
    Ok = false;
  } else {
    std::printf("  equivalence: %zu threads x engine x comm x faults combos "
                "bit-identical\n",
                Combos);
  }

  bench::Report Rep("fusion");
  Rep.set("n", N);
  Rep.set("steps", Steps);
  Rep.set("reps", Reps);
  Rep.set("temps_eliminated", TempsEliminated);
  Rep.set("moves_fused", MovesFused);
  Rep.set("bytes_saved", BytesSaved);
  Rep.set("routines_fused", static_cast<uint64_t>(FusedRoutines));
  Rep.set("routines_unfused", static_cast<uint64_t>(UnfusedRoutines));
  Rep.set("instrs_fused", FusedInstrs);
  Rep.set("instrs_unfused", UnfusedInstrs);
  Rep.set("fused_ms", FusedRun.Millis);
  Rep.set("unfused_ms", UnfusedRun.Millis);
  Rep.set("speedup", Speedup);
  Rep.set("sim_speedup", SimSpeedup);
  Rep.set("node_cycles_fused", FusedLedger.NodeCycles);
  Rep.set("node_cycles_unfused", UnfusedLedger.NodeCycles);
  Rep.set("equivalence_combos", static_cast<uint64_t>(Combos));
  Rep.set("bit_identical", std::string(Ok ? "yes" : "no"));
  Rep.write();
  return Ok ? 0 : 1;
}
