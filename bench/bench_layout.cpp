//===- bench/bench_layout.cpp - alignment/layout inference ------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what alignment/layout inference (f90yc -layout=) buys on the
/// workload it exists for: a shallow-water-style relaxation written in
/// the "neighbor field" idiom (misalignedSweSource), where every
/// per-step exchange moves a field that lives one grid cell off its
/// consumer. Canonical placement pays grid wires for all eight exchanges
/// per step; the alignment solver stores the neighbor and flux fields
/// pre-shifted, so materialization rewrites every exchange into a local
/// copy.
///
/// Legs:
///
///   layout=canonical   the F90Y pipeline with Transforms.Layout off
///   layout=infer       the default pipeline (layout between fusion and
///                      domain blocking)
///
/// Binding checks (exit nonzero on any failure):
///   - layout.fields_realigned > 0 and layout.comm_moves_localized > 0
///     on this source, and both zero on the stock SWE benchmark (its
///     update stencils pin everything canonical - inference must not
///     perturb a program it cannot improve)
///   - simulated CommCycles drop by >= 25% (the ISSUE 10 acceptance bar)
///   - the invariance harness over bench::switchMatrix: infer and
///     canonical agree in output and every field's values in logical
///     element order (so placement can never alias as divergence) at
///     each -comm=sync/runtime-overlap x -faults=off/on setting, and each
///     of those 8 legs holds the Host contract at -threads=1/8 x
///     -exec=compiled/interp (output, raw field storage, ledger and fault
///     counters bitwise, traced or not, and killed halfway and restored)
///
/// Usage: bench_layout [N] [steps] [reps]   (default 128 4 3)
///
/// Writes BENCH_layout.json.
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

/// Compiles \p Source with layout inference forced on or off (everything
/// else the F90Y profile); exits on compile failure. Metrics, when
/// given, receive the pass gauges (layout.fields_realigned and friends).
std::unique_ptr<Compilation> compileWithLayout(const std::string &Source,
                                               const cm2::CostModel &Machine,
                                               bool Infer,
                                               observe::MetricsRegistry *M) {
  CompileOptions Opts = CompileOptions::forProfile(Profile::F90Y, Machine);
  Opts.Transforms.Layout = Infer;
  auto C = std::make_unique<Compilation>(Opts);
  if (M)
    C->setObservability(nullptr, M);
  if (!C->compile(Source)) {
    std::fprintf(stderr, "compile (layout=%s) failed:\n%s",
                 Infer ? "infer" : "canonical", C->diags().str().c_str());
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
  std::string Source = misalignedSweSource(N, Steps);

  // Control leg: the stock SWE benchmark pins everything canonical (its
  // update stencils mix home-frame and shifted reads), so inference must
  // report zero realignments there.
  {
    observe::MetricsRegistry SweMetrics;
    compileWithLayout(sweSource(64, 1), Machine, true, &SweMetrics);
    if (SweMetrics.value("layout.fields_realigned") != 0 ||
        SweMetrics.value("layout.comm_moves_localized") != 0) {
      std::fprintf(stderr, "FAIL: layout inference perturbed the stock SWE "
                           "benchmark (expected canonical solution)\n");
      return 1;
    }
  }

  observe::MetricsRegistry LayoutMetrics;
  auto Inferred = compileWithLayout(Source, Machine, true, &LayoutMetrics);
  auto Canonical = compileWithLayout(Source, Machine, false, nullptr);

  uint64_t FieldsRealigned =
      static_cast<uint64_t>(LayoutMetrics.value("layout.fields_realigned"));
  uint64_t MovesLocalized = static_cast<uint64_t>(
      LayoutMetrics.value("layout.comm_moves_localized"));
  uint64_t CyclesSaved =
      static_cast<uint64_t>(LayoutMetrics.value("layout.comm_cycles_saved"));

  std::printf("alignment/layout inference "
              "(neighbor-field SWE %lldx%lld, %d steps, best of %d)\n",
              static_cast<long long>(N), static_cast<long long>(N), Steps,
              Reps);
  std::printf("  fields realigned: %llu   comm moves localized: %llu   "
              "est. comm cycles saved/step: %llu\n\n",
              static_cast<unsigned long long>(FieldsRealigned),
              static_cast<unsigned long long>(MovesLocalized),
              static_cast<unsigned long long>(CyclesSaved));

  bool Ok = true;
  if (FieldsRealigned == 0 || MovesLocalized == 0) {
    std::fprintf(stderr, "FAIL: layout inference localized no exchanges on "
                         "the neighbor-field SWE source\n");
    Ok = false;
  }

  // Warm-sweep measurement under the strict (sync) comm model, where
  // every eliminated exchange shows up in CommCycles undiluted.
  ExecutionOptions Warm;
  Warm.Threads = 1;
  bench::Sample InferRun = bench::measure(
      Inferred->artifacts().Compiled.Program, Machine, Warm, Reps);
  bench::Sample CanonRun = bench::measure(
      Canonical->artifacts().Compiled.Program, Machine, Warm, Reps);
  const runtime::CycleLedger &InferLedger = InferRun.Report.Ledger,
                             &CanonLedger = CanonRun.Report.Ledger;

  double CommInfer = InferLedger.CommCycles;
  double CommCanon = CanonLedger.CommCycles;
  double CommReduction =
      CommCanon > 0 ? (CommCanon - CommInfer) / CommCanon : 0;
  double SimSpeedup = InferLedger.total() > 0
                          ? CanonLedger.total() / InferLedger.total()
                          : 0;
  std::printf("  %-24s %9.2f ms   %14.0f comm cycles\n", "layout=canonical",
              CanonRun.Millis, CommCanon);
  std::printf("  %-24s %9.2f ms   %14.0f comm cycles\n", "layout=infer",
              InferRun.Millis, CommInfer);
  std::printf("  comm-cycle reduction: %.1f%% (target >= 25%%), "
              "%.2fx simulated total\n\n",
              CommReduction * 100, SimSpeedup);

  if (CommReduction < 0.25) {
    std::fprintf(stderr, "FAIL: comm-cycle reduction %.1f%% below the 25%% "
                         "target\n",
                 CommReduction * 100);
    Ok = false;
  }

  // Equivalence matrix: layout=infer must match layout=canonical bit for
  // bit (fields in logical order, so placement can never alias as
  // divergence) at every comm x faults setting, and within each leg the
  // host knobs (threads, engine) may not move a byte of output, field
  // storage or ledger.
  const invariance::Matrix M =
      bench::switchMatrix("-layout=infer", "-layout=canonical");
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

  bench::Report Rep("layout");
  Rep.set("n", N);
  Rep.set("steps", Steps);
  Rep.set("reps", Reps);
  Rep.set("fields_realigned", FieldsRealigned);
  Rep.set("comm_moves_localized", MovesLocalized);
  Rep.set("comm_cycles_saved", CyclesSaved);
  Rep.set("infer_ms", InferRun.Millis);
  Rep.set("canonical_ms", CanonRun.Millis);
  Rep.set("comm_cycles_infer", CommInfer);
  Rep.set("comm_cycles_canonical", CommCanon);
  Rep.set("comm_reduction", CommReduction);
  Rep.set("sim_speedup", SimSpeedup);
  Rep.set("equivalence_combos", static_cast<uint64_t>(Combos));
  Rep.set("bit_identical", std::string(Ok ? "yes" : "no"));
  Rep.write();
  return Ok ? 0 : 1;
}
