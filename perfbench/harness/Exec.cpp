//===- perfbench/harness/Exec.cpp - the swe, mswe and gridops workloads -----===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One caller runs one full-size program back to back (a closed loop):
/// set-up (compile + routine warmup) several times, then alternating
/// Execution::run reps at 1 and min(4, nproc) host threads, a fresh
/// Execution each, until the time is up. Every timed sample is bracketed
/// by runs of the calibration kernel and scaled by them (Calibrate.cpp).
/// The first run is checked against the oracle reference; every later run
/// must be bit-identical to it.
///
/// The traced run (--trace 1) times the compile stages, a few untraced
/// reps, and then traced 1-thread reps whose execute span it splits by
/// layer.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Programs.h"

#include "observe/Json.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "peac/Engine.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace perfbench;
using namespace f90y;
namespace js = f90y::observe::json;

namespace {

/// Set-up takes well under a millisecond to a few milliseconds, so it is
/// repeated in blocks of this length, one before every 1-thread timed run:
/// the samples then span the whole run, like the execute samples.
constexpr double SetupBlockSeconds = 0.02;
constexpr size_t MinReps = 3;
constexpr size_t MaxReps = 200;
constexpr size_t StageReps = 5;

struct Run {
  double Wall = 0;
  std::optional<driver::RunReport> Report;
  uint64_t Digest = 0;
  std::string Error;
};

StageTimes medianStages(const std::vector<StageTimes> &All) {
  auto Med = [&All](auto Get) {
    std::vector<double> V;
    for (const StageTimes &S : All)
      V.push_back(Get(S));
    return median(V);
  };
  StageTimes M;
  M.LexUs = Med([](const StageTimes &S) { return S.LexUs; });
  M.ParseUs = Med([](const StageTimes &S) { return S.ParseUs; });
  M.IntegrateUs = Med([](const StageTimes &S) { return S.IntegrateUs; });
  M.LowerUs = Med([](const StageTimes &S) { return S.LowerUs; });
  M.BackendUs = Med([](const StageTimes &S) { return S.BackendUs; });
  for (const auto &[Name, Us] : All.front().PassUs) {
    const std::string N = Name;
    M.PassUs[N] = Med([&N](const StageTimes &S) {
      auto It = S.PassUs.find(N);
      return It == S.PassUs.end() ? 0.0 : It->second;
    });
  }
  M.PeacInstructions = All.front().PeacInstructions;
  return M;
}

void printShares(const ExecuteSplit &S) {
  const double E = S.ExecuteMs > 0 ? S.ExecuteMs : 1;
  std::printf("execute split (traced, 1 thread, %.3f ms):\n", S.ExecuteMs);
  for (const auto &[Op, T] : S.Comm)
    std::printf("  share runtime.%-14s %6.1f%%  (%llu calls)\n", Op.c_str(),
                100 * T.Ms / E, static_cast<unsigned long long>(T.Calls));
  std::printf("  share peac.dispatch          %6.1f%%  (%llu calls)\n",
              100 * S.Peac.Ms / E,
              static_cast<unsigned long long>(S.Peac.Calls));
  std::printf("  share host.self              %6.1f%%\n",
              100 * S.HostSelfMs / E);
}

} // namespace

void perfbench::runExec(const Context &Ctx, Result &R) {
  const Program P = Ctx.Workload == "swe"    ? sweWorkload()
                    : Ctx.Workload == "mswe" ? msweWorkload()
                                             : gridopsWorkload(Ctx.Seed);
  const driver::CompileOptions COpts = pinnedCompileOptions();
  R.stamp("program", js::quote(P.Name));
  R.stamp("grid", js::number(P.N));
  R.stamp("steps", js::number(P.Steps));
  R.stamp("profile", "\"f90y\"");
  R.stamp("comm", "\"overlap\"");
  R.stamp("fuse", "\"on\"");
  R.stamp("layout", "\"infer\"");
  R.stamp("exec", "\"compiled\"");
  R.stamp("pes", js::number(uint64_t(COpts.Costs.NumPEs)));
  R.stamp("clock_mhz", js::number(COpts.Costs.ClockMHz));
  const ProgramRef *Ref = Ctx.Refs->find(P.Name);
  if (!Ref) {
    R.attempt("no oracle reference for " + P.Name);
    return;
  }
  const Clock::time_point Start = Clock::now();

  // Set-up: source text to a ready program (compile + routine warmup).
  // Each sample translates its routines into a cache of its own: the
  // process cache is keyed by routine address, and a new compilation's
  // routines can land where a freed one's were, which would skip the
  // translation set-up is meant to pay for.
  std::vector<double> SetupS;
  auto setup = [&]() -> std::unique_ptr<driver::Compilation> {
    peac::RoutineCache Cache;
    auto C = std::make_unique<driver::Compilation>(COpts);
    const Clock::time_point T0 = Clock::now();
    if (!C->compile(P.Source)) {
      R.attempt("compile failed: " + C->diags().str());
      return nullptr;
    }
    peac::ExecutionEngine(peac::EngineKind::Compiled, &Cache)
        .warmup(C->artifacts().Compiled.Program.Routines);
    SetupS.push_back(secondsSince(T0)); // Calibrated once bracketed.
    R.attempt(Cache.misses() == Cache.size() && Cache.hits() == 0
                  ? ""
                  : P.Name + ": set-up warmup did not translate every routine");
    return C;
  };
  const std::unique_ptr<driver::Compilation> C = setup();
  if (!C)
    return;
  const host::HostProgram &Prog = C->artifacts().Compiled.Program;
  // The measured program runs on the process cache (a warm routine cache).
  peac::ExecutionEngine(peac::EngineKind::Compiled).warmup(Prog.Routines);
  auto setupBlock = [&] {
    const Clock::time_point T0 = Clock::now();
    while (secondsSince(T0) < SetupBlockSeconds)
      if (!setup())
        return;
  };

  auto runOnce = [&](unsigned Threads, observe::TraceRecorder *T,
                     observe::MetricsRegistry *M, bool Oracle) {
    driver::ExecutionOptions EO = pinnedExecOptions(Threads);
    EO.Trace = T;
    EO.Metrics = M;
    driver::Execution E(COpts.Costs, EO);
    Run Out;
    const Clock::time_point T0 = Clock::now();
    auto Report = E.run(Prog);
    Out.Wall = secondsSince(T0);
    if (!Report) {
      Out.Error = "run failed: " + E.diags().str();
      return Out;
    }
    Out.Digest = runDigest(E, *Report, *Ref);
    if (Oracle)
      Out.Error = checkRun(E, *Report, *Ref);
    Out.Report = std::move(Report);
    return Out;
  };

  // The oracle-checked first run, then one at the multi-thread setting;
  // every later run must match the first bit for bit (the determinism
  // contract across thread counts and tracing). Both are untimed warm-up:
  // first runs pay one-off page faults and thread start-up.
  Run First = runOnce(1, nullptr, nullptr, /*Oracle=*/true);
  R.attempt(First.Error.empty() ? "" : P.Name + ": " + First.Error);
  if (!First.Report)
    return;
  auto same = [&](const Run &X, const char *What) {
    if (!X.Error.empty())
      return P.Name + ": " + X.Error;
    if (X.Digest != First.Digest)
      return P.Name + ": " + What + " differs from the 1-thread run";
    return std::string();
  };
  R.attempt(same(runOnce(Ctx.ThreadsMt, nullptr, nullptr, false),
                 "multi-thread run"));
  SetupS.clear(); // The first, cold set-up is not a calibrated sample.
  // Wall times as measured (Raw*) and calibrated to the host's nominal
  // speed by the mean of a calibration at the same thread count just before
  // and just after; the 1-thread one brackets the set-up block too.
  std::vector<double> Exec1, ExecMt, Raw1, RawMt, Cal1, CalMt;
  auto timed = [&](unsigned Threads, const char *What,
                   std::vector<double> &Raw, std::vector<double> &Out) {
    const size_t FirstSetup = SetupS.size();
    Run X;
    const double Cal = bracketed(Threads, [&] {
      if (Threads == 1)
        setupBlock();
      X = runOnce(Threads, nullptr, nullptr, false);
    });
    R.attempt(Cal > 0 ? same(X, What) : "calibration kernel failed");
    (Threads == 1 ? Cal1 : CalMt).push_back(Cal);
    for (size_t I = FirstSetup; I < SetupS.size(); ++I)
      SetupS[I] = calibrated(SetupS[I], Cal, 1);
    Raw.push_back(X.Wall);
    Out.push_back(calibrated(X.Wall, Cal, Threads));
  };
  auto timedPair = [&] {
    timed(Ctx.ThreadsMt, "multi-thread run", RawMt, ExecMt);
    timed(1, "1-thread rerun", Raw1, Exec1);
  };

  const driver::RunReport &Rep = *First.Report;
  R.stamp("useful_flops", js::number(Ref->Flops));

  if (!Ctx.Trace) {
    // Peak RSS of the warmed-up program, before the calibration kernel
    // allocates its grids.
    const double PeakRssMb = peakRssMb();
    while ((Exec1.size() < MinReps || secondsSince(Start) < Ctx.Seconds) &&
           Exec1.size() < MaxReps)
      timedPair();
    printSamples("setup_s", SetupS);
    printSamples("exec_s", Exec1);
    printSamples("exec_s_mt", ExecMt);
    printSamples("raw exec_s", Raw1);
    printSamples("raw exec_s_mt", RawMt);
    printSamples("calibration", Cal1);
    printSamples("calibration_mt", CalMt);
    R.metric("setup_s", median(SetupS), "s");
    R.metric("exec_s", median(Exec1), "s");
    R.metric("exec_s_mt", median(ExecMt), "s");
    R.metric("sim_gflops", Rep.gflopsFor(Ref->Flops), "GFLOPS");
    R.metric("peak_rss_mb", PeakRssMb, "MB");
    R.stamp("reps", js::number(uint64_t(Exec1.size())));
    return;
  }

  // Traced run: compile stages, untraced reference reps, traced reps.
  std::vector<StageTimes> Stages;
  for (size_t I = 0; I < StageReps; ++I) {
    std::string Error;
    auto T = timeStages(P.Source, COpts, Error);
    if (!T) {
      R.attempt("staged compile failed: " + Error);
      return;
    }
    Stages.push_back(*T);
  }
  // pool.speedup from timed pairs over the first part of the budget;
  // then untraced and traced 1-thread reps interleaved, so the overhead
  // ratio compares runs made under the same conditions.
  const double UntracedBudget = Ctx.Seconds * 0.4;
  while (ExecMt.size() < 2 || secondsSince(Start) < UntracedBudget)
    timedPair();
  const double PoolSpeedup = median(Raw1) / median(RawMt);

  std::vector<ExecuteSplit> Splits;
  std::vector<double> TracedS, UntracedS;
  while (Splits.size() < 2 ||
         (secondsSince(Start) < Ctx.Seconds && Splits.size() < MaxReps)) {
    Run U = runOnce(1, nullptr, nullptr, false);
    R.attempt(same(U, "1-thread rerun"));
    UntracedS.push_back(U.Wall);
    observe::TraceRecorder Trace;
    observe::MetricsRegistry Metrics;
    Run T = runOnce(1, &Trace, &Metrics, false);
    std::string Error = same(T, "traced run");
    ExecuteSplit S;
    if (Error.empty() && !joinExecute(Trace, S, Error))
      Error = P.Name + ": trace join: " + Error;
    if (Error.empty())
      if (std::string A = checkAttribution(S, Metrics); !A.empty())
        Error = P.Name + ": attribution: " + A;
    R.attempt(Error);
    if (!Error.empty())
      return;
    Splits.push_back(std::move(S));
    TracedS.push_back(T.Wall);
  }
  // Report the traced rep whose execute span is the median one.
  std::sort(Splits.begin(), Splits.end(),
            [](const ExecuteSplit &A, const ExecuteSplit &B) {
              return A.ExecuteMs < B.ExecuteMs;
            });
  ExecuteSplit Split = Splits[Splits.size() / 2];
  const runtime::CycleLedger &L = Rep.Ledger;
  const double Sim[5] = {L.NodeCycles, L.CallCycles, L.CommCycles,
                         L.HostCycles, L.OverlappedCycles};
  std::copy(Sim, Sim + 5, Split.SimCycles);
  printShares(Split);
  reportLayers(R, medianStages(Stages), Split, PoolSpeedup,
               median(TracedS) / median(UntracedS), routineCacheHitRatio(),
               ServeLayers{});
}
