//===- tools/f90yc.cpp - the Fortran-90-Y command-line compiler -------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// f90yc: compile a Fortran-90 source file through the prototype pipeline
/// and (by default) run it on the simulated CM/2.
///
///   f90yc [options] file.f90
///
///   -emit-nir        print the lowered NIR and stop
///   -emit-blocked    print the transformed (blocked) NIR and stop
///   -emit-peac       print the generated PEAC node code and stop
///   -emit-host       print the generated host (FE) code and stop
///   -stats           print the cycle ledger (and any fault/recovery
///                    counters) after the run
///   -stats-json=F    write the run report (ledger breakdown, executed
///                    flops and GFLOPS, fault counters) to F as JSON
///   -trace=F         record a dual-clock trace (compiler phases on the
///                    host wall clock, execution on simulated cycles) and
///                    write Chrome trace-event JSON to F
///   -metrics=F       write the metrics registry (counters, gauges,
///                    histograms) to F as JSON
///   -checkpoint=F    snapshot the run state to F at outermost-loop step
///                    boundaries (atomically; previous generations rotate
///                    to F.1, F.2)
///   -checkpoint-every=N
///                    checkpoint every Nth step (default 1)
///   -restore=F       resume a previous run from checkpoint F; the
///                    restored run is bit-identical to one that never
///                    stopped
///   -crash-at-step=N crash-test hook: kill the process with exit code 3
///                    right after completing step N (after any checkpoint
///                    due at that boundary is on disk)
///
/// The compile and run knobs f90yc shares with f90y-serve are the rows of
/// the table in driver/Config.cpp; the usage text lists them.
///
/// Exit codes: 0 success, 1 compile/runtime/IO error, 2 bad usage or a
/// -restore= checkpoint that cannot be loaded, 3 the deliberate
/// -crash-at-step kill.
///
//===----------------------------------------------------------------------===//

#include "driver/Config.h"
#include "host/Printer.h"
#include "nir/Printer.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "support/FileIO.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace f90y;
using namespace f90y::driver;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: f90yc [options] file.f90\n"
      "  -emit-nir | -emit-blocked | -emit-peac | -emit-host   -stats\n"
      "  -stats-json=FILE   -trace=FILE   -metrics=FILE\n"
      "  -checkpoint=FILE   -checkpoint-every=N   -restore=FILE\n"
      "  -crash-at-step=N  (kills the process with exit code 3)\n%s",
      knobUsage().c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string Path;
  enum class Emit { Run, NIR, Blocked, Peac, Host } Mode = Emit::Run;
  bool Stats = false;
  std::string StatsJsonPath, TracePath, MetricsPath;
  Config Cfg;
  runtime::ckpt::Options Ckpt;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Error;
    bool Ok = true;
    if (Arg == "-emit-nir")
      Mode = Emit::NIR;
    else if (Arg == "-emit-blocked")
      Mode = Emit::Blocked;
    else if (Arg == "-emit-peac")
      Mode = Emit::Peac;
    else if (Arg == "-emit-host")
      Mode = Emit::Host;
    else if (Arg == "-stats")
      Stats = true;
    else if (Arg.rfind("-stats-json=", 0) == 0) {
      StatsJsonPath = Arg.substr(12);
      if (StatsJsonPath.empty()) {
        std::fprintf(stderr, "f90yc: -stats-json needs a file name\n");
        return 2;
      }
    } else if (Arg.rfind("-trace=", 0) == 0) {
      TracePath = Arg.substr(7);
      if (TracePath.empty()) {
        std::fprintf(stderr, "f90yc: -trace needs a file name\n");
        return 2;
      }
    } else if (Arg.rfind("-metrics=", 0) == 0) {
      MetricsPath = Arg.substr(9);
      if (MetricsPath.empty()) {
        std::fprintf(stderr, "f90yc: -metrics needs a file name\n");
        return 2;
      }
    } else if (Arg.rfind("-checkpoint=", 0) == 0) {
      Ckpt.Path = Arg.substr(12);
      if (Ckpt.Path.empty()) {
        std::fprintf(stderr, "f90yc: -checkpoint needs a file name\n");
        return 2;
      }
    } else if (Arg.rfind("-checkpoint-every=", 0) == 0) {
      Ok = parseNumber("-checkpoint-every", Arg.substr(18), 1, UINT64_MAX,
                       Ckpt.Every, Error);
    } else if (Arg.rfind("-restore=", 0) == 0) {
      Ckpt.RestorePath = Arg.substr(9);
      if (Ckpt.RestorePath.empty()) {
        std::fprintf(stderr, "f90yc: -restore needs a file name\n");
        return 2;
      }
    } else if (Arg.rfind("-crash-at-step=", 0) == 0) {
      Ok = parseNumber("-crash-at-step", Arg.substr(15), 0, UINT64_MAX,
                       Ckpt.CrashAtStep, Error);
    } else if (!Arg.empty() && Arg[0] == '-') {
      Ok = applyFlag(Cfg, Arg, Error);
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      std::fprintf(stderr, "f90yc: multiple input files\n");
      return 2;
    }
    if (!Ok) {
      std::fprintf(stderr, "f90yc: %s\n", Error.c_str());
      usage();
      return 2;
    }
  }
  if (Path.empty()) {
    usage();
    return 2;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "f90yc: cannot open '%s'\n", Path.c_str());
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  observe::TraceRecorder Trace;
  observe::MetricsRegistry Metrics;
  observe::TraceRecorder *TraceP = TracePath.empty() ? nullptr : &Trace;
  observe::MetricsRegistry *MetricsP =
      MetricsPath.empty() ? nullptr : &Metrics;
  // Writes the requested observability files; returns false (with a
  // diagnostic) if any cannot be written. Called on every exit path past
  // compilation so a failed run still leaves its trace behind. All
  // durable artifacts go through atomicWriteFile so a kill mid-write
  // (e.g. -crash-at-step) never leaves a truncated JSON file behind.
  auto WriteObservability = [&]() {
    bool Ok = true;
    std::string Error;
    if (TraceP && !support::atomicWriteFile(TracePath, Trace.exportJson(),
                                            &Error)) {
      std::fprintf(stderr, "f90yc: cannot write trace to '%s': %s\n",
                   TracePath.c_str(), Error.c_str());
      Ok = false;
    }
    if (MetricsP && !support::atomicWriteFile(MetricsPath,
                                              Metrics.exportJson(),
                                              &Error)) {
      std::fprintf(stderr, "f90yc: cannot write metrics to '%s': %s\n",
                   MetricsPath.c_str(), Error.c_str());
      Ok = false;
    }
    return Ok;
  };

  Compilation C(Cfg.compileOptions());
  C.setObservability(TraceP, MetricsP);
  if (!C.compile(Buf.str())) {
    std::fprintf(stderr, "%s", C.diags().str().c_str());
    WriteObservability();
    return 1;
  }
  if (!C.diags().diagnostics().empty())
    std::fprintf(stderr, "%s", C.diags().str().c_str()); // Warnings.

  switch (Mode) {
  case Emit::NIR:
    std::printf("%s", nir::printImp(C.artifacts().RawNIR).c_str());
    return WriteObservability() ? 0 : 1;
  case Emit::Blocked:
    std::printf("%s", nir::printImp(C.artifacts().OptimizedNIR).c_str());
    return WriteObservability() ? 0 : 1;
  case Emit::Peac:
    std::printf("%s", C.artifacts().Compiled.peacListing().c_str());
    return WriteObservability() ? 0 : 1;
  case Emit::Host:
    std::printf("%s",
                host::printHostProgram(C.artifacts().Compiled.Program)
                    .c_str());
    return WriteObservability() ? 0 : 1;
  case Emit::Run:
    break;
  }

  const cm2::CostModel Machine = Cfg.machine();
  ExecutionOptions ExecOpts = Cfg.executionOptions();
  ExecOpts.Trace = TraceP;
  ExecOpts.Metrics = MetricsP;
  ExecOpts.Checkpoint = std::move(Ckpt);
  Execution Exec(Machine, ExecOpts);
  auto Report = Exec.run(C.artifacts().Compiled.Program);
  if (!Report) {
    std::fprintf(stderr, "f90yc: runtime error:\n%s",
                 Exec.diags().str().c_str());
    if (Stats && Exec.faultInjector())
      std::fprintf(stderr, "-- %s\n",
                   Exec.faultInjector()->counters().str().c_str());
    WriteObservability();
    // An unloadable -restore= checkpoint is a usage-level failure (the
    // named file is missing, corrupt past every retained generation, or
    // from a different program/fault configuration), not a simulated
    // runtime error.
    return Exec.restoreFailed() ? 2 : 1;
  }
  std::printf("%s", Report->Output.c_str());
  if (Stats) {
    std::fprintf(stderr,
                 "-- %u PEs @ %.1f MHz: %.3f ms simulated "
                 "(node %.0f, call %.0f, comm %.0f, host %.0f, "
                 "overlapped %.0f cycles), "
                 "%llu executed flops, %.3f executed GFLOPS\n",
                 Machine.NumPEs, Machine.ClockMHz, Report->seconds() * 1e3,
                 Report->Ledger.NodeCycles, Report->Ledger.CallCycles,
                 Report->Ledger.CommCycles, Report->Ledger.HostCycles,
                 Report->Ledger.OverlappedCycles,
                 static_cast<unsigned long long>(Report->Ledger.Flops),
                 Report->executedGflops());
    if (Exec.faultInjector())
      std::fprintf(stderr, "-- %s\n", Report->Faults.str().c_str());
  }
  if (!StatsJsonPath.empty()) {
    std::string Error;
    if (!support::atomicWriteFile(StatsJsonPath, Report->json(), &Error)) {
      std::fprintf(stderr, "f90yc: cannot write run report to '%s': %s\n",
                   StatsJsonPath.c_str(), Error.c_str());
      return 1;
    }
  }
  return WriteObservability() ? 0 : 1;
}
