//===- bench/BenchHarness.h - shared benchmark plumbing -----------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plumbing every wall-clock benchmark repeats: compile a workload
/// (exiting with a diagnostic on failure) and run it best-of-N under
/// chosen ExecutionOptions. The simulation is deterministic, so best-of-N
/// isolates host scheduling noise - variance between reps is never the
/// simulated machine; invariance::diffReport compares two samples' runs.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_BENCH_BENCHHARNESS_H
#define F90Y_BENCH_BENCHHARNESS_H

#include "driver/Driver.h"
#include "invariance/Invariance.h"
#include "observe/Json.h"
#include "support/FileIO.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace f90y {
namespace bench {

/// One measured configuration: best host wall time over the reps, plus
/// the (rep-invariant) run report: output, cycle ledger, fault counters.
struct Sample {
  double Millis = 0;
  driver::RunReport Report;
};

/// Compiles \p Source under \p Profile for \p Machine; exits the process
/// with the compiler's diagnostics on failure. Benchmarks have no
/// recovery story for a broken workload, so dying here keeps call sites
/// to one line.
inline std::unique_ptr<driver::Compilation>
compileOrDie(const std::string &Source, driver::Profile Profile,
             const cm2::CostModel &Machine) {
  auto C = std::make_unique<driver::Compilation>(
      driver::CompileOptions::forProfile(Profile, Machine));
  if (!C->compile(Source)) {
    std::fprintf(stderr, "compile failed:\n%s", C->diags().str().c_str());
    std::exit(1);
  }
  return C;
}

/// Runs \p Program \p Reps times under \p EOpts (fresh Execution each
/// rep) and keeps the best wall time; exits with the runtime's
/// diagnostics if any rep fails.
inline Sample measure(const host::HostProgram &Program,
                      const cm2::CostModel &Machine,
                      const driver::ExecutionOptions &EOpts, int Reps) {
  Sample S;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    driver::Execution Exec(Machine, EOpts);
    auto T0 = std::chrono::steady_clock::now();
    auto Report = Exec.run(Program);
    auto T1 = std::chrono::steady_clock::now();
    if (!Report) {
      std::fprintf(stderr, "run failed:\n%s", Exec.diags().str().c_str());
      std::exit(1);
    }
    double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    if (Rep == 0 || Ms < S.Millis)
      S.Millis = Ms;
    S.Report = *Report;
  }
  return S;
}

/// The equivalence matrix of a compile-time switch: \p On and \p Off under
/// the sync and the runtime-overlap comm models, fault-free and under
/// recoverable faults, each leg compared with the first under the Model
/// contract and crossed with the host legs (threads x engine) under the
/// Host contract.
inline invariance::Matrix switchMatrix(const char *On, const char *Off) {
  invariance::Matrix M;
  M.Model.clear();
  for (const char *Comm : {"-comm=sync", invariance::UnscheduledOverlap})
    for (const char *Faults :
         {"-faults=", "-faults=corrupt:0.01,pe-trap:0.005"})
      for (const char *Switch : {On, Off})
        M.Model.push_back({{Comm, Faults, "-fault-seed=7", Switch}});
  return M;
}

/// Machine-readable results: each benchmark fills one Report and writes
/// it as `BENCH_<name>.json` in the working directory, which CI uploads
/// as an artifact so run-to-run numbers can be compared without parsing
/// stdout. Fields keep insertion order and are rendered with the
/// observe/Json.h deterministic formatters, so everything except wall
/// times is byte-stable across reruns.
class Report {
public:
  explicit Report(std::string Name) : Name(std::move(Name)) {}

  void set(const std::string &Key, double V) {
    Fields.emplace_back(Key, observe::json::number(V));
  }
  void set(const std::string &Key, uint64_t V) {
    Fields.emplace_back(Key, observe::json::number(V));
  }
  void set(const std::string &Key, int64_t V) {
    Fields.emplace_back(Key, observe::json::number(V));
  }
  void set(const std::string &Key, int V) {
    Fields.emplace_back(Key, observe::json::number(static_cast<int64_t>(V)));
  }
  void set(const std::string &Key, const std::string &V) {
    Fields.emplace_back(Key, observe::json::quote(V));
  }

  /// Writes `BENCH_<name>.json` atomically (temp + rename, so an
  /// interrupted benchmark never leaves a truncated report for CI to
  /// upload). Failure to write is reported but non-fatal: the numbers
  /// were already printed to stdout.
  bool write() const {
    std::string Path = "BENCH_" + Name + ".json";
    std::string Out = "{\n  " + observe::json::quote("bench") + ": " +
                      observe::json::quote(Name);
    for (const auto &F : Fields)
      Out += ",\n  " + observe::json::quote(F.first) + ": " + F.second;
    Out += "\n}\n";
    std::string Error;
    if (!support::atomicWriteFile(Path, Out, &Error)) {
      std::fprintf(stderr, "warning: cannot write %s: %s\n", Path.c_str(),
                   Error.c_str());
      return false;
    }
    std::printf("\nwrote %s\n", Path.c_str());
    return true;
  }

private:
  std::string Name;
  std::vector<std::pair<std::string, std::string>> Fields;
};

} // namespace bench
} // namespace f90y

#endif // F90Y_BENCH_BENCHHARNESS_H
