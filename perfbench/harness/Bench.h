//===- perfbench/harness/Bench.h - shared harness plumbing --------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run context, the pinned compile and
/// execution configuration, the result being built, and small statistics
/// helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Layers.h"
#include "Oracle.h"

#include "driver/Driver.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One invocation: which workload, how long to measure, and whether this
/// is the traced (per-layer) run.
struct Context {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  unsigned ThreadsMt = 1; ///< min(4, nproc): the exec_s_mt setting.
  const RefStore *Refs = nullptr;
};

/// The result: metrics in print order, plus the correctness account.
class Result {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Records one attempted operation; \p Error non-empty marks it failed.
  void attempt(const std::string &Error = "");
  void stamp(const std::string &Key, const std::string &JsonValue);

  bool correct() const { return Failed == 0; }

  /// Human-readable lines, then the config stamp, then the one-line JSON
  /// result (the last line of stdout).
  void print() const;

private:
  struct Metric {
    std::string Name, Unit;
    double Value;
  };
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Config;
  std::vector<std::string> Errors;
  uint64_t Attempted = 0, Failed = 0;
};

/// What f90yc runs for profile \p P, spelled out because the embedder
/// defaults differ: -comm=overlap, and -fuse=on -layout=infer under f90y
/// only (f90yc leaves them to the profile otherwise), on the default CM/2
/// (2048 PEs at 7 MHz) or on \p Pes PEs.
f90y::driver::CompileOptions pinnedCompileOptions(
    f90y::driver::Profile P = f90y::driver::Profile::F90Y,
    unsigned Pes = 0);
/// -exec=compiled with split-phase communication at \p Threads.
f90y::driver::ExecutionOptions pinnedExecOptions(unsigned Threads);

using Clock = std::chrono::steady_clock;
inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double median(std::vector<double> V);
/// Nearest-rank percentile \p P in [0, 100].
double percentile(std::vector<double> V, double P);
/// Prints a sample set's size, min, 10th percentile, median and max.
void printSamples(const char *Name, const std::vector<double> &V);
double peakRssMb();

/// Wall seconds of the fixed calibration kernel (Calibrate.cpp) run on
/// \p Threads threads at once; negative if its result is not finite.
double calibrate(unsigned Threads);
/// Runs \p Work between two calibrations at \p Threads threads and returns
/// their mean kernel time, or a negative value if either failed.
template <class F> double bracketed(unsigned Threads, F &&Work) {
  const double Before = calibrate(Threads);
  Work();
  const double After = calibrate(Threads);
  return Before > 0 && After > 0 ? 0.5 * (Before + After) : -1;
}
/// Wall time \p Seconds of work bracketed by calibrations at \p Threads
/// threads that took \p CalSeconds on average, rescaled to the time the
/// kernel takes at that thread count on an idle host: the work's seconds at
/// the host's nominal speed.
double calibrated(double Seconds, double CalSeconds, unsigned Threads);

/// serve_mix's own layer; all zero on the execution workloads.
struct ServeLayers {
  double JobsPerS = 0;      ///< Jobs per second with 4 clients.
  double P50Ms = 0, P99Ms = 0;
  double ColdP50Ms = 0, SharedP50Ms = 0;
  double CacheHitRatio = 0; ///< Artifact-cache hits / lookups.
  double Compiles = 0;      ///< Compilations per pass (cache misses).
  double CompileShare = 0;  ///< Compile stages / (compile + execute).
};

/// The per-layer metrics every workload reports (zero where a layer is not
/// exercised). \p Stages is per compile and \p Split the traced execute
/// split; \p PoolSpeedup is exec_s / exec_s_mt and \p TraceOverhead the
/// traced over the untraced execute wall time.
void reportLayers(Result &R, const StageTimes &Stages,
                  const ExecuteSplit &Split, double PoolSpeedup,
                  double TraceOverhead, double PeacCacheHitRatio,
                  const ServeLayers &Serve);

/// Fraction of the process-wide PEAC routine-cache lookups that hit.
double routineCacheHitRatio();

/// The workloads. Each fills \p R; runExec covers swe, mswe and gridops.
void runExec(const Context &Ctx, Result &R);
void runServeMix(const Context &Ctx, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
