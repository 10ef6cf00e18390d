//===- perfbench/harness/Layers.h - per-layer host-time split -----*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's two measurements:
///
///  - timeStages calls each compile stage itself (lexer, parser, procedure
///    integration, lowering, transform::optimize, backend) and takes the
///    per-pass split of optimize from the existing "pass" wall spans;
///
///  - joinExecute splits the host time of one traced Execution::run. The
///    runtime records a cycle-domain span per comm op and PEAC dispatch,
///    and the thread pool a wall span per parallel-for. Each parallel-for
///    is charged to the first comm-op or PEAC cycle span that follows it
///    in sequence order (the op that issued it records its span when it
///    finishes). The rest of the "execute" span is host self time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "driver/Driver.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace perfbench {

struct StageTimes {
  double LexUs = 0, ParseUs = 0, IntegrateUs = 0, LowerUs = 0;
  double BackendUs = 0;
  std::map<std::string, double> PassUs; ///< optimize's passes, by name.
  uint64_t PeacInstructions = 0;

  double totalUs() const;
  void add(const StageTimes &O);
  void scale(double F);
};

/// Compiles \p Source stage by stage under \p Opts; nullopt with \p Error
/// on a compile error.
std::optional<StageTimes> timeStages(const std::string &Source,
                                     f90y::driver::CompileOptions Opts,
                                     std::string &Error);

struct OpTime {
  double Ms = 0;
  uint64_t Calls = 0;
  double Elems = 0; ///< Elements the op touched (span "elems" args).
};

struct ExecuteSplit {
  double ExecuteMs = 0;
  double HostSelfMs = 0;
  std::map<std::string, OpTime> Comm; ///< By op, spaces as '-'.
  OpTime Peac;                        ///< Elems: subgrid elements x PEs.
  uint64_t ParallelFors = 0;
  double SimCycles[5] = {}; ///< node, call, comm, host, overlapped.

  void add(const ExecuteSplit &O);
};

/// Joins a trace holding exactly one Execution::run. False with \p Error
/// when the trace is malformed, a pool span lies outside the execute span,
/// or the attributed time exceeds it.
bool joinExecute(const f90y::observe::TraceRecorder &Trace, ExecuteSplit &Out,
                 std::string &Error);

/// Checks the join's call counts against the runtime's own counters
/// (comm.<op>.ops, peac.dispatches) from the same run. Empty on a match.
std::string checkAttribution(const ExecuteSplit &S,
                             const f90y::observe::MetricsRegistry &M);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
