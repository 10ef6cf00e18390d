//===- driver/Driver.h - Fortran-90-Y compiler driver -------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the Fortran-90-Y prototype: compiles
/// Fortran-90 source through the full pipeline
///
///   lexer -> parser -> semantic lowering (NIR) -> NIR transformations ->
///   CM2/NIR back end (FE host code + PE PEAC routines)
///
/// and executes the result on the simulated CM/2, reporting sustained
/// performance from the machine's cycle ledger. The pipeline splits where
/// options first matter: a FrontEnd lowers a source into raw NIR once,
/// and any number of Compilations, under any options, optimize and
/// compile that NIR in NIR contexts layered over the front end's.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_DRIVER_DRIVER_H
#define F90Y_DRIVER_DRIVER_H

#include "backend/Backend.h"
#include "cm2/CostModel.h"
#include "host/HostExecutor.h"
#include "nir/NIRContext.h"
#include "observe/Metrics.h"
#include "peac/Engine.h"
#include "observe/Trace.h"
#include "runtime/Checkpoint.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"
#include "transform/Transforms.h"

#include <memory>
#include <optional>
#include <string>

namespace f90y {
namespace driver {

/// Named optimization profiles used throughout the benchmarks.
enum class Profile {
  F90Y,     ///< The paper's prototype: full transformations + node opts.
  CMFStyle, ///< Per-statement compilation (no domain blocking), good node
            ///< code: the CM Fortran v1.1 stand-in.
  Naive     ///< Per-statement, no chaining/dual-issue/madd/CSE: the naive
            ///< encoding of paper Figure 12.
};

/// Full pipeline configuration.
struct CompileOptions {
  transform::TransformOptions Transforms;
  backend::BackendOptions Backend;
  cm2::CostModel Costs;

  static CompileOptions forProfile(Profile P, cm2::CostModel Costs = {});
};

/// The option-free half of a compilation: one source lexed, parsed,
/// integrated and lowered into raw NIR in a NIR context of its own. The
/// AST dies with run(). Immutable once run, so Compilations on any
/// threads may share one.
class FrontEnd {
public:
  /// Runs the front end over \p Source; on failure rawNIR() is null and
  /// diags() says why. Each stage is a wall span on \p Trace.
  static std::shared_ptr<const FrontEnd>
  run(const std::string &Source, observe::TraceRecorder *Trace = nullptr,
      observe::MetricsRegistry *Metrics = nullptr);

  const nir::ProgramImp *rawNIR() const { return RawNIR; }
  const DiagnosticEngine &diags() const { return Diags; }
  const nir::NIRContext &nirContext() const { return NCtx; }

private:
  DiagnosticEngine Diags;
  nir::NIRContext NCtx;
  const nir::ProgramImp *RawNIR = nullptr;
};

/// What the compiler produced for one source unit. The raw NIR belongs to
/// the front end, the rest to the Compilation.
struct Artifacts {
  const nir::ProgramImp *RawNIR = nullptr;
  const nir::ProgramImp *OptimizedNIR = nullptr;
  backend::CompiledProgram Compiled;
};

/// One compilation: keeps its front end alive and owns every other NIR
/// node its artifacts reference.
class Compilation {
public:
  explicit Compilation(CompileOptions Opts) : Opts(std::move(Opts)) {}

  /// Compiles \p Source: compile(FrontEnd::run(Source)), with both halves
  /// under one "compile" span. False (with diagnostics) on any front-end,
  /// lowering, transformation, or back-end error.
  bool compile(const std::string &Source);
  /// Optimizes and compiles \p FE's raw NIR in a layer over its context,
  /// after copying its diagnostics. False as compile(Source) is.
  bool compile(std::shared_ptr<const FrontEnd> FE);

  const Artifacts &artifacts() const { return Arts; }
  const CompileOptions &options() const { return Opts; }
  DiagnosticEngine &diags() { return Diags; }
  /// This compilation's layer; valid once compile() has run.
  nir::NIRContext &nirContext() { return *NCtx; }

  /// Attaches observability sinks for the next compile(): each pipeline
  /// stage it runs (lex, parse, integrate and lower from source; every NIR
  /// pass and the backend) becomes a wall-clock span, and per-stage
  /// metrics accumulate. Null pointers (the default) are the zero-cost
  /// disabled path. The sinks are also plumbed into Opts.Transforms and
  /// Opts.Backend.
  void setObservability(observe::TraceRecorder *T, observe::MetricsRegistry *M) {
    Trace = T;
    Metrics = M;
    Opts.Transforms.Trace = T;
    Opts.Transforms.Metrics = M;
    Opts.Backend.Trace = T;
    Opts.Backend.Metrics = M;
  }

private:
  CompileOptions Opts;
  DiagnosticEngine Diags;
  std::shared_ptr<const FrontEnd> FE;
  std::unique_ptr<nir::NIRContext> NCtx;
  Artifacts Arts;
  observe::TraceRecorder *Trace = nullptr;
  observe::MetricsRegistry *Metrics = nullptr;
};

/// Performance account of one simulated execution.
struct RunReport {
  runtime::CycleLedger Ledger;
  std::string Output;
  double ClockMHz = 7.0;
  /// Injection/recovery account of the run (all-zero without an injector).
  support::FaultCounters Faults;

  double seconds() const { return Ledger.total() / (ClockMHz * 1e6); }
  /// GFLOPS over the flops the machine executed (Ledger.Flops).
  double executedGflops() const {
    double S = seconds();
    return S > 0 ? static_cast<double>(Ledger.Flops) / S / 1e9 : 0.0;
  }
  /// Sustained GFLOPS against an externally fixed useful-flop count (the
  /// usual benchmark convention: algorithmic flops / machine time).
  double gflopsFor(uint64_t UsefulFlops) const {
    double S = seconds();
    return S > 0 ? static_cast<double>(UsefulFlops) / S / 1e9 : 0.0;
  }

  /// Deterministic JSON rendering of the report (the -stats-json flag):
  /// ledger breakdown, executed flops, simulated seconds, executed GFLOPS,
  /// and fault/recovery counters.
  std::string json() const;
};

/// How the simulation itself runs on the host (as opposed to what machine
/// it simulates, which is the CostModel's job).
struct ExecutionOptions {
  /// Host worker threads sweeping the simulated PEs and communication
  /// destinations (0 = all hardware threads). Program output and the
  /// cycle ledger are bit-identical at every setting; 1 runs the sweep
  /// serially inline on the calling thread.
  unsigned Threads = 0;
  /// Deterministic fault-injection schedule. All-zero probabilities (the
  /// default) attach no injector at all: the zero-fault fast path is the
  /// pre-injection runtime, bit for bit.
  support::FaultSpec Faults;
  /// Seed of the fault schedule. Injection decisions are drawn on the
  /// host thread per (kind, op index), so one seed produces one schedule
  /// - and bit-identical output, ledger, and counters - at every Threads
  /// setting.
  uint64_t FaultSeed = 0;
  /// Split-phase communication (f90yc -comm=overlap): exchanges issue
  /// eagerly and drain under subsequent independent PEAC computation,
  /// crediting the hidden cycles to the ledger's OverlappedCycles.
  /// Program output is bit-identical either way; only the timing model
  /// changes. Off here (the paper's strict model) so existing embedders
  /// and the sync profile are unaffected.
  bool OverlapComm = false;
  /// Watchdog: fail the run after this many executed host statements
  /// (0 = unlimited).
  uint64_t MaxSteps = 0;
  /// Which PEAC executor sweeps the simulated PEs (f90yc -exec=). The
  /// compiled engine translates each routine once (cached per process)
  /// and is the default; Interp selects the reference interpreter. The
  /// two are bit-identical in everything the simulation produces -
  /// output, ledger, flop and fault counters, traces - so this is a host
  /// performance knob, not a machine-model one.
  peac::EngineKind Engine = peac::EngineKind::Compiled;
  /// Observability sinks wired through the pool, runtime, and host
  /// executor (null: the zero-cost disabled path; the simulation is
  /// bit-identical to an unobserved run). Cycle-domain events are stamped
  /// from the ledger and recorded on the host thread only, so trace and
  /// metric content is deterministic at every Threads setting.
  observe::TraceRecorder *Trace = nullptr;
  observe::MetricsRegistry *Metrics = nullptr;
  /// Checkpoint/restart configuration (f90yc -checkpoint= /
  /// -checkpoint-every= / -restore= / -crash-at-step=). Inactive (the
  /// default) attaches no controller: step boundaries cost one counter
  /// increment and the simulation is untouched.
  runtime::ckpt::Options Checkpoint;
};

/// Executes a compiled program on the simulated CM/2. The execution object
/// keeps the runtime and host executor alive for post-run inspection.
class Execution {
public:
  explicit Execution(const cm2::CostModel &Costs, ExecutionOptions EOpts = {})
      : Costs(Costs), Pool(EOpts.Threads), RT(this->Costs, &Pool),
        Exec(RT, Diags), Engine(EOpts.Engine), Trace(EOpts.Trace),
        Metrics(EOpts.Metrics) {
    if (EOpts.Faults.any()) {
      Injector = std::make_unique<support::FaultInjector>(EOpts.Faults,
                                                          EOpts.FaultSeed);
      RT.setFaultInjector(Injector.get());
    }
    Exec.setMaxSteps(EOpts.MaxSteps);
    Exec.setOverlapCommCompute(EOpts.OverlapComm);
    Pool.setTrace(Trace);
    RT.setTrace(Trace);
    RT.setMetrics(Metrics);
    RT.setExecEngine(&Engine);
    if (EOpts.Checkpoint.active()) {
      Ckpt = std::make_unique<runtime::ckpt::Controller>(EOpts.Checkpoint);
      Ckpt->setObservability(Trace, Metrics);
      Exec.setCheckpoint(Ckpt.get());
    }
  }

  host::HostExecutor &executor() { return Exec; }
  runtime::CmRuntime &runtime() { return RT; }
  support::ThreadPool &pool() { return Pool; }
  DiagnosticEngine &diags() { return Diags; }
  /// The attached injector, or null when no fault kind is enabled.
  support::FaultInjector *faultInjector() { return Injector.get(); }
  /// The PEAC execution engine (ExecutionOptions::Engine selects its
  /// kind; Compiled shares the process-wide routine cache).
  peac::ExecutionEngine &execEngine() { return Engine; }
  /// The run's checkpoint controller, or null when checkpointing is off.
  runtime::ckpt::Controller *checkpoint() { return Ckpt.get(); }
  /// True when the last run() failed because the -restore= checkpoint
  /// could not be loaded (missing, corrupt past every retained
  /// generation, or from a different program/fault configuration).
  bool restoreFailed() const { return RestoreFailed; }

  /// Runs \p Program; nullopt on a simulated runtime error (including a
  /// fault that recovery could not absorb - retries exhausted, simulated
  /// OOM, or the watchdog limit).
  std::optional<RunReport> run(const host::HostProgram &Program);

private:
  cm2::CostModel Costs;
  support::ThreadPool Pool;
  DiagnosticEngine Diags;
  runtime::CmRuntime RT;
  host::HostExecutor Exec;
  peac::ExecutionEngine Engine;
  std::unique_ptr<support::FaultInjector> Injector;
  std::unique_ptr<runtime::ckpt::Controller> Ckpt;
  bool RestoreFailed = false;
  observe::TraceRecorder *Trace = nullptr;
  observe::MetricsRegistry *Metrics = nullptr;
};

} // namespace driver
} // namespace f90y

#endif // F90Y_DRIVER_DRIVER_H
