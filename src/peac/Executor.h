//===- peac/Executor.h - PEAC functional executor -----------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes PEAC routines over real PE memory (functionally) and accounts
/// sequencer cycles and flops (per the cost model). Because the machine is
/// SIMD, every PE executes the identical instruction stream; cycle cost is
/// computed once from the routine's slot structure, while the functional
/// sweep runs the routine over every PE's subgrid.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_PEAC_EXECUTOR_H
#define F90Y_PEAC_EXECUTOR_H

#include "peac/Peac.h"
#include "support/RtStatus.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace f90y {

namespace observe {
class MetricsRegistry;
} // namespace observe

namespace support {
class ThreadPool;
class FaultInjector;
} // namespace support

namespace peac {

/// The executor's lane capacity; every engine checks the machine's
/// vector width against it once per dispatch.
constexpr unsigned MaxExecLanes = 8;

/// Binding of one pointer argument to storage. PE p's subgrid base is
/// `Data + p * PEStride + Offset`.
struct PtrBinding {
  double *Data = nullptr;
  size_t PEStride = 0;
  size_t Offset = 0;
};

/// Everything needed to run a routine.
struct ExecArgs {
  std::vector<PtrBinding> Ptrs;
  std::vector<double> Scalars;
  unsigned NumPEs = 1;
  /// Virtual-subgrid length per PE. Storage must be padded so that
  /// ceil(VP/width)*width elements are addressable.
  int64_t SubgridElems = 0;
};

/// Cycle/flop account of one routine dispatch.
struct ExecResult {
  double NodeCycles = 0;  ///< Sequencer cycles spent in the subgrid loop.
  double CallCycles = 0;  ///< Dispatch + IFIFO argument cycles.
  uint64_t Flops = 0;     ///< Floating ops executed (all PEs, real lanes).
  /// Non-Ok when an injected PE trap or FPU exception aborted the sweep.
  /// Cycles are still charged (the machine ran until the trap) but Flops
  /// stays zero - a trapped dispatch produced no useful work. PEs below
  /// the faulting one have already stored results, so the caller must
  /// roll its pointer arguments back before replaying the dispatch.
  support::RtStatus Status;
};

/// Runs \p R functionally over every PE and returns the cycle account.
/// Asserts that register numbers are within the configured file sizes.
///
/// The sweep is data-parallel over PEs (each touches only its own
/// subgrid); when \p Pool is non-null, chunks of PEs run concurrently on
/// it. Accounting is computed per chunk and combined in chunk order, so
/// the result is bit-identical at every thread count (see
/// support/ThreadPool.h for the determinism contract).
///
/// Division semantics are IEEE-754 on every computed lane: FDivV by zero
/// yields +/-Inf (NaN for 0/0) and FModV with a zero divisor yields NaN.
/// Tail padding lanes of the last vector iteration may compute such
/// values, but their stores to subgrid memory are masked to
/// Args.SubgridElems, so padding is never written with them.
///
/// When \p FI is non-null, each dispatch consults it (on the calling host
/// thread, so the fault schedule is thread-count independent) for a PE
/// trap and an FPU exception before the sweep; a fired fault picks a
/// deterministic faulting PE, completes only the PEs before it, and
/// returns with ExecResult::Status non-Ok.
///
/// When \p Metrics is non-null, the dispatch's vector-op mix is recorded
/// (one `peac.op.<mnemonic>` bump per instruction per subgrid iteration,
/// on the calling thread - deterministic at any thread count).
ExecResult execute(const Routine &R, const ExecArgs &Args,
                   const cm2::CostModel &Costs,
                   support::ThreadPool *Pool = nullptr,
                   support::FaultInjector *FI = nullptr,
                   observe::MetricsRegistry *Metrics = nullptr);

namespace detail {

/// The functional sweep over one PE's subgrid slice, supplied by an
/// execution engine (the reference interpreter or the pre-compiled
/// engine of peac/Engine.h).
using SweepFn = std::function<void(unsigned PE)>;

/// The dispatch shell shared by every execution engine: the static cycle
/// and flop account, the vector-op-mix metrics, the injected node-fault
/// path (including the partial sweep of PEs before the faulting one), and
/// the chunk-ordered parallel PE sweep. Engines differ only in \p Sweep -
/// how one PE's subgrid is swept functionally - so everything the
/// determinism contract covers (accounting, fault schedules, metrics)
/// lives here exactly once and cannot diverge between engines.
ExecResult dispatch(const Routine &R, const ExecArgs &Args,
                    const cm2::CostModel &Costs, support::ThreadPool *Pool,
                    support::FaultInjector *FI,
                    observe::MetricsRegistry *Metrics, const SweepFn &Sweep);

} // namespace detail

} // namespace peac
} // namespace f90y

#endif // F90Y_PEAC_EXECUTOR_H
