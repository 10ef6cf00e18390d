//===- runtime/CmRuntime.h - CM runtime system --------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CM runtime system: geometry registry, parallel heap, coordinate
/// subgrids, grid (NEWS) and router communication, reductions, and the
/// cycle ledger. The FE/NIR compiler replaces communication intrinsics
/// with calls into this library (paper Section 5.2), and the sequencer
/// side of PEAC dispatch charges its costs here.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_RUNTIME_CMRUNTIME_H
#define F90Y_RUNTIME_CMRUNTIME_H

#include "cm2/CostModel.h"
#include "runtime/Geometry.h"
#include "runtime/RegionWalk.h"
#include "support/RtStatus.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace f90y {

namespace observe {
class TraceRecorder;
class MetricsRegistry;
} // namespace observe

namespace support {
class ThreadPool;
class FaultInjector;
enum class FaultKind : unsigned;
} // namespace support

namespace peac {
class ExecutionEngine;
} // namespace peac

namespace runtime {

/// Element kind of a parallel field (storage is double either way;
/// integer/logical fields round on store).
enum class ElemKind { Int, Real, Bool };

/// One allocated parallel field: GridPEs subgrids of PaddedSubgrid
/// elements each, stored contiguously PE-major.
struct PeArray {
  const Geometry *Geo = nullptr;
  ElemKind Kind = ElemKind::Real;
  std::vector<double> Data;
  /// Storage placement solved by layout inference: logical element x
  /// lives at slot (x[d] + LayoutOffsets[d]) mod Extents[d]. Empty means
  /// canonical. AxisMap is carried for the checkpoint format but is
  /// always the identity under the offset-only solver; comm-op walks and
  /// PEAC dispatch work on raw slots and never consult these - only the
  /// front end's element access and rendering translate.
  std::vector<int64_t> AxisMap;
  std::vector<int64_t> LayoutOffsets;

  double *peBase(int64_t PE) {
    return Data.data() + static_cast<size_t>(PE * Geo->PaddedSubgrid);
  }
  const double *peBase(int64_t PE) const {
    return Data.data() + static_cast<size_t>(PE * Geo->PaddedSubgrid);
  }

  bool hasLayout() const { return !LayoutOffsets.empty(); }
  /// Maps a zero-based logical coordinate to its slot coordinate.
  void toSlot(const std::vector<int64_t> &Logical,
              std::vector<int64_t> &Slot) const {
    Slot = Logical;
    for (size_t D = 0; D < Slot.size() && D < LayoutOffsets.size(); ++D) {
      int64_t N = Geo->Extents[D];
      if (N > 0)
        Slot[D] = ((Slot[D] + LayoutOffsets[D]) % N + N) % N;
    }
  }
};

/// Cycle ledger, split by where time goes. The paper's performance story
/// is about the ratio of node computation to call overhead and
/// communication, so the categories are kept separate.
struct CycleLedger {
  double NodeCycles = 0; ///< PEAC virtual-subgrid loops.
  double CallCycles = 0; ///< PEAC dispatch + IFIFO arguments.
  double CommCycles = 0; ///< Grid/router/reduction communication.
  double HostCycles = 0; ///< Front-end scalar code.
  /// Cycles hidden by pipelining communication with independent
  /// computation (the Section 5.3.2 extension model; zero under the
  /// paper's strict virtual-processor model).
  double OverlappedCycles = 0;
  /// Floating-point operations the machine executed. Blocking and fusion
  /// can execute fewer than the source program's useful flops, which the
  /// NIR interpreter counts.
  uint64_t Flops = 0;

  double total() const {
    return NodeCycles + CallCycles + CommCycles + HostCycles -
           OverlappedCycles;
  }
  void reset() { *this = CycleLedger(); }
};

/// Reduction operators supported by the runtime.
enum class ReduceOp { Sum, Product, Max, Min, Count, Any, All };

/// The runtime system instance owned by one program execution.
///
/// The parallel heap keeps the storage of freed fields and hands it to the
/// next allocation of the same element count, so a statement's temporaries
/// stop costing fresh host memory after the first time step. Recycled
/// storage is handed out stale, still holding the freed field's values,
/// and reads as zeros all the same: every accessor that can observe it
/// (field(), snapshotField, element access, rendering, and so PEAC
/// arguments and checkpoint writes) zero-fills it first. Only a comm sweep
/// that writes every slot of its destination - the whole array of a
/// geometry without padding - skips the fill. Live plus spare storage never
/// exceeds the live high-water mark: an allocation that finds no spare of
/// its size releases spares first. The spares belong to this runtime and
/// die with it.
///
/// Every communication op is a RegionWalk (runtime/RegionWalk.h): data moves
/// and ledger counts accrue one block of a destination PE's subgrid at a
/// time, never per element. The runtime resolves each distinct walk once
/// into a WalkPlan and every later op on it replays the plan's blocks and
/// charges its exact integer totals. When a host thread pool is attached,
/// chunks of destination PEs (source PEs for a full reduction) sweep
/// concurrently and their partial folds combine in chunk order
/// (support/ThreadPool.h), so every thread count produces bit-identical
/// data and cycle totals. Plans are derived state: checkpoints do not
/// store them, and a restored runtime rebuilds them on first use.
///
/// When a FaultInjector is attached, comm ops pass through a recoverable
/// fault path: transient faults (router drop, grid-link timeout) fail the
/// op before any data moves and are retried with backoff cycles charged
/// to the ledger; detected corruption rolls the destination field back to
/// its pre-op checkpoint and redoes the transfer. Every injection
/// decision is made on the calling (host) thread at op granularity, so
/// the schedule and the recovery cost are independent of the thread
/// count. Ops that exhaust MaxFaultRetries return a non-Ok RtStatus with
/// a precise diagnostic instead of asserting.
class CmRuntime {
public:
  explicit CmRuntime(const cm2::CostModel &Costs,
                     support::ThreadPool *Pool = nullptr)
      : Costs(Costs), Pool(Pool) {}

  /// Recovery attempts per operation before a fault becomes permanent.
  static constexpr unsigned MaxFaultRetries = 8;

  /// The host worker pool used for destination-parallel sweeps (null:
  /// inline serial execution with the identical chunk decomposition).
  support::ThreadPool *threadPool() const { return Pool; }

  /// The fault injector consulted at every injection point (null: the
  /// zero-fault fast path, identical to the pre-injection runtime).
  support::FaultInjector *faultInjector() const { return Injector; }
  void setFaultInjector(support::FaultInjector *FI) { Injector = FI; }

  /// The PEAC execution engine dispatches run through (null: the host
  /// executor falls back to the reference interpreter, peac::execute).
  /// Either setting produces bit-identical results; the engine is a host
  /// performance choice, not a machine-model one.
  peac::ExecutionEngine *execEngine() const { return ExecEngine; }
  void setExecEngine(peac::ExecutionEngine *E) { ExecEngine = E; }

  /// Observability sinks (null: the zero-cost disabled path). With Trace
  /// set, every communication op becomes one cycle-domain span stamped
  /// from the ledger (geometry, element/byte volume, wire hops, retries);
  /// with Metrics set, per-pattern op/byte/hop/cycle counters accumulate.
  /// Fault retries and rollbacks are recorded as instants under both.
  void setTrace(observe::TraceRecorder *T) { Trace = T; }
  observe::TraceRecorder *trace() const { return Trace; }
  void setMetrics(observe::MetricsRegistry *M) { Metrics = M; }
  observe::MetricsRegistry *metrics() const { return Metrics; }

  const cm2::CostModel &costs() const { return Costs; }
  CycleLedger &ledger() { return Ledger; }
  const CycleLedger &ledger() const { return Ledger; }

  /// Returns (creating and caching) the geometry for the given shape; the
  /// runtime keeps it, at the same address, for its lifetime.
  const Geometry *getGeometry(const std::vector<int64_t> &Extents,
                              const std::vector<int64_t> &Los);

  //===--------------------------------------------------------------------===//
  // Heap
  //===--------------------------------------------------------------------===//

  /// Allocates a field that reads as zeros; returns its handle, or a fault
  /// on simulated (injected or genuine host) heap exhaustion. The storage
  /// is a freed field's of the same element count when one is spare,
  /// handed out stale and zero-filled, padding included, before anything
  /// reads it, so the field is bit-identical to a fresh one; otherwise
  /// spares are released until live plus spare storage, this field
  /// included, fits under the live high-water mark, and the storage is
  /// fresh zeros.
  support::RtResult<int> tryAllocField(const Geometry *Geo, ElemKind Kind);
  /// Infallible convenience wrapper: aborts via F90Y_CHECK on allocation
  /// failure. Test and benchmark scaffolding that never runs with an OOM
  /// injector uses this form.
  int allocField(const Geometry *Geo, ElemKind Kind);
  /// Releases \p Handle, keeping its storage as a spare. Any
  /// coordinate-field cache entry for it is dropped too, so a later
  /// coordField for the same geometry rebuilds instead of returning a
  /// dangling handle.
  void freeField(int Handle);

  /// Heap occupancy, in elements of field storage.
  struct HeapStats {
    int64_t Live = 0;         ///< Held by live fields.
    int64_t Spare = 0;        ///< Kept from freed fields for reuse.
    int64_t HighWater = 0;    ///< The most Live has ever been.
    uint64_t FreshAllocs = 0; ///< Allocations that took fresh storage.
    uint64_t ZeroFills = 0;   ///< Recycled fields zero-filled on a read.
  };
  const HeapStats &heapStats() const { return Heap; }

  /// The field's storage, zero-filled first when it is stale. The const
  /// form fills too: the fill changes no value a reader can observe.
  PeArray &field(int Handle);
  const PeArray &field(int Handle) const;
  /// True when \p Handle names a live field.
  bool isLiveField(int Handle) const;
  /// Stamps the field's storage placement (layout inference). Element
  /// access and rendering translate logical coordinates through it;
  /// empty vectors restore the canonical placement.
  void setFieldLayout(int Handle, std::vector<int64_t> AxisMap,
                      std::vector<int64_t> Offsets);

  //===--------------------------------------------------------------------===//
  // Checkpointing (phase rollback/replay)
  //===--------------------------------------------------------------------===//

  /// Copies the field's raw subgrid storage (zero-filled first when stale)
  /// for a later restoreField.
  std::vector<double> snapshotField(int Handle) const;
  /// Restores storage saved by snapshotField, in place (pointers into the
  /// field's data - e.g. live PEAC bindings - stay valid) and counts one
  /// rollback on the attached injector.
  void restoreField(int Handle, const std::vector<double> &Saved);

  /// The lazily-materialized coordinate subgrid of \p Geo along \p Dim
  /// (1-based): each element holds its own global Fortran coordinate.
  /// This is the "pointer to the local coordinate 1 subgrid" of paper
  /// Figure 10's pseudocode.
  int coordField(const Geometry *Geo, unsigned Dim);

  //===--------------------------------------------------------------------===//
  // Element access (front end through the router)
  //===--------------------------------------------------------------------===//

  double readElement(int Handle, const std::vector<int64_t> &ZeroCoord);
  void writeElement(int Handle, const std::vector<int64_t> &ZeroCoord,
                    double V);

  //===--------------------------------------------------------------------===//
  // Communication (charged to the ledger)
  //===--------------------------------------------------------------------===//

  /// Distinct walks resolved so far (one WalkPlan each) and their blocks.
  struct PlanStats {
    int64_t Plans = 0;
    int64_t Blocks = 0;
  };
  PlanStats planStats() const;

  /// dst(i) = src(i + Shift along Dim, circular). Grid communication.
  support::RtStatus cshift(int Dst, int Src, unsigned Dim, int64_t Shift);
  /// dst(i) = src(i + Shift along Dim), zero at the boundary.
  support::RtStatus eoshift(int Dst, int Src, unsigned Dim, int64_t Shift);

  /// One destination of a coalesced multi-shift exchange.
  struct ShiftSpec {
    int Dst = -1;
    int64_t Shift = 0;
  };
  /// Coalesced exchange: several shifts of the *same* source along the
  /// *same* axis, paying one communication startup instead of one per
  /// shift. Data semantics are exactly those of applying the shifts in
  /// order (each destination sees the source as it stands when its clause
  /// runs, so aliased destinations behave like the unfused sequence);
  /// faults retry/roll back the whole exchange as one operation.
  support::RtStatus multiShift(const std::vector<ShiftSpec> &Shifts, int Src,
                               unsigned Dim, bool EndOff);

  /// Rank-2 transpose through the router. The destination's extents must
  /// be the source's transposed; a mismatch is a ShapeMismatch fault.
  support::RtStatus transpose(int Dst, int Src);

  /// One dimension of a constant section (zero-based start, stride,
  /// count).
  using SectionDim = runtime::SectionDim;
  /// General section-to-section copy (the misaligned case); router. The
  /// sections must lie inside their arrays and have the same counts.
  support::RtStatus sectionCopy(int Dst,
                                const std::vector<SectionDim> &DstSec,
                                int Src,
                                const std::vector<SectionDim> &SrcSec);

  /// Full-field reduction to the front end.
  support::RtResult<double> tryReduce(ReduceOp Op, int Src);
  /// Infallible wrapper (aborts on a permanent injected fault; identical
  /// to tryReduce when no injector is attached).
  double reduce(ReduceOp Op, int Src);

  /// Partial reduction along \p Dim (1-based): Dst has the source's shape
  /// with that dimension removed. Grid combine along one machine axis.
  support::RtStatus reduceAlongDim(ReduceOp Op, int Dst, int Src,
                                   unsigned Dim);

  /// Broadcast along a new dimension \p Dim: Dst has the source's shape
  /// with that dimension inserted (F90 SPREAD).
  support::RtStatus spreadAlongDim(int Dst, int Src, unsigned Dim);

  /// Renders the active elements of a field (host side, row-major), for
  /// PRINT. Charges router element reads; element reads go through the
  /// router, so the whole render can drop and be re-read.
  support::RtResult<std::string> tryRenderField(int Handle);
  /// Infallible wrapper, as for reduce().
  std::string renderField(int Handle);

  //===--------------------------------------------------------------------===//
  // Split-phase communication (the -comm=overlap timing model)
  //===--------------------------------------------------------------------===//
  //
  // Data always moves eagerly (the ops above complete before returning);
  // overlap is a *timing* model. commIssue registers an exchange whose
  // cycles were just charged to CommCycles as still in flight; subsequent
  // independent node computation reported through noteCompute earns back
  // min(remaining, compute) * CommOverlapEfficiency as OverlappedCycles.
  // The data network serializes with itself, so issuing a new exchange
  // retires any earlier one without credit (single in-flight slot).

  /// Registers an exchange of \p Cycles touching \p Handles as in flight.
  /// Charges CommIssueCycles of front-end bookkeeping to HostCycles.
  void commIssue(double Cycles, const std::vector<int> &Handles);
  /// Serializes on everything in flight.
  void commWaitAll();
  /// Reports \p Cycles of node computation touching \p Handles. If the
  /// computation is independent of the in-flight exchange, up to that
  /// many of its remaining cycles are credited to OverlappedCycles (and
  /// the credit is returned); a dependent computation serializes and
  /// earns nothing.
  double noteCompute(double Cycles, const std::vector<int> &Handles);

  /// Split-phase state inspection and reinstatement, used by the
  /// checkpoint subsystem: a checkpoint taken between statements may find
  /// an exchange still in flight, and a bit-identical resume must
  /// re-register exactly the remaining overlap opportunity.
  double pendingCommRemaining() const { return Pending.Remaining; }
  const std::vector<int> &pendingCommHandles() const {
    return Pending.Handles;
  }
  void restorePendingComm(double Remaining, std::vector<int> Handles) {
    Pending.Remaining = Remaining;
    Pending.Handles = std::move(Handles);
  }

private:
  const cm2::CostModel &Costs;
  support::ThreadPool *Pool = nullptr;
  support::FaultInjector *Injector = nullptr;
  peac::ExecutionEngine *ExecEngine = nullptr;
  observe::TraceRecorder *Trace = nullptr;
  observe::MetricsRegistry *Metrics = nullptr;
  /// Geometry and data volume the in-flight comm sweep reported via
  /// noteSweep (consumed by runFaultableComm's observation wrapper).
  const Geometry *ObsGeo = nullptr;
  int64_t ObsElems = 0;
  int64_t ObsHops = 0;
  CycleLedger Ledger;
  /// The (single-slot) split-phase exchange still in flight.
  struct InFlightComm {
    double Remaining = 0;
    std::vector<int> Handles;
  };
  InFlightComm Pending;
  /// Geometries by (extents, lower bounds); map nodes keep their address.
  std::map<std::tuple<std::vector<int64_t>, std::vector<int64_t>>, Geometry,
           std::less<>>
      Geometries;
  /// A live field's storage and heap state. Stale storage still holds a
  /// freed field's values; the accessors fill it before anyone reads it.
  struct HeapField {
    PeArray A;
    bool Stale = false;
    unsigned CoordDim = 0; ///< Dim of A.Geo whose coordField it is, or 0.
  };
  /// Mutable because reading a stale field through a const accessor
  /// zero-fills it (and counts the fill).
  mutable std::map<int, HeapField> Fields;
  /// Storage of freed fields, by element count.
  std::multimap<size_t, std::vector<double>> Spares;
  mutable HeapStats Heap;
  std::map<std::pair<const Geometry *, unsigned>, int> CoordFields;
  /// Every walk resolved so far; map nodes keep plans at one address.
  std::map<WalkKey, WalkPlan> Plans;
  int NextHandle = 1;

  /// The live field \p Handle as it stands, stale or not.
  HeapField &entry(int Handle) const;
  /// \p F's field, zero-filled first when stale.
  PeArray &readable(HeapField &F) const;
  /// The destination of a sweep that writes every element of \p Handle:
  /// stale storage skips the fill when its geometry has no padding, since
  /// the sweep then writes every slot. Call it inside the sweep, so an op
  /// that fails before moving data leaves the field stale.
  PeArray &overwritten(int Handle);
  /// The plan of the walk \p K, resolved on its first sweep.
  WalkPlan &plan(WalkKey K);

  /// cshift, eoshift and multiShift: one exchange of \p Shifts, traced
  /// and counted as \p OpName.
  support::RtStatus shiftExchange(const char *OpName,
                                  const std::vector<ShiftSpec> &Shifts,
                                  int Src, unsigned Dim, bool EndOff);

  /// The shared recoverable-comm path: gates \p Sweep behind transient
  /// fault injection of \p Transient (fail-fast, backoff, retry), runs it,
  /// then checks for injected corruption; a corrupted transfer restores
  /// every handle in \p DstHandles from its pre-sweep checkpoint and
  /// redoes the sweep (a coalesced exchange rolls all of its destinations
  /// back together, exactly like its unfused parts would one by one).
  /// Returns non-Ok after MaxFaultRetries failed attempts. When
  /// observability sinks are attached the whole op (retries and backoff
  /// included) is bracketed by ledger totals into one cycle span and
  /// per-pattern metrics.
  support::RtStatus runFaultableComm(support::FaultKind Transient,
                                     const char *OpName,
                                     const std::vector<int> &DstHandles,
                                     const std::function<void()> &Sweep);
  support::RtStatus
  runFaultableCommGated(support::FaultKind Transient, const char *OpName,
                        const std::vector<int> &DstHandles,
                        const std::function<void()> &Sweep);

  /// Called from inside a comm sweep to report what moved (geometry,
  /// active elements, wire hops) for the op's span/metrics.
  void noteSweep(const Geometry &Geo, int64_t Elems, int64_t Hops) {
    ObsGeo = &Geo;
    ObsElems = Elems;
    ObsHops = Hops;
  }
};

} // namespace runtime
} // namespace f90y

#endif // F90Y_RUNTIME_CMRUNTIME_H
