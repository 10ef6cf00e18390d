//===- runtime/CmRuntime.cpp - CM runtime system -----------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CmRuntime.h"

#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "support/FaultInjector.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>

using namespace f90y;
using namespace f90y::runtime;
using support::FaultInjector;
using support::FaultKind;
using support::RtCode;
using support::RtResult;
using support::RtStatus;

const Geometry *CmRuntime::getGeometry(const std::vector<int64_t> &Extents,
                                       const std::vector<int64_t> &Los) {
  auto It = Geometries.find(std::tie(Extents, Los));
  if (It == Geometries.end())
    It = Geometries
             .try_emplace({Extents, Los},
                          Geometry::layout(Extents, Los, Costs.NumPEs,
                                           Costs.VectorWidth))
             .first;
  return &It->second;
}

RtResult<int> CmRuntime::tryAllocField(const Geometry *Geo, ElemKind Kind) {
  size_t Elems = static_cast<size_t>(Geo->GridPEs * Geo->PaddedSubgrid);
  if (Injector && Injector->fire(FaultKind::AllocOom))
    return RtStatus::fault(
        RtCode::OutOfMemory,
        "parallel heap exhausted allocating " + std::to_string(Elems) +
            " elements for geometry " + Geo->signature());
  HeapField F;
  PeArray &A = F.A;
  A.Geo = Geo;
  A.Kind = Kind;
  const int64_t Size = static_cast<int64_t>(Elems);
  if (auto Spare = Spares.find(Elems); Spare != Spares.end()) {
    A.Data = std::move(Spare->second);
    Spares.erase(Spare);
    Heap.Spare -= Size;
    F.Stale = true; // Zero-filled when first read, unless overwritten.
  } else {
    // Keep live + spare storage under the high-water mark this allocation
    // leaves, so the heap never holds more than its live fields once did.
    while (!Spares.empty() &&
           Heap.Live + Size + Heap.Spare >
               std::max(Heap.HighWater, Heap.Live + Size)) {
      auto Largest = std::prev(Spares.end());
      Heap.Spare -= static_cast<int64_t>(Largest->first);
      Spares.erase(Largest);
    }
    try {
      A.Data.assign(Elems, 0.0);
    } catch (const std::bad_alloc &) {
      return RtStatus::fault(RtCode::OutOfMemory,
                             "host allocation of " + std::to_string(Elems) +
                                 " elements failed for geometry " +
                                 Geo->signature());
    }
    ++Heap.FreshAllocs;
  }
  Heap.Live += Size;
  Heap.HighWater = std::max(Heap.HighWater, Heap.Live);
  int Handle = NextHandle++;
  Fields[Handle] = std::move(F);
  return Handle;
}

int CmRuntime::allocField(const Geometry *Geo, ElemKind Kind) {
  // Compiler-internal and scaffolding allocations (coordinate subgrids,
  // tests, benchmarks) bypass OOM injection: the fault model targets
  // program field allocations, which go through tryAllocField.
  FaultInjector *Saved = Injector;
  Injector = nullptr;
  RtResult<int> R = tryAllocField(Geo, Kind);
  Injector = Saved;
  F90Y_CHECK(R.isOk(), "unrecoverable internal field allocation failure");
  return R.value();
}

void CmRuntime::freeField(int Handle) {
  auto It = Fields.find(Handle);
  if (It == Fields.end())
    return;
  HeapField &F = It->second;
  // The coordinate-field cache hands out plain field handles; drop this
  // one's entry so a later coordField for the same geometry rebuilds
  // instead of returning a handle that trips field()'s assert.
  if (F.CoordDim)
    CoordFields.erase({F.A.Geo, F.CoordDim});
  std::vector<double> &Data = F.A.Data;
  Heap.Live -= static_cast<int64_t>(Data.size());
  Heap.Spare += static_cast<int64_t>(Data.size());
  Spares.emplace(Data.size(), std::move(Data));
  Fields.erase(It);
}

CmRuntime::HeapField &CmRuntime::entry(int Handle) const {
  auto It = Fields.find(Handle);
  F90Y_CHECK(It != Fields.end(), "use of a freed or invalid field handle");
  return It->second;
}

PeArray &CmRuntime::readable(HeapField &F) const {
  if (F.Stale) {
    std::fill(F.A.Data.begin(), F.A.Data.end(), 0.0);
    F.Stale = false;
    ++Heap.ZeroFills;
  }
  return F.A;
}

PeArray &CmRuntime::overwritten(int Handle) {
  HeapField &F = entry(Handle);
  if (F.A.Geo->dense())
    F.Stale = false;
  return readable(F);
}

PeArray &CmRuntime::field(int Handle) { return readable(entry(Handle)); }

const PeArray &CmRuntime::field(int Handle) const {
  return readable(entry(Handle));
}

WalkPlan &CmRuntime::plan(WalkKey K) {
  auto It = Plans.find(K);
  if (It == Plans.end()) {
    RegionWalk W = K.walk();
    It = Plans.try_emplace(std::move(K), std::move(W)).first;
  }
  return It->second;
}

CmRuntime::PlanStats CmRuntime::planStats() const {
  PlanStats S;
  for (const auto &[Key, P] : Plans) {
    ++S.Plans;
    S.Blocks += P.blocks();
  }
  return S;
}

bool CmRuntime::isLiveField(int Handle) const {
  return Fields.count(Handle) != 0;
}

std::vector<double> CmRuntime::snapshotField(int Handle) const {
  return field(Handle).Data;
}

void CmRuntime::restoreField(int Handle, const std::vector<double> &Saved) {
  PeArray &A = field(Handle);
  F90Y_CHECK(Saved.size() == A.Data.size(),
             "field checkpoint does not match the field's storage size");
  // In-place copy: live PEAC pointer bindings into Data stay valid.
  std::copy(Saved.begin(), Saved.end(), A.Data.begin());
  if (Injector)
    ++Injector->counters().Rollbacks;
  if (Trace)
    Trace->cycleInstant("rollback", "fault", Ledger.total(),
                        {observe::arg("field", static_cast<int64_t>(Handle))});
  if (Metrics)
    Metrics->count("fault.rollbacks");
}

RtStatus CmRuntime::runFaultableComm(FaultKind Transient, const char *OpName,
                                     const std::vector<int> &DstHandles,
                                     const std::function<void()> &Sweep) {
  if (!Trace && !Metrics) // Disabled observability: the untouched path.
    return runFaultableCommGated(Transient, OpName, DstHandles, Sweep);

  ObsGeo = nullptr;
  ObsElems = ObsHops = 0;
  const double Before = Ledger.total();
  const uint64_t RetriesBefore = Injector ? Injector->counters().Retries : 0;
  RtStatus St = runFaultableCommGated(Transient, OpName, DstHandles, Sweep);
  const double After = Ledger.total();
  const uint64_t Retries =
      (Injector ? Injector->counters().Retries : 0) - RetriesBefore;
  const int64_t Bytes = ObsElems * 8; // Fields store 8-byte elements.
  if (Trace) {
    std::vector<observe::TraceArg> Args;
    if (ObsGeo)
      Args.push_back(observe::arg("geometry", ObsGeo->signature()));
    Args.push_back(observe::arg("elems", ObsElems));
    Args.push_back(observe::arg("bytes", Bytes));
    Args.push_back(observe::arg("hops", ObsHops));
    if (Retries)
      Args.push_back(observe::arg("retries", Retries));
    if (!St)
      Args.push_back(observe::arg("status", "fault"));
    Trace->cycleSpan(OpName, "comm", Before, After, std::move(Args));
  }
  if (Metrics) {
    std::string P = "comm.";
    for (const char *C = OpName; *C; ++C)
      P += *C == ' ' ? '-' : *C;
    P += '.';
    Metrics->count(P + "ops");
    Metrics->count(P + "bytes", static_cast<uint64_t>(Bytes));
    if (ObsHops)
      Metrics->count(P + "hops", static_cast<uint64_t>(ObsHops));
    Metrics->countCycles(P + "cycles", After - Before);
  }
  return St;
}

RtStatus CmRuntime::runFaultableCommGated(FaultKind Transient,
                                          const char *OpName,
                                          const std::vector<int> &DstHandles,
                                          const std::function<void()> &Sweep) {
  FaultInjector *FI = Injector;
  if (!FI) { // Zero-fault fast path: no gates, no checkpoint.
    Sweep();
    return RtStatus::ok();
  }

  // Transient pre-transfer faults (dropped router message, grid-link
  // timeout): the op fails before any data moves, charges the startup it
  // wasted plus an escalating backoff, and is retried.
  for (unsigned Attempt = 1; FI->fire(Transient); ++Attempt) {
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        static_cast<double>(Costs.FaultRetryBackoffCycles) * Attempt;
    if (Attempt > MaxFaultRetries)
      return RtStatus::fault(
          RtCode::CommFault,
          std::string(OpName) + ": " +
              (Transient == FaultKind::RouterDrop
                   ? "router message dropped on "
                   : "NEWS grid link timed out on ") +
              std::to_string(Attempt) + " consecutive attempts; giving up");
    ++FI->counters().Retries;
    if (Trace)
      Trace->cycleInstant("retry", "fault", Ledger.total(),
                          {observe::arg("op", OpName),
                           observe::arg("attempt",
                                        static_cast<uint64_t>(Attempt))});
    if (Metrics)
      Metrics->count("fault.retries");
  }

  // The transfer itself, with end-to-end corruption detection. A
  // corrupted transfer rolls every destination back to its pre-op
  // checkpoint and redoes the whole sweep (recharging its cycles: the
  // machine really repeats the work).
  std::vector<std::pair<int, std::vector<double>>> Ckpts;
  if (FI->enabled(FaultKind::Corruption))
    for (int DstHandle : DstHandles)
      Ckpts.emplace_back(DstHandle, snapshotField(DstHandle));
  for (unsigned Attempt = 1;; ++Attempt) {
    Sweep();
    if (!FI->fire(FaultKind::Corruption))
      return RtStatus::ok();
    if (Attempt > MaxFaultRetries)
      return RtStatus::fault(RtCode::DataCorrupt,
                             std::string(OpName) +
                                 ": transfer checksum failed on " +
                                 std::to_string(Attempt) +
                                 " consecutive attempts; giving up");
    for (const auto &[DstHandle, Ckpt] : Ckpts)
      restoreField(DstHandle, Ckpt);
    ++FI->counters().Retries;
    Ledger.CommCycles +=
        static_cast<double>(Costs.FaultRetryBackoffCycles) * Attempt;
    if (Trace)
      Trace->cycleInstant("retry", "fault", Ledger.total(),
                          {observe::arg("op", OpName),
                           observe::arg("attempt",
                                        static_cast<uint64_t>(Attempt))});
    if (Metrics)
      Metrics->count("fault.retries");
  }
}

int CmRuntime::coordField(const Geometry *Geo, unsigned Dim) {
  auto It = CoordFields.find({Geo, Dim});
  if (It != CoordFields.end())
    return It->second;
  int Handle = allocField(Geo, ElemKind::Int);
  entry(Handle).CoordDim = Dim;
  PeArray &A = field(Handle);
  const size_t Axis = Dim - 1;
  // Slots advance along Axis when it is the last dimension, rows when it
  // is the second-last.
  const int64_t Along = Axis + 1 == Geo->rank(), Down = Axis + 2 == Geo->rank();
  // Padding positions keep the fresh field's zeros; they never feed
  // active results.
  const RegionWalk W{Region(*Geo), Region(*Geo), {}};
  W.forEachRun(0, Geo->GridPEs, [&](const Run &R) {
    for (int64_t Row = 0; Row < R.Rows; ++Row) {
      double *Out = A.peBase(R.DstPE) + R.DstOff + Row * R.DstRow;
      const int64_t First = R.Pos[Axis] + Down * Row + Geo->Los[Axis];
      for (int64_t I = 0; I < R.Len; ++I)
        Out[I] = static_cast<double>(First + Along * I);
    }
  });
  CoordFields[{Geo, Dim}] = Handle;
  return Handle;
}

void CmRuntime::setFieldLayout(int Handle, std::vector<int64_t> AxisMap,
                               std::vector<int64_t> Offsets) {
  PeArray &A = entry(Handle).A; // Placement only: no data is read.
  bool AnyOffset = false;
  for (int64_t O : Offsets)
    AnyOffset |= O != 0;
  A.AxisMap = AnyOffset ? std::move(AxisMap) : std::vector<int64_t>();
  A.LayoutOffsets = AnyOffset ? std::move(Offsets) : std::vector<int64_t>();
}

double CmRuntime::readElement(int Handle,
                              const std::vector<int64_t> &ZeroCoord) {
  PeArray &A = field(Handle);
  int64_t PE, Off;
  if (A.hasLayout()) {
    std::vector<int64_t> Slot;
    A.toSlot(ZeroCoord, Slot);
    A.Geo->locate(Slot, PE, Off);
  } else
    A.Geo->locate(ZeroCoord, PE, Off);
  Ledger.CommCycles += Costs.RouterPerElem;
  if (Metrics) { // Scalar router traffic: too fine-grained for spans.
    Metrics->count("comm.element-read.ops");
    Metrics->countCycles("comm.element-read.cycles", Costs.RouterPerElem);
  }
  return A.peBase(PE)[Off];
}

void CmRuntime::writeElement(int Handle,
                             const std::vector<int64_t> &ZeroCoord,
                             double V) {
  PeArray &A = field(Handle);
  int64_t PE, Off;
  if (A.hasLayout()) {
    std::vector<int64_t> Slot;
    A.toSlot(ZeroCoord, Slot);
    A.Geo->locate(Slot, PE, Off);
  } else
    A.Geo->locate(ZeroCoord, PE, Off);
  Ledger.CommCycles += Costs.RouterPerElem;
  if (Metrics) {
    Metrics->count("comm.element-write.ops");
    Metrics->countCycles("comm.element-write.cycles", Costs.RouterPerElem);
  }
  if (A.Kind == ElemKind::Int)
    V = std::trunc(V);
  else if (A.Kind == ElemKind::Bool)
    V = V != 0 ? 1.0 : 0.0;
  A.peBase(PE)[Off] = V;
}

namespace {

/// Copies every block of \p P from \p S into \p D (zero for boundary
/// fill), truncating under \p Truncate.
void copyBlocks(support::ThreadPool *Pool, WalkPlan &P, PeArray &D,
                const PeArray &S, bool Truncate = false) {
  double *const To = D.Data.data();
  const double *const From = S.Data.data();
  const int64_t Step = P.dstStep(), RowStep = P.dstRow();
  P.sweep(Pool, [&](int64_t, const WalkPlan::Block &B) {
    for (int64_t Row = 0; Row < B.Rows; ++Row) {
      double *Out = To + B.Dst + Row * RowStep;
      if (B.fill()) {
        for (int64_t I = 0; I < B.Len; ++I)
          Out[I * Step] = 0.0;
        continue;
      }
      const double *In = From + B.Src + Row * B.SrcRow;
      if (Step == 1 && B.SrcStep == 0 && !Truncate)
        std::fill_n(Out, B.Len, *In); // One source slot fans out.
      else if (Step == 1 && B.SrcStep == 1 && !Truncate)
        std::copy_n(In, B.Len, Out);
      else
        for (int64_t I = 0; I < B.Len; ++I) {
          double V = In[I * B.SrcStep];
          Out[I * Step] = Truncate ? std::trunc(V) : V;
        }
    }
  });
}

/// One ReduceOp fold: Sum adds from zero; Product, Max and Min start from
/// the first element; Count, Any and All count the nonzero elements.
struct Fold {
  bool Seen = false;
  double Acc = 0;
  int64_t True = 0, Elems = 0;

  void add(ReduceOp Op, double V) { absorb(Op, V, V != 0, 1); }
  /// Folds in \p V standing for \p N elements, \p T of them nonzero.
  void absorb(ReduceOp Op, double V, int64_t T, int64_t N) {
    if (Op == ReduceOp::Sum)
      Acc += V;
    else if (Op == ReduceOp::Product)
      Acc = Seen ? Acc * V : V;
    else if (Op == ReduceOp::Max)
      Acc = Seen ? (V > Acc ? V : Acc) : V;
    else if (Op == ReduceOp::Min)
      Acc = Seen ? (V < Acc ? V : Acc) : V;
    True += T;
    Elems += N;
    Seen = true;
  }
  double result(ReduceOp Op) const {
    if (Op == ReduceOp::Count)
      return static_cast<double>(True);
    if (Op == ReduceOp::Any)
      return True > 0 ? 1.0 : 0.0;
    if (Op == ReduceOp::All)
      return True == Elems ? 1.0 : 0.0;
    return Acc;
  }
};

/// A reduction's charge: startup, a local vectorized pass over \p G's
/// subgrid, and log2(Nodes) combine steps.
double reduceCycles(const cm2::CostModel &Costs, const Geometry &G,
                    int64_t Nodes) {
  return Costs.CommStartupCycles +
         static_cast<double>(G.SubgridElems) * Costs.VectorAluCycles /
             static_cast<double>(Costs.VectorWidth) +
         std::ceil(std::log2(static_cast<double>(Nodes) + 1)) *
             Costs.ReduceStepCycles;
}

} // namespace

RtStatus CmRuntime::cshift(int Dst, int Src, unsigned Dim, int64_t Shift) {
  return shiftExchange("cshift", {{Dst, Shift}}, Src, Dim, /*EndOff=*/false);
}

RtStatus CmRuntime::eoshift(int Dst, int Src, unsigned Dim, int64_t Shift) {
  return shiftExchange("eoshift", {{Dst, Shift}}, Src, Dim, /*EndOff=*/true);
}

RtStatus CmRuntime::multiShift(const std::vector<ShiftSpec> &Shifts, int Src,
                               unsigned Dim, bool EndOff) {
  // Exchanges saved relative to the unfused sequence (counted once per
  // call, not per fault retry: retries repeat work, not fusions).
  if (Metrics && Shifts.size() > 1)
    Metrics->count("comm.coalesced",
                   static_cast<uint64_t>(Shifts.size() - 1));
  return shiftExchange("multi-shift", Shifts, Src, Dim, EndOff);
}

RtStatus CmRuntime::shiftExchange(const char *OpName,
                                  const std::vector<ShiftSpec> &Shifts,
                                  int Src, unsigned Dim, bool EndOff) {
  F90Y_CHECK(!Shifts.empty(), "multiShift requires at least one shift");
  const Geometry &Geo = *entry(Src).A.Geo;
  const size_t Axis = static_cast<size_t>(Dim - 1);
  F90Y_CHECK(Axis < Geo.rank(), "shift dimension out of range");
  // Clause I's destination slot x reads source slot x + Shift along Axis,
  // wrapped around, or boundary fill past the edge under EndOff.
  std::vector<WalkPlan *> Walks;
  std::vector<int> DstHandles;
  for (const ShiftSpec &Spec : Shifts) {
    std::vector<int64_t> By(Geo.rank(), 0);
    By[Axis] = Spec.Shift;
    Walks.push_back(
        &plan({*entry(Spec.Dst).A.Geo, Geo, {}, std::move(By), EndOff}));
    DstHandles.push_back(Spec.Dst);
  }

  // One exchange: the clauses move their data in order, each reading the
  // source as it stands when the clause runs (an aliased destination
  // behaves exactly like the unfused sequence), but the grid pays the
  // fixed communication startup once. A fault retries or rolls back the
  // whole exchange - all destinations together - as one operation. Local
  // slots, boundary fills (real in-PE stores) and wire hops are the
  // plans' exact integer totals, so the charge is thread-count
  // independent.
  return runFaultableComm(FaultKind::GridTimeout, OpName, DstHandles, [&] {
    int64_t Local = 0, Hops = 0;
    for (size_t I = 0; I < Shifts.size(); ++I) {
      PeArray Snapshot;
      const PeArray &S =
          Shifts[I].Dst == Src ? (Snapshot = field(Src)) : field(Src);
      copyBlocks(Pool, *Walks[I], overwritten(Shifts[I].Dst), S);
      Local += Walks[I]->local();
      Hops += Walks[I]->hops();
    }
    noteSweep(Geo, Geo.totalElements() * static_cast<int64_t>(Shifts.size()),
              Hops);
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        (Costs.GridLocalPerElem * static_cast<double>(Local) +
         Costs.GridWirePerElemHop * static_cast<double>(Hops)) /
            static_cast<double>(Geo.GridPEs);
  });
}

RtStatus CmRuntime::transpose(int Dst, int Src) {
  const Geometry &DG = *entry(Dst).A.Geo, &SG = *entry(Src).A.Geo;
  F90Y_CHECK(DG.rank() == 2 && SG.rank() == 2, "transpose requires rank 2");
  // A correct program can reach mismatched extents through mismatched
  // declarations, so it is a recoverable status, not a check.
  if (DG.Extents[0] != SG.Extents[1] || DG.Extents[1] != SG.Extents[0])
    return RtStatus::fault(
        RtCode::ShapeMismatch,
        "transpose: destination extents " + std::to_string(DG.Extents[0]) +
            "x" + std::to_string(DG.Extents[1]) +
            " are not the transpose of source extents " +
            std::to_string(SG.Extents[0]) + "x" +
            std::to_string(SG.Extents[1]));
  WalkPlan &P = plan({DG, SG, {1, 0}}); // dst(i, j) = src(j, i).

  return runFaultableComm(FaultKind::RouterDrop, "transpose", {Dst}, [&] {
    PeArray Snapshot;
    const PeArray &S = Dst == Src ? (Snapshot = field(Src)) : field(Src);
    copyBlocks(Pool, P, overwritten(Dst), S);
    noteSweep(DG, DG.totalElements(), /*Hops=*/0);
    // Transpose goes through the router; charge the per-element cost
    // spread across the machine (all PEs inject concurrently).
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        Costs.RouterPerElem * static_cast<double>(DG.totalElements()) /
            static_cast<double>(DG.GridPEs);
  });
}

RtStatus CmRuntime::sectionCopy(int Dst,
                                const std::vector<SectionDim> &DstSec,
                                int Src,
                                const std::vector<SectionDim> &SrcSec) {
  const Geometry &DG = *entry(Dst).A.Geo;
  F90Y_CHECK(DstSec.size() == SrcSec.size(), "section rank mismatch");
  WalkKey Key(DG, *entry(Src).A.Geo);
  Key.DstSec = DstSec;
  Key.SrcSec = SrcSec;
  WalkPlan &P = plan(std::move(Key));
  // The plan checked that the section lies inside its array, so every
  // element in a unit-stride run of a whole extent is the whole array.
  int64_t Total = 1;
  bool Whole = true;
  for (size_t D = 0; D < DstSec.size(); ++D) {
    Total *= DstSec[D].Count;
    Whole &= std::abs(DstSec[D].Stride) == 1 &&
             DstSec[D].Count == DG.Extents[D];
  }
  if (Total == 0)
    return RtStatus::ok();

  return runFaultableComm(FaultKind::RouterDrop, "section copy", {Dst}, [&] {
    // Overlapping sections of one array keep Fortran vector semantics:
    // every read sees the array as it stood before the copy.
    PeArray Snapshot;
    const PeArray &S = Dst == Src ? (Snapshot = field(Src)) : field(Src);
    PeArray &D = Whole ? overwritten(Dst) : field(Dst);
    copyBlocks(Pool, P, D, S, /*Truncate=*/D.Kind == ElemKind::Int);
    noteSweep(DG, Total, /*Hops=*/0);
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        (Costs.GridLocalPerElem * static_cast<double>(P.local()) +
         Costs.RouterPerElem * static_cast<double>(Total - P.local())) /
            static_cast<double>(DG.GridPEs);
  });
}

RtResult<double> CmRuntime::tryReduce(ReduceOp Op, int Src) {
  const Geometry &Geo = *entry(Src).A.Geo;
  WalkPlan &P = plan({Geo, Geo});
  double Out = 0;

  // Per-chunk partial folds in PE order, combined in chunk order. The
  // chunk decomposition is fixed by the PE count alone (ThreadPool
  // contract), so the result is identical at every thread count; for Sum
  // and Product the chunked combine may differ from a whole-machine left
  // fold in the final ulps, exactly as the real machine's tree combine
  // does (see programs_test's note on machine-vs-interpreter order).
  RtStatus St = runFaultableComm(FaultKind::GridTimeout, "reduce", {}, [&] {
    const double *const From = field(Src).Data.data();
    const int64_t RowStep = P.dstRow();
    std::vector<Fold> Parts(
        static_cast<size_t>(support::ThreadPool::numChunks(Geo.GridPEs)));
    P.sweep(Pool, [&](int64_t C, const WalkPlan::Block &B) {
      // Fold into a local, which the field's doubles cannot alias.
      Fold F = Parts[static_cast<size_t>(C)];
      for (int64_t Row = 0; Row < B.Rows; ++Row) {
        const double *In = From + B.Dst + Row * RowStep;
        for (int64_t I = 0; I < B.Len; ++I)
          F.add(Op, In[I]);
      }
      Parts[static_cast<size_t>(C)] = F;
    });
    Fold Total;
    for (const Fold &Part : Parts)
      if (Part.Seen) // Fold in a later chunk's partial.
        Total.absorb(Op, Part.Acc, Part.True, Part.Elems);

    noteSweep(Geo, Geo.totalElements(), /*Hops=*/0);
    Ledger.CommCycles += reduceCycles(Costs, Geo, Geo.GridPEs);
    if (Op == ReduceOp::Sum || Op == ReduceOp::Product)
      Ledger.Flops += static_cast<uint64_t>(Geo.totalElements());
    Out = Total.result(Op);
  });
  if (!St)
    return St;
  return Out;
}

double CmRuntime::reduce(ReduceOp Op, int Src) {
  RtResult<double> R = tryReduce(Op, Src);
  F90Y_CHECK(R.isOk(), "unrecoverable reduction fault");
  return R.value();
}

RtStatus CmRuntime::reduceAlongDim(ReduceOp Op, int Dst, int Src,
                                   unsigned Dim) {
  const Geometry &DG = *entry(Dst).A.Geo, &SG = *entry(Src).A.Geo;
  size_t Axis = static_cast<size_t>(Dim - 1);
  F90Y_CHECK(Axis < SG.rank() && DG.rank() + 1 == SG.rank(),
             "reduceAlongDim rank mismatch");
  // A block's sources are its elements' source lines at coordinate 0 of the
  // reduced axis; Line[K] is the storage step from there to coordinate K.
  std::vector<int> From;
  for (size_t J = 0, Out = 0; J < SG.rank(); ++J)
    From.push_back(J == Axis ? -1 : static_cast<int>(Out++));
  WalkPlan &P = plan({DG, SG, std::move(From)});
  std::vector<int64_t> Line;
  for (int64_t K = 0; K < SG.Extents[Axis]; ++K)
    Line.push_back(K / SG.Sub[Axis] * SG.PEStride[Axis] * SG.PaddedSubgrid +
                   K % SG.Sub[Axis] * SG.OffStride[Axis]);

  // Every destination element folds its own source line in axis order,
  // independently of all others - so chunks of destination PEs run
  // concurrently and the result is bit-identical to the serial sweep.
  return runFaultableComm(FaultKind::GridTimeout, "reduce-dim", {Dst}, [&] {
    const double *const Lines = field(Src).Data.data();
    PeArray &D = overwritten(Dst);
    double *const To = D.Data.data();
    const bool Int = D.Kind == ElemKind::Int;
    const int64_t Step = P.dstStep(), RowStep = P.dstRow();
    P.sweep(Pool, [&](int64_t, const WalkPlan::Block &B) {
      for (int64_t Row = 0; Row < B.Rows; ++Row) {
        const double *In = Lines + B.Src + Row * B.SrcRow;
        double *Out = To + B.Dst + Row * RowStep;
        for (int64_t I = 0; I < B.Len; ++I) {
          Fold F;
          for (int64_t K : Line)
            F.add(Op, In[I * B.SrcStep + K]);
          double V = F.result(Op);
          Out[I * Step] = Int ? std::trunc(V) : V;
        }
      }
    });

    noteSweep(SG, SG.totalElements(), /*Hops=*/0);
    // Combine along the reduced axis's PEs, then redistribute the
    // rank-reduced result through the router.
    Ledger.CommCycles +=
        reduceCycles(Costs, SG, SG.Grid[Axis]) +
        Costs.RouterPerElem * static_cast<double>(DG.totalElements()) /
            static_cast<double>(DG.GridPEs);
    if (Op == ReduceOp::Sum || Op == ReduceOp::Product)
      Ledger.Flops += static_cast<uint64_t>(SG.totalElements());
  });
}

RtStatus CmRuntime::spreadAlongDim(int Dst, int Src, unsigned Dim) {
  const Geometry &DG = *entry(Dst).A.Geo, &SG = *entry(Src).A.Geo;
  size_t Axis = static_cast<size_t>(Dim - 1);
  F90Y_CHECK(Axis < DG.rank() && DG.rank() == SG.rank() + 1,
             "spreadAlongDim rank mismatch");
  // Source dimension J follows destination dimension J, skipping Axis, so
  // every slot along Axis reads the same source slot.
  std::vector<int> From;
  for (size_t J = 0; J < SG.rank(); ++J)
    From.push_back(static_cast<int>(J < Axis ? J : J + 1));
  WalkPlan &P = plan({DG, SG, std::move(From)});

  // Pure broadcast: destination PEs only read the source, so chunks of
  // them run concurrently with no accounting to reduce.
  return runFaultableComm(FaultKind::RouterDrop, "spread", {Dst}, [&] {
    const PeArray &S = field(Src);
    copyBlocks(Pool, P, overwritten(Dst), S);
    noteSweep(DG, DG.totalElements(), /*Hops=*/0);
    // Broadcast through the router (each source element fans out).
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        Costs.RouterPerElem * static_cast<double>(DG.totalElements()) /
            static_cast<double>(DG.GridPEs);
  });
}

RtResult<std::string> CmRuntime::tryRenderField(int Handle) {
  const PeArray &A = field(Handle);
  const Geometry &Geo = *A.Geo;
  // Gather into a one-PE copy of the shape, whose slots are the logical
  // elements in row-major order: logical element x reads slot
  // (x + LayoutOffsets) modulo the extents and lands at its own walk
  // position, so the text never depends on the walk's visiting order.
  // Every element read crosses the router, so the whole render retries
  // as one faultable op. The one-PE geometry lives only for this call, so
  // its plan is not cached.
  const Geometry OnePE = Geometry::layout(Geo.Extents, Geo.Los, 1, 1);
  WalkPlan P(RegionWalk(Region(OnePE), Region(Geo), {}, A.LayoutOffsets));
  PeArray Flat;
  Flat.Geo = &OnePE;
  Flat.Data.resize(static_cast<size_t>(OnePE.PaddedSubgrid));
  std::string Out;
  RtStatus St =
      runFaultableComm(FaultKind::RouterDrop, "field render", {}, [&] {
        copyBlocks(nullptr, P, Flat, A);
        Out.clear();
        for (double V : Flat.Data) {
          if (!Out.empty())
            Out += ' ';
          if (A.Kind == ElemKind::Int)
            Out += std::to_string(static_cast<int64_t>(V));
          else if (A.Kind == ElemKind::Bool)
            Out += V != 0 ? "T" : "F";
          else
            Out += formatDouble(V);
        }
        noteSweep(Geo, Geo.totalElements(), /*Hops=*/0);
        Ledger.CommCycles +=
            Costs.RouterPerElem * static_cast<double>(Geo.totalElements());
      });
  if (!St)
    return St;
  return Out;
}

std::string CmRuntime::renderField(int Handle) {
  RtResult<std::string> R = tryRenderField(Handle);
  F90Y_CHECK(R.isOk(), "unrecoverable field render fault");
  return R.value();
}

//===----------------------------------------------------------------------===//
// Split-phase communication (-comm=overlap)
//===----------------------------------------------------------------------===//

void CmRuntime::commIssue(double Cycles, const std::vector<int> &Handles) {
  // The data network serializes with itself: there is a single in-flight
  // slot, so issuing a new exchange retires any previous one without
  // further credit (whatever it could hide has already been noted).
  Pending.Remaining = Cycles;
  Pending.Handles = Handles;
  Ledger.HostCycles += Costs.CommIssueCycles;
}

void CmRuntime::commWaitAll() { Pending = InFlightComm(); }

double CmRuntime::noteCompute(double Cycles, const std::vector<int> &Handles) {
  if (Pending.Remaining <= 0)
    return 0.0;
  // A compute phase that touches an exchange's operands must wait for the
  // wire: it earns no credit, and the exchange stops hiding (the sequencer
  // stalls until the transfer drains).
  for (int H : Handles)
    if (std::find(Pending.Handles.begin(), Pending.Handles.end(), H) !=
        Pending.Handles.end()) {
      Pending = InFlightComm();
      return 0.0;
    }
  double Hidden = std::min(Cycles, Pending.Remaining);
  Pending.Remaining -= Hidden;
  double Saved = Hidden * Costs.CommOverlapEfficiency;
  if (Saved <= 0)
    return 0.0;
  Ledger.OverlappedCycles += Saved;
  if (Metrics)
    Metrics->countCycles("comm.overlapped_cycles", Saved);
  if (Trace) // Instants do not participate in the span-tiling invariant.
    Trace->cycleInstant("comm-hidden", "comm", Ledger.total(),
                        {observe::arg("cycles", Saved)});
  return Saved;
}
