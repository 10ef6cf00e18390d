//===- peac/Executor.cpp - PEAC functional executor --------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "peac/Executor.h"

#include "observe/Metrics.h"
#include "peac/Kernels.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>

using namespace f90y;
using namespace f90y::peac;

namespace {

/// Per-PE execution state for one routine run. Register scratch is sized
/// to what the routine actually touches (Routine::scratchUse), not the
/// machine's full file sizes; execute() asserts the machine bound once
/// per dispatch.
struct PEState {
  const ExecArgs &Args;
  unsigned PE;
  int64_t IterBase = 0; ///< Element index of lane 0 this iteration.
  unsigned Width;
  std::vector<std::array<double, MaxExecLanes>> VRegs;
  std::vector<std::array<double, MaxExecLanes>> Spill;

  PEState(const ExecArgs &Args, unsigned PE, unsigned Width,
          unsigned NumVRegs, unsigned NumSpill)
      : Args(Args), PE(PE), Width(Width), VRegs(NumVRegs), Spill(NumSpill) {}

  double *memAddr(const Operand &O, unsigned Lane, unsigned NumPtrArgs) {
    if (O.Reg >= NumPtrArgs) {
      // Spill slot: scratch local to the iteration.
      return &Spill[O.Reg - NumPtrArgs][Lane];
    }
    const PtrBinding &B = Args.Ptrs[O.Reg];
    size_t Elem = static_cast<size_t>(O.Offset) +
                  static_cast<size_t>((IterBase + Lane) * O.Stride);
    return B.Data + static_cast<size_t>(PE) * B.PEStride + B.Offset + Elem;
  }

  double read(const Operand &O, unsigned Lane, unsigned NumPtrArgs) {
    switch (O.K) {
    case Operand::Kind::VReg:
      return VRegs[O.Reg][Lane];
    case Operand::Kind::SReg:
      return Args.Scalars[O.Reg];
    case Operand::Kind::Imm:
      return O.Imm;
    case Operand::Kind::Mem:
      return *memAddr(O, Lane, NumPtrArgs);
    }
    return 0;
  }
};

/// Applies one opcode to already-read lane values through evalLane
/// (peac/Kernels.h), the one lane definition the compiled engine's kernels
/// share. Tail padding lanes may compute Inf or NaN from uninitialized
/// padding, but runPE masks their stores, so they never reach subgrid
/// memory.
double applyOp(Opcode Op, double A, double B, double C) {
  return engine::forOpcode<double>(Op, [&](auto K) {
    return engine::evalLane<decltype(K)::value>(A, B, C);
  });
}

/// Runs the routine over one PE's subgrid. The last vector iteration
/// computes all Width lanes (the SIMD machine cannot do otherwise), but
/// stores to real (pointer-argument) memory are masked to the subgrid
/// extent, so tail padding lanes running FDivV/FLogV/FSqrtV over padding
/// never write Inf/NaN past SubgridElems. VReg and spill-slot writes are
/// per-iteration scratch and stay unmasked.
void runPE(const Routine &R, const ExecArgs &Args, const ScratchUse &Use,
           unsigned PE, unsigned Width, int64_t Iters) {
  PEState St(Args, PE, Width, /*NumVRegs=*/Use.VRegs, Use.SpillSlots);
  for (int64_t It = 0; It < Iters; ++It) {
    St.IterBase = It * Width;
    const int64_t ValidLanes =
        std::min<int64_t>(Width, Args.SubgridElems - St.IterBase);
    for (const Instruction &I : R.Body) {
      // All lanes read before any lane writes (vector semantics; the
      // destination register or memory may alias a source).
      double Tmp[MaxExecLanes];
      for (unsigned Lane = 0; Lane < Width; ++Lane) {
        double A = I.Srcs.size() > 0
                       ? St.read(I.Srcs[0], Lane, R.NumPtrArgs)
                       : 0;
        double B = I.Srcs.size() > 1
                       ? St.read(I.Srcs[1], Lane, R.NumPtrArgs)
                       : 0;
        double C = I.Srcs.size() > 2
                       ? St.read(I.Srcs[2], Lane, R.NumPtrArgs)
                       : 0;
        Tmp[Lane] = applyOp(I.Op, A, B, C);
      }
      for (unsigned Lane = 0; Lane < Width; ++Lane) {
        if (I.HasMemDst) {
          if (static_cast<int64_t>(Lane) >= ValidLanes &&
              I.MemDst.Reg < R.NumPtrArgs)
            continue; // Masked tail store to real subgrid memory.
          *St.memAddr(I.MemDst, Lane, R.NumPtrArgs) = Tmp[Lane];
        } else {
          St.VRegs[I.DstVReg][Lane] = Tmp[Lane];
        }
      }
    }
  }
}

} // namespace

ExecResult peac::detail::dispatch(const Routine &R, const ExecArgs &Args,
                                  const cm2::CostModel &Costs,
                                  support::ThreadPool *Pool,
                                  support::FaultInjector *FI,
                                  observe::MetricsRegistry *Metrics,
                                  const SweepFn &Sweep) {
  using support::FaultKind;
  using support::RtCode;
  using support::RtStatus;

  const unsigned Width = Costs.VectorWidth;
  F90Y_CHECK(Width <= MaxExecLanes, "vector width exceeds executor lanes");
  ExecResult Result;

  const int64_t Iters =
      Args.SubgridElems <= 0 ? 0 : (Args.SubgridElems + Width - 1) / Width;

  // Static SIMD cycle account: a property of the broadcast instruction
  // stream, identical for every PE (and for every sweep implementation),
  // so it is computed once up front.
  Result.NodeCycles = static_cast<double>(Iters) *
                      R.cyclesPerIteration(Costs);
  Result.CallCycles =
      Costs.PeacCallCycles +
      static_cast<double>(R.NumPtrArgs + R.NumScalarArgs + 1) *
          Costs.IFifoPerArgCycles;

  // Flops: count only real (unpadded) lanes.
  uint64_t FlopsPerElem = 0;
  for (const Instruction &I : R.Body)
    FlopsPerElem += flopsPerElement(I.Op);
  const uint64_t FlopsPerPE =
      Args.SubgridElems <= 0
          ? 0
          : FlopsPerElem * static_cast<uint64_t>(Args.SubgridElems);

  // Vector-op mix: one sequencer broadcast of each body instruction per
  // subgrid iteration, regardless of PE count (SIMD). Recorded on the
  // calling thread before the sweep, so a later abort still reflects the
  // instruction stream the machine issued. Metric names are interned
  // (opcodeMetricName), so this loop performs no allocation.
  if (Metrics && Iters > 0) {
    Metrics->count("peac.dispatches");
    for (const Instruction &I : R.Body)
      Metrics->count(opcodeMetricName(I.Op), static_cast<uint64_t>(Iters));
  }

  // Injected node faults. Both decisions are drawn on the calling (host)
  // thread and both streams advance once per dispatch regardless of the
  // outcome, so the schedule is independent of thread count and of which
  // kinds are enabled together. A fired fault aborts the dispatch: the
  // PEs before the (deterministically chosen) faulting one have already
  // swept their subgrids - real partial stores the caller must roll back
  // - and the full cycle charge stands, but no useful flops are counted.
  // The partial sweep uses the same Sweep as the full one, so the stores
  // a trap leaves behind are engine-independent too.
  if (FI) {
    uint64_t TrapRaw = 0, FpuRaw = 0;
    const bool Trap = FI->fire(FaultKind::PeTrap, &TrapRaw);
    const bool Fpu = FI->fire(FaultKind::FpuException, &FpuRaw);
    if (Trap || Fpu) {
      const unsigned FaultPE = static_cast<unsigned>(
          (Trap ? TrapRaw : FpuRaw) % (Args.NumPEs ? Args.NumPEs : 1));
      for (unsigned PE = 0; PE < FaultPE; ++PE)
        Sweep(PE);
      Result.Status = RtStatus::fault(
          Trap ? RtCode::PeTrap : RtCode::FpuFault,
          std::string(Trap ? "PE trap" : "FPU exception") + " on PE " +
              std::to_string(FaultPE) + " during PEAC routine '" + R.Name +
              "'");
      return Result;
    }
  }

  // Functional sweep. PEs are data-parallel (each touches only its own
  // subgrid slice of every pointer binding), so chunks of PEs run
  // concurrently; per-chunk flop partials are exact integer sums combined
  // in chunk order, keeping the account bit-identical at any thread count.
  Result.Flops = support::reduceChunksOrdered<uint64_t>(
      Pool, Args.NumPEs,
      [&](int64_t Begin, int64_t End) {
        uint64_t Part = 0;
        for (int64_t PE = Begin; PE < End; ++PE) {
          Sweep(static_cast<unsigned>(PE));
          Part += FlopsPerPE;
        }
        return Part;
      },
      [](uint64_t &Acc, uint64_t Part) { Acc += Part; });
  return Result;
}

ExecResult peac::execute(const Routine &R, const ExecArgs &Args,
                         const cm2::CostModel &Costs,
                         support::ThreadPool *Pool,
                         support::FaultInjector *FI,
                         observe::MetricsRegistry *Metrics) {
  const ScratchUse Use = R.scratchUse();
  F90Y_CHECK(Use.VRegs <= Costs.VectorRegs,
             "PEAC routine uses more vector registers than the machine");
  F90Y_CHECK(Use.SpillSlots <= R.NumSpillSlots,
             "PEAC routine references undeclared spill slots");
  F90Y_CHECK(Use.ScalarArgs <= Args.Scalars.size(),
             "PEAC routine references unbound scalar arguments");
  F90Y_CHECK(R.NumPtrArgs <= Args.Ptrs.size(),
             "PEAC routine references unbound pointer arguments");

  const unsigned Width = Costs.VectorWidth;
  const int64_t Iters =
      Args.SubgridElems <= 0 ? 0 : (Args.SubgridElems + Width - 1) / Width;
  return detail::dispatch(
      R, Args, Costs, Pool, FI, Metrics, [&R, &Args, &Use, Width,
                                          Iters](unsigned PE) {
        runPE(R, Args, Use, PE, Width, Iters);
      });
}
