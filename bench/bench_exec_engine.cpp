//===- bench/bench_exec_engine.cpp - interp vs compiled PEAC engine ---------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the host-side dispatch cost of the two PEAC execution
/// engines on the workload shape the simulator spends its life on: a
/// timestep loop re-dispatching one SWE-shaped routine at a high
/// virtual-processor ratio. Three legs:
///
///   interp          the reference interpreter (decode every operand of
///                   every instruction, every iteration, every PE)
///   compiled-cold   the pre-compiled engine with its routine cache
///                   cleared before every dispatch (pure translation +
///                   run cost)
///   compiled-warm   the pre-compiled engine with a warm cache - the
///                   steady state of a timestep loop, where the routine
///                   is translated exactly once
///
/// The binding checks are bit-identity: all three legs must produce
/// byte-identical field memory and identical flop/cycle accounts (the
/// engine is a simulator optimization, not a machine change). A second
/// leg runs a whole compiled SWE program under -exec=interp vs
/// -exec=compiled and requires identical output and ledger. The
/// wall-clock speedups are informational, with a 3x warm-cache target.
///
/// Usage: bench_exec_engine [NumPEs] [SubgridElems] [steps] [reps]
///        (default 2048 128 40 3)
///
/// Exits nonzero on any equivalence violation; writes
/// BENCH_exec_engine.json.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"
#include "driver/Workloads.h"
#include "invariance/Invariance.h"
#include "peac/Engine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace f90y;
using namespace f90y::driver;

namespace {

peac::Instruction ins(peac::Opcode Op, std::vector<peac::Operand> Srcs,
                      unsigned Dst, bool Fused = false) {
  peac::Instruction I;
  I.Op = Op;
  I.Srcs = std::move(Srcs);
  I.DstVReg = Dst;
  I.FusedWithPrev = Fused;
  return I;
}

peac::Instruction store(peac::Operand Src, peac::Operand Dst,
                        bool Spill = false) {
  peac::Instruction I;
  I.Op = peac::Opcode::FStrV;
  I.Srcs = {Src};
  I.MemDst = Dst;
  I.HasMemDst = true;
  I.IsSpill = Spill;
  return I;
}

/// An SWE-shaped timestep body: load velocity and height fields, form a
/// finite-difference height gradient, update the velocities with chained
/// multiply-adds, accumulate the momentum flux into the new height field
/// through one spill round-trip, store all three. Exercises every operand
/// kind (memory with offsets, scalars, an immediate, spill slots) and the
/// madd chain - the instruction mix the compiler emits for Figure 12.
peac::Routine sweShapedRoutine() {
  using peac::Opcode;
  using peac::Operand;
  peac::Routine R;
  R.Name = "swe_step";
  R.NumPtrArgs = 4;    // aP0=u, aP1=v, aP2=h (read), aP3=h (write)
  R.NumScalarArgs = 3; // aS0=dt, aS1=g, aS2=f
  R.NumSpillSlots = 1;
  unsigned Spill0 = R.NumPtrArgs; // Mem reg >= NumPtrArgs addresses spills.

  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(0)}, 0));      // u
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(1)}, 1, true)); // v
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(2)}, 2));      // h
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(2, 1)}, 3, true)); // h_e
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(2, 2)}, 4));   // h_ee
  // du = dt * (g * (h_e - h)); u += du
  R.Body.push_back(ins(Opcode::FSubV, {Operand::vreg(3), Operand::vreg(2)}, 5));
  R.Body.push_back(ins(Opcode::FMulV, {Operand::vreg(5), Operand::sreg(1)}, 5));
  R.Body.push_back(ins(Opcode::FMAddV,
                       {Operand::vreg(5), Operand::sreg(0), Operand::vreg(0)},
                       0));
  R.Body.push_back(store(Operand::vreg(0), Operand::mem(Spill0), true));
  // dv = dt * (f * (h_ee - h_e)); v += dv
  R.Body.push_back(ins(Opcode::FSubV, {Operand::vreg(4), Operand::vreg(3)}, 6));
  R.Body.push_back(ins(Opcode::FMulV, {Operand::vreg(6), Operand::sreg(2)}, 6));
  R.Body.push_back(ins(Opcode::FMAddV,
                       {Operand::vreg(6), Operand::sreg(0), Operand::vreg(1)},
                       1));
  // h' = h + 0.5 * dt * (u' * v') - momentum flux through the spill slot.
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(Spill0)}, 7));
  R.Body.back().IsSpill = true;
  R.Body.push_back(ins(Opcode::FMulV, {Operand::vreg(7), Operand::vreg(1)}, 5));
  R.Body.push_back(ins(Opcode::FMulV, {Operand::vreg(5), Operand::imm(0.5)}, 5));
  R.Body.push_back(ins(Opcode::FMAddV,
                       {Operand::vreg(5), Operand::sreg(0), Operand::vreg(2)},
                       2));
  R.Body.push_back(store(Operand::vreg(0), Operand::mem(0)));
  R.Body.push_back(store(Operand::vreg(1), Operand::mem(1), false));
  R.Body.back().FusedWithPrev = true;
  R.Body.push_back(store(Operand::vreg(2), Operand::mem(3)));
  return R;
}

/// One measured engine configuration over the whole timestep loop.
struct Leg {
  double Millis = 0;                     ///< Best wall time over the reps.
  uint64_t Flops = 0;                    ///< Sum over all dispatches.
  double NodeCycles = 0, CallCycles = 0; ///< Sum over all dispatches.
  std::vector<std::vector<double>> Fields; ///< Final u/v/h/h' memory.
};

Leg runLeg(const peac::Routine &R, const cm2::CostModel &Machine,
           const std::vector<std::vector<double>> &Init, unsigned NumPEs,
           int64_t SubgridElems, size_t PEStride, int Steps, int Reps,
           peac::EngineKind Kind, bool ColdCache) {
  // Private cache per leg: the warm leg measures a cache this leg filled,
  // not one a previous leg (or the process-wide engine) happened to seed.
  peac::RoutineCache Cache;
  peac::ExecutionEngine Engine(Kind, &Cache);
  Leg L;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    std::vector<std::vector<double>> Fields = Init; // Fresh state per rep.
    peac::ExecArgs Args;
    for (auto &F : Fields)
      Args.Ptrs.push_back({F.data(), PEStride, 0});
    Args.Scalars = {1e-3, 9.8, 0.5}; // dt, g, f
    Args.NumPEs = NumPEs;
    Args.SubgridElems = SubgridElems;

    uint64_t Flops = 0;
    double Node = 0, Call = 0;
    auto T0 = std::chrono::steady_clock::now();
    for (int Step = 0; Step < Steps; ++Step) {
      if (ColdCache)
        Cache.clear();
      peac::ExecResult Res = Engine.execute(R, Args, Machine);
      if (!Res.Status.isOk()) {
        std::fprintf(stderr, "dispatch failed: %s\n",
                     Res.Status.message().c_str());
        std::exit(1);
      }
      Flops += Res.Flops;
      Node += Res.NodeCycles;
      Call += Res.CallCycles;
      // Double-buffer the height field, as a real timestep loop would.
      std::swap(Args.Ptrs[2], Args.Ptrs[3]);
    }
    auto T1 = std::chrono::steady_clock::now();
    double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    if (Rep == 0 || Ms < L.Millis)
      L.Millis = Ms;
    L.Flops = Flops;
    L.NodeCycles = Node;
    L.CallCycles = Call;
    L.Fields = std::move(Fields);
  }
  return L;
}

/// Byte-exact comparison of two legs (memory, flops, cycles). The engine
/// contract is bit-identity, so any divergence is a hard failure.
bool sameLeg(const Leg &A, const Leg &B, const char *Name) {
  bool Ok = true;
  for (size_t F = 0; F < A.Fields.size(); ++F)
    if (std::memcmp(A.Fields[F].data(), B.Fields[F].data(),
                    A.Fields[F].size() * sizeof(double)) != 0) {
      std::fprintf(stderr, "FAIL: %s diverged from interp in field %zu\n",
                   Name, F);
      Ok = false;
    }
  if (A.Flops != B.Flops || A.NodeCycles != B.NodeCycles ||
      A.CallCycles != B.CallCycles) {
    std::fprintf(stderr, "FAIL: %s flop/cycle account differs from interp\n",
                 Name);
    Ok = false;
  }
  return Ok;
}

} // namespace

int main(int argc, char **argv) {
  unsigned NumPEs = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 2048;
  int64_t SubgridElems = argc > 2 ? std::atoll(argv[2]) : 128;
  int Steps = argc > 3 ? std::atoi(argv[3]) : 40;
  int Reps = argc > 4 ? std::atoi(argv[4]) : 3;
  if (Reps < 1)
    Reps = 1;

  cm2::CostModel Machine;
  Machine.NumPEs = NumPEs;
  peac::Routine R = sweShapedRoutine();

  std::printf("PEAC execution engine (SWE-shaped routine, %u PEs, "
              "VP ratio %lld, %d timesteps, best of %d)\n",
              NumPEs, static_cast<long long>(SubgridElems), Steps, Reps);
  std::printf("routine: %u instructions, %u slots after dual-issue\n\n",
              R.bodyInstructionCount(), R.slotCount());

  // Pad each PE's slice so the +2 stencil offsets and the tail vector
  // iteration stay inside the slice at any VP ratio.
  size_t PEStride = static_cast<size_t>(SubgridElems) + 8;
  std::vector<std::vector<double>> Init(
      4, std::vector<double>(NumPEs * PEStride));
  for (size_t F = 0; F < Init.size(); ++F)
    for (size_t I = 0; I < Init[F].size(); ++I)
      Init[F][I] = 0.5 + ((I * 31 + F * 7 + 3) % 1000) / 1000.0;

  Leg Interp = runLeg(R, Machine, Init, NumPEs, SubgridElems, PEStride, Steps,
                      Reps, peac::EngineKind::Interp, false);
  Leg Cold = runLeg(R, Machine, Init, NumPEs, SubgridElems, PEStride, Steps,
                    Reps, peac::EngineKind::Compiled, true);
  Leg Warm = runLeg(R, Machine, Init, NumPEs, SubgridElems, PEStride, Steps,
                    Reps, peac::EngineKind::Compiled, false);

  bool Ok = sameLeg(Interp, Cold, "compiled-cold") &
            sameLeg(Interp, Warm, "compiled-warm");

  double ColdX = Cold.Millis > 0 ? Interp.Millis / Cold.Millis : 0;
  double WarmX = Warm.Millis > 0 ? Interp.Millis / Warm.Millis : 0;
  std::printf("  %-24s %9.2f ms\n", "interp", Interp.Millis);
  std::printf("  %-24s %9.2f ms  (%.2fx)\n", "compiled, cold cache",
              Cold.Millis, ColdX);
  std::printf("  %-24s %9.2f ms  (%.2fx, target >= 3x)\n",
              "compiled, warm cache", Warm.Millis, WarmX);
  if (Ok)
    std::printf("  fields, flops, cycles: bit-identical across engines\n");

  // Whole-program leg: a compiled SWE run end to end under each engine.
  // Binding check: the host knobs (-exec, -threads) may not change a
  // program's output, field storage or cycle ledger (so reported GFLOPS
  // are engine-independent).
  int64_t ProgN = 128, ProgSteps = 2;
  const std::string ProgSrc = sweSource(ProgN, ProgSteps);
  const invariance::Leg Prog{{"-comm=sync", "-threads=1"}};
  auto C = bench::compileOrDie(ProgSrc, Profile::F90Y, Prog.config().machine());
  auto Measure = [&](const char *Exec) {
    return bench::measure(C->artifacts().Compiled.Program,
                          C->options().Costs,
                          (Prog + invariance::Leg{{Exec}}).executionOptions(),
                          Reps);
  };
  bench::Sample PI = Measure("-exec=interp"), PC = Measure("-exec=compiled");
  double ProgX = PC.Millis > 0 ? PI.Millis / PC.Millis : 0;
  std::printf("\nwhole program (SWE %lldx%lld, %lld steps):\n",
              static_cast<long long>(ProgN), static_cast<long long>(ProgN),
              static_cast<long long>(ProgSteps));
  std::printf("  %-24s %9.2f ms\n", "-exec=interp", PI.Millis);
  std::printf("  %-24s %9.2f ms  (%.2fx)\n", "-exec=compiled", PC.Millis,
              ProgX);
  invariance::Matrix M;
  M.Base = Prog;
  if (std::string Diff = invariance::check(ProgSrc, M).Divergence;
      !Diff.empty()) {
    std::fprintf(stderr, "FAIL: a host knob changed the program's run: %s\n",
                 Diff.c_str());
    Ok = false;
  } else {
    std::printf("  output, fields and ledger: bit-identical across "
                "-exec and -threads\n");
  }

  // As in bench_fault_overhead, wall-clock ratios are informational; the
  // bit-identity checks are the binding ones.
  bench::Report Rep("exec_engine");
  Rep.set("num_pes", static_cast<uint64_t>(NumPEs));
  Rep.set("subgrid_elems", SubgridElems);
  Rep.set("steps", Steps);
  Rep.set("reps", Reps);
  Rep.set("interp_ms", Interp.Millis);
  Rep.set("compiled_cold_ms", Cold.Millis);
  Rep.set("compiled_warm_ms", Warm.Millis);
  Rep.set("cold_speedup", ColdX);
  Rep.set("warm_speedup", WarmX);
  Rep.set("program_interp_ms", PI.Millis);
  Rep.set("program_compiled_ms", PC.Millis);
  Rep.set("program_speedup", ProgX);
  Rep.set("bit_identical", std::string(Ok ? "yes" : "no"));
  Rep.write();
  return Ok ? 0 : 1;
}
