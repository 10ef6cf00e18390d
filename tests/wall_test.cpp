//===- tests/wall_test.cpp - the host wall-clock gates ----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three host-time ratios the simulator promises:
///
///  - a warm artifact cache serves at least twice the jobs per second of
///    private compiles;
///  - fusion sweeps the temp-chain SWE at least 1.3x faster at -threads=1;
///  - the compiled PEAC engine, its routine cache warm, sweeps an
///    SWE-shaped routine at least 3x faster than the interpreter.
///
/// Each leg is the best of three timed reps: the simulation is
/// deterministic, so variance between reps is host noise. The runs' bit
/// identity is checked elsewhere (serve_test, fusion_test,
/// exec_engine_test). ctest runs these alone (label wall, RUN_SERIAL).
///
//===----------------------------------------------------------------------===//

#include "driver/Workloads.h"
#include "invariance/Invariance.h"
#include "peac/Engine.h"
#include "serve/Scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

using namespace f90y;

namespace {

/// The best wall time in ms over three calls of \p Timed, each after an
/// untimed call of \p Setup.
template <class SetupFn, class TimedFn>
double bestOfThree(SetupFn &&Setup, TimedFn &&Timed) {
  double Best = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    Setup();
    const auto T0 = std::chrono::steady_clock::now();
    Timed();
    const double Ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - T0)
                          .count();
    Best = Rep == 0 ? Ms : std::min(Best, Ms);
  }
  return Best;
}

TEST(WallServe, WarmCacheServesTwiceTheColdJobsPerSecond) {
  // Sixteen jobs over one program on a 16-PE machine, so compiling
  // dominates each job.
  std::vector<serve::JobSpec> Jobs(16);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    Jobs[I].Id = "job" + std::to_string(I + 1);
    Jobs[I].Source = driver::sweSource(8, 1);
    Jobs[I].Cfg.Pes = 16;
  }
  auto Batch = [&](serve::ArtifactCache *Cache) {
    serve::ServeOptions Opts;
    Opts.Workers = 8;
    Opts.Cache = Cache;
    EXPECT_TRUE(serve::runBatch(Jobs, Opts).allOk());
  };
  // Cold: every job compiles privately, its kernels too.
  const double Cold = bestOfThree(
      [] { peac::RoutineCache::process().clear(); }, [&] { Batch(nullptr); });
  serve::ArtifactCache Cache;
  Batch(&Cache); // Installs the one compilation.
  const double Warm = bestOfThree([] {}, [&] { Batch(&Cache); });
  EXPECT_GE(Cold / Warm, 2.0) << "cold " << Cold << " ms, warm " << Warm
                              << " ms per batch";
}

TEST(WallFusion, FusionSweepsTheTempChainSwe1_3xFaster) {
  // E11's program and configuration, on one host thread.
  const std::string Src = driver::sweTempsSource(192, 4);
  auto SweepMs = [&](const char *Fuse) {
    const invariance::Leg L{{"-threads=1", "-comm=sync", Fuse}};
    std::string Error;
    const auto C = invariance::compile(Src, L, Error);
    EXPECT_TRUE(C) << Error;
    std::optional<driver::Execution> Exec;
    return C ? bestOfThree(
                   [&] { Exec.emplace(C->options().Costs, L.executionOptions()); },
                   [&] {
                     EXPECT_TRUE(Exec->run(C->artifacts().Compiled.Program))
                         << Exec->diags().str();
                   })
             : 0.0;
  };
  const double Off = SweepMs("-fuse=off"), On = SweepMs("-fuse=on");
  EXPECT_GE(Off / On, 1.3) << "fuse=off " << Off << " ms, fuse=on " << On
                           << " ms";
}

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
/// through one spill round-trip, store all three. It uses every operand
/// kind (memory with offsets, scalars, an immediate, spill slots) and the
/// madd chain: the instruction mix the compiler emits for Figure 12.
peac::Routine sweShapedRoutine() {
  using peac::Opcode;
  using peac::Operand;
  peac::Routine R;
  R.Name = "swe_step";
  R.NumPtrArgs = 4;    // aP0=u, aP1=v, aP2=h (read), aP3=h (write)
  R.NumScalarArgs = 3; // aS0=dt, aS1=g, aS2=f
  R.NumSpillSlots = 1;
  const unsigned Spill0 = R.NumPtrArgs; // Mem reg >= NumPtrArgs: a spill.

  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(0)}, 0));          // u
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(1)}, 1, true));    // v
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(2)}, 2));          // h
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(2, 1)}, 3, true)); // h_e
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(2, 2)}, 4));       // h_ee
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
  // h' = h + 0.5 * dt * (u' * v'): the momentum flux through the spill.
  R.Body.push_back(ins(Opcode::FLodV, {Operand::mem(Spill0)}, 7));
  R.Body.back().IsSpill = true;
  R.Body.push_back(ins(Opcode::FMulV, {Operand::vreg(7), Operand::vreg(1)}, 5));
  R.Body.push_back(ins(Opcode::FMulV, {Operand::vreg(5), Operand::imm(0.5)}, 5));
  R.Body.push_back(ins(Opcode::FMAddV,
                       {Operand::vreg(5), Operand::sreg(0), Operand::vreg(2)},
                       2));
  R.Body.push_back(store(Operand::vreg(0), Operand::mem(0)));
  R.Body.push_back(store(Operand::vreg(1), Operand::mem(1)));
  R.Body.back().FusedWithPrev = true;
  R.Body.push_back(store(Operand::vreg(2), Operand::mem(3)));
  return R;
}

TEST(WallEngine, CompiledEngineSweepsThreeTimesFasterThanTheInterpreter) {
  // A 60-step loop re-dispatching the routine on 512 PEs at VP ratio 128.
  constexpr unsigned NumPEs = 512;
  constexpr int64_t SubgridElems = 128;
  // Padding keeps the +2 stencil offsets and the tail vector iteration
  // inside each PE's slice.
  constexpr size_t PEStride = SubgridElems + 8;
  cm2::CostModel Machine;
  Machine.NumPEs = NumPEs;
  const peac::Routine R = sweShapedRoutine();
  std::vector<std::vector<double>> Init(4,
                                        std::vector<double>(NumPEs * PEStride));
  for (size_t F = 0; F < Init.size(); ++F)
    for (size_t I = 0; I < Init[F].size(); ++I)
      Init[F][I] = 0.5 + ((I * 31 + F * 7 + 3) % 1000) / 1000.0;

  auto Sweep = [&](peac::EngineKind Kind,
                   std::vector<std::vector<double>> &Fields) {
    peac::RoutineCache Cache; // Warm after the first dispatch.
    peac::ExecutionEngine Engine(Kind, &Cache);
    peac::ExecArgs Args;
    return bestOfThree(
        [&] {
          Fields = Init;
          Args.Ptrs.clear();
          for (auto &F : Fields)
            Args.Ptrs.push_back({F.data(), PEStride, 0});
          Args.Scalars = {1e-3, 9.8, 0.5}; // dt, g, f
          Args.NumPEs = NumPEs;
          Args.SubgridElems = SubgridElems;
        },
        [&] {
          for (int Step = 0; Step < 60; ++Step) {
            EXPECT_TRUE(Engine.execute(R, Args, Machine).Status.isOk());
            // Double-buffer the height field, as a timestep loop would.
            std::swap(Args.Ptrs[2], Args.Ptrs[3]);
          }
        });
  };
  std::vector<std::vector<double>> InterpFields, CompiledFields;
  const double Interp = Sweep(peac::EngineKind::Interp, InterpFields);
  const double Compiled = Sweep(peac::EngineKind::Compiled, CompiledFields);
  for (size_t F = 0; F < Init.size(); ++F)
    ASSERT_EQ(std::memcmp(InterpFields[F].data(), CompiledFields[F].data(),
                          Init[F].size() * sizeof(double)),
              0)
        << "field " << F << " differs between the engines";
  EXPECT_GE(Interp / Compiled, 3.0) << "interp " << Interp << " ms, compiled "
                                    << Compiled << " ms";
}

} // namespace
