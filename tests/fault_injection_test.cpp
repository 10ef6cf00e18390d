//===- tests/fault_injection_test.cpp - deterministic fault injection -------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection determinism contract: a fixed -fault-seed produces
/// one fault schedule - and therefore bit-identical program output, cycle
/// ledger, and recovery counters - at every host thread count; recoverable
/// schedules complete with exactly the fault-free program results; faults
/// that recovery cannot absorb (retries exhausted, simulated OOM, the
/// watchdog) surface as structured diagnostics, not aborts.
///
//===----------------------------------------------------------------------===//

#include "invariance/Invariance.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;
using namespace f90y::invariance;
using support::FaultCounters;
using support::FaultInjector;
using support::FaultKind;
using support::FaultSpec;

namespace {

/// The paper's strict comm model on a 16-PE machine.
const Leg Base{{"-pes=16", "-comm=sync"}};

/// Base under fault schedule \p Spec drawn from \p Seed.
Leg faults(const std::string &Spec, uint64_t Seed) {
  return Base + Leg{{"-faults=" + Spec, "-fault-seed=" + std::to_string(Seed)}};
}

/// A program that crosses every faultable path: grid shifts, router
/// transpose, full reductions, PEAC compute blocks, serial time stepping,
/// and PRINT (rendered through the router).
const char *faultyProgram() {
  return "program faulty\n"
         "integer, parameter :: n = 8\n"
         "real a(n,n), b(n,n), c(n,n)\n"
         "real s\n"
         "integer i, j, t\n"
         "forall (i=1:n, j=1:n) a(i,j) = sin(real(i))*real(j)\n"
         "b = cshift(a, 1, 1) + cshift(a, -1, 2)\n"
         "c = transpose(b)\n"
         "s = 0.0\n"
         "do t = 1, 4\n"
         "  a = a + 0.25*(cshift(a,1,1) + cshift(a,-1,1) &\n"
         "      + cshift(a,1,2) + cshift(a,-1,2))\n"
         "  s = s + sum(a)/real(n*n)\n"
         "end do\n"
         "print *, 'checksum:', s, maxval(b), sum(c)\n"
         "end program faulty\n";
}

/// Every recoverable kind; OOM is deliberately excluded (an allocation
/// fault is permanent by design, so it belongs in the failure tests).
const char *recoverableSpec() {
  return "router-drop:0.05,grid-timeout:0.05,corrupt:0.05,"
         "pe-trap:0.05,fpu:0.05";
}

/// faultyProgram fault-free, then under \p Faulty, compared under the
/// Model contract: recovery may cost cycles, never results.
Result cleanVersusFaulty(const Leg &Faulty) {
  Matrix M;
  M.Model = {Base, Faulty};
  M.Host = false;
  return check(faultyProgram(), M);
}

//===----------------------------------------------------------------------===//
// FaultSpec parsing
//===----------------------------------------------------------------------===//

TEST(FaultSpecTest, ParsesSingleEntry) {
  FaultSpec S;
  std::string Error;
  ASSERT_TRUE(FaultSpec::parse("router-drop:0.25", S, Error)) << Error;
  EXPECT_DOUBLE_EQ(S.prob(FaultKind::RouterDrop), 0.25);
  EXPECT_DOUBLE_EQ(S.prob(FaultKind::GridTimeout), 0.0);
  EXPECT_TRUE(S.any());
}

TEST(FaultSpecTest, ParsesMultipleEntriesAndAll) {
  FaultSpec S;
  std::string Error;
  ASSERT_TRUE(FaultSpec::parse("all:0.5,oom:0", S, Error)) << Error;
  EXPECT_DOUBLE_EQ(S.prob(FaultKind::PeTrap), 0.5);
  EXPECT_DOUBLE_EQ(S.prob(FaultKind::Corruption), 0.5);
  EXPECT_DOUBLE_EQ(S.prob(FaultKind::AllocOom), 0.0); // Later wins.
}

TEST(FaultSpecTest, EmptySpecIsZero) {
  FaultSpec S;
  std::string Error;
  ASSERT_TRUE(FaultSpec::parse("", S, Error)) << Error;
  EXPECT_FALSE(S.any());
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  FaultSpec S;
  std::string Error;
  EXPECT_FALSE(FaultSpec::parse("router-drop", S, Error));
  EXPECT_NE(Error.find("malformed"), std::string::npos) << Error;
  EXPECT_FALSE(FaultSpec::parse("bogus-kind:0.5", S, Error));
  EXPECT_NE(Error.find("unknown fault kind"), std::string::npos) << Error;
  EXPECT_FALSE(FaultSpec::parse("corrupt:1.5", S, Error));
  EXPECT_FALSE(FaultSpec::parse("corrupt:-0.1", S, Error));
  EXPECT_FALSE(FaultSpec::parse("corrupt:abc", S, Error));
  EXPECT_FALSE(FaultSpec::parse("corrupt:", S, Error));
}

//===----------------------------------------------------------------------===//
// Injector schedule determinism (unit level)
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultSpec S;
  std::string Error;
  ASSERT_TRUE(FaultSpec::parse("all:0.3", S, Error));
  FaultInjector A(S, 1234), B(S, 1234);
  for (unsigned K = 0; K < support::NumFaultKinds; ++K)
    for (int I = 0; I < 200; ++I)
      EXPECT_EQ(A.fire(static_cast<FaultKind>(K)),
                B.fire(static_cast<FaultKind>(K)));
  EXPECT_TRUE(A.counters() == B.counters());
  EXPECT_GT(A.counters().totalInjected(), 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultSpec S;
  std::string Error;
  ASSERT_TRUE(FaultSpec::parse("corrupt:0.3", S, Error));
  FaultInjector A(S, 1), B(S, 2);
  bool Diverged = false;
  for (int I = 0; I < 200; ++I)
    if (A.fire(FaultKind::Corruption) != B.fire(FaultKind::Corruption))
      Diverged = true;
  EXPECT_TRUE(Diverged);
}

TEST(FaultInjectorTest, ZeroProbabilityNeverFires) {
  FaultInjector FI(FaultSpec(), 99);
  for (int I = 0; I < 100; ++I)
    for (unsigned K = 0; K < support::NumFaultKinds; ++K)
      EXPECT_FALSE(FI.fire(static_cast<FaultKind>(K)));
  EXPECT_EQ(FI.counters().totalInjected(), 0u);
}

TEST(FaultInjectorTest, ResetRewindsTheSchedule) {
  FaultSpec S;
  std::string Error;
  ASSERT_TRUE(FaultSpec::parse("pe-trap:0.4", S, Error));
  FaultInjector FI(S, 7);
  std::vector<bool> First;
  for (int I = 0; I < 64; ++I)
    First.push_back(FI.fire(FaultKind::PeTrap));
  FI.reset();
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(FI.fire(FaultKind::PeTrap), First[static_cast<size_t>(I)]);
}

TEST(FaultInjectorTest, CountersRender) {
  FaultCounters Z;
  EXPECT_EQ(Z.str(),
            "faults {none}, retries 0, rollbacks 0, replays 0");
  Z.Injected[static_cast<unsigned>(FaultKind::RouterDrop)] = 3;
  Z.Retries = 2;
  EXPECT_EQ(Z.str(),
            "faults {router-drop=3}, retries 2, rollbacks 0, replays 0");
}

//===----------------------------------------------------------------------===//
// End-to-end determinism and recovery
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, NoFaultSpecAttachesNoInjector) {
  std::string Error;
  auto C = compile(faultyProgram(), Base, Error);
  ASSERT_TRUE(C) << Error;
  Execution Exec(C->options().Costs, Base.executionOptions());
  EXPECT_EQ(Exec.faultInjector(), nullptr);
  auto Report = Exec.run(C->artifacts().Compiled.Program);
  ASSERT_TRUE(Report.has_value()) << Exec.diags().str();
  EXPECT_EQ(Report->Faults.totalInjected(), 0u);
}

TEST(FaultInjectionTest, NeverFiringInjectorLeavesTheRunBitIdentical) {
  // At the smallest positive probability an injector is attached, so
  // every gate and dispatch probe runs, but none ever fires: the run must
  // be the injector-free one bit for bit.
  const Record Probed = run(
      faultyProgram(), Base + Leg{{"-faults=router-drop:5e-324,"
                                   "grid-timeout:5e-324"}});
  EXPECT_EQ(diffHost(run(faultyProgram(), Base), Probed), "");
}

TEST(FaultInjectionTest, RecoverableSchedulePreservesProgramResults) {
  // Recovery is invisible to the program: identical output and data...
  Result R = cleanVersusFaulty(faults(recoverableSpec(), 1));
  ASSERT_EQ(R.Divergence, "");
  const driver::RunReport &Clean = R.Runs[0].Report, &Faulty = R.Runs[1].Report;
  // ...but not to the machine: the schedule injected real faults and the
  // ledger carries their recovery cost.
  EXPECT_GT(Faulty.Faults.totalInjected(), 0u) << Faulty.Faults.str();
  EXPECT_GT(Faulty.Ledger.total(), Clean.Ledger.total());
}

TEST(FaultInjectionTest, FaultScheduleIsThreadCountInvariant) {
  Matrix M;
  M.Base = faults(recoverableSpec(), 42);
  Result R = check(faultyProgram(), M);
  EXPECT_EQ(R.Divergence, "");
  EXPECT_GT(R.Runs[0].Report.Faults.totalInjected(), 0u);
}

TEST(FaultInjectionTest, SameSeedReproducesBitIdentically) {
  const Leg L = faults(recoverableSpec(), 7) + Leg{{"-threads=2"}};
  EXPECT_EQ(diffHost(run(faultyProgram(), L), run(faultyProgram(), L)), "");
}

TEST(FaultInjectionTest, FaultScheduleIsEngineInvariant) {
  // Injection decisions are drawn per dispatch on the host thread and PE
  // traps partial-sweep through the engine's own sweep function, so the
  // schedule, the partial stores, and the recovery account are identical
  // under the interpreter and the compiled engine.
  const Leg L = faults(recoverableSpec(), 42) + Leg{{"-threads=2"}};
  Record Interp = run(faultyProgram(), L + Leg{{"-exec=interp"}});
  EXPECT_EQ(diffHost(Interp, run(faultyProgram(), L + Leg{{"-exec=compiled"}})),
            "");
  EXPECT_GT(Interp.Report.Faults.totalInjected(), 0u);
}

TEST(FaultInjectionTest, CorruptionRollsBackAndRecovers) {
  Result R = cleanVersusFaulty(faults("corrupt:0.2", 3));
  ASSERT_EQ(R.Divergence, "");
  const FaultCounters &F = R.Runs[1].Report.Faults;
  EXPECT_GT(F.injected(FaultKind::Corruption), 0u) << F.str();
  EXPECT_GT(F.Rollbacks, 0u) << F.str();
}

TEST(FaultInjectionTest, PeTrapReplaysDispatchAndRecovers) {
  Result R = cleanVersusFaulty(faults("pe-trap:0.3,fpu:0.3", 5));
  ASSERT_EQ(R.Divergence, "");
  const driver::RunReport &Clean = R.Runs[0].Report, &Faulty = R.Runs[1].Report;
  EXPECT_GT(Faulty.Faults.Replays, 0u) << Faulty.Faults.str();
  // Replayed dispatches recharge node time, never flops: the useful-work
  // account matches the fault-free run exactly.
  EXPECT_EQ(Faulty.Ledger.Flops, Clean.Ledger.Flops);
  EXPECT_GT(Faulty.Ledger.NodeCycles, Clean.Ledger.NodeCycles);
}

//===----------------------------------------------------------------------===//
// Faults through fused megakernels
//===----------------------------------------------------------------------===//

/// A program whose timestep body is a chain of single-use elementwise
/// temporaries: the fusion pass folds t0..t7 and the final update into one
/// MOVE, so a PE trap or corruption now lands inside a megakernel whose
/// rollback/replay granule covers the whole fused chain.
const char *fusedChainProgram() {
  return "program fchain\n"
         "integer, parameter :: n = 8\n"
         "real a(n,n), an(n,n)\n"
         "real t0(n,n), t1(n,n), t2(n,n), t3(n,n)\n"
         "real t4(n,n), t5(n,n), t6(n,n), t7(n,n)\n"
         "real s\n"
         "integer i, j, t\n"
         "forall (i=1:n, j=1:n) a(i,j) = sin(real(i))*cos(real(j))\n"
         "s = 0.0\n"
         "do t = 1, 4\n"
         "  an = cshift(a, 1, 1)\n"
         "  t0 = a - an\n"
         "  t1 = t0*0.25 + a\n"
         "  t2 = t1*0.25 + an\n"
         "  t3 = t2*0.25 + a\n"
         "  t4 = t3*0.25 + an\n"
         "  t5 = t4*0.25 + a\n"
         "  t6 = t5*0.25 + an\n"
         "  t7 = t6*0.25 + a\n"
         "  a = a + 0.001*t7\n"
         "  s = s + sum(a)/real(n*n)\n"
         "end do\n"
         "print *, 'chk:', s, maxval(a)\n"
         "end program fchain\n";
}

TEST(FaultInjectionFused, FusedChainRecoversToUnfusedFaultFreeResults) {
  // The reference: fault-free, fusion off. Rollback (corruption) and
  // dispatch replay (PE trap) inside the megakernel of the fused (F90Y
  // default) compile must land exactly on the per-statement, fault-free
  // results.
  Matrix M;
  M.Base = Base;
  M.Model = {Leg{{"-fuse=off"}},
             Leg{{"-faults=corrupt:0.15,pe-trap:0.1", "-fault-seed=13"}}};
  M.Host = false;
  Result R = check(fusedChainProgram(), M);
  ASSERT_EQ(R.Divergence, "");
  const Record &Faulty = R.Runs[1];
  // The chain really collapsed, and faults landed inside it.
  EXPECT_GT(Faulty.metric("fuse.temps_eliminated"), 0.0);
  EXPECT_GT(Faulty.Report.Faults.injected(FaultKind::Corruption), 0u)
      << Faulty.Report.Faults.str();
  EXPECT_GT(Faulty.Report.Faults.injected(FaultKind::PeTrap), 0u)
      << Faulty.Report.Faults.str();
}

TEST(FaultInjectionFused, FusedChainFaultScheduleIsThreadInvariant) {
  // Same seed, same schedule at 1 and 8 threads, traced or not, killed
  // and restored: the replay is bit-exact.
  Matrix M;
  M.Base = faults("corrupt:0.15,pe-trap:0.1", 42);
  Result R = check(fusedChainProgram(), M);
  EXPECT_EQ(R.Divergence, "");
  EXPECT_GT(R.Runs[0].Report.Faults.totalInjected(), 0u);
}

// The acceptance sweep: every shipped sample program, under an injected
// recoverable schedule, holds the Host contract and matches its own
// fault-free output and fields.
TEST(FaultInjectionPrograms, SamplesAreThreadInvariantUnderFaults) {
  for (const char *Name : {"fig10.f90", "subroutines.f90", "swe.f90"}) {
    Matrix M;
    M.Model = {Base, faults(recoverableSpec(), 11)};
    EXPECT_EQ(check(sampleProgram(Name), M).Divergence, "") << Name;
  }
}

//===----------------------------------------------------------------------===//
// Unrecoverable faults surface as structured failures
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, ExhaustedRetriesFailTheRunWithDiagnostics) {
  Record O = run(faultyProgram(), faults("grid-timeout:1", 0));
  EXPECT_FALSE(O.Ok);
  EXPECT_NE(O.Diags.find("timed out"), std::string::npos) << O.Diags;
  EXPECT_NE(O.Diags.find("error"), std::string::npos) << O.Diags;
}

TEST(FaultInjectionTest, SimulatedOomFailsAllocationStructurally) {
  Record O = run(faultyProgram(), faults("oom:1", 0));
  EXPECT_FALSE(O.Ok);
  EXPECT_NE(O.Diags.find("allocation"), std::string::npos) << O.Diags;
  EXPECT_NE(O.Diags.find("out-of-memory"), std::string::npos) << O.Diags;
}

TEST(FaultInjectionTest, WatchdogBoundsTheRun) {
  Record O = run(faultyProgram(), Base + Leg{{"-threads=1", "-max-steps=5"}});
  EXPECT_FALSE(O.Ok);
  EXPECT_NE(O.Diags.find("watchdog"), std::string::npos) << O.Diags;
  EXPECT_TRUE(
      run(faultyProgram(), Base + Leg{{"-threads=1", "-max-steps=10000000"}})
          .Ok);
}

//===----------------------------------------------------------------------===//
// Release-safe invariant checks
//===----------------------------------------------------------------------===//

TEST(FaultCheckDeathTest, InvalidFieldHandleAborts) {
  cm2::CostModel Costs = Base.config().machine();
  runtime::CmRuntime RT(Costs);
  EXPECT_DEATH(RT.field(424242), "freed or invalid");
}

} // namespace
