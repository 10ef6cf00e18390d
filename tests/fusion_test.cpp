//===- tests/fusion_test.cpp - cross-statement elementwise fusion tests ------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fusion pass (transform/Fusion.cpp) in isolation and end to end.
/// The unit half pins the legality rules one by one: single-use
/// elementwise temporary chains fuse and their declarations disappear;
/// multi-use temps, dead temps, comm-produced temps, reads under a
/// communication call, guarded or sectioned producers, and intervening
/// writes all block fusion. The end-to-end half runs generated programs
/// and the temp-chain SWE through the invariance harness: -fuse=on and
/// -fuse=off agree in output and field values, and within one fuse
/// setting the host knobs move no byte of output, field storage, ledger
/// or normalized trace and metrics.
///
//===----------------------------------------------------------------------===//

#include "driver/Workloads.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "invariance/Generator.h"
#include "lower/Lowering.h"
#include "nir/Printer.h"
#include "observe/Metrics.h"
#include "transform/Transforms.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::frontend;
using namespace f90y::transform;
namespace N = f90y::nir;

namespace {

//===--------------------------------------------------------------------===//
// Pass-level unit tests
//===--------------------------------------------------------------------===//

class FusionTest : public ::testing::Test {
protected:
  ast::ASTContext ACtx;
  N::NIRContext NCtx;
  DiagnosticEngine Diags;

  const N::ProgramImp *lowerSrc(const std::string &Src) {
    Lexer L(Src, Diags);
    Parser P(L.lexAll(), ACtx, Diags);
    auto Unit = P.parseProgram();
    if (!Unit)
      return nullptr;
    auto LP = lower::lowerProgram(*Unit, NCtx, Diags);
    return LP ? LP->Program : nullptr;
  }

  /// extract-comm then fuse (the pipeline prefix the pass is built to
  /// follow); returns the printed result and fills \p Stats.
  std::string fuseSrc(const std::string &Src, FusionStats &Stats) {
    const N::ProgramImp *Raw = lowerSrc(Src);
    EXPECT_NE(Raw, nullptr) << Diags.str();
    if (!Raw)
      return "";
    const N::Imp *Canon = extractComm(Raw, NCtx, Diags);
    const N::Imp *Fused = fuseElementwise(Canon, NCtx, Diags, &Stats);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    return N::printImp(Fused);
  }

  /// Interprets \p Src optimized with fusion on and off; every array in
  /// \p Arrays must match element for element.
  void expectFusedSemantics(const std::string &Src,
                            const std::vector<std::string> &Arrays) {
    const N::ProgramImp *Raw = lowerSrc(Src);
    ASSERT_NE(Raw, nullptr) << Diags.str();
    TransformOptions On, Off;
    Off.Fusion = false;
    const N::ProgramImp *POn = optimize(Raw, NCtx, Diags, On);
    const N::ProgramImp *POff = optimize(Raw, NCtx, Diags, Off);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    interp::Interpreter IOn(Diags), IOff(Diags);
    ASSERT_TRUE(IOn.run(POn)) << Diags.str();
    ASSERT_TRUE(IOff.run(POff)) << Diags.str();
    for (const std::string &Name : Arrays) {
      const interp::ArrayStorage *A = IOn.getArray(Name);
      const interp::ArrayStorage *B = IOff.getArray(Name);
      ASSERT_NE(A, nullptr) << Name;
      ASSERT_NE(B, nullptr) << Name;
      ASSERT_EQ(A->Data.size(), B->Data.size()) << Name;
      for (size_t I = 0; I < A->Data.size(); ++I)
        ASSERT_EQ(A->Data[I].asReal(), B->Data[I].asReal())
            << Name << " element " << I;
    }
  }
};

TEST_F(FusionTest, SingleUseChainFusesAndDeletesTemps) {
  FusionStats S;
  std::string Out = fuseSrc("program p\n"
                            "real u(64), w(64), t0(64), t1(64)\n"
                            "u = 2.0\nw = 3.0\n"
                            "t0 = u*0.5\n"
                            "t1 = t0 + w\n"
                            "w = w + t1 + u\n"
                            "end\n",
                            S);
  EXPECT_EQ(S.TempsEliminated, 2u);
  EXPECT_EQ(S.MovesFused, 2u);
  // 2 stores + 2 loads of 64 reals each.
  EXPECT_EQ(S.BytesSaved, uint64_t(2 * 2 * 64 * 4));
  // The temporaries are gone: no reference and no declaration survives.
  EXPECT_EQ(Out.find("'t0'"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("'t1'"), std::string::npos) << Out;
}

TEST_F(FusionTest, MultiUseTempDoesNotFuse) {
  FusionStats S;
  std::string Out = fuseSrc("program p\n"
                            "real u(64), v(64), s(64)\n"
                            "u = 1.0\nv = 2.0\n"
                            "s = u + v\n"
                            "u = u + s\n"
                            "v = v - s\n"
                            "end\n",
                            S);
  EXPECT_EQ(S.TempsEliminated, 0u);
  EXPECT_NE(Out.find("'s'"), std::string::npos) << Out;
}

TEST_F(FusionTest, DeadTempIsLeftAlone) {
  // A written-never-read temporary is dead-code elimination's business,
  // not fusion's: it must survive untouched (and still be observable).
  FusionStats S;
  std::string Out = fuseSrc("program p\n"
                            "real u(64), d(64)\n"
                            "u = 1.0\n"
                            "d = u*2.0\n"
                            "u = u + 1.0\n"
                            "end\n",
                            S);
  EXPECT_EQ(S.TempsEliminated, 0u);
  EXPECT_NE(Out.find("'d'"), std::string::npos) << Out;
}

TEST_F(FusionTest, CommProducedTempDoesNotFuse) {
  // t is consumed exactly once but produced by a communication: the
  // consumer may not swallow a comm call.
  FusionStats S;
  std::string Out = fuseSrc("program p\n"
                            "real u(64), t(64)\n"
                            "u = 1.0\n"
                            "t = cshift(u, 1, 1)\n"
                            "u = u + t\n"
                            "end\n",
                            S);
  EXPECT_EQ(S.TempsEliminated, 0u);
  EXPECT_NE(Out.find("'t'"), std::string::npos) << Out;
}

TEST_F(FusionTest, ReadUnderCommCallDoesNotFuse) {
  // t's only read sits inside a cshift operand; substituting the
  // producer expression there would move computation across the
  // communication boundary.
  FusionStats S;
  std::string Out = fuseSrc("program p\n"
                            "real u(64), v(64), t(64)\n"
                            "u = 1.0\nv = 2.0\n"
                            "t = u*0.5\n"
                            "v = v + cshift(t, 1, 1)\n"
                            "u = u - v\n"
                            "end\n",
                            S);
  EXPECT_EQ(S.TempsEliminated, 0u);
  EXPECT_NE(Out.find("'t'"), std::string::npos) << Out;
}

TEST_F(FusionTest, InterveningWriteBlocksFusion) {
  // u is rewritten between t's definition (which reads u) and t's use:
  // substitution would read the new u.
  FusionStats S;
  std::string Out = fuseSrc("program p\n"
                            "real u(64), w(64), t(64)\n"
                            "u = 1.0\nw = 0.0\n"
                            "t = u*2.0\n"
                            "u = 5.0\n"
                            "w = w + t\n"
                            "end\n",
                            S);
  EXPECT_EQ(S.TempsEliminated, 0u);
  EXPECT_NE(Out.find("'t'"), std::string::npos) << Out;
}

TEST_F(FusionTest, SectionedProducerDoesNotFuse) {
  FusionStats S;
  std::string Out = fuseSrc("program p\n"
                            "real u(64), t(64)\n"
                            "u = 1.0\nt = 0.0\n"
                            "t(1:64:2) = u(1:64:2)*2.0\n"
                            "u = u + t\n"
                            "end\n",
                            S);
  EXPECT_EQ(S.TempsEliminated, 0u);
  EXPECT_NE(Out.find("'t'"), std::string::npos) << Out;
}

TEST_F(FusionTest, GuardedProducerDoesNotFuse) {
  FusionStats S;
  std::string Out = fuseSrc("program p\n"
                            "real u(64), t(64)\n"
                            "u = 1.0\nt = 0.0\n"
                            "where (u > 0.5)\n"
                            "  t = u*2.0\n"
                            "end where\n"
                            "u = u + t\n"
                            "end\n",
                            S);
  EXPECT_EQ(S.TempsEliminated, 0u);
  EXPECT_NE(Out.find("'t'"), std::string::npos) << Out;
}

TEST_F(FusionTest, ChainSemanticsPreserved) {
  expectFusedSemantics("program p\n"
                       "real u(48), v(48), t0(48), t1(48), t2(48)\n"
                       "integer i\n"
                       "forall (i=1:48) u(i) = real(i)*0.5\n"
                       "forall (i=1:48) v(i) = real(i) - 24.0\n"
                       "t0 = u - v\n"
                       "t1 = t0*0.25 + u\n"
                       "t2 = t1*0.5 + v\n"
                       "u = u + 0.001*t2\n"
                       "end\n",
                       {"u", "v"});
}

TEST_F(FusionTest, MaskedAndSectionedProgramSemanticsPreserved) {
  expectFusedSemantics("program p\n"
                       "real u(48), v(48), t(48)\n"
                       "integer i\n"
                       "forall (i=1:48) u(i) = real(i)*0.5\n"
                       "v = 0.0\n"
                       "t = u*2.0\n"
                       "where (u > 10.0)\n"
                       "  v = v + 1.0\n"
                       "end where\n"
                       "v(1:48:2) = v(1:48:2) + 3.0\n"
                       "u = u + t\n"
                       "end\n",
                       {"u", "v"});
}

TEST_F(FusionTest, PipelineReportsFusionMetrics) {
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "real u(64), t(64)\n"
                                      "u = 1.0\n"
                                      "t = u*2.0\n"
                                      "u = u + t\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  observe::MetricsRegistry M;
  TransformOptions Opts;
  Opts.Metrics = &M;
  optimize(Raw, NCtx, Diags, Opts);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(M.value("fuse.temps_eliminated"), 1.0);
  EXPECT_EQ(M.value("fuse.moves_fused"), 1.0);
  EXPECT_GT(M.value("fuse.bytes_saved"), 0.0);
}

//===--------------------------------------------------------------------===//
// Fused-vs-unfused equivalence through the full driver
//===--------------------------------------------------------------------===//

/// -fuse=on against -fuse=off under the Model contract, each leg also
/// under the Host contract.
invariance::Matrix fuseOnAndOff(invariance::Leg Base) {
  invariance::Matrix M;
  M.Base = std::move(Base);
  M.Model = {invariance::Leg{}, invariance::Leg{{"-fuse=off"}}};
  return M;
}

TEST(FusionEquivalence, RandomProgramsMatchAcrossTheExecutionMatrix) {
  // Generated programs mix everything fusion must handle or refuse:
  // single-use temp chains, multi-use temps, dead temps, masked updates,
  // strided sections, shift-fed temps and temps read under a shift.
  for (unsigned Seed = 1; Seed <= 8; ++Seed)
    EXPECT_EQ(invariance::checkGenerated(
                  Seed, fuseOnAndOff({{"-pes=16", "-comm=sync"}})),
              "");
}

TEST(FusionEquivalence, TempChainSweMatchesAcrossEngines) {
  // E11's workload end to end at a small size on the stock machine:
  // output identical between fuse settings at every comm x faults leg,
  // each leg at every host leg, with the fused compile measurably smaller.
  invariance::Result R =
      invariance::check(driver::sweTempsSource(32, 2),
                        invariance::switchMatrix("-fuse=on", "-fuse=off"));
  ASSERT_EQ(R.Divergence, "");
  const invariance::Record &On = R.Runs[0], &Off = R.Runs[1];
  EXPECT_GT(On.metric("fuse.temps_eliminated"), 0.0);
  // The fused program does strictly less node work.
  EXPECT_LT(On.Report.Ledger.NodeCycles, Off.Report.Ledger.NodeCycles);
}

TEST(FusionEquivalence, NormalizedTracesInvariantAcrossThreads) {
  // Within one fuse setting, the (wall-normalized) trace and the metrics
  // export are pure functions of the simulated machine: -threads and
  // -exec must not change a byte of either.
  invariance::Matrix M;
  M.Base = {{"-pes=16", "-comm=sync"}};
  invariance::Result R = invariance::check(driver::sweTempsSource(16, 2), M);
  EXPECT_EQ(R.Divergence, "");
  EXPECT_NE(R.Runs[0].Trace.find("\"cat\":\"peac\""), std::string::npos);
}

} // namespace
