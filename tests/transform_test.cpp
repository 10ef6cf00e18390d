//===- tests/transform_test.cpp - NIR transformation unit tests -------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the target-independent optimization stage: communication
/// extraction (Figure 12 temporaries), aligned-section masking (Figure 10),
/// domain blocking (Figure 9), and — critically — semantic preservation:
/// the reference interpreter must compute identical stores before and
/// after optimization.
///
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "lower/Lowering.h"
#include "nir/Printer.h"
#include "nir/Verifier.h"
#include "transform/Transforms.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::frontend;
using namespace f90y::interp;
using namespace f90y::transform;
namespace N = f90y::nir;

namespace {

class TransformTest : public ::testing::Test {
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

  /// Runs both the raw and optimized programs and checks that every array
  /// named in \p Arrays has identical contents.
  void expectSemanticsPreserved(const std::string &Src,
                                const std::vector<std::string> &Arrays,
                                const TransformOptions &Opts = {}) {
    const N::ProgramImp *Raw = lowerSrc(Src);
    ASSERT_NE(Raw, nullptr) << Diags.str();
    const N::ProgramImp *Opt = optimize(Raw, NCtx, Diags, Opts);
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    expectSameArrays(Raw, Opt, Arrays);
  }

  void expectSameArrays(const N::ProgramImp *Raw, const N::ProgramImp *Opt,
                        const std::vector<std::string> &Arrays) {
    Interpreter IRaw(Diags), IOpt(Diags);
    ASSERT_TRUE(IRaw.run(Raw)) << Diags.str();
    ASSERT_TRUE(IOpt.run(Opt)) << Diags.str();
    for (const std::string &Name : Arrays) {
      const ArrayStorage *A = IRaw.getArray(Name);
      const ArrayStorage *B = IOpt.getArray(Name);
      ASSERT_NE(A, nullptr) << Name;
      ASSERT_NE(B, nullptr) << Name;
      ASSERT_EQ(A->Data.size(), B->Data.size()) << Name;
      for (size_t I = 0; I < A->Data.size(); ++I)
        ASSERT_DOUBLE_EQ(A->Data[I].asReal(), B->Data[I].asReal())
            << Name << " element " << I;
    }
  }
};

//===--------------------------------------------------------------------===//
// Communication extraction (the Figure 12 temporaries)
//===--------------------------------------------------------------------===//

TEST_F(TransformTest, CShiftInExpressionIsHoisted) {
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "real v(64), z(64)\n"
                                      "z = 2.0*(v - cshift(v, -1, 1))\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::Imp *Opt = extractComm(Raw, NCtx, Diags);
  std::string Out = N::printImp(Opt);
  // A tmp0 temporary receives the shift; the compute MOVE reads it.
  EXPECT_NE(Out.find("DECL('tmp0'"), std::string::npos) << Out;
  EXPECT_NE(Out.find("(True, (FCNCALL('cshift', [AVAR('v', everywhere), "
                     "SCALAR(integer_32,'-1'), SCALAR(integer_32,'1')]), "
                     "AVAR('tmp0', everywhere)))"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("BINARY(Sub, AVAR('v', everywhere), AVAR('tmp0', "
                     "everywhere))"),
            std::string::npos)
      << Out;
}

TEST_F(TransformTest, BareCShiftMoveStaysCanonical) {
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "real v(64), w(64)\n"
                                      "w = cshift(v, 1, 1)\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::Imp *Opt = extractComm(Raw, NCtx, Diags);
  std::string Out = N::printImp(Opt);
  // No temporaries: the MOVE is already a canonical communication.
  EXPECT_EQ(Out.find("tmp0"), std::string::npos) << Out;
}

TEST_F(TransformTest, NestedCShiftMakesTwoTemps) {
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "real v(64), z(64)\n"
                                      "z = 1.0 + cshift(cshift(v,1,1),1,1)\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::Imp *Opt = extractComm(Raw, NCtx, Diags);
  std::string Out = N::printImp(Opt);
  EXPECT_NE(Out.find("DECL('tmp0'"), std::string::npos) << Out;
  EXPECT_NE(Out.find("DECL('tmp1'"), std::string::npos) << Out;
}

TEST_F(TransformTest, ReductionInsideFieldExpressionIsHoisted) {
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "real a(32), b(32)\n"
                                      "b = a / sum(a)\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::Imp *Opt = extractComm(Raw, NCtx, Diags);
  std::string Out = N::printImp(Opt);
  EXPECT_NE(Out.find("(True, (FCNCALL('sum', [AVAR('a', everywhere)]), "
                     "SVAR 'tmp0'))"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("BINARY(Div, AVAR('a', everywhere), SVAR 'tmp0')"),
            std::string::npos)
      << Out;
}

TEST_F(TransformTest, CommOfComputedExpressionHoistsComputeFirst) {
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "real u(16), v(16), z(16)\n"
                                      "z = cshift(u*v, 1, 1)\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::Imp *Opt = extractComm(Raw, NCtx, Diags);
  std::string Out = N::printImp(Opt);
  // tmp0 = u*v (compute), then z = cshift(tmp0) (comm, canonical at top).
  EXPECT_NE(Out.find("(True, (BINARY(Mul, AVAR('u', everywhere), AVAR('v', "
                     "everywhere)), AVAR('tmp0', everywhere)))"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("FCNCALL('cshift', [AVAR('tmp0', everywhere)"),
            std::string::npos)
      << Out;
}

//===--------------------------------------------------------------------===//
// Section masking (Figure 10)
//===--------------------------------------------------------------------===//

TEST_F(TransformTest, AlignedStridedSectionsBecomeMaskedEverywhere) {
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "integer a(32,32), b(32,32)\n"
                                      "b(1:32:2,:) = a(1:32:2,:)\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::Imp *Opt = maskSections(Raw, NCtx, Diags);
  std::string Out = N::printImp(Opt);
  EXPECT_EQ(Out.find("section["), std::string::npos) << Out;
  // The Figure 10 mask: mod(coord - 1, 2) == 0.
  EXPECT_NE(Out.find("BINARY(Equals, BINARY(Mod, BINARY(Sub, "
                     "local_under(domain 'alpha',1), "
                     "SCALAR(integer_32,'1')), SCALAR(integer_32,'2')), "
                     "SCALAR(integer_32,'0'))"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("AVAR('b', everywhere)"), std::string::npos) << Out;
}

TEST_F(TransformTest, MisalignedSectionsAreLeftAsCommunication) {
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "integer l(128)\n"
                                      "l(32:64) = l(96:128)\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::Imp *Opt = maskSections(Raw, NCtx, Diags);
  std::string Out = N::printImp(Opt);
  EXPECT_NE(Out.find("section[96:128]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("section[32:64]"), std::string::npos) << Out;
}

TEST_F(TransformTest, ContiguousAlignedSectionGetsRangeMask) {
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "integer l(128)\n"
                                      "l(32:64) = 2*l(32:64)\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::Imp *Opt = maskSections(Raw, NCtx, Diags);
  std::string Out = N::printImp(Opt);
  EXPECT_EQ(Out.find("section["), std::string::npos) << Out;
  EXPECT_NE(Out.find("BINARY(GreaterEq, local_under(domain 'alpha',1), "
                     "SCALAR(integer_32,'32'))"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("BINARY(LessEq, local_under(domain 'alpha',1), "
                     "SCALAR(integer_32,'64'))"),
            std::string::npos)
      << Out;
}

//===--------------------------------------------------------------------===//
// Domain blocking (Figure 9 / Figure 10 blocking)
//===--------------------------------------------------------------------===//

TEST_F(TransformTest, Figure9LikeShapeMovesFuse) {
  // Figure 9: A-move (alpha), serial diagonal loop (beta), B-move (alpha).
  // The two alpha MOVEs must fuse into one computation phase.
  const N::ProgramImp *Raw =
      lowerSrc("program p\n"
               "integer, array(64,64) :: a, b\n"
               "integer, dimension(64) :: c\n"
               "integer i, j\n"
               "forall (i=1:64, j=1:64) a(i,j) = b(i,j) + j\n"
               "do i=1,64\n"
               "  c(i) = a(i,i)\n"
               "end do\n"
               "b = a\n"
               "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  PhaseStats Before = countPhases(Raw);
  // a=... and b=a are PEAC computations; the diagonal extraction c(i) is a
  // host element move.
  EXPECT_EQ(Before.ComputationPhases, 2u);
  EXPECT_EQ(Before.HostScalarPhases, 1u);

  const N::ProgramImp *Opt = optimize(Raw, NCtx, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  PhaseStats After = countPhases(Opt);
  // The two alpha-domain MOVEs fused into one computation block.
  EXPECT_EQ(After.ComputationPhases, 1u) << N::printImp(Opt);
}

TEST_F(TransformTest, Figure9FusionRespectsDependencies) {
  // b = a may NOT move above the loop if the loop writes a.
  const N::ProgramImp *Raw =
      lowerSrc("program p\n"
               "integer, array(8,8) :: a, b\n"
               "integer i\n"
               "a = 1\n"
               "do i=1,8\n"
               "  a(i,i) = 0\n"
               "end do\n"
               "b = a\n"
               "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::ProgramImp *Opt = optimize(Raw, NCtx, Diags);
  PhaseStats After = countPhases(Opt);
  // No fusion possible: a=1 and b=a stay separated by the diagonal writes
  // (two distinct computation phases; fusion would have made one).
  EXPECT_EQ(After.ComputationPhases, 2u) << N::printImp(Opt);
  expectSemanticsPreserved("program p\n"
                           "integer, array(8,8) :: a, b\n"
                           "integer i\n"
                           "a = 1\n"
                           "do i=1,8\n"
                           "  a(i,i) = 0\n"
                           "end do\n"
                           "b = a\n"
                           "end\n",
                           {"a", "b"});
}

TEST_F(TransformTest, Figure10MaskedMovesBlockTogether) {
  // Figure 10: after masking, the disjoint odd/even assignments and a=n
  // block into one MOVE over S; c=n+1 (1-d) stays separate.
  const N::ProgramImp *Raw =
      lowerSrc("program p\n"
               "integer, array(32,32) :: a, b\n"
               "integer, dimension(32) :: c\n"
               "integer n\n"
               "n = 3\n"
               "a = n\n"
               "b(1:32:2,:) = a(1:32:2,:)\n"
               "c = n+1\n"
               "b(2:32:2,:) = 5*a(2:32:2,:)\n"
               "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::ProgramImp *Opt = optimize(Raw, NCtx, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  PhaseStats After = countPhases(Opt);
  // Paper: "This fragment could be compiled into two PEAC routines."
  EXPECT_EQ(After.ComputationPhases, 2u) << N::printImp(Opt);
  EXPECT_EQ(After.CommunicationPhases, 0u) << N::printImp(Opt);
}

TEST_F(TransformTest, CommunicationPunctuatesBlocks) {
  // compute / comm / compute cannot fuse across the cshift.
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "real u(64), v(64), w(64)\n"
                                      "u = 1.0\n"
                                      "v = cshift(u, 1, 1)\n"
                                      "w = u + v\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::ProgramImp *Opt = optimize(Raw, NCtx, Diags);
  PhaseStats After = countPhases(Opt);
  EXPECT_EQ(After.CommunicationPhases, 1u);
  EXPECT_EQ(After.ComputationPhases, 2u);
}

//===--------------------------------------------------------------------===//
// countPhases edge cases (the per-pass observability gauges feed off it,
// so the degenerate shapes must not crash or miscount)
//===--------------------------------------------------------------------===//

TEST_F(TransformTest, CountPhasesNullRootIsAllZero) {
  PhaseStats S = countPhases(nullptr);
  EXPECT_EQ(S.ComputationPhases, 0u);
  EXPECT_EQ(S.CommunicationPhases, 0u);
  EXPECT_EQ(S.HostScalarPhases, 0u);
  EXPECT_EQ(S.MoveClauses, 0u);
}

TEST_F(TransformTest, CountPhasesEmptyProgram) {
  const N::ProgramImp *Raw = lowerSrc("program p\nend\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  PhaseStats S = countPhases(Raw);
  EXPECT_EQ(S.ComputationPhases, 0u);
  EXPECT_EQ(S.CommunicationPhases, 0u);
  EXPECT_EQ(S.MoveClauses, 0u);
}

TEST_F(TransformTest, CountPhasesHostScalarOnlyProgram) {
  // No arrays anywhere: nothing may classify as a PEAC computation or a
  // communication phase.
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "integer n, m\n"
                                      "n = 3\n"
                                      "m = n + 1\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  const N::ProgramImp *Opt = optimize(Raw, NCtx, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  for (const N::Imp *P : {static_cast<const N::Imp *>(Raw),
                          static_cast<const N::Imp *>(Opt)}) {
    PhaseStats S = countPhases(P);
    EXPECT_EQ(S.ComputationPhases, 0u);
    EXPECT_EQ(S.CommunicationPhases, 0u);
    EXPECT_GE(S.HostScalarPhases, 1u);
  }
}

TEST_F(TransformTest, CountPhasesSingleFusedMove) {
  // Two same-domain assignments: with elementwise fusion off, blocking
  // fuses them into ONE MOVE carrying BOTH clauses; with fusion on, the
  // single-use temporary 'a' disappears into 'b' entirely and only one
  // clause remains.
  const N::ProgramImp *Raw = lowerSrc("program p\n"
                                      "integer, array(16,16) :: a, b\n"
                                      "a = 1\n"
                                      "b = a\n"
                                      "end\n");
  ASSERT_NE(Raw, nullptr) << Diags.str();
  PhaseStats Before = countPhases(Raw);
  EXPECT_EQ(Before.ComputationPhases, 2u);
  EXPECT_EQ(Before.MoveClauses, 2u);

  TransformOptions NoFuse;
  NoFuse.Fusion = false;
  const N::ProgramImp *Blocked = optimize(Raw, NCtx, Diags, NoFuse);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  PhaseStats After = countPhases(Blocked);
  EXPECT_EQ(After.ComputationPhases, 1u) << N::printImp(Blocked);
  EXPECT_EQ(After.MoveClauses, 2u) << N::printImp(Blocked);
  EXPECT_EQ(After.CommunicationPhases, 0u);

  const N::ProgramImp *Fused = optimize(Raw, NCtx, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  PhaseStats FusedStats = countPhases(Fused);
  EXPECT_EQ(FusedStats.ComputationPhases, 1u) << N::printImp(Fused);
  EXPECT_EQ(FusedStats.MoveClauses, 1u) << N::printImp(Fused);
}

//===--------------------------------------------------------------------===//
// Semantic preservation (differential against the interpreter)
//===--------------------------------------------------------------------===//

TEST_F(TransformTest, PreservesFigure10Semantics) {
  expectSemanticsPreserved("program p\n"
                           "integer, array(32,32) :: a, b\n"
                           "integer, dimension(32) :: c\n"
                           "integer n\n"
                           "n = 3\n"
                           "a = n\n"
                           "b(1:32:2,:) = a(1:32:2,:)\n"
                           "c = n+1\n"
                           "b(2:32:2,:) = 5*a(2:32:2,:)\n"
                           "end\n",
                           {"a", "b", "c"});
}

TEST_F(TransformTest, PreservesShiftExpressionSemantics) {
  expectSemanticsPreserved("program p\n"
                           "real v(32), z(32)\n"
                           "integer i\n"
                           "do i=1,32\n"
                           "  v(i) = i*i\n"
                           "end do\n"
                           "z = 0.5*(v - cshift(v,-1,1)) + cshift(v,1,1)\n"
                           "end\n",
                           {"v", "z"});
}

TEST_F(TransformTest, PreservesMisalignedSectionSemantics) {
  expectSemanticsPreserved("program p\n"
                           "integer l(128), i\n"
                           "do i=1,128\n"
                           "  l(i) = i\n"
                           "end do\n"
                           "l(32:64) = l(96:128)\n"
                           "end\n",
                           {"l"});
}

TEST_F(TransformTest, PreservesWhereSemantics) {
  expectSemanticsPreserved("program p\n"
                           "integer a(16,16), b(16,16)\n"
                           "integer i, j\n"
                           "forall (i=1:16, j=1:16) a(i,j) = i - j\n"
                           "where (a > 0)\n"
                           "  b = a*a\n"
                           "elsewhere\n"
                           "  b = -a\n"
                           "end where\n"
                           "end\n",
                           {"a", "b"});
}

TEST_F(TransformTest, PreservesReductionNormalization) {
  expectSemanticsPreserved("program p\n"
                           "real a(16), b(16)\n"
                           "integer i\n"
                           "do i=1,16\n"
                           "  a(i) = i\n"
                           "end do\n"
                           "b = a / sum(a)\n"
                           "end\n",
                           {"a", "b"});
}

TEST_F(TransformTest, PreservesTimeSteppedStencil) {
  // A miniature SWE-like pattern: shifts + local computation in a loop.
  // Under fusion the single-use 'unew' is folded into 'u' (and its
  // storage eliminated), so only 'u' is observable; the fusion-off run
  // still checks both fields.
  const std::string Src =
      "program p\n"
      "real u(16,16), unew(16,16)\n"
      "integer i, j, t\n"
      "forall (i=1:16, j=1:16) u(i,j) = i + 2*j\n"
      "do t=1,4\n"
      "  unew = 0.25*(cshift(u,1,1) + cshift(u,-1,1) &\n"
      "             + cshift(u,1,2) + cshift(u,-1,2))\n"
      "  u = unew\n"
      "end do\n"
      "end\n";
  expectSemanticsPreserved(Src, {"u"});
  TransformOptions NoFuse;
  NoFuse.Fusion = false;
  expectSemanticsPreserved(Src, {"u", "unew"}, NoFuse);
}

TEST_F(TransformTest, PreservesSemanticsWithEachPassAlone) {
  const std::string Src = "program p\n"
                          "integer a(32,32), b(32,32)\n"
                          "integer, dimension(32) :: c\n"
                          "integer n\n"
                          "n = 2\n"
                          "a = n\n"
                          "b(1:32:2,:) = a(1:32:2,:)\n"
                          "c = n+1\n"
                          "b(2:32:2,:) = 5*a(2:32:2,:)\n"
                          "b = b + cshift(a, 1, 1)\n"
                          "end\n";
  const N::ProgramImp *Raw = lowerSrc(Src);
  ASSERT_NE(Raw, nullptr) << Diags.str();
  using Pass = const N::Imp *(*)(const N::Imp *, N::NIRContext &,
                                 DiagnosticEngine &);
  // Only extract-comm establishes the canonical-comm post-condition.
  const struct {
    const char *Name;
    Pass Run;
    bool CanonicalComm;
  } Legs[] = {{"extract only", extractComm, true},
              {"mask only", maskSections, false},
              {"blocking only", blockDomains, false}};
  for (const auto &Leg : Legs) {
    SCOPED_TRACE(Leg.Name);
    const auto *Alone = dyn_cast<N::ProgramImp>(Leg.Run(Raw, NCtx, Diags));
    ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
    ASSERT_NE(Alone, nullptr);
    N::VerifyOptions VOpts;
    VOpts.CanonicalComm = Leg.CanonicalComm;
    ASSERT_TRUE(N::verify(Alone, Diags, VOpts)) << Diags.str();
    expectSameArrays(Raw, Alone, {"a", "b", "c"});
  }
}

} // namespace
