//===- tests/lower_test.cpp - semantic lowering unit tests ------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the AST -> NIR semantic equations: declarations become
/// WITH_DOMAIN/WITH_DECL structure, whole-array assignment becomes parallel
/// MOVEs, sections survive as section restrictors, WHERE becomes masked
/// clauses, FORALL takes the Figure 7 form, serial DO loops become DOs over
/// serial intervals, and type/shape errors are rejected.
///
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "lower/Lowering.h"
#include "nir/Printer.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::frontend;
namespace N = f90y::nir;

namespace {

class LowerTest : public ::testing::Test {
protected:
  ast::ASTContext ACtx;
  N::NIRContext NCtx;
  DiagnosticEngine Diags;

  std::optional<lower::LoweredProgram> lowerSrc(const std::string &Src) {
    Lexer L(Src, Diags);
    Parser P(L.lexAll(), ACtx, Diags);
    auto Unit = P.parseProgram();
    if (!Unit)
      return std::nullopt;
    return lower::lowerProgram(*Unit, NCtx, Diags);
  }

  std::string lowerToString(const std::string &Src) {
    auto LP = lowerSrc(Src);
    if (!LP)
      return "<error>\n" + Diags.str();
    return N::printImp(LP->Program);
  }
};

TEST_F(LowerTest, Section21WholeArrayExample) {
  // Paper Section 2.1 / Figure 8: L = 6; K = 2*K + 5.
  std::string Out = lowerToString("program p\n"
                                  "integer k(128,64), l(128)\n"
                                  "l = 6\n"
                                  "k = 2*k + 5\n"
                                  "end\n");
  EXPECT_NE(Out.find("WITH_DOMAIN(('alpha', prod_dom[interval(point 1, "
                     "point 128), interval(point 1, point 64)]),"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("WITH_DOMAIN(('beta', interval(point 1, point 128)),"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("(True, (SCALAR(integer_32,'6'), AVAR('l', "
                     "everywhere)))"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("BINARY(Add, BINARY(Mul, SCALAR(integer_32,'2'), "
                     "AVAR('k', everywhere)), SCALAR(integer_32,'5'))"),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, SameShapedArraysShareOneDomain) {
  std::string Out = lowerToString("program p\n"
                                  "real a(64,64), b(64,64), c(64)\n"
                                  "a = b\n"
                                  "end\n");
  // a and b share 'alpha'; c gets 'beta'.
  EXPECT_NE(Out.find("DECL('a', dfield(shape=domain 'alpha'"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("DECL('b', dfield(shape=domain 'alpha'"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("DECL('c', dfield(shape=domain 'beta'"),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, ParameterFoldsIntoConstants) {
  std::string Out = lowerToString("program p\n"
                                  "integer, parameter :: n = 64\n"
                                  "real a(n,n)\n"
                                  "a = real(n)\n"
                                  "end\n");
  EXPECT_NE(Out.find("interval(point 1, point 64)"), std::string::npos)
      << Out;
  // real(n) folds n to 64 and converts.
  EXPECT_NE(Out.find("UNARY(IntToF, SCALAR(integer_32,'64'))"),
            std::string::npos)
      << Out;
  // Parameters do not appear as declarations.
  EXPECT_EQ(Out.find("DECL('n'"), std::string::npos) << Out;
}

TEST_F(LowerTest, SectionAssignmentKeepsSectionRestrictor) {
  std::string Out = lowerToString("program p\n"
                                  "integer b(32,32), a(32,32)\n"
                                  "b(1:32:2,:) = 5*a(1:32:2,:)\n"
                                  "end\n");
  EXPECT_NE(Out.find("AVAR('b', section[1:32:2, :])"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("AVAR('a', section[1:32:2, :])"), std::string::npos)
      << Out;
}

TEST_F(LowerTest, MisalignedSectionsLowerWithDistinctSections) {
  // Paper Section 2.1: L(32:64) = L(96:128).
  std::string Out = lowerToString("program p\n"
                                  "integer l(128)\n"
                                  "l(32:64) = l(96:128)\n"
                                  "end\n");
  EXPECT_NE(Out.find("AVAR('l', section[96:128])"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("AVAR('l', section[32:64])"), std::string::npos)
      << Out;
}

TEST_F(LowerTest, WhereBecomesMaskedClauses) {
  std::string Out = lowerToString("program p\n"
                                  "real a(8,8), b(8,8)\n"
                                  "where (a > 0)\n"
                                  "  b = a\n"
                                  "elsewhere\n"
                                  "  b = -a\n"
                                  "end where\n"
                                  "end\n");
  EXPECT_NE(Out.find("(BINARY(Greater, AVAR('a', everywhere), "),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("(UNARY(Not, BINARY(Greater, AVAR('a', everywhere)"),
            std::string::npos)
      << Out;
  // Both arms belong to ONE MOVE (a single computation burst).
  size_t MoveCount = 0;
  for (size_t P = Out.find("MOVE["); P != std::string::npos;
       P = Out.find("MOVE[", P + 1))
    ++MoveCount;
  EXPECT_EQ(MoveCount, 1u) << Out;
}

TEST_F(LowerTest, ForallIdentityTakesFigure7Form) {
  std::string Out = lowerToString("program p\n"
                                  "integer, array(32,32) :: a\n"
                                  "integer i, j\n"
                                  "forall (i=1:32, j=1:32) a(i,j) = i+j\n"
                                  "end\n");
  // Identity FORALL: a single MOVE of coordinate arithmetic into
  // AVAR('a', everywhere) — no DO construct.
  EXPECT_NE(Out.find("BINARY(Add, local_under(domain 'alpha',1), "
                     "local_under(domain 'alpha',2))"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("AVAR('a', everywhere)"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("DO("), std::string::npos) << Out;
}

TEST_F(LowerTest, GeneralForallBecomesParallelDo) {
  // Transposed store: not the identity; takes the DO + subscript form.
  std::string Out = lowerToString("program p\n"
                                  "integer, array(32,32) :: a\n"
                                  "integer i, j\n"
                                  "forall (i=1:32, j=1:32) a(j,i) = i\n"
                                  "end\n");
  EXPECT_NE(Out.find("DO(domain 'forall."), std::string::npos) << Out;
  EXPECT_NE(Out.find("subscript[local_under(domain 'forall."),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, SerialDoLowersToSerialInterval) {
  std::string Out = lowerToString("program p\n"
                                  "integer l(128)\n"
                                  "integer i\n"
                                  "do 10 i=1,128\n"
                                  "   l(i) = 6\n"
                                  "10 continue\n"
                                  "end\n");
  EXPECT_NE(Out.find("serial_interval(point 1, point 128)"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("AVAR('l', subscript[local_under(domain 'serial."),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, SteppedDoUsesAffineCoordinate) {
  std::string Out = lowerToString("program p\n"
                                  "integer l(16), i\n"
                                  "do i=1,16,3\n"
                                  "  l(i) = i\n"
                                  "end do\n"
                                  "end\n");
  // Count = 6 -> serial_interval(0,5), index = 1 + coord*3.
  EXPECT_NE(Out.find("serial_interval(point 0, point 5)"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("BINARY(Add, SCALAR(integer_32,'1'), BINARY(Mul, "
                     "local_under(domain 'serial."),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, CShiftKeywordsNormalizeToPositional) {
  std::string Out = lowerToString("program p\n"
                                  "real v(64,64), z(64,64)\n"
                                  "z = v - cshift(v, dim=1, shift=-1)\n"
                                  "end\n");
  EXPECT_NE(Out.find("FCNCALL('cshift', [AVAR('v', everywhere), "
                     "SCALAR(integer_32,'-1'), SCALAR(integer_32,'1')])"),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, ReductionProducesScalar) {
  std::string Out = lowerToString("program p\n"
                                  "real a(8,8), s\n"
                                  "s = sum(a)\n"
                                  "end\n");
  EXPECT_NE(Out.find("(True, (FCNCALL('sum', [AVAR('a', everywhere)]), "
                     "SVAR 's'))"),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, IntToFloatPromotionInserted) {
  std::string Out = lowerToString("program p\n"
                                  "real x\n"
                                  "integer k\n"
                                  "x = k + 1.5\n"
                                  "end\n");
  EXPECT_NE(Out.find("BINARY(Add, UNARY(IntToF, SVAR 'k'), "
                     "SCALAR(float_32,'1.5'))"),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, IntegerExponentStaysIntegral) {
  std::string Out = lowerToString("program p\n"
                                  "real a(8), b(8)\n"
                                  "a = b**2\n"
                                  "end\n");
  EXPECT_NE(Out.find("BINARY(Pow, AVAR('b', everywhere), "
                     "SCALAR(integer_32,'2'))"),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, DotProductDesugarsToSumOfProduct) {
  std::string Out = lowerToString("program p\n"
                                  "real a(8), b(8), s\n"
                                  "s = dot_product(a, b)\n"
                                  "end\n");
  EXPECT_NE(Out.find("FCNCALL('sum', [BINARY(Mul, AVAR('a', everywhere), "
                     "AVAR('b', everywhere))])"),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, PrintLowersToHostCall) {
  std::string Out = lowerToString("program p\n"
                                  "real x\n"
                                  "print *, 'x =', x\n"
                                  "end\n");
  EXPECT_NE(Out.find("CALL('print', [STRING('x ='), SVAR 'x'])"),
            std::string::npos)
      << Out;
}

TEST_F(LowerTest, DoubleLiteralIsFloat64) {
  std::string Out = lowerToString("program p\n"
                                  "double precision x\n"
                                  "x = 2.5d0\n"
                                  "end\n");
  EXPECT_NE(Out.find("SCALAR(float_64,'2.5')"), std::string::npos) << Out;
}

//===--------------------------------------------------------------------===//
// Rejection cases (typecheck / shapecheck diagnostics)
//===--------------------------------------------------------------------===//

TEST_F(LowerTest, RejectsShapeMismatch) {
  auto LP = lowerSrc("program p\n"
                     "real a(8,8), b(4,4)\n"
                     "a = b\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("shape mismatch"), std::string::npos)
      << Diags.str();
}

TEST_F(LowerTest, RejectsSectionCountMismatch) {
  auto LP = lowerSrc("program p\n"
                     "real a(16)\n"
                     "a(1:4) = a(1:8)\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("shape mismatch"), std::string::npos);
}

TEST_F(LowerTest, RejectsArithmeticOnLogicals) {
  auto LP = lowerSrc("program p\n"
                     "logical f\n"
                     "real x\n"
                     "x = f + 1\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("arithmetic on logical"), std::string::npos);
}

TEST_F(LowerTest, RejectsScalarAssignedFromArray) {
  auto LP = lowerSrc("program p\n"
                     "real a(8), x\n"
                     "x = a\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
}

TEST_F(LowerTest, RejectsAssignmentToParameter) {
  auto LP = lowerSrc("program p\n"
                     "integer, parameter :: n = 4\n"
                     "n = 5\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("PARAMETER"), std::string::npos);
}

TEST_F(LowerTest, RejectsDeclarationInitializer) {
  // Only PARAMETERs take a value in their declaration; any other
  // initializer is diagnosed by name rather than silently dropped.
  auto LP = lowerSrc("program p\n"
                     "real :: x = 2.5\n"
                     "print *, x\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("initializer of 'x'"), std::string::npos)
      << Diags.str();
}

TEST_F(LowerTest, RejectsAssignmentToLoopVariable) {
  auto LP = lowerSrc("program p\n"
                     "integer i\n"
                     "do i=1,4\n"
                     "  i = 2\n"
                     "end do\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("loop variable"), std::string::npos);
}

TEST_F(LowerTest, RejectsNonConstantArrayBounds) {
  auto LP = lowerSrc("program p\n"
                     "integer m\n"
                     "real a(m)\n"
                     "a = 0\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("compile-time constant"), std::string::npos);
}

TEST_F(LowerTest, RejectsUndeclaredName) {
  auto LP = lowerSrc("program p\n"
                     "x = 1\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("undeclared"), std::string::npos);
}

TEST_F(LowerTest, RejectsCShiftOutOfRangeDim) {
  auto LP = lowerSrc("program p\n"
                     "real v(8)\n"
                     "v = cshift(v, 1, 2)\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("dim out of range"), std::string::npos);
}

TEST_F(LowerTest, RejectsUnknownIntrinsic) {
  auto LP = lowerSrc("program p\n"
                     "real x\n"
                     "x = frobnicate(1.0)\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("unknown function"), std::string::npos);
}

TEST_F(LowerTest, RejectsRankMismatch) {
  auto LP = lowerSrc("program p\n"
                     "real a(8,8)\n"
                     "a(3) = 1\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("rank mismatch"), std::string::npos);
}

TEST_F(LowerTest, RejectsSectionBeyondBounds) {
  auto LP = lowerSrc("program p\n"
                     "real a(8)\n"
                     "a(4:12) = 0\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("exceeds declared bounds"), std::string::npos);
}

TEST_F(LowerTest, RejectsWhereMaskShapeMismatch) {
  auto LP = lowerSrc("program p\n"
                     "real a(8,8), c(4,4)\n"
                     "where (a > 0)\n"
                     "  c = 1\n"
                     "end where\n"
                     "end\n");
  EXPECT_FALSE(LP.has_value());
  EXPECT_NE(Diags.str().find("disagrees with mask"), std::string::npos);
}

} // namespace
