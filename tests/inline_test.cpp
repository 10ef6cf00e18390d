//===- tests/inline_test.cpp - procedure integration tests -------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SUBROUTINE units and CALL statements: by-reference argument
/// association, local renaming, nested and repeated calls, and the full
/// pipeline (integrated programs compile and run on the simulated machine
/// with results matching the reference interpreter).
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "interp/Interpreter.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;

namespace {

cm2::CostModel small() {
  cm2::CostModel C;
  C.NumPEs = 8;
  return C;
}

class InlineTest : public ::testing::Test {
protected:
  /// Compiles, runs on the machine and in the interpreter, and returns
  /// the machine value of scalar \p Name (asserting agreement).
  double runAndGet(const std::string &Src, const std::string &Name) {
    CompileOptions Opts = CompileOptions::forProfile(Profile::F90Y, small());
    Compilation C(Opts);
    EXPECT_TRUE(C.compile(Src)) << C.diags().str();
    if (C.diags().hasErrors())
      return 0;

    DiagnosticEngine IDiags;
    interp::Interpreter Interp(IDiags);
    EXPECT_TRUE(Interp.run(C.artifacts().RawNIR)) << IDiags.str();

    Execution Exec(small());
    auto Report = Exec.run(C.artifacts().Compiled.Program);
    EXPECT_TRUE(Report.has_value()) << Exec.diags().str();
    if (!Report)
      return 0;
    auto Machine = Exec.executor().getScalar(Name);
    auto Ref = Interp.getScalar(Name);
    EXPECT_TRUE(Machine.has_value());
    EXPECT_TRUE(Ref.has_value());
    if (Machine && Ref) {
      EXPECT_NEAR(Machine->asReal(), Ref->asReal(), 1e-9);
    }
    return Machine ? Machine->asReal() : 0;
  }

  bool failsToCompile(const std::string &Src, const std::string &Needle) {
    Compilation C(CompileOptions::forProfile(Profile::F90Y, small()));
    bool OK = C.compile(Src);
    EXPECT_FALSE(OK) << "expected failure mentioning '" << Needle << "'";
    if (!OK) {
      EXPECT_NE(C.diags().str().find(Needle), std::string::npos)
          << C.diags().str();
    }
    return !OK;
  }
};

TEST_F(InlineTest, ScalarByReference) {
  EXPECT_DOUBLE_EQ(runAndGet("subroutine bump(x)\n"
                             "real x\n"
                             "x = x + 1.5\n"
                             "end subroutine bump\n"
                             "program p\n"
                             "real y\n"
                             "y = 2.0\n"
                             "call bump(y)\n"
                             "call bump(y)\n"
                             "end\n",
                             "y"),
                   5.0);
}

TEST_F(InlineTest, ArrayArgumentModifiedInPlace) {
  EXPECT_DOUBLE_EQ(runAndGet("subroutine scale(a, f)\n"
                             "real a(16)\n"
                             "real f\n"
                             "a = f*a\n"
                             "end subroutine\n"
                             "program p\n"
                             "real v(16), s\n"
                             "v = 2.0\n"
                             "call scale(v, 3.0)\n"
                             "s = sum(v)\n"
                             "end\n",
                             "s"),
                   96.0);
}

TEST_F(InlineTest, LocalsAreRenamedPerCall) {
  // Each integration gets its own 'acc' local; no cross-talk.
  EXPECT_DOUBLE_EQ(runAndGet("subroutine sumsq(a, s)\n"
                             "real a(8), s\n"
                             "real acc(8)\n"
                             "acc = a*a\n"
                             "s = sum(acc)\n"
                             "end\n"
                             "program p\n"
                             "real u(8), w(8), s1, s2, total\n"
                             "u = 2.0\n"
                             "w = 3.0\n"
                             "call sumsq(u, s1)\n"
                             "call sumsq(w, s2)\n"
                             "total = s1 + s2\n"
                             "end\n",
                             "total"),
                   8 * 4.0 + 8 * 9.0);
}

TEST_F(InlineTest, NestedCalls) {
  EXPECT_DOUBLE_EQ(runAndGet("subroutine inner(x)\n"
                             "real x\n"
                             "x = 2.0*x\n"
                             "end\n"
                             "subroutine outer(x)\n"
                             "real x\n"
                             "call inner(x)\n"
                             "x = x + 1.0\n"
                             "end\n"
                             "program p\n"
                             "real y\n"
                             "y = 5.0\n"
                             "call outer(y)\n"
                             "end\n",
                             "y"),
                   11.0);
}

TEST_F(InlineTest, CallInsideLoopAndIf) {
  EXPECT_DOUBLE_EQ(runAndGet("subroutine addone(s)\n"
                             "integer s\n"
                             "s = s + 1\n"
                             "end\n"
                             "program p\n"
                             "integer s, i\n"
                             "s = 0\n"
                             "do i=1,10\n"
                             "  if (mod(i,2) == 0) call addone(s)\n"
                             "end do\n"
                             "end\n",
                             "s"),
                   5.0);
}

TEST_F(InlineTest, StencilSubroutineOnArrays) {
  EXPECT_NEAR(runAndGet("subroutine smooth(u, v)\n"
                        "real u(12,12), v(12,12)\n"
                        "v = 0.25*(cshift(u,1,1) + cshift(u,-1,1) &\n"
                        "        + cshift(u,1,2) + cshift(u,-1,2))\n"
                        "end\n"
                        "program p\n"
                        "real a(12,12), b(12,12), s\n"
                        "integer i, j\n"
                        "forall (i=1:12, j=1:12) a(i,j) = real(i*j)\n"
                        "call smooth(a, b)\n"
                        "call smooth(b, a)\n"
                        "s = sum(a)\n"
                        "end\n",
                        "s"),
              // Circular smoothing preserves the field's total:
              // sum(i*j) = (sum 1..12)^2 = 78^2.
              6084.0, 1e-6);
}

TEST_F(InlineTest, ExpressionActualForReadOnlyDummy) {
  EXPECT_DOUBLE_EQ(runAndGet("subroutine addto(s, x)\n"
                             "real s, x\n"
                             "s = s + x\n"
                             "end\n"
                             "program p\n"
                             "real s\n"
                             "s = 1.0\n"
                             "call addto(s, 2.0 + 3.0)\n"
                             "end\n",
                             "s"),
                   6.0);
}

TEST_F(InlineTest, ParameterLocalsSubstituteIntoBounds) {
  EXPECT_DOUBLE_EQ(runAndGet("subroutine fill(s)\n"
                             "real s\n"
                             "integer, parameter :: m = 6\n"
                             "real w(m)\n"
                             "w = 2.0\n"
                             "s = sum(w)\n"
                             "end\n"
                             "program p\n"
                             "real s\n"
                             "call fill(s)\n"
                             "end\n",
                             "s"),
                   12.0);
}

//===--------------------------------------------------------------------===//
// Rejections
//===--------------------------------------------------------------------===//

TEST_F(InlineTest, RejectsUnknownSubroutine) {
  failsToCompile("program p\ncall nope()\nend\n", "unknown subroutine");
}

TEST_F(InlineTest, RejectsArityMismatch) {
  failsToCompile("subroutine f(x)\nreal x\nx = 1.0\nend\n"
                 "program p\nreal y\ncall f(y, y)\nend\n",
                 "expects 1 arguments");
}

TEST_F(InlineTest, RejectsRecursion) {
  failsToCompile("subroutine f(x)\nreal x\ncall f(x)\nend\n"
                 "program p\nreal y\ncall f(y)\nend\n",
                 "recursive CALL");
}

TEST_F(InlineTest, RejectsWriteThroughExpressionActual) {
  failsToCompile("subroutine f(x)\nreal x\nx = 1.0\nend\n"
                 "program p\nreal y\ny = 0.0\ncall f(y + 1.0)\nend\n",
                 "must be a variable");
}

TEST_F(InlineTest, RejectsScalarActualForArrayDummy) {
  failsToCompile("subroutine f(a)\nreal a(8)\na = 1.0\nend\n"
                 "program p\nreal y\ncall f(y)\nend\n",
                 "array/scalar kind");
}

TEST_F(InlineTest, RejectsUndeclaredDummy) {
  failsToCompile("subroutine f(x)\nend\n"
                 "program p\nreal y\ncall f(y)\nend\n",
                 "is not declared");
}

TEST_F(InlineTest, RejectsTwoMainPrograms) {
  failsToCompile("program a\nend\nprogram b\nend\n",
                 "only one main program");
}

} // namespace
