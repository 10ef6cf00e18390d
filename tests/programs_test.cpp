//===- tests/programs_test.cpp - shipped .f90 sample programs ----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sample programs under examples/programs/ must keep compiling and
/// producing their documented outputs (the f90yc user experience). Paths
/// come from the F90Y_SOURCE_DIR compile definition.
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "invariance/Invariance.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;

namespace {

cm2::CostModel small() {
  cm2::CostModel C;
  C.NumPEs = 32;
  return C;
}

std::string runProgram(const std::string &Name) {
  CompileOptions Opts = CompileOptions::forProfile(Profile::F90Y, small());
  Compilation C(Opts);
  EXPECT_TRUE(C.compile(invariance::sampleProgram(Name))) << C.diags().str();
  if (C.diags().hasErrors())
    return "";
  Execution Exec(small());
  auto Report = Exec.run(C.artifacts().Compiled.Program);
  EXPECT_TRUE(Report.has_value()) << Exec.diags().str();
  return Report ? Report->Output : "";
}

TEST(SamplePrograms, Fig10OutputsMaskedValues) {
  EXPECT_EQ(runProgram("fig10.f90"), "b(1,1) b(2,1): 7 35\n");
}

TEST(SamplePrograms, SubroutinesRelaxation) {
  std::string Out = runProgram("subroutines.f90");
  // Smoothing preserves positivity and prints one energy line.
  ASSERT_EQ(Out.rfind("energy: ", 0), 0u) << Out;
  double E = std::stod(Out.substr(8));
  EXPECT_GT(E, 0.0);
}

TEST(SamplePrograms, SweConservesMeanPressure) {
  std::string Out = runProgram("swe.f90");
  ASSERT_EQ(Out.rfind("mean p: ", 0), 0u) << Out;
  double Mean = std::stod(Out.substr(8));
  // The update conserves total mass up to rounding.
  EXPECT_NEAR(Mean, 50000.0, 0.01);
}

TEST(SamplePrograms, MisalignedSweRelaxes) {
  std::string Out = runProgram("mswe.f90");
  ASSERT_EQ(Out.rfind("mean p: ", 0), 0u) << Out;
  double Mean = std::stod(Out.substr(8));
  // Four steps of +0.5 forcing minus the small flux relaxation.
  EXPECT_GT(Mean, 50000.0);
  EXPECT_LT(Mean, 50002.5);
}

TEST(SamplePrograms, AllMatchReferenceInterpreter) {
  for (const char *Name :
       {"fig10.f90", "subroutines.f90", "swe.f90", "mswe.f90"}) {
    SCOPED_TRACE(Name);
    CompileOptions Opts = CompileOptions::forProfile(Profile::F90Y, small());
    Compilation C(Opts);
    ASSERT_TRUE(C.compile(invariance::sampleProgram(Name))) << C.diags().str();
    DiagnosticEngine IDiags;
    interp::Interpreter Interp(IDiags);
    ASSERT_TRUE(Interp.run(C.artifacts().RawNIR)) << IDiags.str();
    Execution Exec(small());
    auto Report = Exec.run(C.artifacts().Compiled.Program);
    ASSERT_TRUE(Report.has_value()) << Exec.diags().str();
    // The machine reduces in PE order, the interpreter in row-major
    // order, so printed reduction results may differ in the last ulps;
    // compare the trailing number numerically, the prefix exactly.
    std::string M = Report->Output, R = Interp.output();
    size_t MC = M.rfind(": "), RC = R.rfind(": ");
    ASSERT_NE(MC, std::string::npos) << M;
    ASSERT_NE(RC, std::string::npos) << R;
    EXPECT_EQ(M.substr(0, MC), R.substr(0, RC));
    EXPECT_NEAR(std::stod(M.substr(MC + 2)), std::stod(R.substr(RC + 2)),
                1e-6);
  }
}

} // namespace
