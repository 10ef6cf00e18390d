//===- tests/cm5_test.cpp - CM/5 machine-model tests -------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 5.3.1 retarget: the identical compiler specification runs
/// against the CM/5 machine description (8-wide vector units, 16
/// registers, 1024 nodes at 32 MHz). Functional results must equal the
/// reference interpreter — the 8-wide executor path and the wider
/// register file get their own differential coverage here — and the
/// performance relationships the paper predicts must hold.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/Workloads.h"
#include "invariance/Invariance.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;

namespace {

TEST(Cm5Test, ModelParameters) {
  cm2::CostModel M = cm2::CostModel::cm5();
  EXPECT_EQ(M.NumPEs, 1024u);
  EXPECT_EQ(M.VectorWidth, 8u);
  EXPECT_EQ(M.VectorRegs, 16u);
  EXPECT_DOUBLE_EQ(M.ClockMHz, 32.0);
  // One second of cycles at 32 MHz.
  EXPECT_DOUBLE_EQ(M.seconds(32e6), 1.0);
}

TEST(Cm5Test, EightWideExecutionMatchesReference) {
  // Odd sizes exercise the 8-wide padding path.
  const std::string Src = "program p\n"
                          "real a(19,13), b(19,13), z(19,13)\n"
                          "integer i, j\n"
                          "forall (i=1:19, j=1:13) a(i,j) = real(i) - "
                          "0.3*real(j)\n"
                          "forall (i=1:19, j=1:13) b(i,j) = real(i*j)\n"
                          "z = a*b + cshift(a, 1, 1) - sqrt(abs(b))\n"
                          "where (a > 0.0)\n"
                          "  z = z + 1.0\n"
                          "end where\n"
                          "end\n";
  // A small machine, the same 8-wide node model.
  invariance::Record R =
      invariance::run(Src, {{"-cm5", "-pes=16", "-comm=sync"}});
  EXPECT_EQ(invariance::diffOracle(R, Src, {"z"}), "");
}

TEST(Cm5Test, SixteenRegistersReduceSpills) {
  // A pressure expression that spills on 8 registers must spill less (or
  // not at all) on the CM/5's 16.
  std::string Src = "program p\nreal z(64)\n";
  std::string Expr;
  for (int I = 1; I <= 10; ++I) {
    Src += "real a" + std::to_string(I) + "(64), b" + std::to_string(I) +
           "(64)\n";
  }
  for (int I = 1; I <= 10; ++I) {
    Src += cat({"a", std::to_string(I), " = 1.0\n"});
    Src += cat({"b", std::to_string(I), " = 2.0\n"});
    Expr += "(a" + std::to_string(I) + " + b" + std::to_string(I) + ")";
    if (I != 10)
      Expr += " * (";
  }
  Expr += std::string(9, ')');
  Src += "z = " + Expr + "\nend\n";

  auto SpillsUnder = [&](cm2::CostModel M) {
    CompileOptions Opts = CompileOptions::forProfile(Profile::F90Y, M);
    Opts.Transforms.Blocking = false;
    // Fusion would fold the single-use a*/b* fields into constants and
    // deflate the register pressure this test exists to create.
    Opts.Transforms.Fusion = false;
    Compilation C(Opts);
    EXPECT_TRUE(C.compile(Src)) << C.diags().str();
    unsigned Max = 0;
    for (const peac::Routine &R : C.artifacts().Compiled.Program.Routines)
      Max = R.NumSpillSlots > Max ? R.NumSpillSlots : Max;
    return Max;
  };

  unsigned Cm2Spills = SpillsUnder(cm2::CostModel{});
  unsigned Cm5Spills = SpillsUnder(cm2::CostModel::cm5());
  EXPECT_GT(Cm2Spills, 0u);
  EXPECT_LT(Cm5Spills, Cm2Spills);
}

TEST(Cm5Test, SameSpecificationCompilesForBothMachines) {
  std::string Src = sweSource(32, 1);
  Compilation A(CompileOptions::forProfile(Profile::F90Y,
                                           cm2::CostModel{}));
  Compilation B(CompileOptions::forProfile(Profile::F90Y,
                                           cm2::CostModel::cm5()));
  ASSERT_TRUE(A.compile(Src)) << A.diags().str();
  ASSERT_TRUE(B.compile(Src)) << B.diags().str();
  // Identical phase structure: the same number of node routines.
  EXPECT_EQ(A.artifacts().Compiled.Program.Routines.size(),
            B.artifacts().Compiled.Program.Routines.size());
}

TEST(Cm5Test, Cm5RunsSweFasterThanCm2) {
  std::string Src = sweSource(64, 2);
  auto TimeOn = [&](cm2::CostModel M) {
    CompileOptions Opts = CompileOptions::forProfile(Profile::F90Y, M);
    Compilation C(Opts);
    EXPECT_TRUE(C.compile(Src)) << C.diags().str();
    Execution Exec(M);
    auto Report = Exec.run(C.artifacts().Compiled.Program);
    EXPECT_TRUE(Report.has_value());
    return Report->seconds();
  };
  double Cm2Time = TimeOn(cm2::CostModel{});
  double Cm5Time = TimeOn(cm2::CostModel::cm5());
  EXPECT_LT(Cm5Time, Cm2Time);
}

TEST(Cm5Test, Cm5ResultsMatchCm2Results) {
  // Machine descriptions must not change semantics: each machine's final
  // pressure field agrees with the reference interpreter.
  const std::string Src = sweSource(24, 2);
  for (const char *Machine : {"-pes=2048", "-cm5"})
    EXPECT_EQ(invariance::diffOracle(invariance::run(Src, {{Machine}}), Src,
                                     {"p"}, 1e-6),
              "");
}

} // namespace
