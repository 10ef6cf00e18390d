//===- tests/driver_test.cpp - end-to-end driver and workload tests ---------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full-pipeline tests on the paper's workloads: SWE compiles and runs on
/// the simulated CM/2 with results matching the reference interpreter; the
/// fieldwise baseline agrees functionally; profiles order as the paper's
/// performance story requires (naive <= CMF-style <= F90-Y in generated
/// code quality); and cycle ledgers are self-consistent.
///
//===----------------------------------------------------------------------===//

#include "baselines/Fieldwise.h"
#include "driver/Config.h"
#include "driver/Driver.h"
#include "driver/Workloads.h"
#include "host/Printer.h"
#include "invariance/Invariance.h"
#include "nir/Printer.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;

namespace {

cm2::CostModel machineWith(unsigned PEs) {
  cm2::CostModel C;
  C.NumPEs = PEs;
  return C;
}

TEST(DriverTest, SweCompilesAndMatchesReference) {
  const std::string Src = sweSource(/*N=*/16, /*Steps=*/3);
  invariance::Record R = invariance::run(Src, {{"-pes=16", "-comm=sync"}});
  // SWE fields are O(1e4); allow relative rounding effects only.
  EXPECT_EQ(invariance::diffOracle(R, Src,
                                   {"u", "v", "p", "z", "h", "cu", "cv"},
                                   1e-6),
            "");

  // The machine did real floating work and charged real time.
  EXPECT_GT(R.Report.Ledger.Flops, 0u);
  EXPECT_GT(R.Report.Ledger.NodeCycles, 0.0);
  EXPECT_GT(R.Report.Ledger.CommCycles, 0.0);
  EXPECT_GT(R.Report.Ledger.CallCycles, 0.0);
  EXPECT_GT(R.Report.executedGflops(), 0.0);
}

TEST(DriverTest, SweProfilesAgreeFunctionally) {
  const std::string Src = sweSource(12, 2);
  for (const char *Profile :
       {"-profile=f90y", "-profile=cmf", "-profile=naive"})
    EXPECT_EQ(invariance::diffOracle(
                  invariance::run(Src, {{"-pes=8", "-comm=sync", Profile}}),
                  Src, {"p"}, 1e-6),
              "");
}

TEST(DriverTest, BlockingReducesCallOverhead) {
  // With identical machine and node options, domain blocking must reduce
  // PEAC dispatch (CallCycles) — the paper's central performance claim.
  std::string Src = sweSource(16, 2);
  CompileOptions Blocked =
      CompileOptions::forProfile(Profile::F90Y, machineWith(16));
  CompileOptions PerStmt =
      CompileOptions::forProfile(Profile::CMFStyle, machineWith(16));

  Compilation CB(Blocked), CP(PerStmt);
  ASSERT_TRUE(CB.compile(Src)) << CB.diags().str();
  ASSERT_TRUE(CP.compile(Src)) << CP.diags().str();
  EXPECT_LT(CB.artifacts().Compiled.Program.Routines.size(),
            CP.artifacts().Compiled.Program.Routines.size());

  Execution EB(Blocked.Costs), EP(PerStmt.Costs);
  auto RB = EB.run(CB.artifacts().Compiled.Program);
  auto RP = EP.run(CP.artifacts().Compiled.Program);
  ASSERT_TRUE(RB && RP);
  EXPECT_LT(RB->Ledger.CallCycles, RP->Ledger.CallCycles);
  EXPECT_LE(RB->Ledger.total(), RP->Ledger.total());
}

TEST(DriverTest, NaiveNodeCodeIsSlower) {
  std::string Src = sweSource(16, 2);
  CompileOptions Opt =
      CompileOptions::forProfile(Profile::F90Y, machineWith(16));
  CompileOptions Naive =
      CompileOptions::forProfile(Profile::Naive, machineWith(16));
  Compilation CO(Opt), CN(Naive);
  ASSERT_TRUE(CO.compile(Src)) << CO.diags().str();
  ASSERT_TRUE(CN.compile(Src)) << CN.diags().str();
  Execution EO(Opt.Costs), EN(Naive.Costs);
  auto RO = EO.run(CO.artifacts().Compiled.Program);
  auto RN = EN.run(CN.artifacts().Compiled.Program);
  ASSERT_TRUE(RO && RN);
  EXPECT_LT(RO->Ledger.NodeCycles, RN->Ledger.NodeCycles);
}

TEST(DriverTest, FieldwiseBaselineMatchesFunctionally) {
  std::string Src = sweSource(12, 2);
  CompileOptions Opts =
      CompileOptions::forProfile(Profile::F90Y, machineWith(8));
  Compilation C(Opts);
  ASSERT_TRUE(C.compile(Src)) << C.diags().str();

  DiagnosticEngine FDiags;
  baselines::FieldwiseReport FW =
      baselines::runFieldwise(C.artifacts().RawNIR, Opts.Costs, FDiags);
  ASSERT_TRUE(FW.OK) << FDiags.str();
  EXPECT_TRUE(FW.Timeable);
  EXPECT_GT(FW.Cycles, 0.0);
  EXPECT_GT(FW.Flops, 0u);
  EXPECT_GT(FW.gflops(Opts.Costs), 0.0);
}

TEST(DriverTest, FieldwiseWhileIsUntimeable) {
  CompileOptions Opts = CompileOptions::forProfile(Profile::F90Y);
  Compilation C(Opts);
  ASSERT_TRUE(C.compile("program p\n"
                        "integer n\n"
                        "n = 12\n"
                        "do while (n > 1)\n"
                        "  n = n / 2\n"
                        "end do\n"
                        "end\n"))
      << C.diags().str();
  DiagnosticEngine FDiags;
  baselines::FieldwiseReport FW =
      baselines::runFieldwise(C.artifacts().RawNIR, Opts.Costs, FDiags);
  EXPECT_TRUE(FW.OK);
  EXPECT_FALSE(FW.Timeable);
}

TEST(DriverTest, HeatWorkloadRunsOnAllProfiles) {
  const std::string Src = heatSource(16, 4);
  for (const char *Profile :
       {"-profile=f90y", "-profile=cmf", "-profile=naive"})
    EXPECT_EQ(invariance::diffOracle(
                  invariance::run(Src, {{"-pes=16", "-comm=sync", Profile}}),
                  Src, {"u"}, 1e-9),
              "");
}

TEST(DriverTest, Figure9And10WorkloadsCompile) {
  for (const std::string &Src : {figure9Source(), figure10Source(),
                                 figure12Source(16)}) {
    CompileOptions Opts =
        CompileOptions::forProfile(Profile::F90Y, machineWith(8));
    Compilation C(Opts);
    ASSERT_TRUE(C.compile(Src)) << C.diags().str();
    Execution Exec(Opts.Costs);
    auto Report = Exec.run(C.artifacts().Compiled.Program);
    ASSERT_TRUE(Report.has_value()) << Exec.diags().str();
  }
}

TEST(DriverTest, Figure12ListingHasPaperStructure) {
  CompileOptions Opts =
      CompileOptions::forProfile(Profile::F90Y, machineWith(8));
  Compilation C(Opts);
  ASSERT_TRUE(C.compile(figure12Source(16))) << C.diags().str();
  std::string Listing = C.artifacts().Compiled.peacListing();
  // The z-statement routine uses subtract, multiply (by the fsdx/fsdy
  // scalars), divide, and a chained operand, closing with jnz — the
  // structural elements of the paper's Figure 12.
  EXPECT_NE(Listing.find("fsubv"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("fmulv aS"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("fdivv"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("]1++"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("jnz ac2"), std::string::npos) << Listing;
}

TEST(DriverTest, LedgerCategoriesAreConsistent) {
  std::string Src = sweSource(16, 2);
  CompileOptions Opts =
      CompileOptions::forProfile(Profile::F90Y, machineWith(16));
  Compilation C(Opts);
  ASSERT_TRUE(C.compile(Src)) << C.diags().str();
  Execution Exec(Opts.Costs);
  auto Report = Exec.run(C.artifacts().Compiled.Program);
  ASSERT_TRUE(Report.has_value());
  const runtime::CycleLedger &L = Report->Ledger;
  EXPECT_DOUBLE_EQ(L.total(), L.NodeCycles + L.CallCycles + L.CommCycles +
                                  L.HostCycles);
  EXPECT_GT(Report->seconds(), 0.0);
}

TEST(DriverTest, RuntimeFailureYieldsNulloptAndDiagnostics) {
  // The subscript is only known at run time, so this compiles cleanly and
  // fails inside the simulated machine - the failure must surface as a
  // structured diagnostic on the Execution, not an abort.
  const char *Src = "program oob\n"
                    "integer, parameter :: n = 4\n"
                    "real a(n,n)\n"
                    "real s\n"
                    "integer i\n"
                    "a = 1.0\n"
                    "i = 37\n"
                    "s = a(i,1)\n"
                    "print *, s\n"
                    "end program oob\n";
  Compilation C(CompileOptions::forProfile(Profile::F90Y, machineWith(16)));
  ASSERT_TRUE(C.compile(Src)) << C.diags().str();
  EXPECT_FALSE(C.diags().hasErrors());

  Execution Exec(machineWith(16));
  auto Report = Exec.run(C.artifacts().Compiled.Program);
  EXPECT_FALSE(Report.has_value());
  EXPECT_TRUE(Exec.diags().hasErrors());
  EXPECT_NE(Exec.diags().str().find("out of bounds"), std::string::npos)
      << Exec.diags().str();
}

/// Everything a compilation printed or reported, in f90yc's -emit- forms.
std::string listings(Compilation &C) {
  const Artifacts &A = C.artifacts();
  std::string Out = "diagnostics:\n" + C.diags().str();
  if (A.RawNIR)
    Out += "raw:\n" + nir::printImp(A.RawNIR);
  if (A.OptimizedNIR)
    Out += "optimized:\n" + nir::printImp(A.OptimizedNIR);
  if (A.Compiled.Program.Body)
    Out += "peac:\n" + A.Compiled.peacListing() + "host:\n" +
           host::printHostProgram(A.Compiled.Program);
  return Out;
}

TEST(DriverTest, SharedFrontEndCompilesAsFromSource) {
  // Each program's front end runs once; every option set then compiles it
  // after another set already has, and must print what compile(Source)
  // prints under the same options.
  std::vector<std::pair<std::string, std::string>> Sources;
  for (const char *Name :
       {"fig10.f90", "mswe.f90", "subroutines.f90", "swe.f90"})
    Sources.emplace_back(Name, invariance::sampleProgram(Name));
  Sources.emplace_back("swe", sweSource(16, 2));
  Sources.emplace_back("swe-temps", sweTempsSource(16, 2));
  Sources.emplace_back("fig9", figure9Source());
  Sources.emplace_back("fig10", figure10Source());
  Sources.emplace_back("fig12", figure12Source(16));
  Sources.emplace_back("heat", heatSource(16, 2));
  Sources.emplace_back("mswe", misalignedSweSource(16, 2));
  Sources.emplace_back("bad", "program p\n  x = (\nend\n");

  std::vector<Config> Sets;
  for (Profile P : {Profile::F90Y, Profile::CMFStyle, Profile::Naive})
    for (unsigned Pes : {16u, 32u, 64u}) {
      Config Cfg;
      Cfg.Prof = P;
      Cfg.Pes = Pes;
      Sets.push_back(Cfg);
    }
  for (const auto &[Name, Src] : Sources) {
    const auto FE = FrontEnd::run(Src);
    Compilation First(Sets.back().compileOptions());
    const bool Ok = First.compile(FE);
    EXPECT_EQ(Ok, Name != "bad") << Name << ": " << First.diags().str();
    for (size_t I = 0; I < Sets.size(); ++I) {
      Compilation Shared(Sets[I].compileOptions());
      Compilation Own(Sets[I].compileOptions());
      EXPECT_EQ(Shared.compile(FE), Ok) << Name << " set " << I;
      EXPECT_EQ(Own.compile(Src), Ok) << Name << " set " << I;
      EXPECT_EQ(listings(Shared), listings(Own)) << Name << " set " << I;
      EXPECT_EQ(Shared.artifacts().RawNIR, FE->rawNIR());
    }
  }
}

TEST(DriverTest, GflopsForUsesExternalFlopCount) {
  RunReport R;
  R.Ledger.NodeCycles = 7e6; // Exactly one second at 7 MHz.
  R.Ledger.Flops = 123;
  R.ClockMHz = 7.0;
  EXPECT_DOUBLE_EQ(R.seconds(), 1.0);
  EXPECT_DOUBLE_EQ(R.gflopsFor(2e9), 2.0);
}

} // namespace
