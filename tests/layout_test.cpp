//===- tests/layout_test.cpp - alignment/layout inference -------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The alignment/layout inference contract (DESIGN.md Section 12):
/// descriptors round-trip through their printed form; the solver is
/// deterministic and assigns the offsets that localize neighbor-field
/// exchanges; materialization rewrites co-located exchanges into local
/// copies and re-expresses residual ones by their physical distance;
/// -layout=infer is bit-identical to -layout=canonical (including under
/// injected faults); a checkpoint taken under one placement refuses to
/// restore into another; and the verifier rejects a computational MOVE
/// across misaligned descriptors.
///
//===----------------------------------------------------------------------===//

#include "driver/Workloads.h"
#include "host/Printer.h"
#include "invariance/Generator.h"
#include "layout/Layout.h"
#include "nir/NIRContext.h"
#include "nir/Printer.h"
#include "nir/Verifier.h"
#include "observe/Json.h"
#include "observe/Metrics.h"
#include "runtime/Checkpoint.h"

#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;

namespace {

/// The paper's strict comm model on a 64-PE machine.
const invariance::Leg Base{{"-pes=64", "-comm=sync"}};

// ---------------------------------------------------------------------------
// LayoutDescriptor
// ---------------------------------------------------------------------------

TEST(LayoutDescriptor, StrParseRoundTrip) {
  layout::LayoutDescriptor D;
  D.AxisMap = {1, 0};
  D.Offsets = {3, -2};
  D.Replicated = true;
  EXPECT_EQ(D.str(), "axes=1,0;off=3,-2;rep=1");

  layout::LayoutDescriptor Back;
  ASSERT_TRUE(layout::LayoutDescriptor::parse(D.str(), Back));
  EXPECT_EQ(Back, D);

  // The elided canonical form round-trips too.
  layout::LayoutDescriptor Canon;
  EXPECT_EQ(Canon.str(), "axes=;off=;rep=0");
  ASSERT_TRUE(layout::LayoutDescriptor::parse(Canon.str(), Back));
  EXPECT_TRUE(Back.isCanonical());

  EXPECT_FALSE(layout::LayoutDescriptor::parse("", Back));
  EXPECT_FALSE(layout::LayoutDescriptor::parse("off=1;axes=;rep=0", Back));
  EXPECT_FALSE(layout::LayoutDescriptor::parse("axes=;off=x;rep=0", Back));
  EXPECT_FALSE(layout::LayoutDescriptor::parse("axes=;off=1;rep=2", Back));
}

TEST(LayoutDescriptor, NormalizeAndEquality) {
  layout::LayoutDescriptor D;
  D.Offsets = {-1, 8};
  D.normalize({8, 8});
  EXPECT_EQ(D.offsetAt(0), 7);
  EXPECT_EQ(D.offsetAt(1), 0);

  // Explicit identity and elided forms denote the same placement.
  layout::LayoutDescriptor Explicit;
  Explicit.AxisMap = {0, 1};
  Explicit.Offsets = {0, 0};
  EXPECT_TRUE(Explicit.isCanonical());
  EXPECT_EQ(Explicit, layout::LayoutDescriptor());
  Explicit.normalize({8, 8});
  EXPECT_TRUE(Explicit.AxisMap.empty());
  EXPECT_TRUE(Explicit.Offsets.empty());

  layout::LayoutDescriptor Shifted;
  Shifted.Offsets = {1};
  EXPECT_NE(Shifted, layout::LayoutDescriptor());
  EXPECT_FALSE(Shifted.isCanonical());
}

// ---------------------------------------------------------------------------
// Solver + materialization (driven through the driver pipeline)
// ---------------------------------------------------------------------------

std::unique_ptr<Compilation> compileWithLayout(const std::string &Src,
                                               bool Infer,
                                               observe::MetricsRegistry *M) {
  auto C = std::make_unique<Compilation>(
      (Base + invariance::Leg{{Infer ? "-layout=infer" : "-layout=canonical"}})
          .compileOptions());
  if (M)
    C->setObservability(nullptr, M);
  EXPECT_TRUE(C->compile(Src)) << C->diags().str();
  return C;
}

/// A neighbor-field consumer: 'an' lives one cell east of 'a', and only
/// ever meets 'a' again through the shifted-back 'bw', so the solver can
/// store 'an'/'b' pre-shifted and localize both exchanges.
const char *neighborSource() {
  return "program nb\n"
         "integer, parameter :: n = 8\n"
         "real a(n,n), an(n,n), b(n,n), bw(n,n)\n"
         "integer i, j, t\n"
         "forall (i=1:n, j=1:n) a(i,j) = real(i) + 0.5*real(j)\n"
         "do t = 1, 3\n"
         "  an = cshift(a, 1, 1)\n"
         "  b = 0.5*an + 1.0\n"
         "  bw = cshift(b, -1, 1)\n"
         "  a = a + 0.001*bw\n"
         "end do\n"
         "print *, 'sum:', sum(a)\n"
         "end program nb\n";
}

TEST(LayoutInfer, NeighborFieldsLocalized) {
  observe::MetricsRegistry Metrics;
  auto C = compileWithLayout(neighborSource(), true, &Metrics);
  EXPECT_EQ(Metrics.value("layout.fields_realigned"), 2.0);
  EXPECT_EQ(Metrics.value("layout.comm_moves_localized"), 2.0);
  EXPECT_GT(Metrics.value("layout.comm_cycles_saved"), 0.0);

  // The host program allocates the realigned fields pre-shifted and has
  // no cm_shift left for them.
  std::string L = host::printHostProgram(C->artifacts().Compiled.Program);
  EXPECT_NE(L.find("alloc    an : 8x8 real (cm heap) layout{off=1,0}"),
            std::string::npos)
      << L;
  EXPECT_NE(L.find("alloc    b : 8x8 real (cm heap) layout{off=1,0}"),
            std::string::npos)
      << L;
  EXPECT_EQ(L.find("cm_shift"), std::string::npos) << L;
}

TEST(LayoutInfer, SolverIsDeterministic) {
  auto A = compileWithLayout(misalignedSweSource(16, 2), true, nullptr);
  auto B = compileWithLayout(misalignedSweSource(16, 2), true, nullptr);
  EXPECT_EQ(host::printHostProgram(A->artifacts().Compiled.Program),
            host::printHostProgram(B->artifacts().Compiled.Program));
}

TEST(LayoutInfer, PinnedWorkloadsStayCanonical) {
  // The stock SWE and heat stencils mix home-frame and shifted reads in
  // one statement, which pins everything to one placement: inference
  // must leave the programs bit-identical to the canonical pipeline.
  for (const std::string &Src :
       {sweSource(16, 1), heatSource(16, 2), figure12Source(16)}) {
    observe::MetricsRegistry Metrics;
    auto Infer = compileWithLayout(Src, true, &Metrics);
    auto Canon = compileWithLayout(Src, false, nullptr);
    EXPECT_EQ(Metrics.value("layout.fields_realigned"), 0.0);
    EXPECT_EQ(Metrics.value("layout.comm_moves_localized"), 0.0);
    EXPECT_EQ(host::printHostProgram(Infer->artifacts().Compiled.Program),
              host::printHostProgram(Canon->artifacts().Compiled.Program));
  }
}

/// -layout=infer against -layout=canonical under the Model contract.
invariance::Matrix inferAndCanonical() {
  invariance::Matrix M;
  M.Base = Base;
  M.Model = {invariance::Leg{}, invariance::Leg{{"-layout=canonical"}}};
  M.Host = false;
  return M;
}

TEST(LayoutInfer, ResidualShiftKeepsPhysicalDistance) {
  // 'b' and 'c' are forced into one placement by the consuming 'e', but
  // their shift distances from the (pinned) home field 'a' differ: the
  // solver localizes one exchange, and the other stays with its smaller
  // physical distance while the logical distance rides along as the
  // trace annotation.
  const char *Src = "program resid\n"
                    "integer, parameter :: n = 8\n"
                    "real a(n), b(n), c(n), e(n)\n"
                    "integer i\n"
                    "forall (i=1:n) a(i) = real(i)\n"
                    "b = cshift(a, 1, 1)\n"
                    "c = cshift(a, 2, 1)\n"
                    "e = b + c\n"
                    "print *, 'sum:', sum(a)\n"
                    "end program resid\n";
  auto C = compileWithLayout(Src, true, nullptr);
  std::string L = host::printHostProgram(C->artifacts().Compiled.Program);
  size_t Residual = 0;
  for (size_t P = L.find("realigned(logical="); P != std::string::npos;
       P = L.find("realigned(logical=", P + 1))
    ++Residual;
  EXPECT_EQ(Residual, 1u) << L;

  // Traced, each residual exchange leaves one layout-realigned instant
  // that names both distances.
  invariance::Record R = invariance::run(
      Src, Base + invariance::Leg{{"-layout=infer"}}, /*Traced=*/true);
  ASSERT_TRUE(R.Ok) << R.Diags;
  observe::json::Value Trace;
  std::string Error;
  ASSERT_TRUE(observe::json::parse(R.Trace, Trace, Error)) << Error;
  ASSERT_NE(Trace.get("traceEvents"), nullptr);
  size_t Instants = 0;
  for (const observe::json::Value &E : Trace.get("traceEvents")->Arr) {
    if (E.strOr("name", "") != "layout-realigned")
      continue;
    ++Instants;
    const observe::json::Value *Args = E.get("args");
    ASSERT_NE(Args, nullptr);
    ASSERT_NE(Args->get("logical_shift"), nullptr);
    ASSERT_NE(Args->get("physical_shift"), nullptr);
    EXPECT_NE(Args->numOr("logical_shift", 0),
              Args->numOr("physical_shift", 0));
  }
  EXPECT_EQ(Instants, Residual);

  // The residual leg still computes exactly the canonical chain.
  EXPECT_EQ(invariance::check(Src, inferAndCanonical()).Divergence, "") << L;
}

// ---------------------------------------------------------------------------
// Infer-vs-canonical equivalence sweep
// ---------------------------------------------------------------------------

TEST(LayoutEquivalence, RandomizedInferVsCanonical) {
  // Generated programs: depending on the drawn shifts the solver
  // localizes a chain of shifted copies, leaves residual exchanges, or
  // freezes it canonical - all bit-identical to the canonical pipeline,
  // and so under recoverable injected faults: retries must not observe
  // placement either.
  invariance::Matrix M = inferAndCanonical();
  const invariance::Leg Faults{{"-faults=corrupt:0.01,pe-trap:0.005",
                                "-fault-seed=11"}};
  M.Model.push_back(Faults);
  M.Model.push_back(M.Model[1] + Faults);
  for (unsigned Seed = 100; Seed < 112; ++Seed)
    EXPECT_EQ(invariance::checkGenerated(Seed, M), "");
}

TEST(LayoutEquivalence, MisalignedSweFullMatrix) {
  // E12's workload under the full compile-time x run-time matrix: layout
  // crossed with fusion, the two unscheduled comm models (sync, and
  // runtime overlap) and recoverable faults, each leg at threads x engine.
  // Every leg must agree with the first in output and logical-order field
  // memory.
  invariance::Matrix M =
      invariance::switchMatrix("-layout=infer", "-layout=canonical");
  M.Base = Base;
  for (size_t I = 0, N = M.Model.size(); I < N; ++I)
    M.Model.push_back(M.Model[I] + invariance::Leg{{"-fuse=off"}});
  EXPECT_EQ(invariance::check(misalignedSweSource(16, 3), M).Divergence, "");
}

// ---------------------------------------------------------------------------
// Checkpoint layout signature
// ---------------------------------------------------------------------------

std::string tempPath(const std::string &Leaf) {
  const ::testing::TestInfo *TI =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "f90y_" + TI->test_suite_name() + "_" +
         TI->name() + "_" + Leaf;
}

TEST(LayoutCheckpoint, DescriptorsSurviveRestore) {
  // Kill a realigned run at a step boundary and resume: the restored run
  // must be bit-identical to an uninterrupted one, at every host leg.
  invariance::Matrix M;
  M.Base = Base;
  invariance::Result R = invariance::check(misalignedSweSource(8, 6), M);
  EXPECT_EQ(R.Divergence, "");
  EXPECT_EQ(R.Restored, invariance::hostLegs().size());
}

TEST(LayoutCheckpoint, MismatchedLayoutRejected) {
  // A checkpoint written under -layout=infer by a run killed halfway
  // refuses to restore into a -layout=canonical run of the same program
  // (and names the cause).
  const std::string Src = misalignedSweSource(8, 6);
  const uint64_t Statements = static_cast<uint64_t>(
      invariance::run(Src, Base, /*Traced=*/true).metric("exec.statements"));
  ASSERT_GT(Statements, 4u);
  runtime::ckpt::Options Write;
  Write.Path = tempPath("ck");
  auto RemoveGenerations = [&] {
    for (const char *Suffix : {"", ".1", ".2"})
      std::remove((Write.Path + Suffix).c_str());
  };
  RemoveGenerations();
  const invariance::Leg Kill{{"-max-steps=" + std::to_string(Statements / 2)}};
  invariance::Record Killed = invariance::run(Src, Base + Kill, false, Write);
  EXPECT_FALSE(Killed.Ok);
  EXPECT_GE(Killed.CheckpointsWritten, 1u) << Killed.Diags;

  runtime::ckpt::Options Resume;
  Resume.RestorePath = Write.Path;
  invariance::Record Resumed = invariance::run(
      Src, Base + invariance::Leg{{"-layout=canonical"}}, false, Resume);
  EXPECT_FALSE(Resumed.Ok);
  EXPECT_TRUE(Resumed.RestoreFailed) << Resumed.Diags;
  EXPECT_NE(Resumed.Diags.find("layout"), std::string::npos) << Resumed.Diags;
  RemoveGenerations();
}

// ---------------------------------------------------------------------------
// Verifier + NIR printer coverage
// ---------------------------------------------------------------------------

TEST(LayoutVerifier, RejectsMixedComputationalMove) {
  nir::NIRContext Ctx;
  DiagnosticEngine Diags;
  layout::LayoutDescriptor Shifted;
  Shifted.Offsets = {1};
  const nir::Decl *Decls = Ctx.getDeclSet(
      {Ctx.getDecl("a", Ctx.getDField(Ctx.getDomainRef("d"),
                                      Ctx.getFloat64()),
                   Shifted),
       Ctx.getDecl("b", Ctx.getDField(Ctx.getDomainRef("d"),
                                      Ctx.getFloat64()))});
  // b = a + 1.0 across differing offsets is not a pure copy: slot-wise
  // evaluation would read rotated data.
  const nir::Imp *M = Ctx.getMove(
      {{Ctx.getTrue(),
        Ctx.getBinary(nir::BinaryOp::Add,
                      Ctx.getAVar("a", Ctx.getEverywhere()),
                      Ctx.getFloatConst(1.0)),
        Ctx.getAVar("b", Ctx.getEverywhere())}});
  const nir::Imp *Prog = Ctx.getWithDomain(
      "d", Ctx.getInterval(1, 8), Ctx.getWithDecl(Decls, M));

  nir::VerifyOptions Strict;
  Strict.LayoutConsistency = true;
  EXPECT_FALSE(nir::verify(Prog, Diags, Strict));
  EXPECT_NE(Diags.str().find("mixes misaligned layouts"), std::string::npos)
      << Diags.str();

  // The same program without the layout option (the raw pipeline) and a
  // pure whole-field copy across the same descriptors both verify.
  DiagnosticEngine D2;
  EXPECT_TRUE(nir::verify(Prog, D2)) << D2.str();
  const nir::Imp *Copy = Ctx.getMove(
      {{Ctx.getTrue(), Ctx.getAVar("a", Ctx.getEverywhere()),
        Ctx.getAVar("b", Ctx.getEverywhere())}});
  const nir::Imp *CopyProg = Ctx.getWithDomain(
      "d", Ctx.getInterval(1, 8), Ctx.getWithDecl(Decls, Copy));
  DiagnosticEngine D3;
  EXPECT_TRUE(nir::verify(CopyProg, D3, Strict)) << D3.str();
}

/// Verifies b = cshift(Args...) over an 8x8 domain under the layout
/// invariant. 'a' sits at offsets (1,2) and 'b' at (0,2), so the two
/// differ on axis 1 only; 'k' is an integer scalar.
bool verifyLayoutShift(nir::NIRContext &Ctx, DiagnosticEngine &Diags,
                       std::vector<const nir::Value *> Args) {
  layout::LayoutDescriptor A, B;
  A.Offsets = {1, 2};
  B.Offsets = {0, 2};
  const nir::Type *Field =
      Ctx.getDField(Ctx.getDomainRef("d"), Ctx.getFloat64());
  const nir::Decl *Decls = Ctx.getDeclSet(
      {Ctx.getDecl("a", Field, A), Ctx.getDecl("b", Field, B),
       Ctx.getDecl("k", Ctx.getInteger32())});
  const nir::Imp *M = Ctx.getMove({{Ctx.getTrue(),
                                    Ctx.getFcnCall("cshift", std::move(Args)),
                                    Ctx.getAVar("b", Ctx.getEverywhere())}});
  const nir::Imp *Prog = Ctx.getWithDomain(
      "d", Ctx.getProdDom({Ctx.getInterval(1, 8), Ctx.getInterval(1, 8)}),
      Ctx.getWithDecl(Decls, M));
  nir::VerifyOptions Strict;
  Strict.LayoutConsistency = true;
  return nir::verify(Prog, Diags, Strict);
}

TEST(LayoutVerifier, AcceptsResidualShiftAlongTheMisalignedAxis) {
  // Endpoints may differ in offset on the shifted axis: the exchange's
  // slot distance absorbs it, in the plain and the realigned form.
  nir::NIRContext Ctx;
  const nir::Value *A = Ctx.getAVar("a", Ctx.getEverywhere());
  DiagnosticEngine Plain;
  EXPECT_TRUE(verifyLayoutShift(
      Ctx, Plain, {A, Ctx.getIntConst(1), Ctx.getIntConst(1)}))
      << Plain.str();
  DiagnosticEngine Realigned;
  EXPECT_TRUE(verifyLayoutShift(Ctx, Realigned,
                                {A, Ctx.getIntConst(2), Ctx.getIntConst(1),
                                 Ctx.getIntConst(1)}))
      << Realigned.str();
}

TEST(LayoutVerifier, RejectsShiftMisalignedOffItsAxis) {
  nir::NIRContext Ctx;
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyLayoutShift(Ctx, Diags,
                                 {Ctx.getAVar("a", Ctx.getEverywhere()),
                                  Ctx.getIntConst(1), Ctx.getIntConst(2)}));
  EXPECT_NE(Diags.str().find("misaligned on axis 1"), std::string::npos)
      << Diags.str();
}

TEST(LayoutVerifier, RejectsNonConstantDimOnRealignedField) {
  // The dim is known only at run time, so no axis may differ: a
  // realigned operand is an error.
  nir::NIRContext Ctx;
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyLayoutShift(Ctx, Diags,
                                 {Ctx.getAVar("a", Ctx.getEverywhere()),
                                  Ctx.getIntConst(1), Ctx.getSVar("k")}));
  EXPECT_NE(Diags.str().find("cshift"), std::string::npos) << Diags.str();
  EXPECT_NE(Diags.str().find("'a'"), std::string::npos) << Diags.str();
}

TEST(LayoutPrinter, DeclCarriesDescriptor) {
  nir::NIRContext Ctx;
  layout::LayoutDescriptor Shifted;
  Shifted.Offsets = {2, 0};
  const nir::Decl *D = Ctx.getDecl(
      "pe", Ctx.getDField(Ctx.getDomainRef("g"), Ctx.getFloat64()), Shifted);
  std::string Printed = nir::printDecl(D);
  EXPECT_NE(Printed.find("layout{axes=;off=2,0;rep=0}"), std::string::npos)
      << Printed;
  // Canonical decls keep the historical printed form.
  const nir::Decl *Canon = Ctx.getDecl(
      "p", Ctx.getDField(Ctx.getDomainRef("g"), Ctx.getFloat64()));
  EXPECT_EQ(nir::printDecl(Canon).find("layout{"), std::string::npos);
}

} // namespace
