//===- tests/backend_test.cpp - CM2/FE/PE compiler tests --------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central correctness property of the reproduction: for every test
/// program, compiled execution on the simulated CM/2 (host code + PEAC
/// virtual-subgrid loops + CM runtime communication) computes exactly what
/// the reference NIR interpreter computes. Plus structural checks on the
/// generated PEAC (chaining, dual issue, madd fusion, spills).
///
//===----------------------------------------------------------------------===//

#include "backend/PECompiler.h"
#include "driver/Driver.h"
#include "nir/NIRContext.h"
#include "invariance/Invariance.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;

namespace {

cm2::CostModel testMachine(unsigned PEs = 16) {
  cm2::CostModel C;
  C.NumPEs = PEs;
  return C;
}

/// Compiles and runs \p Src on 16 PEs under the strict comm model (plus
/// \p Leg); compares every named array and scalar (and PRINT output)
/// against the reference interpreter.
class BackendTest : public ::testing::Test {
protected:
  void compareWithInterp(const std::string &Src,
                         const std::vector<std::string> &Arrays,
                         const std::vector<std::string> &Scalars = {},
                         const invariance::Leg &Leg = {}, double Tol = 1e-9) {
    std::vector<std::string> Names = Arrays;
    Names.insert(Names.end(), Scalars.begin(), Scalars.end());
    invariance::Record R =
        invariance::run(Src, invariance::Leg{{"-pes=16", "-comm=sync"}} + Leg);
    EXPECT_EQ(invariance::diffOracle(R, Src, Names, Tol), "");
  }
};

//===--------------------------------------------------------------------===//
// End-to-end correctness (differential against the interpreter)
//===--------------------------------------------------------------------===//

TEST_F(BackendTest, WholeArrayArithmetic) {
  compareWithInterp("program p\n"
                    "integer k(128,64), l(128)\n"
                    "k = 3\n"
                    "l = 6\n"
                    "k = 2*k + 5\n"
                    "end\n",
                    {"k", "l"});
}

TEST_F(BackendTest, FloatExpressionWithTranscendentals) {
  compareWithInterp("program p\n"
                    "real a(32), b(32)\n"
                    "integer i\n"
                    "do i=1,32\n"
                    "  a(i) = 0.1*i\n"
                    "end do\n"
                    "b = sqrt(a)*sin(a) + exp(-a)\n"
                    "end\n",
                    {"a", "b"}, {}, {}, 1e-12);
}

TEST_F(BackendTest, CShiftStencil) {
  compareWithInterp("program p\n"
                    "real u(16,16), z(16,16)\n"
                    "integer i, j\n"
                    "forall (i=1:16, j=1:16) u(i,j) = i*100 + j\n"
                    "z = 0.25*(cshift(u,1,1) + cshift(u,-1,1) &\n"
                    "        + cshift(u,1,2) + cshift(u,-1,2))\n"
                    "end\n",
                    {"u", "z"});
}

TEST_F(BackendTest, TimeSteppedStencilLoop) {
  compareWithInterp("program p\n"
                    "real u(12,12), unew(12,12)\n"
                    "integer i, j, t\n"
                    "forall (i=1:12, j=1:12) u(i,j) = i + 2*j\n"
                    "do t=1,5\n"
                    "  unew = 0.25*(cshift(u,1,1) + cshift(u,-1,1) &\n"
                    "             + cshift(u,1,2) + cshift(u,-1,2))\n"
                    "  u = unew\n"
                    "end do\n"
                    "end\n",
                    // 'unew' is a single-use temporary: fusion folds it
                    // into 'u' and deletes its allocation, so only 'u'
                    // survives to be compared.
                    {"u"});
}

TEST_F(BackendTest, WhereMaskedAssignment) {
  compareWithInterp("program p\n"
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

TEST_F(BackendTest, Figure10StridedSections) {
  compareWithInterp("program p\n"
                    "integer a(32,32), b(32,32)\n"
                    "integer, dimension(32) :: c\n"
                    "integer n\n"
                    "n = 3\n"
                    "a = n\n"
                    "b(1:32:2,:) = a(1:32:2,:)\n"
                    "c = n+1\n"
                    "b(2:32:2,:) = 5*a(2:32:2,:)\n"
                    "end\n",
                    {"a", "b", "c"}, {"n"});
}

TEST_F(BackendTest, MisalignedSectionCopy) {
  compareWithInterp("program p\n"
                    "integer l(128), i\n"
                    "do i=1,128\n"
                    "  l(i) = i\n"
                    "end do\n"
                    "l(32:64) = l(96:128)\n"
                    "end\n",
                    {"l"});
}

TEST_F(BackendTest, ReductionsToScalars) {
  compareWithInterp("program p\n"
                    "real a(24), s, mx\n"
                    "integer i\n"
                    "do i=1,24\n"
                    "  a(i) = i*i - 50\n"
                    "end do\n"
                    "s = sum(a)\n"
                    "mx = maxval(a)\n"
                    "end\n",
                    {"a"}, {"s", "mx"});
}

TEST_F(BackendTest, ReductionInsideExpression) {
  compareWithInterp("program p\n"
                    "real a(16), b(16)\n"
                    "integer i\n"
                    "do i=1,16\n"
                    "  a(i) = i\n"
                    "end do\n"
                    "b = a / sum(a)\n"
                    "end\n",
                    {"a", "b"});
}

TEST_F(BackendTest, TransposeThroughRouter) {
  compareWithInterp("program p\n"
                    "integer a(8,8), b(8,8)\n"
                    "integer i, j\n"
                    "forall (i=1:8, j=1:8) a(i,j) = 10*i + j\n"
                    "b = transpose(a)\n"
                    "end\n",
                    {"a", "b"});
}

TEST_F(BackendTest, SerialLoopWithScalarControl) {
  compareWithInterp("program p\n"
                    "integer n, steps\n"
                    "n = 27\n"
                    "steps = 0\n"
                    "do while (n /= 1)\n"
                    "  if (mod(n,2) == 0) then\n"
                    "    n = n / 2\n"
                    "  else\n"
                    "    n = 3*n + 1\n"
                    "  end if\n"
                    "  steps = steps + 1\n"
                    "end do\n"
                    "end\n",
                    {}, {"n", "steps"});
}

TEST_F(BackendTest, GeneralForallScatter) {
  compareWithInterp("program p\n"
                    "integer a(8,8)\n"
                    "integer i, j\n"
                    "forall (i=1:8, j=1:8) a(j,i) = 10*i + j\n"
                    "end\n",
                    {"a"});
}

TEST_F(BackendTest, ForallGatherBehindNestedSubscriptOrCall) {
  // Each gather's coordinate sits below a second subscript or a call in
  // the index: the statement must run as a router loop, not a grid-local
  // MOVE whose index the host would evaluate outside any loop.
  for (const char *Index : {"b(i)", "max(b(i), 1)", "merge(i, 1, i > 4)"})
    compareWithInterp(std::string("program p\n"
                                  "integer, parameter :: n = 8\n"
                                  "integer a(n), b(n), c(n)\n"
                                  "integer i\n"
                                  "forall (i = 1:n) a(i) = i\n"
                                  "forall (i = 1:n) b(i) = n + 1 - i\n"
                                  "forall (i = 1:n) c(i) = a(") +
                          Index + ")\nend\n",
                      {"a", "b", "c"});
}

TEST_F(BackendTest, MergeElemental) {
  compareWithInterp("program p\n"
                    "integer v(16), w(16), i\n"
                    "do i=1,16\n"
                    "  v(i) = i - 8\n"
                    "end do\n"
                    "w = merge(v, -v, v > 0)\n"
                    "end\n",
                    {"v", "w"});
}

TEST_F(BackendTest, IntegerDivisionAndMod) {
  compareWithInterp("program p\n"
                    "integer a(16), b(16), c(16), i\n"
                    "do i=1,16\n"
                    "  a(i) = i*7 - 50\n"
                    "end do\n"
                    "b = a / 3\n"
                    "c = mod(a, 5)\n"
                    "end\n",
                    {"a", "b", "c"});
}

TEST_F(BackendTest, PowerStrengthReduction) {
  compareWithInterp("program p\n"
                    "real a(16), b(16), c(16)\n"
                    "integer i\n"
                    "do i=1,16\n"
                    "  a(i) = 0.5*i\n"
                    "end do\n"
                    "b = a**2\n"
                    "c = a**3 + a**0.5\n"
                    "end\n",
                    {"a", "b", "c"}, {}, {}, 1e-10);
}

TEST_F(BackendTest, DotProductEndToEnd) {
  compareWithInterp("program p\n"
                    "real a(24), b(24), s\n"
                    "integer i\n"
                    "do i=1,24\n"
                    "  a(i) = 0.5*i\n"
                    "  b(i) = 25 - i\n"
                    "end do\n"
                    "s = dot_product(a, b)\n"
                    "end\n",
                    {"a", "b"}, {"s"});
}

TEST_F(BackendTest, PrintOutputMatches) {
  compareWithInterp("program p\n"
                    "integer v(4), i, s\n"
                    "do i=1,4\n"
                    "  v(i) = i*i\n"
                    "end do\n"
                    "s = sum(v)\n"
                    "print *, 'sum =', s\n"
                    "print *, v\n"
                    "end\n",
                    {"v"}, {"s"});
}

TEST_F(BackendTest, EoshiftBoundary) {
  compareWithInterp("program p\n"
                    "integer v(12), w(12), i\n"
                    "do i=1,12\n"
                    "  v(i) = i\n"
                    "end do\n"
                    "w = eoshift(v, -3, 1)\n"
                    "end\n",
                    {"v", "w"});
}

TEST_F(BackendTest, DeepExpressionForcesSpills) {
  // A wide expression with many simultaneously-live subterms; exercises
  // the Belady spiller. Correctness must be preserved.
  compareWithInterp(
      "program p\n"
      "real a(8), b(8), c(8), d(8), e(8), f(8), g(8), h(8), z(8)\n"
      "integer i\n"
      "do i=1,8\n"
      "  a(i) = i\n"
      "  b(i) = i+1\n"
      "  c(i) = i+2\n"
      "  d(i) = i+3\n"
      "  e(i) = i+4\n"
      "  f(i) = i+5\n"
      "  g(i) = i+6\n"
      "  h(i) = i+7\n"
      "end do\n"
      "z = (a*b + c*d) * (e*f + g*h) + (a*c + b*d) * (e*g + f*h) &\n"
      "  + (a*d + b*c) * (e*h + f*g) + (a+b)*(c+d)*(e+f)*(g+h)\n"
      "end\n",
      {"z"});
}

TEST_F(BackendTest, AllProfilesAgreeOnSemantics) {
  const std::string Src = "program p\n"
                          "real u(16,16), v(16,16), z(16,16)\n"
                          "integer i, j, t\n"
                          "forall (i=1:16, j=1:16) u(i,j) = i + 0.5*j\n"
                          "forall (i=1:16, j=1:16) v(i,j) = i*j*0.01\n"
                          "do t=1,3\n"
                          "  z = 0.5*(u - cshift(v, -1, 1)) + u*v\n"
                          "  u = u + 0.1*z\n"
                          "end do\n"
                          "end\n";
  // 'z' is fused away under F90Y (single use per timestep); 'u' carries
  // its accumulated effect, so semantics are still fully compared.
  for (const char *Profile :
       {"-profile=f90y", "-profile=cmf", "-profile=naive"})
    compareWithInterp(Src, {"u", "v"}, {}, {{Profile}});
}

TEST_F(BackendTest, DifferentMachineSizesAgree) {
  const std::string Src = "program p\n"
                          "real a(20,12), b(20,12)\n"
                          "integer i, j\n"
                          "forall (i=1:20, j=1:12) a(i,j) = i*j\n"
                          "b = cshift(a, 3, 1) + a\n"
                          "end\n";
  for (const char *PEs : {"-pes=1", "-pes=2", "-pes=8", "-pes=64"})
    compareWithInterp(Src, {"a", "b"}, {}, {{PEs}});
}

//===--------------------------------------------------------------------===//
// Generated-code structure
//===--------------------------------------------------------------------===//

TEST_F(BackendTest, BlockedProgramMakesFewerRoutines) {
  const std::string Src = "program p\n"
                          "real a(16,16), b(16,16), c(16,16)\n"
                          "a = 1.0\n"
                          "b = 2.0\n"
                          "c = a + b\n"
                          "end\n";
  Compilation Blocked(CompileOptions::forProfile(Profile::F90Y,
                                                 testMachine()));
  ASSERT_TRUE(Blocked.compile(Src)) << Blocked.diags().str();
  Compilation PerStmt(CompileOptions::forProfile(Profile::CMFStyle,
                                                 testMachine()));
  ASSERT_TRUE(PerStmt.compile(Src)) << PerStmt.diags().str();
  EXPECT_EQ(Blocked.artifacts().Compiled.Program.Routines.size(), 1u);
  EXPECT_EQ(PerStmt.artifacts().Compiled.Program.Routines.size(), 3u);
}

TEST_F(BackendTest, OptimizedCodeIsShorterThanNaive) {
  const std::string Src = "program p\n"
                          "real u(16,16), v(16,16), z(16,16)\n"
                          "real fsdx, fsdy\n"
                          "z = (fsdx*(v - cshift(v,-1,1)) &\n"
                          "   - fsdy*(u - cshift(u,-1,2))) / (u + v)\n"
                          "end\n";
  Compilation Opt(CompileOptions::forProfile(Profile::F90Y, testMachine()));
  ASSERT_TRUE(Opt.compile(Src)) << Opt.diags().str();
  Compilation Naive(CompileOptions::forProfile(Profile::Naive,
                                               testMachine()));
  ASSERT_TRUE(Naive.compile(Src)) << Naive.diags().str();

  // The compute routine is the last one (after the two shifts' absence —
  // shifts are host comm, so routine count equals compute phases).
  auto CountOf = [](const Compilation &C) {
    unsigned Instrs = 0, Slots = 0;
    for (const peac::Routine &R : C.artifacts().Compiled.Program.Routines) {
      Instrs += R.bodyInstructionCount();
      Slots += R.slotCount();
    }
    return std::make_pair(Instrs, Slots);
  };
  auto [OptInstrs, OptSlots] = CountOf(Opt);
  auto [NaiveInstrs, NaiveSlots] = CountOf(Naive);
  EXPECT_LT(OptInstrs, NaiveInstrs);
  EXPECT_LT(OptSlots, NaiveSlots);
}

TEST_F(BackendTest, ChainedOperandsAppearInOptimizedCode) {
  const std::string Src = "program p\n"
                          "real a(16), b(16), z(16)\n"
                          "z = a - b\n"
                          "end\n";
  Compilation C(CompileOptions::forProfile(Profile::F90Y, testMachine()));
  ASSERT_TRUE(C.compile(Src)) << C.diags().str();
  std::string Listing = C.artifacts().Compiled.peacListing();
  // fsubv with a chained in-memory operand, Figure 12 style.
  EXPECT_NE(Listing.find("fsubv"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("]1++"), std::string::npos) << Listing;
}

TEST_F(BackendTest, MaddFusionProducesFmaddv) {
  const std::string Src = "program p\n"
                          "real a(16), b(16), c(16), z(16)\n"
                          "z = a*b + c\n"
                          "end\n";
  Compilation C(CompileOptions::forProfile(Profile::F90Y, testMachine()));
  ASSERT_TRUE(C.compile(Src)) << C.diags().str();
  EXPECT_NE(C.artifacts().Compiled.peacListing().find("fmaddv"),
            std::string::npos)
      << C.artifacts().Compiled.peacListing();
}

TEST_F(BackendTest, CoordinateSubgridsFeedLocalUnder) {
  const std::string Src = "program p\n"
                          "integer, array(16,16) :: a\n"
                          "integer i, j\n"
                          "forall (i=1:16, j=1:16) a(i,j) = i+j\n"
                          "end\n";
  Compilation C(CompileOptions::forProfile(Profile::F90Y, testMachine()));
  ASSERT_TRUE(C.compile(Src)) << C.diags().str();
  const auto &Prog = C.artifacts().Compiled.Program;
  ASSERT_EQ(Prog.Routines.size(), 1u);
  // Find the CallPeac and check for coordinate-pointer arguments.
  bool SawCoordArg = false;
  std::function<void(const host::HostStmt *)> Walk =
      [&](const host::HostStmt *S) {
        if (const auto *Seq = dyn_cast<host::SeqStmt>(S)) {
          for (const auto &Sub : Seq->stmts())
            Walk(Sub.get());
          return;
        }
        if (const auto *A = dyn_cast<host::AllocScopeStmt>(S)) {
          Walk(A->body());
          return;
        }
        if (const auto *Call = dyn_cast<host::CallPeacStmt>(S)) {
          for (const auto &Arg : Call->args())
            if (Arg.K == host::PeacArgSpec::Kind::CoordPtr)
              SawCoordArg = true;
        }
      };
  Walk(Prog.Body.get());
  EXPECT_TRUE(SawCoordArg);
}

TEST_F(BackendTest, SpillsAppearOnlyUnderPressure) {
  const std::string Small = "program p\n"
                            "real a(8), b(8), z(8)\n"
                            "z = a + b\n"
                            "end\n";
  Compilation C(CompileOptions::forProfile(Profile::F90Y, testMachine()));
  ASSERT_TRUE(C.compile(Small)) << C.diags().str();
  for (const peac::Routine &R : C.artifacts().Compiled.Program.Routines)
    EXPECT_EQ(R.NumSpillSlots, 0u);
}

TEST_F(BackendTest, RejectsUnsupportedMisalignedExpression) {
  // Misaligned sections inside an arithmetic expression are a documented
  // prototype restriction.
  Compilation C(CompileOptions::forProfile(Profile::F90Y, testMachine()));
  EXPECT_FALSE(C.compile("program p\n"
                         "real a(16)\n"
                         "a(1:8) = 2.0*a(9:16)\n"
                         "end\n"));
  EXPECT_TRUE(C.diags().hasErrors());
}

//===--------------------------------------------------------------------===//
// Common-subexpression contract of the PE compiler
//===--------------------------------------------------------------------===//

/// Compiles hand-built MOVE clauses over domain "alpha" with the node
/// options of a profile; fields a, c, d, x, y are float_64 arrays and the
/// scalars s and k are integer_32.
class PECSETest : public ::testing::Test {
protected:
  nir::NIRContext Ctx;
  nir::ElemTypeInference Types;

  void SetUp() override {
    const nir::Type *F =
        Ctx.getDField(Ctx.getDomainRef("alpha"), Ctx.getFloat64());
    for (const char *A : {"a", "c", "d", "x", "y"})
      Types.addDecl(Ctx.getDecl(A, F));
    Types.addDecl(Ctx.getDecl("s", Ctx.getInteger32()));
    Types.addDecl(Ctx.getDecl("k", Ctx.getDField(Ctx.getInterval(1, 8),
                                                  Ctx.getInteger32())));
  }

  const nir::Value *field(const std::string &Name) {
    return Ctx.getAVar(Name, Ctx.getEverywhere());
  }
  const nir::Value *sub(const nir::Value *L, const nir::Value *R) {
    return Ctx.getBinary(nir::BinaryOp::Sub, L, R);
  }
  nir::MoveClause clause(const std::string &Dst, const nir::Value *Src) {
    return {Ctx.getTrue(), Src, field(Dst)};
  }

  backend::PEResult compile(Profile P, std::vector<nir::MoveClause> Clauses) {
    DiagnosticEngine Diags;
    std::optional<backend::PEResult> R = backend::compileComputation(
        Ctx.getMove(std::move(Clauses)), Ctx.intern("alpha"), Types,
        CompileOptions::forProfile(P, testMachine()).Backend.PE, 0, Diags);
    EXPECT_TRUE(R.has_value()) << Diags.str();
    return R ? std::move(*R) : backend::PEResult();
  }

  static unsigned count(const backend::PEResult &R, peac::Opcode Op) {
    unsigned N = 0;
    for (const peac::Instruction &I : R.Routine.Body)
      N += I.Op == Op;
    return N;
  }
};

TEST_F(PECSETest, EqualSubtreesAtDistinctAddressesShareOneRegister) {
  for (Profile P : {Profile::F90Y, Profile::CMFStyle, Profile::Naive}) {
    const nir::Value *L = sub(field("a"), field("c"));
    const nir::Value *R = sub(field("a"), field("c"));
    ASSERT_NE(L, R);
    backend::PEResult Out =
        compile(P, {clause("x", Ctx.getBinary(nir::BinaryOp::Mul, L, R))});
    EXPECT_EQ(count(Out, peac::Opcode::FSubV), P == Profile::Naive ? 2u : 1u)
        << Out.Routine.str();
  }
}

TEST_F(PECSETest, StoreDropsOnlyCachedValuesThatReadTheStoredArray) {
  // x = a - c; a = d - c; y = (a - c) * (d - c): the store to a drops
  // a - c (recomputed from the stored register) and keeps d - c.
  backend::PEResult Out = compile(
      Profile::F90Y,
      {clause("x", sub(field("a"), field("c"))),
       clause("a", sub(field("d"), field("c"))),
       clause("y", Ctx.getBinary(nir::BinaryOp::Mul,
                                 sub(field("a"), field("c")),
                                 sub(field("d"), field("c"))))});
  EXPECT_EQ(count(Out, peac::Opcode::FSubV), 3u) << Out.Routine.str();
}

TEST_F(PECSETest, EqualScalarReadsShareOneScalarArgument) {
  for (Profile P : {Profile::F90Y, Profile::CMFStyle, Profile::Naive}) {
    const nir::Value *K1 =
        Ctx.getAVar("k", Ctx.getSubscript({Ctx.getIntConst(3)}));
    const nir::Value *K2 =
        Ctx.getAVar("k", Ctx.getSubscript({Ctx.getIntConst(3)}));
    backend::PEResult Out = compile(
        P, {clause("x", Ctx.getBinary(nir::BinaryOp::Mul,
                                      sub(field("a"), Ctx.getSVar("s")),
                                      sub(K1, Ctx.getSVar("s")))),
            clause("y", sub(K2, field("c")))});
    EXPECT_EQ(Out.Routine.NumScalarArgs, 2u) << Out.Routine.str();
  }
}

TEST_F(PECSETest, ConstantsOfEqualValueAndDistinctTypeAreNotMerged) {
  backend::PEResult Out = compile(
      Profile::F90Y,
      {clause("x", Ctx.getBinary(nir::BinaryOp::Mul,
                                 sub(field("a"), Ctx.getIntConst(2)),
                                 sub(field("a"), Ctx.getFloatConst(2.0)))),
       clause("y", Ctx.getBinary(
                       nir::BinaryOp::Mul,
                       sub(field("a"), Ctx.getFloatConst(2.0, false)),
                       sub(field("a"), Ctx.getFloatConst(2.0))))});
  // a - 2, a - 2.0d0 and a - 2.0 are three values; the last product reuses
  // a - 2.0d0 from the first clause.
  EXPECT_EQ(count(Out, peac::Opcode::FSubV), 3u) << Out.Routine.str();
}

} // namespace
