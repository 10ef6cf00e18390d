//===- tests/reduce_dim_test.cpp - partial-dimension reductions --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sum/maxval/minval/product(a, dim) producing rank-reduced arrays:
/// interpreter semantics, runtime correctness, and compiled-vs-interpreted
/// agreement on the simulated machine.
///
//===----------------------------------------------------------------------===//

#include "invariance/Invariance.h"
#include "runtime/CmRuntime.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;

namespace {

cm2::CostModel small() {
  cm2::CostModel C;
  C.NumPEs = 16;
  return C;
}

/// Runs a program on 16 PEs; machineElem reads the machine's result and
/// expectAgreesWithInterp checks an array against the NIR interpreter.
class ReduceDimTest : public ::testing::Test {
protected:
  std::string Src;
  invariance::Record R;

  void runBoth(const std::string &Source) {
    Src = Source;
    R = invariance::run(Src, {{"-pes=16", "-comm=sync"}});
    ASSERT_TRUE(R.Ok) << R.Diags;
  }

  double machineElem(const std::string &Name, std::vector<int64_t> Pos) {
    return R.Fields.at(Name).at(Pos);
  }

  void expectAgreesWithInterp(const std::string &Name) {
    EXPECT_EQ(invariance::diffOracle(R, Src, {Name}), "");
  }
};

TEST_F(ReduceDimTest, RowSumsAlongDim2) {
  runBoth("program p\n"
          "integer a(4,6)\n"
          "integer r(4)\n"
          "integer i, j\n"
          "forall (i=1:4, j=1:6) a(i,j) = 10*i + j\n"
          "r = sum(a, 2)\n"
          "end\n");
  // Row i: sum_j (10i + j) = 60i + 21.
  EXPECT_DOUBLE_EQ(machineElem("r", {0}), 81);
  EXPECT_DOUBLE_EQ(machineElem("r", {3}), 261);
  expectAgreesWithInterp("r");
}

TEST_F(ReduceDimTest, ColumnSumsAlongDim1) {
  runBoth("program p\n"
          "integer a(4,6)\n"
          "integer c(6)\n"
          "integer i, j\n"
          "forall (i=1:4, j=1:6) a(i,j) = 10*i + j\n"
          "c = sum(a, dim=1)\n"
          "end\n");
  // Column j: sum_i (10i + j) = 100 + 4j.
  EXPECT_DOUBLE_EQ(machineElem("c", {0}), 104);
  EXPECT_DOUBLE_EQ(machineElem("c", {5}), 124);
  expectAgreesWithInterp("c");
}

TEST_F(ReduceDimTest, MaxvalAndMinvalAlongDims) {
  runBoth("program p\n"
          "integer a(5,5)\n"
          "integer mx(5), mn(5)\n"
          "integer i, j\n"
          "forall (i=1:5, j=1:5) a(i,j) = (i-3)*(j-2)\n"
          "mx = maxval(a, 2)\n"
          "mn = minval(a, 2)\n"
          "end\n");
  expectAgreesWithInterp("mx");
  expectAgreesWithInterp("mn");
}

TEST_F(ReduceDimTest, PartialReductionInsideExpression) {
  // The partial reduction feeds further elemental computation: the
  // extraction pass must hoist it into a field temporary.
  runBoth("program p\n"
          "real a(8,4), b(8)\n"
          "integer i, j\n"
          "forall (i=1:8, j=1:4) a(i,j) = 0.25*real(i*j)\n"
          "b = 2.0*sum(a, 2) + 1.0\n"
          "end\n");
  expectAgreesWithInterp("b");
}

TEST_F(ReduceDimTest, Rank3ReducesToRank2) {
  runBoth("program p\n"
          "integer a(3,4,5)\n"
          "integer r(3,5)\n"
          "integer i, j, k\n"
          "forall (i=1:3, j=1:4, k=1:5) a(i,j,k) = i + 10*j + 100*k\n"
          "r = sum(a, 2)\n"
          "end\n");
  // (i,k): sum_j (i + 10j + 100k) = 4i + 100 + 400k.
  EXPECT_DOUBLE_EQ(machineElem("r", {0, 0}), 504);
  EXPECT_DOUBLE_EQ(machineElem("r", {2, 4}), 2112);
  expectAgreesWithInterp("r");
}

TEST_F(ReduceDimTest, ChargesCommunicationCycles) {
  runBoth("program p\n"
          "real a(16,16), r(16)\n"
          "a = 1.5\n"
          "r = sum(a, 1)\n"
          "end\n");
  EXPECT_GT(R.Report.Ledger.CommCycles, 0.0);
}

TEST_F(ReduceDimTest, RejectsShapeMismatch) {
  Compilation Bad(CompileOptions::forProfile(Profile::F90Y, small()));
  EXPECT_FALSE(Bad.compile("program p\n"
                           "real a(4,6), r(4)\n"
                           "r = sum(a, 1)\n" // dim=1 leaves 6 elements.
                           "end\n"));
  EXPECT_TRUE(Bad.diags().hasErrors());
}

TEST_F(ReduceDimTest, RejectsDimOutOfRange) {
  Compilation Bad(CompileOptions::forProfile(Profile::F90Y, small()));
  EXPECT_FALSE(Bad.compile("program p\n"
                           "real a(4,6), r(4)\n"
                           "r = sum(a, 3)\n"
                           "end\n"));
  EXPECT_NE(Bad.diags().str().find("dim out of range"), std::string::npos);
}

TEST_F(ReduceDimTest, RuntimeDirectUse) {
  cm2::CostModel Costs = small();
  runtime::CmRuntime RT(Costs);
  const runtime::Geometry *G2 = RT.getGeometry({3, 4}, {1, 1});
  const runtime::Geometry *G1 = RT.getGeometry({3}, {1});
  int Src = RT.allocField(G2, runtime::ElemKind::Real);
  int Dst = RT.allocField(G1, runtime::ElemKind::Real);
  for (int64_t I = 0; I < 3; ++I)
    for (int64_t J = 0; J < 4; ++J)
      RT.writeElement(Src, {I, J}, static_cast<double>(I * 4 + J));
  RT.reduceAlongDim(runtime::ReduceOp::Sum, Dst, Src, 2);
  EXPECT_DOUBLE_EQ(RT.readElement(Dst, {0}), 0 + 1 + 2 + 3);
  EXPECT_DOUBLE_EQ(RT.readElement(Dst, {2}), 8 + 9 + 10 + 11);
}

} // namespace
