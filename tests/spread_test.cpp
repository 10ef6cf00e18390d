//===- tests/spread_test.cpp - SPREAD broadcast intrinsic --------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "invariance/Invariance.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;

namespace {

cm2::CostModel small() {
  cm2::CostModel C;
  C.NumPEs = 16;
  return C;
}

/// Runs a program on 16 PEs; at reads the machine's result and agrees
/// checks an array against the NIR interpreter.
class SpreadTest : public ::testing::Test {
protected:
  std::string Src;
  invariance::Record R;

  void runBoth(const std::string &Source) {
    Src = Source;
    R = invariance::run(Src, {{"-pes=16", "-comm=sync"}});
    ASSERT_TRUE(R.Ok) << R.Diags;
  }

  double at(const std::string &Name, std::vector<int64_t> Pos) {
    return R.Fields.at(Name).at(Pos);
  }

  void agrees(const std::string &Name) {
    EXPECT_EQ(invariance::diffOracle(R, Src, {Name}), "");
  }
};

TEST_F(SpreadTest, RowBroadcastAlongDim1) {
  runBoth("program p\n"
          "integer v(5)\n"
          "integer a(3,5)\n"
          "integer i\n"
          "do i=1,5\n"
          "  v(i) = 10*i\n"
          "end do\n"
          "a = spread(v, 1, 3)\n"
          "end\n");
  EXPECT_DOUBLE_EQ(at("a", {0, 0}), 10);
  EXPECT_DOUBLE_EQ(at("a", {2, 0}), 10);
  EXPECT_DOUBLE_EQ(at("a", {1, 4}), 50);
  agrees("a");
}

TEST_F(SpreadTest, ColumnBroadcastAlongDim2) {
  runBoth("program p\n"
          "integer v(3)\n"
          "integer a(3,5)\n"
          "integer i\n"
          "do i=1,3\n"
          "  v(i) = i\n"
          "end do\n"
          "a = spread(v, dim=2, ncopies=5)\n"
          "end\n");
  EXPECT_DOUBLE_EQ(at("a", {0, 0}), 1);
  EXPECT_DOUBLE_EQ(at("a", {0, 4}), 1);
  EXPECT_DOUBLE_EQ(at("a", {2, 3}), 3);
  agrees("a");
}

TEST_F(SpreadTest, SpreadInsideExpression) {
  // Broadcast feeding elemental arithmetic: extraction hoists the spread
  // into a temporary, the remainder runs on the PEs.
  runBoth("program p\n"
          "real v(4), a(4,4), b(4,4)\n"
          "integer i, j\n"
          "do i=1,4\n"
          "  v(i) = 0.5*i\n"
          "end do\n"
          "forall (i=1:4, j=1:4) a(i,j) = real(i*j)\n"
          "b = a * spread(v, 1, 4) + 1.0\n"
          "end\n");
  agrees("b");
}

TEST_F(SpreadTest, SpreadThenReduceRoundTrips) {
  // sum(spread(v,1,n), dim=1) == n*v.
  runBoth("program p\n"
          "integer v(6), r(6)\n"
          "integer a(4,6)\n"
          "integer i\n"
          "do i=1,6\n"
          "  v(i) = i*i\n"
          "end do\n"
          "a = spread(v, 1, 4)\n"
          "r = sum(a, 1)\n"
          "end\n");
  EXPECT_DOUBLE_EQ(at("r", {0}), 4);
  EXPECT_DOUBLE_EQ(at("r", {5}), 144);
  agrees("r");
}

TEST_F(SpreadTest, RejectsShapeMismatch) {
  Compilation Bad(CompileOptions::forProfile(Profile::F90Y, small()));
  EXPECT_FALSE(Bad.compile("program p\n"
                           "integer v(5), a(3,5)\n"
                           "a = spread(v, 1, 2)\n" // 2 copies != 3 rows.
                           "end\n"));
  EXPECT_TRUE(Bad.diags().hasErrors());
}

TEST_F(SpreadTest, RejectsNonConstantArguments) {
  Compilation Bad(CompileOptions::forProfile(Profile::F90Y, small()));
  EXPECT_FALSE(Bad.compile("program p\n"
                           "integer v(5), a(3,5), n\n"
                           "n = 3\n"
                           "a = spread(v, 1, n)\n"
                           "end\n"));
  EXPECT_NE(Bad.diags().str().find("compile-time constants"),
            std::string::npos);
}

} // namespace
