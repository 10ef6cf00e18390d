//===- tests/nir_clause_test.cpp - canonical MOVE clause forms --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of a shift clause (nir::matchShift), of the shifts
/// the runtime performs as one exchange (nir::matchExchange), and of the
/// realigned residual layout materialization writes
/// (nir::buildRealignedShift): what each accepts, what it rejects, and
/// that the residual decomposes back into the distances it was built from.
///
//===----------------------------------------------------------------------===//

#include "nir/Clause.h"
#include "nir/NIRContext.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::nir;

namespace {

class ClauseTest : public ::testing::Test {
protected:
  NIRContext Ctx;

  const AVarValue *field(const std::string &Id) {
    return Ctx.getAVar(Id, Ctx.getEverywhere());
  }

  /// Dst <- Callee(Src, Shift, Dim), unguarded.
  MoveClause shift(const std::string &Dst, const std::string &Callee,
                   const std::string &Src, int64_t Shift, int64_t Dim = 1) {
    return {Ctx.getTrue(),
            Ctx.getFcnCall(Callee, {field(Src), Ctx.getIntConst(Shift),
                                    Ctx.getIntConst(Dim)}),
            field(Dst)};
  }
};

TEST_F(ClauseTest, TrueGuardIsAbsentOrConstantTrue) {
  EXPECT_TRUE(isTrueGuard(nullptr));
  EXPECT_TRUE(isTrueGuard(Ctx.getTrue()));
  EXPECT_FALSE(isTrueGuard(Ctx.getBoolConst(false)));
  EXPECT_FALSE(isTrueGuard(Ctx.getIntConst(1)));
  EXPECT_FALSE(isTrueGuard(Ctx.getSVar("m")));
}

TEST_F(ClauseTest, MatchesCShift) {
  std::optional<ShiftClause> S = matchShift(shift("b", "cshift", "a", -2, 2));
  ASSERT_TRUE(S);
  EXPECT_EQ(S->Dst->getId(), "b");
  EXPECT_EQ(S->Src->getId(), "a");
  EXPECT_EQ(S->Shift, -2);
  EXPECT_EQ(S->Dim, 2);
  EXPECT_FALSE(S->EndOff);
  EXPECT_EQ(S->Logical, -2);
  EXPECT_FALSE(S->isRealigned());

  // An absent guard is unmasked too.
  MoveClause Bare = shift("b", "cshift", "a", 1);
  Bare.Guard = nullptr;
  EXPECT_TRUE(matchShift(Bare));
}

TEST_F(ClauseTest, MatchesEOShift) {
  std::optional<ShiftClause> S = matchShift(shift("b", "eoshift", "a", 3));
  ASSERT_TRUE(S);
  EXPECT_TRUE(S->EndOff);
  EXPECT_EQ(S->Shift, 3);
  EXPECT_EQ(S->Dim, 1);
  EXPECT_FALSE(S->isRealigned());
}

TEST_F(ClauseTest, MatchesTheRealignedResidualItBuilds) {
  std::optional<ShiftClause> Logical =
      matchShift(shift("b", "cshift", "a", 3, 2));
  ASSERT_TRUE(Logical);
  MoveClause Residual = shift("b", "cshift", "a", 3, 2);
  Residual.Src = buildRealignedShift(Ctx, *Logical, -1);
  std::optional<ShiftClause> S = matchShift(Residual);
  ASSERT_TRUE(S);
  EXPECT_EQ(S->Src->getId(), "a");
  EXPECT_EQ(S->Dst->getId(), "b");
  EXPECT_EQ(S->Shift, -1);
  EXPECT_EQ(S->Logical, 3);
  EXPECT_EQ(S->Dim, 2);
  EXPECT_FALSE(S->EndOff);
  EXPECT_TRUE(S->isRealigned());
}

TEST_F(ClauseTest, RejectsGuardedClause) {
  MoveClause Masked = shift("b", "cshift", "a", 1);
  Masked.Guard = Ctx.getSVar("m");
  EXPECT_FALSE(matchShift(Masked));
  Masked.Guard = Ctx.getBoolConst(false);
  EXPECT_FALSE(matchShift(Masked));
}

TEST_F(ClauseTest, RejectsSectionOperand) {
  const SectionAction *Half =
      Ctx.getSection({SectionTriplet{/*All=*/false, 1, 4, 1}});
  MoveClause SrcSection = shift("b", "cshift", "a", 1);
  SrcSection.Src = Ctx.getFcnCall(
      "cshift",
      {Ctx.getAVar("a", Half), Ctx.getIntConst(1), Ctx.getIntConst(1)});
  EXPECT_FALSE(matchShift(SrcSection));
  MoveClause DstSection = shift("b", "cshift", "a", 1);
  DstSection.Dst = Ctx.getAVar("b", Half);
  EXPECT_FALSE(matchShift(DstSection));
}

TEST_F(ClauseTest, RejectsNonConstantShift) {
  MoveClause C = shift("b", "cshift", "a", 1);
  C.Src = Ctx.getFcnCall(
      "cshift", {field("a"), Ctx.getSVar("k"), Ctx.getIntConst(1)});
  EXPECT_FALSE(matchShift(C));
  C.Src = Ctx.getFcnCall(
      "cshift", {field("a"), Ctx.getIntConst(1), Ctx.getSVar("d")});
  EXPECT_FALSE(matchShift(C));
}

TEST_F(ClauseTest, RejectsOtherForms) {
  // Another intrinsic, a scalar destination, and a four-argument eoshift
  // (only cshift has a realigned form).
  MoveClause Xpose{Ctx.getTrue(), Ctx.getFcnCall("transpose", {field("a")}),
                   field("b")};
  EXPECT_FALSE(matchShift(Xpose));
  MoveClause ToScalar = shift("b", "cshift", "a", 1);
  ToScalar.Dst = Ctx.getSVar("s");
  EXPECT_FALSE(matchShift(ToScalar));
  MoveClause EO4 = shift("b", "eoshift", "a", 1);
  EO4.Src = Ctx.getFcnCall("eoshift", {field("a"), Ctx.getIntConst(1),
                                       Ctx.getIntConst(1),
                                       Ctx.getIntConst(2)});
  EXPECT_FALSE(matchShift(EO4));
}

TEST_F(ClauseTest, OneExchangeSharesSourceAxisAndFlavor) {
  std::optional<std::vector<ShiftClause>> X = matchExchange(
      {shift("b", "cshift", "a", 1), shift("c", "cshift", "a", -1)});
  ASSERT_TRUE(X);
  ASSERT_EQ(X->size(), 2u);
  EXPECT_EQ((*X)[0].Dst->getId(), "b");
  EXPECT_EQ((*X)[1].Dst->getId(), "c");
  EXPECT_EQ((*X)[1].Shift, -1);

  EXPECT_FALSE(matchExchange(
      {shift("b", "cshift", "a", 1), shift("c", "cshift", "z", 1)}));
  EXPECT_FALSE(matchExchange(
      {shift("b", "cshift", "a", 1), shift("c", "cshift", "a", 1, 2)}));
  EXPECT_FALSE(matchExchange(
      {shift("b", "cshift", "a", 1), shift("c", "eoshift", "a", 1)}));
}

TEST_F(ClauseTest, OneExchangeRejectsAliasedRepeatedAndRealigned) {
  // A destination that is the source, or that repeats, would make the
  // exchange differ from the clauses run in order.
  EXPECT_FALSE(matchExchange({shift("a", "cshift", "a", 1)}));
  EXPECT_FALSE(matchExchange(
      {shift("b", "cshift", "a", 1), shift("b", "cshift", "a", 2)}));
  MoveClause Residual = shift("c", "cshift", "a", 2);
  Residual.Src =
      buildRealignedShift(Ctx, *matchShift(shift("c", "cshift", "a", 2)), 1);
  EXPECT_FALSE(matchExchange({shift("b", "cshift", "a", 1), Residual}));
}

} // namespace
