//===- tests/nir_shape_test.cpp - shape algebra unit tests ------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/NIRContext.h"
#include "nir/Shape.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::nir;

namespace {

class ShapeTest : public ::testing::Test {
protected:
  NIRContext Ctx;
  DomainEnv Env;
};

TEST_F(ShapeTest, PointHasNoExtents) {
  std::vector<ShapeExtent> Exts;
  ASSERT_TRUE(shapeExtents(Ctx.getPoint(5), Env, Exts));
  EXPECT_TRUE(Exts.empty());
  EXPECT_EQ(shapeNumElements(Ctx.getPoint(5), Env), 1);
  EXPECT_EQ(rankOf(Ctx.getPoint(5), Env), 0);
}

TEST_F(ShapeTest, IntervalExtent) {
  const Shape *S = Ctx.getInterval(1, 128);
  std::vector<ShapeExtent> Exts;
  ASSERT_TRUE(shapeExtents(S, Env, Exts));
  ASSERT_EQ(Exts.size(), 1u);
  EXPECT_EQ(Exts[0].Lo, 1);
  EXPECT_EQ(Exts[0].Hi, 128);
  EXPECT_FALSE(Exts[0].Serial);
  EXPECT_EQ(shapeNumElements(S, Env), 128);
}

TEST_F(ShapeTest, SerialIntervalIsMarkedSerial) {
  const Shape *S = Ctx.getSerialInterval(1, 64);
  std::vector<ShapeExtent> Exts;
  ASSERT_TRUE(shapeExtents(S, Env, Exts));
  ASSERT_EQ(Exts.size(), 1u);
  EXPECT_TRUE(Exts[0].Serial);
  EXPECT_FALSE(shapeFullyParallel(S, Env));
}

TEST_F(ShapeTest, ProdDomFlattens) {
  // The paper's 'beta' = prod_dom[alpha(1..128), interval(1..64)].
  const Shape *Alpha = Ctx.getInterval(1, 128);
  const Shape *Beta = Ctx.getProdDom({Alpha, Ctx.getInterval(1, 64)});
  EXPECT_EQ(rankOf(Beta, Env), 2);
  EXPECT_EQ(shapeNumElements(Beta, Env), 128 * 64);
  EXPECT_TRUE(shapeFullyParallel(Beta, Env));
}

TEST_F(ShapeTest, NestedProdDomFlattens) {
  const Shape *Inner = Ctx.getProdDom({Ctx.getInterval(1, 4),
                                       Ctx.getInterval(1, 8)});
  const Shape *Outer = Ctx.getProdDom({Inner, Ctx.getInterval(1, 2)});
  EXPECT_EQ(rankOf(Outer, Env), 3);
  EXPECT_EQ(shapeNumElements(Outer, Env), 4 * 8 * 2);
}

TEST_F(ShapeTest, DomainRefResolvesThroughEnv) {
  const Shape *Alpha = Ctx.getInterval(1, 128);
  Env.bind(Ctx.intern("alpha"), Alpha);
  const Shape *Ref = Ctx.getDomainRef("alpha");
  EXPECT_EQ(resolveShape(Ref, Env), Alpha);
  EXPECT_EQ(shapeNumElements(Ref, Env), 128);
}

TEST_F(ShapeTest, UnboundDomainRefFailsToResolve) {
  const Shape *Ref = Ctx.getDomainRef("gamma");
  EXPECT_EQ(resolveShape(Ref, Env), nullptr);
  EXPECT_EQ(shapeNumElements(Ref, Env), -1);
  EXPECT_EQ(rankOf(Ref, Env), -1);
}

TEST_F(ShapeTest, ChainedDomainRefsResolve) {
  const Shape *Alpha = Ctx.getInterval(1, 16);
  Env.bind(Ctx.intern("alpha"), Alpha);
  Env.bind(Ctx.intern("beta"), Ctx.getDomainRef("alpha"));
  EXPECT_EQ(resolveShape(Ctx.getDomainRef("beta"), Env), Alpha);
}

TEST_F(ShapeTest, ProdDomOfRefsResolves) {
  Env.bind(Ctx.intern("alpha"), Ctx.getInterval(1, 128));
  const Shape *Beta =
      Ctx.getProdDom({Ctx.getDomainRef("alpha"), Ctx.getInterval(1, 64)});
  EXPECT_EQ(shapeNumElements(Beta, Env), 128 * 64);
}

TEST_F(ShapeTest, IdenticalShapesCompareEqual) {
  const Shape *A = Ctx.getProdDom({Ctx.getInterval(1, 32),
                                   Ctx.getInterval(1, 32)});
  const Shape *B = Ctx.getProdDom({Ctx.getInterval(1, 32),
                                   Ctx.getInterval(1, 32)});
  EXPECT_TRUE(shapesIdentical(A, B, Env));
  EXPECT_TRUE(shapesConformable(A, B, Env));
}

TEST_F(ShapeTest, ConformableToleratesDifferentBounds) {
  // Same sizes, different bounds: conformable but not identical.
  const Shape *A = Ctx.getInterval(1, 32);
  const Shape *B = Ctx.getInterval(33, 64);
  EXPECT_FALSE(shapesIdentical(A, B, Env));
  EXPECT_TRUE(shapesConformable(A, B, Env));
}

TEST_F(ShapeTest, DifferentSizesNotConformable) {
  const Shape *A = Ctx.getInterval(1, 32);
  const Shape *B = Ctx.getInterval(1, 64);
  EXPECT_FALSE(shapesConformable(A, B, Env));
}

TEST_F(ShapeTest, DifferentRanksNotConformable) {
  const Shape *A = Ctx.getInterval(1, 32);
  const Shape *B = Ctx.getProdDom({Ctx.getInterval(1, 32),
                                   Ctx.getInterval(1, 1)});
  EXPECT_FALSE(shapesConformable(A, B, Env));
}

TEST_F(ShapeTest, SerialVsParallelNotIdentical) {
  const Shape *A = Ctx.getInterval(1, 32);
  const Shape *B = Ctx.getSerialInterval(1, 32);
  EXPECT_FALSE(shapesIdentical(A, B, Env));
  // Conformability only checks sizes; serial-ness is an execution property.
  EXPECT_TRUE(shapesConformable(A, B, Env));
}

TEST_F(ShapeTest, ShadowedBindingRestores) {
  const Shape *Outer = Ctx.getInterval(1, 8);
  const Shape *Inner = Ctx.getInterval(1, 4);
  const Shape *Old = Env.bind(Ctx.intern("d"), Outer);
  EXPECT_EQ(Old, nullptr);
  const Shape *Saved = Env.bind(Ctx.intern("d"), Inner);
  EXPECT_EQ(Saved, Outer);
  EXPECT_EQ(Env.lookup(Ctx.intern("d")), Inner);
  Env.restore(Ctx.intern("d"), Saved);
  EXPECT_EQ(Env.lookup(Ctx.intern("d")), Outer);
  Env.restore(Ctx.intern("d"), Old);
  EXPECT_EQ(Env.lookup(Ctx.intern("d")), nullptr);
}

TEST_F(ShapeTest, SectionTripletCount) {
  SectionTriplet All;
  EXPECT_EQ(All.count(1, 32), 32);
  SectionTriplet Odd{false, 1, 32, 2};
  EXPECT_EQ(Odd.count(1, 32), 16);
  SectionTriplet Even{false, 2, 32, 2};
  EXPECT_EQ(Even.count(1, 32), 16);
  SectionTriplet Single{false, 5, 5, 1};
  EXPECT_EQ(Single.count(1, 32), 1);
  SectionTriplet Empty{false, 6, 5, 1};
  EXPECT_EQ(Empty.count(1, 32), 0);
  SectionTriplet Backward{false, 10, 1, -3};
  EXPECT_EQ(Backward.count(1, 32), 4);
}

} // namespace
