//===- tests/analysis_test.cpp - effects / type inference / phases -----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/NIRContext.h"
#include "nir/TypeInfer.h"
#include "transform/Effects.h"
#include "transform/Phases.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::nir;
using namespace f90y::transform;

namespace {

class AnalysisTest : public ::testing::Test {
protected:
  NIRContext Ctx;

  const Symbol *sym(const char *Name) { return Ctx.intern(Name); }
  SymbolSet set(const char *Name) {
    SymbolSet S;
    S.insert(sym(Name));
    return S;
  }

  const MoveImp *fieldMove(const std::string &Dst, const Value *Src,
                           const Value *Guard = nullptr) {
    return Ctx.getMove(
        {{Guard ? Guard : Ctx.getTrue(), Src,
          Ctx.getAVar(Dst, Ctx.getEverywhere())}});
  }
};

//===--------------------------------------------------------------------===//
// Effects
//===--------------------------------------------------------------------===//

TEST_F(AnalysisTest, MoveEffects) {
  const Imp *M = fieldMove(
      "b", Ctx.getBinary(BinaryOp::Add, Ctx.getAVar("a", Ctx.getEverywhere()),
                         Ctx.getSVar("n")));
  Effects E = effectsOf(M);
  EXPECT_TRUE(E.Reads.contains(sym("a")));
  EXPECT_TRUE(E.Reads.contains(sym("n")));
  EXPECT_TRUE(E.Writes.contains(sym("b")));
  EXPECT_FALSE(E.Writes.contains(sym("a")));
}

TEST_F(AnalysisTest, SubscriptIndicesAreReads) {
  const Imp *M = Ctx.getMove(
      {{Ctx.getTrue(), Ctx.getIntConst(1),
        Ctx.getAVar("c", Ctx.getSubscript({Ctx.getSVar("i")}))}});
  Effects E = effectsOf(M);
  EXPECT_TRUE(E.Writes.contains(sym("c")));
  EXPECT_TRUE(E.Reads.contains(sym("i")));
}

TEST_F(AnalysisTest, WithDeclHidesLocalNames) {
  const Decl *D = Ctx.getDecl("tmp", Ctx.getFloat64());
  const Imp *Body = Ctx.getSequentially(
      {Ctx.getMove({{Ctx.getTrue(), Ctx.getSVar("x"), Ctx.getSVar("tmp")}}),
       Ctx.getMove(
           {{Ctx.getTrue(), Ctx.getSVar("tmp"), Ctx.getSVar("y")}})});
  Effects E = effectsOf(Ctx.getWithDecl(D, Body));
  EXPECT_FALSE(E.Reads.contains(sym("tmp")));
  EXPECT_FALSE(E.Writes.contains(sym("tmp")));
  EXPECT_TRUE(E.Reads.contains(sym("x")));
  EXPECT_TRUE(E.Writes.contains(sym("y")));
}

TEST_F(AnalysisTest, IndependenceIsSymmetricAndCorrect) {
  Effects A, B, C;
  A.Reads = set("x");
  A.Writes = set("y");
  B.Reads = set("z");
  B.Writes = set("w");
  C.Reads = set("y"); // Reads what A writes.
  EXPECT_TRUE(independent(A, B));
  EXPECT_TRUE(independent(B, A));
  EXPECT_FALSE(independent(A, C));
  EXPECT_FALSE(independent(C, A));
  // Read-read sharing is fine.
  Effects D1, D2;
  D1.Reads = set("k");
  D2.Reads = set("k");
  EXPECT_TRUE(independent(D1, D2));
  // Write-write conflicts are not.
  D1.Writes = set("m");
  D2.Writes = set("m");
  EXPECT_FALSE(independent(D1, D2));
}

//===--------------------------------------------------------------------===//
// Type inference
//===--------------------------------------------------------------------===//

TEST_F(AnalysisTest, InferenceFollowsDeclarations) {
  ElemTypeInference Types;
  Types.addDecl(Ctx.getDeclSet(
      {Ctx.getDecl("k", Ctx.getInteger32()),
       Ctx.getDecl("x", Ctx.getFloat64()),
       Ctx.getDecl("a", Ctx.getDField(Ctx.getInterval(1, 8),
                                      Ctx.getFloat32()))}));
  EXPECT_EQ(Types.elemKindOf(Ctx.getSVar("k")), Type::Kind::Integer32);
  EXPECT_EQ(Types.elemKindOf(Ctx.getSVar("x")), Type::Kind::Float64);
  EXPECT_EQ(Types.elemKindOf(Ctx.getAVar("a", Ctx.getEverywhere())),
            Type::Kind::Float32);
}

TEST_F(AnalysisTest, InferencePromotesThroughArithmetic) {
  ElemTypeInference Types;
  Types.addBinding(sym("k"), Ctx.getInteger32());
  Types.addBinding(sym("x"), Ctx.getFloat64());
  const Value *Mixed =
      Ctx.getBinary(BinaryOp::Add, Ctx.getSVar("k"), Ctx.getSVar("x"));
  EXPECT_EQ(Types.elemKindOf(Mixed), Type::Kind::Float64);
  const Value *Cmp =
      Ctx.getBinary(BinaryOp::Lt, Ctx.getSVar("k"), Ctx.getSVar("x"));
  EXPECT_EQ(Types.elemKindOf(Cmp), Type::Kind::Logical32);
  const Value *IntInt =
      Ctx.getBinary(BinaryOp::Mul, Ctx.getSVar("k"), Ctx.getSVar("k"));
  EXPECT_EQ(Types.elemKindOf(IntInt), Type::Kind::Integer32);
}

TEST_F(AnalysisTest, PowKeepsBaseTypeAndCoordsAreInt) {
  ElemTypeInference Types;
  Types.addBinding(sym("x"), Ctx.getFloat32());
  const Value *Pow = Ctx.getBinary(BinaryOp::Pow, Ctx.getSVar("x"),
                                   Ctx.getIntConst(2));
  EXPECT_EQ(Types.elemKindOf(Pow), Type::Kind::Float32);
  EXPECT_EQ(Types.elemKindOf(Ctx.getLocalCoord("d", 1)),
            Type::Kind::Integer32);
}

TEST_F(AnalysisTest, ReductionAndConversionTypes) {
  ElemTypeInference Types;
  Types.addBinding(sym("a"), Ctx.getDField(Ctx.getInterval(1, 8),
                                      Ctx.getLogical32()));
  const Value *Any =
      Ctx.getFcnCall("any", {Ctx.getAVar("a", Ctx.getEverywhere())});
  EXPECT_EQ(Types.elemKindOf(Any), Type::Kind::Logical32);
  const Value *Count =
      Ctx.getFcnCall("count", {Ctx.getAVar("a", Ctx.getEverywhere())});
  EXPECT_EQ(Types.elemKindOf(Count), Type::Kind::Integer32);
  const Value *ToInt =
      Ctx.getUnary(UnaryOp::FToInt, Ctx.getFloatConst(2.5));
  EXPECT_EQ(Types.elemKindOf(ToInt), Type::Kind::Integer32);
}

//===--------------------------------------------------------------------===//
// Phase classification
//===--------------------------------------------------------------------===//

TEST_F(AnalysisTest, PureFieldMoveIsComputation) {
  const Imp *M = fieldMove(
      "b", Ctx.getBinary(BinaryOp::Mul, Ctx.getAVar("a", Ctx.getEverywhere()),
                         Ctx.getIntConst(2)));
  EXPECT_EQ(classifyAction(M), PhaseKind::Computation);
}

TEST_F(AnalysisTest, ShiftMoveIsCommunication) {
  const Imp *M = fieldMove(
      "b", Ctx.getFcnCall("cshift", {Ctx.getAVar("a", Ctx.getEverywhere()),
                                     Ctx.getIntConst(1),
                                     Ctx.getIntConst(1)}));
  EXPECT_EQ(classifyAction(M), PhaseKind::Communication);
}

TEST_F(AnalysisTest, SectionMoveIsCommunication) {
  const Imp *M = Ctx.getMove(
      {{Ctx.getTrue(), Ctx.getAVar("a", Ctx.getSection({SectionTriplet{}})),
        Ctx.getAVar("b", Ctx.getSection({SectionTriplet{}}))}});
  EXPECT_EQ(classifyAction(M), PhaseKind::Communication);
}

TEST_F(AnalysisTest, ScalarAndElementMovesAreHost) {
  const Imp *Scalar = Ctx.getMove(
      {{Ctx.getTrue(), Ctx.getIntConst(1), Ctx.getSVar("x")}});
  EXPECT_EQ(classifyAction(Scalar), PhaseKind::HostScalar);
  const Imp *Elem = Ctx.getMove(
      {{Ctx.getTrue(), Ctx.getIntConst(1),
        Ctx.getAVar("a", Ctx.getSubscript({Ctx.getIntConst(3)}))}});
  EXPECT_EQ(classifyAction(Elem), PhaseKind::HostScalar);
}

TEST_F(AnalysisTest, ControlIsStructured) {
  EXPECT_EQ(classifyAction(Ctx.getDo(Ctx.getDomainRef("d"), Ctx.getSkip())),
            PhaseKind::Structured);
  EXPECT_EQ(classifyAction(Ctx.getSkip()), PhaseKind::Structured);
  EXPECT_EQ(classifyAction(Ctx.getCall("print", {})),
            PhaseKind::HostScalar);
}

TEST_F(AnalysisTest, MergeStaysComputation) {
  const Imp *M = fieldMove(
      "b", Ctx.getFcnCall("merge", {Ctx.getAVar("a", Ctx.getEverywhere()),
                                    Ctx.getAVar("b", Ctx.getEverywhere()),
                                    Ctx.getAVar("m", Ctx.getEverywhere())}));
  EXPECT_EQ(classifyAction(M), PhaseKind::Computation);
}

TEST_F(AnalysisTest, ComputationDomainComesFromDeclaredDst) {
  ElemTypeInference Types;
  Types.addBinding(sym("b"), Ctx.getDField(Ctx.getDomainRef("alpha"),
                                      Ctx.getFloat32()));
  const auto *M = fieldMove("b", Ctx.getIntConst(1));
  EXPECT_EQ(computationDomainOf(cast<MoveImp>(M), Types), sym("alpha"));
  // Unknown destination: no domain.
  ElemTypeInference Empty;
  EXPECT_EQ(computationDomainOf(cast<MoveImp>(M), Empty), nullptr);
}

} // namespace
