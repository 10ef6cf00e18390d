//===- tests/nir_context_test.cpp - NIR contexts layered over a base -------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A NIRContext layered over a lowered base behaves as one context would:
/// the base's names resolve to the base's symbols, new names number on
/// from the base's count, the scalar types, Everywhere and Skip are the
/// base's objects, fresh domain names continue the base's numbering, and
/// layers leave the base as it was.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/Workloads.h"
#include "frontend/Inline.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "lower/Lowering.h"
#include "nir/Rewrite.h"

#include <gtest/gtest.h>

#include <vector>

using namespace f90y;
namespace N = f90y::nir;

namespace {

/// Lowers \p Source into \p Ctx itself, as the front end does into its own.
void lowerInto(const std::string &Source, N::NIRContext &Ctx) {
  DiagnosticEngine Diags;
  frontend::ast::ASTContext ACtx;
  frontend::Lexer Lexer(Source, Diags);
  frontend::Parser Parser(Lexer.lexAll(), ACtx, Diags);
  auto File = Parser.parseSourceFile();
  ASSERT_TRUE(File) << Diags.str();
  auto Unit = frontend::integrateProcedures(*File, ACtx, Diags);
  ASSERT_TRUE(Unit) << Diags.str();
  ASSERT_TRUE(lower::lowerProgram(*Unit, Ctx, Diags)) << Diags.str();
}

/// Every symbol the raw program names in a declaration, a domain binding
/// or a value, and the program's own.
std::vector<const N::Symbol *> namedSymbols(const N::ProgramImp *P) {
  std::vector<const N::Symbol *> Out = {P->getSymbol()};
  auto Value = [&](const N::Value *V) {
    N::forEachValue(V, [&](const N::Value *X) {
      if (const auto *A = dyn_cast<N::AVarValue>(X))
        Out.push_back(A->getSymbol());
      else if (const auto *S = dyn_cast<N::SVarValue>(X))
        Out.push_back(S->getSymbol());
      return true;
    });
  };
  N::forEachImp(P, [&](const N::Imp *I) {
    if (const auto *W = dyn_cast<N::WithDeclImp>(I))
      N::forEachSimpleDecl(W->getDecl(), [&](const N::SimpleDecl *D) {
        Out.push_back(D->getSymbol());
      });
    else if (const auto *W = dyn_cast<N::WithDomainImp>(I))
      Out.push_back(W->getSymbol());
    else if (const auto *M = dyn_cast<N::MoveImp>(I))
      for (const N::MoveClause &C : M->getClauses()) {
        Value(C.Guard);
        Value(C.Src);
        Value(C.Dst);
      }
  });
  return Out;
}

TEST(LayeredContext, BaseNamesResolveToTheBaseSymbols) {
  auto FE = driver::FrontEnd::run(driver::sweSource(8, 1));
  ASSERT_TRUE(FE->rawNIR()) << FE->diags().str();
  const std::vector<const N::Symbol *> Named = namedSymbols(FE->rawNIR());
  ASSERT_GT(Named.size(), 10u);
  N::NIRContext Layer(&FE->nirContext());
  for (const N::Symbol *S : Named) {
    EXPECT_EQ(Layer.intern(S->Name), S) << S->Name;
    EXPECT_LT(S->Id, FE->nirContext().symbolCount()) << S->Name;
  }
  EXPECT_EQ(Layer.symbolCount(), FE->nirContext().symbolCount())
      << "resolving base names interns nothing";
}

TEST(LayeredContext, SharesTheBaseTypesEverywhereAndSkip) {
  auto FE = driver::FrontEnd::run(driver::figure10Source());
  ASSERT_TRUE(FE->rawNIR()) << FE->diags().str();
  const N::NIRContext &Base = FE->nirContext();
  N::NIRContext Layer(&Base);
  EXPECT_EQ(Layer.getInteger32(), Base.getInteger32());
  EXPECT_EQ(Layer.getLogical32(), Base.getLogical32());
  EXPECT_EQ(Layer.getFloat32(), Base.getFloat32());
  EXPECT_EQ(Layer.getFloat64(), Base.getFloat64());
  for (N::Type::Kind K : {N::Type::Kind::Integer32, N::Type::Kind::Logical32,
                          N::Type::Kind::Float32, N::Type::Kind::Float64})
    EXPECT_EQ(Layer.getScalarType(K), Base.getScalarType(K));
  EXPECT_EQ(Layer.getEverywhere(), Base.getEverywhere());
  EXPECT_EQ(Layer.getSkip(), Base.getSkip());
}

TEST(LayeredContext, NumbersAsOneContextWould) {
  // A layer over the front end's base and a context that lowered the same
  // source itself hand out the same names and ids from there on.
  const std::string Src = driver::heatSource(8, 2);
  auto FE = driver::FrontEnd::run(Src);
  ASSERT_TRUE(FE->rawNIR()) << FE->diags().str();
  N::NIRContext One;
  lowerInto(Src, One);
  const uint32_t BaseCount = FE->nirContext().symbolCount();
  ASSERT_EQ(One.symbolCount(), BaseCount);

  N::NIRContext Layer(&FE->nirContext());
  const N::Symbol *New = Layer.intern("layer.only.name");
  EXPECT_EQ(New->Id, BaseCount) << "the first new id is the base's count";
  EXPECT_EQ(One.intern("layer.only.name")->Id, New->Id);
  for (int I = 0; I < 2; ++I) {
    const N::Symbol *Fresh = Layer.freshDomainName("alpha");
    const N::Symbol *Expected = One.freshDomainName("alpha");
    EXPECT_EQ(Fresh->Name, Expected->Name)
        << "fresh domains continue the base's numbering";
    EXPECT_EQ(Fresh->Id, Expected->Id);
  }
}

TEST(LayeredContext, LayersLeaveTheBaseUnchanged) {
  auto FE = driver::FrontEnd::run(driver::sweSource(8, 1));
  ASSERT_TRUE(FE->rawNIR()) << FE->diags().str();
  const N::NIRContext &Base = FE->nirContext();
  const uint32_t BaseCount = Base.symbolCount();
  N::NIRContext A(&Base), B(&Base);
  const N::Symbol *InA = A.intern("only.in.a");
  const N::Symbol *InB = B.intern("only.in.b");
  A.freshDomainName("beta");
  B.getSVar("also.only.in.b");
  EXPECT_EQ(InA->Id, BaseCount);
  EXPECT_EQ(InB->Id, BaseCount) << "layers number independently";
  EXPECT_EQ(Base.symbolCount(), BaseCount);
  EXPECT_EQ(A.symbolCount(), BaseCount + 2);
  EXPECT_EQ(B.symbolCount(), BaseCount + 2);
  N::NIRContext C(&Base);
  EXPECT_NE(C.intern("only.in.a"), InA) << "a layer's names stay its own";
}

} // namespace
