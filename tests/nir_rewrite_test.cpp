//===- tests/nir_rewrite_test.cpp - the one NIR rewriter -------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract every NIR pass relies on: nir::ImpRewriter rebuilds a node
/// only when a child changed, so an unchanged tree comes back as the same
/// root and a local change shares every untouched subtree; decl() returning
/// null splices a WITH_DECL out; forEachImp and forEachValue visit in
/// pre-order (forEachValue pruning below a node its visitor refuses);
/// containsCommCall looks under subscripts and arguments; mapAVars shares
/// what it leaves alone. The passes themselves are held to it on
/// optimize's own output: running one again returns its input node.
///
//===----------------------------------------------------------------------===//

#include "driver/Config.h"
#include "invariance/Invariance.h"
#include "layout/Materialize.h"
#include "nir/Printer.h"
#include "nir/Rewrite.h"
#include "transform/Transforms.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

using namespace f90y;
namespace N = f90y::nir;

namespace {

const char *const Programs[] = {"fig10.f90", "mswe.f90", "subroutines.f90",
                                "swe.f90"};

/// One compilation of a sample program under f90yc's defaults.
struct Compiled {
  explicit Compiled(const char *Name)
      : C(driver::Config{}.compileOptions()) {
    Ok = C.compile(invariance::sampleProgram(Name));
  }
  driver::Compilation C;
  bool Ok = false;
};

std::vector<const N::Imp *> preOrder(const N::Imp *Root) {
  std::vector<const N::Imp *> Out;
  N::forEachImp(Root, [&](const N::Imp *I) { Out.push_back(I); });
  return Out;
}

bool contains(const N::Imp *Root, const N::Imp *Target) {
  for (const N::Imp *I : preOrder(Root))
    if (I == Target)
      return true;
  return false;
}

/// Rebuilds one MOVE (same clauses, fresh node) and keeps every other.
class ReplaceOneMove : public N::ImpRewriter {
public:
  ReplaceOneMove(N::NIRContext &Ctx, const N::MoveImp *Target)
      : ImpRewriter(Ctx), Target(Target) {}

private:
  const N::MoveImp *Target;
  const N::Imp *move(const N::MoveImp *M) override {
    return M == Target ? Ctx.getMove(M->getClauses()) : M;
  }
};

class DropDecls : public N::ImpRewriter {
public:
  using ImpRewriter::ImpRewriter;

private:
  const N::Decl *decl(const N::WithDeclImp *) override { return nullptr; }
};

TEST(ImpRewriter, NoOverridesReturnsTheRoot) {
  for (const char *Name : Programs) {
    SCOPED_TRACE(Name);
    Compiled P(Name);
    ASSERT_TRUE(P.Ok) << P.C.diags().str();
    N::ImpRewriter Identity(P.C.nirContext());
    const N::Imp *Raw = P.C.artifacts().RawNIR;
    const N::Imp *Opt = P.C.artifacts().OptimizedNIR;
    EXPECT_EQ(Identity.rewrite(Raw), Raw);
    EXPECT_EQ(Identity.rewrite(Opt), Opt);
  }
}

TEST(ImpRewriter, ReplacingOneMoveSharesEverySubtreeWithoutIt) {
  Compiled P("swe.f90");
  ASSERT_TRUE(P.Ok) << P.C.diags().str();
  const N::Imp *Old = P.C.artifacts().OptimizedNIR;
  std::vector<const N::MoveImp *> Moves;
  for (const N::Imp *I : preOrder(Old))
    if (const auto *M = dyn_cast<N::MoveImp>(I))
      Moves.push_back(M);
  ASSERT_GT(Moves.size(), 4u);
  const N::MoveImp *Target = Moves[Moves.size() / 2];

  const N::Imp *New = ReplaceOneMove(P.C.nirContext(), Target).rewrite(Old);
  ASSERT_NE(New, Old);
  EXPECT_EQ(N::printImp(New), N::printImp(Old));
  std::vector<const N::Imp *> NewNodes = preOrder(New);
  std::set<const N::Imp *> InNew(NewNodes.begin(), NewNodes.end());
  unsigned Shared = 0, Rebuilt = 0;
  for (const N::Imp *I : preOrder(Old)) {
    if (contains(I, Target)) {
      EXPECT_FALSE(InNew.count(I)) << "an ancestor of the change was kept";
      ++Rebuilt;
    } else {
      EXPECT_TRUE(InNew.count(I)) << "an untouched subtree was rebuilt:\n"
                                  << N::printImp(I);
      ++Shared;
    }
  }
  EXPECT_GE(Rebuilt, 3u); // PROGRAM, some scope, the MOVE itself.
  EXPECT_GT(Shared, Rebuilt);
}

TEST(ImpRewriter, NullDeclSplicesTheScopeOut) {
  N::NIRContext Ctx;
  const N::Imp *Move = Ctx.getMove(
      {{Ctx.getTrue(), Ctx.getIntConst(1), Ctx.getSVar("k")}});
  const N::Imp *Body = Ctx.getSequentially({Move, Move});
  const N::Imp *Root = Ctx.getProgram(
      "p", Ctx.getWithDecl(Ctx.getDecl("k", Ctx.getInteger32()), Body));

  const auto *Out = dyn_cast<N::ProgramImp>(DropDecls(Ctx).rewrite(Root));
  ASSERT_NE(Out, nullptr);
  EXPECT_EQ(Out->getBody(), Body);
  EXPECT_EQ(Out->getName(), "p");
}

TEST(ImpRewriter, ForEachImpVisitsParentsBeforeChildrenInOrder) {
  N::NIRContext Ctx;
  auto Move = [&](int64_t V) -> const N::Imp * {
    return Ctx.getMove(
        {{Ctx.getTrue(), Ctx.getIntConst(V), Ctx.getSVar("k")}});
  };
  const N::Imp *M1 = Move(1), *M2 = Move(2), *M3 = Move(3), *M4 = Move(4);
  const N::Imp *If = Ctx.getIfThenElse(Ctx.getTrue(), M2, Ctx.getSkip());
  const N::Imp *Do = Ctx.getDo(Ctx.getSerialInterval(1, 2), M3);
  const N::Imp *While = Ctx.getWhile(Ctx.getTrue(), M4);
  const N::Imp *Seq = Ctx.getSequentially({M1, If, Do, While});
  const N::Imp *Decl =
      Ctx.getWithDecl(Ctx.getDecl("k", Ctx.getInteger32()), Seq);
  const N::Imp *Dom =
      Ctx.getWithDomain("alpha", Ctx.getInterval(1, 4), Decl);
  const N::Imp *Root = Ctx.getProgram("p", Dom);

  std::vector<const N::Imp *> Want = {
      Root, Dom, Decl, Seq, M1, If, M2, Ctx.getSkip(), Do, M3, While, M4};
  EXPECT_EQ(preOrder(Root), Want);
}

TEST(ImpRewriter, MapAVarsSharesWhatItLeavesAlone) {
  N::NIRContext Ctx;
  const N::Value *A = Ctx.getAVar("a", Ctx.getEverywhere());
  const N::Value *Left = Ctx.getUnary(N::UnaryOp::Neg, Ctx.getSVar("s"));
  const N::Value *V = Ctx.getBinary(
      N::BinaryOp::Add, Left, Ctx.getFcnCall("merge", {A, A, Ctx.getTrue()}));
  auto Keep = [](const N::AVarValue *AV) -> const N::Value * { return AV; };
  EXPECT_EQ(N::mapAVars(V, Ctx, Keep), V);

  const N::Value *B = Ctx.getAVar("b", Ctx.getEverywhere());
  const N::Value *Out = N::mapAVars(V, Ctx, [&](const N::AVarValue *AV) {
    return AV == A ? B : AV;
  });
  const auto *Sum = dyn_cast<N::BinaryValue>(Out);
  ASSERT_NE(Sum, nullptr);
  EXPECT_EQ(Sum->getLHS(), Left);
  EXPECT_EQ(N::printValue(Sum->getRHS()),
            N::printValue(Ctx.getFcnCall("merge", {B, B, Ctx.getTrue()})));
}

std::vector<const N::Value *> valuePreOrder(const N::Value *Root) {
  std::vector<const N::Value *> Out;
  N::forEachValue(Root, [&](const N::Value *V) {
    Out.push_back(V);
    return true;
  });
  return Out;
}

TEST(ForEachValue, VisitsParentsBeforeChildrenInOrder) {
  N::NIRContext Ctx;
  const N::Value *I = Ctx.getLocalCoord("alpha", 1);
  const N::Value *J = Ctx.getLocalCoord("alpha", 2);
  const N::Value *S = Ctx.getSVar("s");
  const N::Value *A = Ctx.getAVar("a", Ctx.getSubscript({I, J}));
  const N::Value *Neg = Ctx.getUnary(N::UnaryOp::Neg, A);
  const N::Value *One = Ctx.getIntConst(1);
  const N::Value *True = Ctx.getTrue();
  const N::Value *Merge = Ctx.getFcnCall("merge", {S, One, True});
  const N::Value *Root = Ctx.getBinary(N::BinaryOp::Add, Neg, Merge);

  std::vector<const N::Value *> Want = {Root,  Neg, A,   I,   J,
                                        Merge, S,   One, True};
  EXPECT_EQ(valuePreOrder(Root), Want);
}

TEST(ForEachValue, FalseSkipsTheChildrenAndNullVisitsNothing) {
  N::NIRContext Ctx;
  const N::Value *I = Ctx.getLocalCoord("alpha", 1);
  const N::Value *A = Ctx.getAVar("a", Ctx.getSubscript({I}));
  const N::Value *Call = Ctx.getFcnCall("sum", {Ctx.getSVar("s")});
  const N::Value *Root = Ctx.getBinary(N::BinaryOp::Mul, A, Call);

  std::vector<const N::Value *> Seen;
  N::forEachValue(Root, [&](const N::Value *V) {
    Seen.push_back(V);
    return !isa<N::AVarValue>(V) && !isa<N::FcnCallValue>(V);
  });
  EXPECT_EQ(Seen, (std::vector<const N::Value *>{Root, A, Call}));
  EXPECT_TRUE(valuePreOrder(nullptr).empty());
}

TEST(ForEachValue, ContainsCommCallLooksInsideIndicesAndArguments) {
  N::NIRContext Ctx;
  const N::Value *B = Ctx.getAVar("b", Ctx.getEverywhere());
  const N::Value *Sum = Ctx.getFcnCall("sum", {B});
  // a(sum(b)): a reduction inside a subscript index.
  EXPECT_TRUE(N::containsCommCall(Ctx.getAVar("a", Ctx.getSubscript({Sum}))));
  // merge(cshift(b, 1, 1), b, .true.): a shift inside a call argument.
  const N::Value *Shift = Ctx.getFcnCall(
      "cshift", {B, Ctx.getIntConst(1), Ctx.getIntConst(1)});
  EXPECT_TRUE(
      N::containsCommCall(Ctx.getFcnCall("merge", {Shift, B, Ctx.getTrue()})));
  // a(i) + b: reads only.
  const N::Value *AI =
      Ctx.getAVar("a", Ctx.getSubscript({Ctx.getLocalCoord("alpha", 1)}));
  EXPECT_FALSE(N::containsCommCall(Ctx.getBinary(N::BinaryOp::Add, AI, B)));
  EXPECT_FALSE(N::containsCommCall(nullptr));
}

/// optimize's output is a fixed point of every pass it ran except
/// comm-schedule, which reorders independent exchanges again on a second
/// application; a pass that finds nothing to do returns its input node.
TEST(ImpRewriter, PassesReturnTheirInputOnOptimizedNIR) {
  for (const char *Name : Programs) {
    Compiled P(Name);
    ASSERT_TRUE(P.Ok) << Name << "\n" << P.C.diags().str();
    N::NIRContext &Ctx = P.C.nirContext();
    const N::Imp *Opt = P.C.artifacts().OptimizedNIR;
    DiagnosticEngine Diags;
    using Pass = std::function<const N::Imp *(const N::Imp *)>;
    const std::pair<const char *, Pass> Passes[] = {
        {"extract-comm",
         [&](const N::Imp *I) {
           return transform::extractComm(I, Ctx, Diags);
         }},
        {"mask-sections",
         [&](const N::Imp *I) {
           return transform::maskSections(I, Ctx, Diags);
         }},
        {"fuse",
         [&](const N::Imp *I) {
           return transform::fuseElementwise(I, Ctx, Diags);
         }},
        {"layout",
         [&](const N::Imp *I) {
           return layout::materializeLayout(I, Ctx, Diags,
                                            &P.C.options().Costs, nullptr);
         }},
        {"block-domains",
         [&](const N::Imp *I) {
           return transform::blockDomains(I, Ctx, Diags);
         }},
    };
    for (const auto &[PassName, Run] : Passes)
      EXPECT_EQ(Run(Opt), Opt) << PassName << " rebuilt " << Name;
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  }
}

} // namespace
