//===- nir/Rewrite.cpp - One rewriter under every NIR pass -----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/Rewrite.h"

using namespace f90y;
using namespace f90y::nir;

bool ImpRewriter::rewriteAll(const std::vector<const Imp *> &In,
                             std::vector<const Imp *> &Out) {
  bool Changed = false;
  Out.reserve(In.size());
  for (const Imp *A : In) {
    Out.push_back(rewrite(A));
    Changed |= Out.back() != A;
  }
  return Changed;
}

const Imp *ImpRewriter::sequence(const SequentiallyImp *S,
                                 std::vector<const Imp *> Actions) {
  if (Actions == S->getActions())
    return S;
  return Ctx.getSequentially(std::move(Actions));
}

const Imp *ImpRewriter::sequentially(const SequentiallyImp *S) {
  std::vector<const Imp *> Actions;
  return rewriteAll(S->getActions(), Actions)
             ? Ctx.getSequentially(std::move(Actions))
             : S;
}

const Imp *ImpRewriter::withDomain(const WithDomainImp *W) {
  const Imp *Body = rewrite(W->getBody());
  return Body == W->getBody()
             ? W
             : Ctx.getWithDomain(W->getSymbol(), W->getShape(), Body);
}

const Imp *ImpRewriter::rewrite(const Imp *I) {
  switch (I->getKind()) {
  case Imp::Kind::Program: {
    const auto *P = cast<ProgramImp>(I);
    const Imp *Body = rewrite(P->getBody());
    return Body == P->getBody() ? I : Ctx.getProgram(P->getSymbol(), Body);
  }
  case Imp::Kind::Sequentially:
    return sequentially(cast<SequentiallyImp>(I));
  case Imp::Kind::Concurrently: {
    std::vector<const Imp *> Actions;
    return rewriteAll(cast<ConcurrentlyImp>(I)->getActions(), Actions)
               ? Ctx.getConcurrently(std::move(Actions))
               : I;
  }
  case Imp::Kind::Move:
    return move(cast<MoveImp>(I));
  case Imp::Kind::IfThenElse: {
    const auto *If = cast<IfThenElseImp>(I);
    const Imp *Then = rewrite(If->getThen());
    const Imp *Else = rewrite(If->getElse());
    if (Then == If->getThen() && Else == If->getElse())
      return I;
    return Ctx.getIfThenElse(If->getCond(), Then, Else);
  }
  case Imp::Kind::While: {
    const auto *W = cast<WhileImp>(I);
    const Imp *Body = rewrite(W->getBody());
    return Body == W->getBody() ? I : Ctx.getWhile(W->getCond(), Body);
  }
  case Imp::Kind::WithDecl: {
    const auto *W = cast<WithDeclImp>(I);
    const Decl *D = decl(W);
    const Imp *Body = rewrite(W->getBody());
    if (!D)
      return Body;
    if (D == W->getDecl() && Body == W->getBody())
      return I;
    return Ctx.getWithDecl(D, Body);
  }
  case Imp::Kind::WithDomain:
    return withDomain(cast<WithDomainImp>(I));
  case Imp::Kind::Skip:
    return I;
  case Imp::Kind::Do: {
    const auto *D = cast<DoImp>(I);
    const Imp *Body = rewrite(D->getBody());
    return Body == D->getBody() ? I : Ctx.getDo(D->getIterSpace(), Body);
  }
  case Imp::Kind::Call:
    return call(cast<CallImp>(I));
  }
  return I;
}

void nir::forEachImp(const Imp *Root,
                     const std::function<void(const Imp *)> &Visit) {
  Visit(Root);
  switch (Root->getKind()) {
  case Imp::Kind::Program:
    forEachImp(cast<ProgramImp>(Root)->getBody(), Visit);
    return;
  case Imp::Kind::Sequentially:
    for (const Imp *A : cast<SequentiallyImp>(Root)->getActions())
      forEachImp(A, Visit);
    return;
  case Imp::Kind::Concurrently:
    for (const Imp *A : cast<ConcurrentlyImp>(Root)->getActions())
      forEachImp(A, Visit);
    return;
  case Imp::Kind::IfThenElse:
    forEachImp(cast<IfThenElseImp>(Root)->getThen(), Visit);
    forEachImp(cast<IfThenElseImp>(Root)->getElse(), Visit);
    return;
  case Imp::Kind::While:
    forEachImp(cast<WhileImp>(Root)->getBody(), Visit);
    return;
  case Imp::Kind::WithDecl:
    forEachImp(cast<WithDeclImp>(Root)->getBody(), Visit);
    return;
  case Imp::Kind::WithDomain:
    forEachImp(cast<WithDomainImp>(Root)->getBody(), Visit);
    return;
  case Imp::Kind::Do:
    forEachImp(cast<DoImp>(Root)->getBody(), Visit);
    return;
  case Imp::Kind::Move:
  case Imp::Kind::Skip:
  case Imp::Kind::Call:
    return;
  }
}

bool nir::containsCommCall(const Value *V) {
  bool Found = false;
  forEachValue(V, [&](const Value *X) {
    const auto *F = dyn_cast<FcnCallValue>(X);
    Found |= F && isCommOrReductionIntrinsic(F->getCallee());
    return !Found;
  });
  return Found;
}

const Value *
nir::mapAVars(const Value *V, NIRContext &Ctx,
              const std::function<const Value *(const AVarValue *)> &Map) {
  switch (V->getKind()) {
  case Value::Kind::Binary: {
    const auto *B = cast<BinaryValue>(V);
    const Value *L = mapAVars(B->getLHS(), Ctx, Map);
    const Value *R = mapAVars(B->getRHS(), Ctx, Map);
    if (L == B->getLHS() && R == B->getRHS())
      return V;
    return Ctx.getBinary(B->getOp(), L, R);
  }
  case Value::Kind::Unary: {
    const auto *U = cast<UnaryValue>(V);
    const Value *Op = mapAVars(U->getOperand(), Ctx, Map);
    return Op == U->getOperand() ? V : Ctx.getUnary(U->getOp(), Op);
  }
  case Value::Kind::FcnCall: {
    const auto *F = cast<FcnCallValue>(V);
    std::vector<const Value *> Args;
    bool Changed = false;
    for (const Value *A : F->getArgs()) {
      Args.push_back(mapAVars(A, Ctx, Map));
      Changed |= Args.back() != A;
    }
    return Changed ? Ctx.getFcnCall(F->getSymbol(), std::move(Args)) : V;
  }
  case Value::Kind::AVar:
    return Map(cast<AVarValue>(V));
  case Value::Kind::SVar:
  case Value::Kind::ScalarConst:
  case Value::Kind::StrConst:
  case Value::Kind::LocalCoord:
    return V;
  }
  return V;
}
