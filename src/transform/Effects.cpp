//===- transform/Effects.cpp - Read/write set analysis ----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Effects.h"

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

void transform::collectReads(const N::Value *V,
                             std::set<std::string> &Reads) {
  switch (V->getKind()) {
  case N::Value::Kind::Binary: {
    const auto *B = cast<N::BinaryValue>(V);
    collectReads(B->getLHS(), Reads);
    collectReads(B->getRHS(), Reads);
    return;
  }
  case N::Value::Kind::Unary:
    collectReads(cast<N::UnaryValue>(V)->getOperand(), Reads);
    return;
  case N::Value::Kind::SVar:
    Reads.insert(cast<N::SVarValue>(V)->getId());
    return;
  case N::Value::Kind::AVar: {
    const auto *A = cast<N::AVarValue>(V);
    Reads.insert(A->getId());
    if (const auto *Sub = dyn_cast<N::SubscriptAction>(A->getAction()))
      for (const N::Value *I : Sub->getIndices())
        collectReads(I, Reads);
    return;
  }
  case N::Value::Kind::FcnCall:
    for (const N::Value *A : cast<N::FcnCallValue>(V)->getArgs())
      collectReads(A, Reads);
    return;
  case N::Value::Kind::ScalarConst:
  case N::Value::Kind::StrConst:
  case N::Value::Kind::LocalCoord:
    return;
  }
}

/// Names written by a MOVE destination (also reads subscript indices).
static void collectDstEffects(const N::Value *Dst, Effects &E) {
  if (const auto *SV = dyn_cast<N::SVarValue>(Dst)) {
    E.Writes.insert(SV->getId());
    return;
  }
  if (const auto *AV = dyn_cast<N::AVarValue>(Dst)) {
    E.Writes.insert(AV->getId());
    if (const auto *Sub = dyn_cast<N::SubscriptAction>(AV->getAction()))
      for (const N::Value *I : Sub->getIndices())
        collectReads(I, E.Reads);
  }
}

Effects transform::effectsOf(const N::Imp *I) {
  Effects E;
  switch (I->getKind()) {
  case N::Imp::Kind::Program:
    return effectsOf(cast<N::ProgramImp>(I)->getBody());
  case N::Imp::Kind::Sequentially: {
    for (const N::Imp *A : cast<N::SequentiallyImp>(I)->getActions()) {
      Effects Sub = effectsOf(A);
      E.Reads.insert(Sub.Reads.begin(), Sub.Reads.end());
      E.Writes.insert(Sub.Writes.begin(), Sub.Writes.end());
    }
    return E;
  }
  case N::Imp::Kind::Concurrently: {
    for (const N::Imp *A : cast<N::ConcurrentlyImp>(I)->getActions()) {
      Effects Sub = effectsOf(A);
      E.Reads.insert(Sub.Reads.begin(), Sub.Reads.end());
      E.Writes.insert(Sub.Writes.begin(), Sub.Writes.end());
    }
    return E;
  }
  case N::Imp::Kind::Move: {
    for (const N::MoveClause &C : cast<N::MoveImp>(I)->getClauses()) {
      if (C.Guard)
        collectReads(C.Guard, E.Reads);
      collectReads(C.Src, E.Reads);
      collectDstEffects(C.Dst, E);
    }
    return E;
  }
  case N::Imp::Kind::IfThenElse: {
    const auto *If = cast<N::IfThenElseImp>(I);
    collectReads(If->getCond(), E.Reads);
    Effects T = effectsOf(If->getThen()), F = effectsOf(If->getElse());
    E.Reads.insert(T.Reads.begin(), T.Reads.end());
    E.Reads.insert(F.Reads.begin(), F.Reads.end());
    E.Writes.insert(T.Writes.begin(), T.Writes.end());
    E.Writes.insert(F.Writes.begin(), F.Writes.end());
    return E;
  }
  case N::Imp::Kind::While: {
    const auto *W = cast<N::WhileImp>(I);
    collectReads(W->getCond(), E.Reads);
    Effects B = effectsOf(W->getBody());
    E.Reads.insert(B.Reads.begin(), B.Reads.end());
    E.Writes.insert(B.Writes.begin(), B.Writes.end());
    return E;
  }
  case N::Imp::Kind::WithDecl: {
    const auto *WD = cast<N::WithDeclImp>(I);
    E = effectsOf(WD->getBody());
    // Locally-declared names are invisible outside; remove them.
    forEachBinding(WD->getDecl(), [&](const std::string &Id, const N::Type *,
                                      const N::Value *) {
      E.Reads.erase(Id);
      E.Writes.erase(Id);
    });
    return E;
  }
  case N::Imp::Kind::WithDomain:
    return effectsOf(cast<N::WithDomainImp>(I)->getBody());
  case N::Imp::Kind::Skip:
    return E;
  case N::Imp::Kind::Do:
    return effectsOf(cast<N::DoImp>(I)->getBody());
  case N::Imp::Kind::Call:
    for (const N::Value *A : cast<N::CallImp>(I)->getArgs())
      collectReads(A, E.Reads);
    return E;
  }
  return E;
}

bool transform::independent(const Effects &A, const Effects &B) {
  auto Disjoint = [](const std::set<std::string> &X,
                     const std::set<std::string> &Y) {
    // Iterate the smaller set.
    const auto &S = X.size() <= Y.size() ? X : Y;
    const auto &L = X.size() <= Y.size() ? Y : X;
    for (const std::string &E : S)
      if (L.count(E))
        return false;
    return true;
  };
  return Disjoint(A.Writes, B.Writes) && Disjoint(A.Writes, B.Reads) &&
         Disjoint(A.Reads, B.Writes);
}
