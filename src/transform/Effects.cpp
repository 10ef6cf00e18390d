//===- transform/Effects.cpp - Read/write set analysis ----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Effects.h"

#include "nir/Rewrite.h"

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

void transform::collectReads(const N::Value *V, N::SymbolSet &Reads) {
  N::forEachValue(V, [&](const N::Value *X) {
    if (const auto *SV = dyn_cast<N::SVarValue>(X))
      Reads.insert(SV->getSymbol());
    else if (const auto *AV = dyn_cast<N::AVarValue>(X))
      Reads.insert(AV->getSymbol());
    return true;
  });
}

/// Names written by a MOVE destination (also reads subscript indices).
static void collectDstEffects(const N::Value *Dst, Effects &E) {
  if (const auto *SV = dyn_cast<N::SVarValue>(Dst)) {
    E.Writes.insert(SV->getSymbol());
    return;
  }
  if (const auto *AV = dyn_cast<N::AVarValue>(Dst)) {
    E.Writes.insert(AV->getSymbol());
    if (const auto *Sub = dyn_cast<N::SubscriptAction>(AV->getAction()))
      for (const N::Value *I : Sub->getIndices())
        collectReads(I, E.Reads);
  }
}

/// Adds the effects of \p I to \p E.
static void addEffects(const N::Imp *I, Effects &E) {
  switch (I->getKind()) {
  case N::Imp::Kind::Program:
    return addEffects(cast<N::ProgramImp>(I)->getBody(), E);
  case N::Imp::Kind::Sequentially:
    for (const N::Imp *A : cast<N::SequentiallyImp>(I)->getActions())
      addEffects(A, E);
    return;
  case N::Imp::Kind::Concurrently:
    for (const N::Imp *A : cast<N::ConcurrentlyImp>(I)->getActions())
      addEffects(A, E);
    return;
  case N::Imp::Kind::Move:
    for (const N::MoveClause &C : cast<N::MoveImp>(I)->getClauses()) {
      collectReads(C.Guard, E.Reads);
      collectReads(C.Src, E.Reads);
      collectDstEffects(C.Dst, E);
    }
    return;
  case N::Imp::Kind::IfThenElse: {
    const auto *If = cast<N::IfThenElseImp>(I);
    collectReads(If->getCond(), E.Reads);
    addEffects(If->getThen(), E);
    return addEffects(If->getElse(), E);
  }
  case N::Imp::Kind::While:
    collectReads(cast<N::WhileImp>(I)->getCond(), E.Reads);
    return addEffects(cast<N::WhileImp>(I)->getBody(), E);
  case N::Imp::Kind::WithDecl: {
    const auto *WD = cast<N::WithDeclImp>(I);
    Effects Body = effectsOf(WD->getBody());
    // Locally-declared names are invisible outside; remove them.
    N::forEachSimpleDecl(WD->getDecl(), [&](const N::SimpleDecl *SD) {
      Body.Reads.erase(SD->getSymbol());
      Body.Writes.erase(SD->getSymbol());
    });
    E.Reads.unite(Body.Reads);
    E.Writes.unite(Body.Writes);
    return;
  }
  case N::Imp::Kind::WithDomain:
    return addEffects(cast<N::WithDomainImp>(I)->getBody(), E);
  case N::Imp::Kind::Skip:
    return;
  case N::Imp::Kind::Do:
    return addEffects(cast<N::DoImp>(I)->getBody(), E);
  case N::Imp::Kind::Call:
    for (const N::Value *A : cast<N::CallImp>(I)->getArgs())
      collectReads(A, E.Reads);
    return;
  }
}

Effects transform::effectsOf(const N::Imp *I) {
  Effects E;
  addEffects(I, E);
  return E;
}

bool transform::independent(const Effects &A, const Effects &B) {
  return !A.Writes.intersects(B.Writes) && !A.Writes.intersects(B.Reads) &&
         !A.Reads.intersects(B.Writes);
}
