//===- transform/Phases.cpp - Execution-phase classification ----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Phases.h"

#include "nir/Rewrite.h"

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

bool transform::containsSection(const N::Value *V) {
  bool Found = false;
  N::forEachValue(V, [&](const N::Value *X) {
    if (const auto *AV = dyn_cast<N::AVarValue>(X)) {
      Found |= isa<N::SectionAction>(AV->getAction());
      return false;
    }
    return !Found;
  });
  return Found;
}

PhaseKind transform::classifyAction(const N::Imp *I) {
  const auto *M = dyn_cast<N::MoveImp>(I);
  if (!M) {
    if (isa<N::CallImp>(I))
      return PhaseKind::HostScalar;
    return PhaseKind::Structured;
  }

  bool AllScalarDst = true, AnyComm = false, AnySection = false;
  for (const N::MoveClause &C : M->getClauses()) {
    AnyComm |= N::containsCommCall(C.Src) || N::containsCommCall(C.Guard);
    AnySection |= containsSection(C.Src) || containsSection(C.Guard);
    if (const auto *AV = dyn_cast<N::AVarValue>(C.Dst)) {
      if (isa<N::SubscriptAction>(AV->getAction()))
        continue; // Single-element stores are host (front-end) actions.
      AllScalarDst = false;
      if (isa<N::SectionAction>(AV->getAction()))
        AnySection = true;
    }
  }
  if (AnyComm || AnySection)
    return PhaseKind::Communication;
  if (AllScalarDst)
    return PhaseKind::HostScalar;
  return PhaseKind::Computation;
}

const N::Symbol *
transform::computationDomainOf(const N::MoveImp *M,
                               const N::ElemTypeInference &Types) {
  for (const N::MoveClause &C : M->getClauses()) {
    const auto *AV = dyn_cast<N::AVarValue>(C.Dst);
    if (!AV)
      continue;
    const auto *FT =
        dyn_cast_or_null<N::DFieldType>(Types.lookup(AV->getSymbol()));
    if (!FT)
      continue;
    if (const auto *Ref = dyn_cast<N::DomainRefShape>(FT->getShape()))
      return Ref->getSymbol();
  }
  return nullptr;
}

PhaseItem transform::phaseItem(const N::Imp *A,
                               const N::ElemTypeInference &Types) {
  PhaseItem It;
  It.Action = A;
  It.Eff = effectsOf(A);
  It.Kind = classifyAction(A);
  if (It.Kind == PhaseKind::Computation)
    It.Domain = computationDomainOf(cast<N::MoveImp>(A), Types);
  return It;
}
