//===- transform/Phases.cpp - Execution-phase classification ----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Phases.h"


using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

bool transform::containsCommCall(const N::Value *V) {
  switch (V->getKind()) {
  case N::Value::Kind::Binary: {
    const auto *B = cast<N::BinaryValue>(V);
    return containsCommCall(B->getLHS()) || containsCommCall(B->getRHS());
  }
  case N::Value::Kind::Unary:
    return containsCommCall(cast<N::UnaryValue>(V)->getOperand());
  case N::Value::Kind::FcnCall: {
    const auto *F = cast<N::FcnCallValue>(V);
    if (N::isCommOrReductionIntrinsic(F->getCallee()))
      return true;
    for (const N::Value *A : F->getArgs())
      if (containsCommCall(A))
        return true;
    return false;
  }
  default:
    return false;
  }
}

bool transform::containsSection(const N::Value *V) {
  switch (V->getKind()) {
  case N::Value::Kind::Binary: {
    const auto *B = cast<N::BinaryValue>(V);
    return containsSection(B->getLHS()) || containsSection(B->getRHS());
  }
  case N::Value::Kind::Unary:
    return containsSection(cast<N::UnaryValue>(V)->getOperand());
  case N::Value::Kind::AVar:
    return isa<N::SectionAction>(cast<N::AVarValue>(V)->getAction());
  case N::Value::Kind::FcnCall: {
    for (const N::Value *A : cast<N::FcnCallValue>(V)->getArgs())
      if (containsSection(A))
        return true;
    return false;
  }
  default:
    return false;
  }
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
    if (containsCommCall(C.Src) || (C.Guard && containsCommCall(C.Guard)))
      AnyComm = true;
    if (containsSection(C.Src) || (C.Guard && containsSection(C.Guard)))
      AnySection = true;
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
