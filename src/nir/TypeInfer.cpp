//===- nir/TypeInfer.cpp - Elemental type inference -------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/TypeInfer.h"

#include "nir/Decl.h"

using namespace f90y;
using namespace f90y::nir;

void ElemTypeInference::addDecl(const Decl *D) {
  forEachSimpleDecl(D, [&](const SimpleDecl *SD) {
    Bindings[SD->getSymbol()] = SD->getType();
  });
}

static Type::Kind promoteKinds(Type::Kind A, Type::Kind B) {
  if (A == Type::Kind::Float64 || B == Type::Kind::Float64)
    return Type::Kind::Float64;
  if (A == Type::Kind::Float32 || B == Type::Kind::Float32)
    return Type::Kind::Float32;
  return Type::Kind::Integer32;
}

Type::Kind ElemTypeInference::elemKindOf(const Value *V) const {
  switch (V->getKind()) {
  case Value::Kind::Binary: {
    const auto *B = cast<BinaryValue>(V);
    if (isComparison(B->getOp()) || isLogicalOp(B->getOp()))
      return Type::Kind::Logical32;
    if (B->getOp() == BinaryOp::Pow)
      return elemKindOf(B->getLHS()); // Integer exponents keep base type.
    return promoteKinds(elemKindOf(B->getLHS()), elemKindOf(B->getRHS()));
  }
  case Value::Kind::Unary: {
    const auto *U = cast<UnaryValue>(V);
    switch (U->getOp()) {
    case UnaryOp::Not:
      return Type::Kind::Logical32;
    case UnaryOp::FToInt:
      return Type::Kind::Integer32;
    case UnaryOp::IntToF:
      return Type::Kind::Float32;
    case UnaryOp::Neg:
    case UnaryOp::Abs:
      return elemKindOf(U->getOperand());
    default: {
      // Transcendentals are floating; widen from the operand if it is f64.
      Type::Kind K = elemKindOf(U->getOperand());
      return K == Type::Kind::Float64 ? Type::Kind::Float64
                                      : Type::Kind::Float32;
    }
    }
  }
  case Value::Kind::SVar: {
    const Type *Ty = lookup(cast<SVarValue>(V)->getSymbol());
    return Ty ? Ty->getKind() : Type::Kind::Float32;
  }
  case Value::Kind::ScalarConst:
    return cast<ScalarConstValue>(V)->getType()->getKind();
  case Value::Kind::StrConst:
    return Type::Kind::Integer32;
  case Value::Kind::FcnCall: {
    const auto *F = cast<FcnCallValue>(V);
    const std::string &Name = F->getCallee();
    if (Name == "any" || Name == "all")
      return Type::Kind::Logical32;
    if (Name == "count")
      return Type::Kind::Integer32;
    // cshift/eoshift/transpose/merge/sum/product/maxval/minval: type of
    // the first data argument.
    return F->getArgs().empty() ? Type::Kind::Float32
                                : elemKindOf(F->getArgs()[0]);
  }
  case Value::Kind::AVar: {
    const Type *Ty = lookup(cast<AVarValue>(V)->getSymbol());
    if (const auto *FT = dyn_cast_or_null<DFieldType>(Ty))
      return FT->getUltimateElementType()->getKind();
    return Type::Kind::Float32;
  }
  case Value::Kind::LocalCoord:
    return Type::Kind::Integer32;
  }
  return Type::Kind::Float32;
}
