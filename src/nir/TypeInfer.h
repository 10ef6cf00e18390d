//===- nir/TypeInfer.h - Elemental type inference -----------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Infers the elemental scalar type of NIR values from declaration context.
/// NIR value nodes are untyped (the semantic algebra carries types in the
/// declaration domain); transformations and back ends recover elemental
/// types with this analysis when they materialize temporaries or select
/// typed instructions.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_TYPEINFER_H
#define F90Y_NIR_TYPEINFER_H

#include "nir/Imperative.h"
#include "nir/Value.h"


namespace f90y {
namespace nir {

/// Tracks declaration bindings during a tree walk and answers elemental
/// type queries for values in that context.
class ElemTypeInference {
public:
  /// Registers every binding of \p D (callers invoke this when entering a
  /// WITH_DECL; bindings are not scoped — fine for lowered programs, where
  /// names are unique).
  void addDecl(const Decl *D);

  void addBinding(const Symbol *Id, const Type *Ty) { Bindings[Id] = Ty; }

  /// The declared type of \p Id (dfield type for arrays), or null.
  const Type *lookup(const Symbol *Id) const { return Bindings.lookup(Id); }

  /// Elemental scalar kind of \p V: Integer32, Logical32, Float32, or
  /// Float64. Unknown names default to Float32.
  Type::Kind elemKindOf(const Value *V) const;

  /// True when \p V's elemental type is floating point.
  bool isFloating(const Value *V) const {
    Type::Kind K = elemKindOf(V);
    return K == Type::Kind::Float32 || K == Type::Kind::Float64;
  }

private:
  SymbolMap<const Type *> Bindings;
};

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_TYPEINFER_H
