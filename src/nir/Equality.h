//===- nir/Equality.h - Structural equality over NIR -------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural equality over NIR terms. NIR nodes are immutable trees with a
/// canonical printed form (nir/Printer.h), so two terms are structurally
/// equal exactly when their printed forms coincide; these helpers are thin
/// wrappers over the printer. Only tests use them.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_EQUALITY_H
#define F90Y_NIR_EQUALITY_H

#include "nir/Printer.h"

namespace f90y {
namespace nir {

inline bool valuesEqual(const Value *A, const Value *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  return printValue(A) == printValue(B);
}

inline bool impsEqual(const Imp *A, const Imp *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  return printImp(A) == printImp(B);
}

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_EQUALITY_H
