//===- transform/Effects.h - Read/write set analysis --------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name-level read/write effect sets over NIR imperatives, the dependence
/// foundation for the reordering/fusion (domain blocking) transformation.
/// The analysis is conservative: any reference to a variable name counts,
/// regardless of which elements are touched. Sets are bitsets over symbol
/// ids (nir/Symbol.h).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_TRANSFORM_EFFECTS_H
#define F90Y_TRANSFORM_EFFECTS_H

#include "nir/Imperative.h"

namespace f90y {
namespace transform {

/// Read and write sets (variable names).
struct Effects {
  nir::SymbolSet Reads;
  nir::SymbolSet Writes;
};

/// Collects the effects of \p I (recursively).
Effects effectsOf(const nir::Imp *I);

/// Adds the names read by \p V to \p Reads.
void collectReads(const nir::Value *V, nir::SymbolSet &Reads);

/// True when executing \p A then \p B is equivalent to \p B then \p A:
/// no write of either intersects a read or write of the other.
bool independent(const Effects &A, const Effects &B);

} // namespace transform
} // namespace f90y

#endif // F90Y_TRANSFORM_EFFECTS_H
