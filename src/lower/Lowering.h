//===- lower/Lowering.h - AST to NIR semantic lowering -----------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic lowering stage (paper Section 4.1): consumes ASTs produced
/// by syntactic analysis and pattern-matches them against five semantic
/// equations — one per semantic domain (declarations, types, values,
/// imperatives, shapes) — producing a typechecked and *shapechecked* NIR
/// program. Static shapechecking asserts that in all direct computations
/// between arrays, the shapes of interacting arrays agree.
///
/// The result is target-independent and unoptimized; it feeds the NIR
/// transformation phase or a target NIR compiler directly.
///
/// Prototype restrictions (each reported as a diagnostic when violated):
///  - array bounds, section triplets, DO-loop bounds, and FORALL bounds
///    must be compile-time constants (after PARAMETER folding);
///  - WHERE bodies assign to whole arrays;
///  - communication intrinsic shift amounts and dimensions are constants.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_LOWER_LOWERING_H
#define F90Y_LOWER_LOWERING_H

#include "frontend/AST.h"
#include "nir/NIRContext.h"
#include "support/Diagnostics.h"

#include <optional>

namespace f90y {
namespace lower {

/// A lowered program unit: valid, verified NIR.
struct LoweredProgram {
  const nir::ProgramImp *Program = nullptr;
};

/// Lowers \p Unit to NIR. Returns std::nullopt (with diagnostics) on type,
/// shape, or restriction errors.
std::optional<LoweredProgram> lowerProgram(const frontend::ast::ProgramUnit &Unit,
                                           nir::NIRContext &Ctx,
                                           DiagnosticEngine &Diags);

} // namespace lower
} // namespace f90y

#endif // F90Y_LOWER_LOWERING_H
