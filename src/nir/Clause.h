//===- nir/Clause.h - Canonical MOVE clause forms ----------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MOVE clause forms that passes and the back end recognize, each
/// defined once:
///
///  - an unmasked clause (isTrueGuard);
///  - a whole-field shift, the clause the FE/NIR compiler turns into one
///    CM runtime call (paper Section 5.2) and that layout inference,
///    materialization and comm-schedule reason about (matchShift);
///  - a run of shift clauses that the runtime can perform as one exchange
///    (matchExchange): the only MOVEs comm-schedule merges, and the only
///    multi-clause shift the back end lowers;
///  - the realigned residual shift layout materialization writes
///    (buildRealignedShift), which matchShift decomposes back.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_CLAUSE_H
#define F90Y_NIR_CLAUSE_H

#include "nir/Imperative.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace f90y {
namespace nir {

class NIRContext;

/// True when \p Guard is absent or the constant True: the clause is
/// unmasked.
bool isTrueGuard(const Value *Guard);

/// An unguarded whole-field shift clause, decomposed. Its NIR form is
///
///   AVAR(dst, everywhere) <- cshift|eoshift(AVAR(src, everywhere), s, d)
///
/// with integer constants s and d, or the realigned residual
/// cshift(AVAR(src, everywhere), s, d, l), where s is the physical slot
/// distance and l the source-level shift it implements.
struct ShiftClause {
  const AVarValue *Dst = nullptr;
  const AVarValue *Src = nullptr;
  int64_t Shift = 0;   ///< Distance the exchange moves, in slots.
  int64_t Dim = 0;     ///< 1-based axis.
  bool EndOff = false; ///< eoshift (boundary fill) rather than cshift.
  int64_t Logical = 0; ///< Source-level shift; Shift unless realigned.

  bool isRealigned() const { return Logical != Shift; }
};

/// Decomposes \p C when it is a shift clause of the form above.
std::optional<ShiftClause> matchShift(const MoveClause &C);

/// Decomposes \p Clauses when the runtime can perform them as one
/// exchange: every clause a shift of one source along one axis with one
/// flavor, the destinations pairwise distinct and none equal to the
/// source, and none realigned. Clause for clause, the exchange then
/// computes what the clauses do in sequence.
std::optional<std::vector<ShiftClause>>
matchExchange(const std::vector<MoveClause> &Clauses);

/// The realigned residual of shift \p S: a cshift of its source along its
/// axis by \p Physical slots, carrying S.Logical as the fourth argument.
const Value *buildRealignedShift(NIRContext &Ctx, const ShiftClause &S,
                                 int64_t Physical);

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_CLAUSE_H
