//===- transform/Phases.h - Execution-phase classification --------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classification of NIR actions into execution phases (paper Section 4.2):
/// each phase either carries out a single computational action over data
/// with a common shape and alignment, or expresses a single communication
/// of data from one shape/alignment to another. The CM2/NIR back end cuts
/// computation phases out as PEAC node procedures; communication and
/// scalar phases become host code.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_TRANSFORM_PHASES_H
#define F90Y_TRANSFORM_PHASES_H

#include "nir/Imperative.h"
#include "nir/TypeInfer.h"
#include "transform/Effects.h"

namespace f90y {
namespace transform {

enum class PhaseKind {
  Computation,   ///< Grid-local parallel MOVE over one domain (PEAC-able).
  Communication, ///< Shift/router/reduction data motion (CM runtime).
  HostScalar,    ///< Scalar moves and control (front-end code).
  Structured     ///< Nested control (DO/IF/WHILE/decl scopes).
};

/// True when \p V contains a section-restricted array reference outside
/// any subscript index.
bool containsSection(const nir::Value *V);

/// Classifies a single action appearing in a sequential composition.
PhaseKind classifyAction(const nir::Imp *I);

/// For a Computation-classified MOVE, the domain the phase computes over
/// (the declared domain of the first destination array), resolved through
/// \p Types. Returns null when unknown.
const nir::Symbol *computationDomainOf(const nir::MoveImp *M,
                                       const nir::ElemTypeInference &Types);

/// One action of a sequential composition as the reordering passes
/// (fusion, domain blocking, comm scheduling) see it.
struct PhaseItem {
  const nir::Imp *Action = nullptr;
  Effects Eff;
  PhaseKind Kind = PhaseKind::Structured;
  /// A Computation MOVE's domain; null for every other action.
  const nir::Symbol *Domain = nullptr;
};

PhaseItem phaseItem(const nir::Imp *A, const nir::ElemTypeInference &Types);

} // namespace transform
} // namespace f90y

#endif // F90Y_TRANSFORM_PHASES_H
