//===- layout/AlignmentSolver.h - Greedy alignment solver --------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns every field of an AlignmentGraph a LayoutDescriptor
/// (DESIGN.md Section 12). Component-wise greedy over integer per-axis
/// offsets with union-find:
///
///   1. mandatory equality edges union their endpoints at delta zero;
///   2. shift edges, heaviest first (deterministic tie-breaking by axis,
///      distance, then field names), merge components at the delta that
///      localizes the exchange, or are marked residual when their
///      endpoints already sit in one component at a different delta;
///   3. components anchor at their pinned members (conflicting pins
///      freeze the whole component canonical); unpinned components
///      anchor their lexicographically least field at zero;
///   4. a legalization fixpoint freezes canonical any pair of components
///      whose residual shift edge would cross misaligned off-axes
///      (a slot sweep along one axis cannot compensate a rotation on
///      another).
///
/// The inferred descriptors always carry the identity axis map: a
/// transpose participant is pinned by the graph builder rather than
/// permuted.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_LAYOUT_ALIGNMENTSOLVER_H
#define F90Y_LAYOUT_ALIGNMENTSOLVER_H

#include "layout/AlignmentGraph.h"
#include "layout/LayoutDescriptor.h"

namespace f90y {
namespace layout {

/// Per-field descriptor assignment plus the solver's own accounting.
struct SolveResult {
  std::vector<LayoutDescriptor> Layouts; ///< Parallel to the graph's Fields.
  /// Fields whose final descriptor is non-canonical.
  unsigned FieldsRealigned = 0;
  /// Shift edges the assignment fully localizes (static count).
  unsigned EdgesLocalized = 0;
  /// Sum of the localized edges' weights: the estimated dynamic comm
  /// cycles the materialized program no longer pays.
  double CommCyclesSaved = 0;
};

/// Deterministically solves \p G. Every field of the graph gets an entry
/// in Layouts (canonical for pinned/frozen fields).
SolveResult solveAlignment(const AlignmentGraph &G);

} // namespace layout
} // namespace f90y

#endif // F90Y_LAYOUT_ALIGNMENTSOLVER_H
