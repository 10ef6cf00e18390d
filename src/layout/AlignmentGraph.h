//===- layout/AlignmentGraph.h - Field alignment constraint graph -*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The alignment graph of DESIGN.md Section 12: one node per distributed
/// field, one edge per alignment constraint or opportunity the NIR program
/// exhibits.
///
///   Equality edge   a computational MOVE evaluates slot-wise, so all of
///                   its whole-field participants must share one
///                   placement (offset delta zero). Mandatory.
///   Shift edge      dst = CSHIFT(src, s, dim): choosing
///                   offset(dst) = offset(src) + s*e_dim turns the
///                   exchange into a zero-hop local copy. Desirable;
///                   weighted by the CostModel's dynamic comm-cycle
///                   estimate scaled by enclosing loop trip counts.
///
/// Constructs whose storage order the offsets would change - transposes,
/// spreads, reductions (FP combine order), eoshift edge fill, masked or
/// variable-distance shifts, sections, pointwise subscripting, coordinate
/// values, and residual CALL arguments - pin their fields to the
/// canonical placement instead of contributing edges.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_LAYOUT_ALIGNMENTGRAPH_H
#define F90Y_LAYOUT_ALIGNMENTGRAPH_H

#include "nir/Symbol.h"

#include <cstdint>
#include <vector>

namespace f90y {
namespace cm2 {
struct CostModel;
}
namespace nir {
class Imp;
}
namespace layout {

/// One distributed field observed by the graph builder.
struct AlignField {
  const nir::Symbol *Name = nullptr;
  std::vector<int64_t> Extents;
  /// Must stay at the canonical placement (participates in a construct
  /// the offsets would break).
  bool Pinned = false;
};

/// One alignment constraint between two same-shape fields.
struct AlignEdge {
  enum class Kind { Equality, Shift };
  Kind K = Kind::Equality;
  const nir::Symbol *Src = nullptr, *Dst = nullptr;
  /// Shift edges: zero-based axis and the logical CSHIFT distance; the
  /// edge is satisfied when offset(Dst) - offset(Src) == Shift*e_Axis
  /// (mod extents).
  unsigned Axis = 0;
  int64_t Shift = 0;
  /// Estimated dynamic comm cycles the exchange costs per program run
  /// (CostModel estimate x enclosing trip counts); the solver satisfies
  /// heavy edges first and reports the sum of satisfied weights as
  /// layout.comm_cycles_saved.
  double Weight = 0;
};

/// The alignment graph of one NIR program.
struct AlignmentGraph {
  std::vector<AlignField> Fields; ///< In order of first declaration.
  nir::SymbolMap<unsigned> Index; ///< Field -> 1 + its Fields slot.
  std::vector<AlignEdge> Edges;

  /// The field \p S names, or null.
  const AlignField *find(const nir::Symbol *S) const {
    unsigned P = Index.lookup(S);
    return P ? &Fields[P - 1] : nullptr;
  }
};

/// Walks \p Root recording every distributed field, pin, and alignment
/// edge. \p Costs may be null (edge weights fall back to element counts).
AlignmentGraph buildAlignmentGraph(const nir::Imp *Root,
                                   const cm2::CostModel *Costs);

} // namespace layout
} // namespace f90y

#endif // F90Y_LAYOUT_ALIGNMENTGRAPH_H
