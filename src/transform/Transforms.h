//===- transform/Transforms.h - Target-independent NIR passes -----*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NIR optimization stage (paper Section 4.2): source-to-source
/// transformations over NIR whose object is to produce programs in which
/// computations over like shapes are blocked as much as possible, forming
/// computation phases punctuated by communication.
///
/// Passes:
///  - extractComm: hoists communication intrinsics (cshift/eoshift/
///    transpose) and reductions out of computational MOVEs into temporaries
///    (the tmp0/tmp1 of paper Figure 12), leaving each MOVE either a pure
///    local computation or a single communication action.
///  - maskSections: pads aligned array-section assignments into full-shape
///    masked MOVEs (paper Figure 10), turning section communication into
///    local computation and enabling blocking.
///  - fuseElementwise: eliminates single-use array temporaries by folding
///    the producer's RHS into its one consumer, so producer chains compile
///    into one PEAC sweep and the temporary's allocation disappears
///    (cross-statement elementwise fusion; runs before blockDomains so the
///    blocked phases already carry whole expressions).
///  - layout (f90y_layout's materializeLayout): alignment/layout
///    inference. Solves per-field integer offsets so co-shifted fields
///    share a placement, turning CSHIFT exchanges into local copies and
///    shrinking the residual ones (DESIGN.md Section 12). Runs between
///    fuseElementwise and blockDomains so fused comm chains are already
///    canonical but copy MOVEs can still merge into blocked phases.
///  - blockDomains: reorders independent phases and fuses adjacent
///    computation MOVEs over a common domain into single MOVEs (the shape
///    equivalent of loop fusion; paper Figure 9).
///  - commSchedule: hoists communication MOVEs above independent
///    computation so the split-phase executor can hide the exchange, and
///    coalesces adjacent same-source same-axis shifts into one
///    multi-shift exchange (one communication startup). Off by default;
///    f90yc -comm=overlap enables it.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_TRANSFORM_TRANSFORMS_H
#define F90Y_TRANSFORM_TRANSFORMS_H

#include "nir/NIRContext.h"
#include "support/Diagnostics.h"
#include "transform/Phases.h"

#include <cstdint>

namespace f90y {

namespace cm2 {
struct CostModel;
}

namespace observe {
class TraceRecorder;
class MetricsRegistry;
} // namespace observe

namespace transform {

/// Per-pass toggles for the optional passes; extract-comm and
/// mask-sections always run.
struct TransformOptions {
  /// Cross-statement elementwise fusion (eliminate single-use array
  /// temporaries). f90yc -fuse=off disables it.
  bool Fusion = true;
  /// Alignment/layout inference (f90yc -layout=infer). Off by default so
  /// pipelines assembled without a profile keep their historical shape;
  /// the F90Y profile turns it on.
  bool Layout = false;
  bool Blocking = true;
  /// Communication scheduling (hoist + coalesce). Off by default: it
  /// reorders and fuses comm phases, which -comm=sync runs must not see.
  bool CommSchedule = false;
  /// Cost model the layout pass weighs alignment edges with; null keeps
  /// the pass functional (weights fall back to element counts). The
  /// driver points this at CompileOptions::Costs.
  const cm2::CostModel *Costs = nullptr;
  /// Optional observability sinks; null (the default) is the zero-cost
  /// disabled path. With Trace set each pass is a wall span; with Metrics
  /// set the per-pass PhaseStats deltas are recorded as gauges.
  observe::TraceRecorder *Trace = nullptr;
  observe::MetricsRegistry *Metrics = nullptr;
};

/// Runs the enabled passes in order over \p Program and returns the
/// transformed program (verified). Returns the input unchanged if a pass
/// reports an error.
const nir::ProgramImp *optimize(const nir::ProgramImp *Program,
                                nir::NIRContext &Ctx,
                                DiagnosticEngine &Diags,
                                const TransformOptions &Opts = {});

/// Counters reported by fuseElementwise (surfaced as fuse.* metrics).
struct FusionStats {
  /// Array temporaries whose store, load, and declaration were removed.
  unsigned TempsEliminated = 0;
  /// Consumer MOVEs that absorbed at least one producer.
  unsigned MovesFused = 0;
  /// Static estimate of PE memory traffic removed: one store plus one
  /// load of the full field per eliminated temporary.
  uint64_t BytesSaved = 0;
};

/// Individual passes. Each is an nir::ImpRewriter: it returns \p Root
/// itself when it changes nothing and shares every subtree it leaves alone.
const nir::Imp *extractComm(const nir::Imp *Root, nir::NIRContext &Ctx,
                            DiagnosticEngine &Diags);
const nir::Imp *maskSections(const nir::Imp *Root, nir::NIRContext &Ctx,
                             DiagnosticEngine &Diags);
const nir::Imp *fuseElementwise(const nir::Imp *Root, nir::NIRContext &Ctx,
                                DiagnosticEngine &Diags,
                                FusionStats *Stats = nullptr);
const nir::Imp *blockDomains(const nir::Imp *Root, nir::NIRContext &Ctx,
                             DiagnosticEngine &Diags);
const nir::Imp *commSchedule(const nir::Imp *Root, nir::NIRContext &Ctx,
                             DiagnosticEngine &Diags);

/// Phase statistics over a program (benchmark/regression metric for the
/// Figure 9/10 reproductions).
struct PhaseStats {
  unsigned ComputationPhases = 0;
  unsigned CommunicationPhases = 0;
  unsigned HostScalarPhases = 0;
  unsigned MoveClauses = 0;
};

PhaseStats countPhases(const nir::Imp *Root);

} // namespace transform
} // namespace f90y

#endif // F90Y_TRANSFORM_TRANSFORMS_H
