//===- transform/Transforms.cpp - Pass pipeline and statistics --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Transforms.h"

#include "layout/Materialize.h"
#include "nir/Rewrite.h"
#include "nir/Verifier.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"

#include <functional>
#include <string>

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

/// Runs one pass under an optional wall span, recording the phase-count
/// deltas the pass produced as span args and per-pass gauges.
static const N::Imp *
runPass(const char *Name, const N::Imp *I, const TransformOptions &Opts,
        const std::function<const N::Imp *(const N::Imp *)> &Pass) {
  if (!Opts.Trace && !Opts.Metrics)
    return Pass(I);
  PhaseStats Before = countPhases(I);
  observe::WallSpan Span(Opts.Trace, Name, "pass");
  const N::Imp *Result = Pass(I);
  PhaseStats After = countPhases(Result);
  Span.addArg(observe::arg("comp_phases", uint64_t(After.ComputationPhases)));
  Span.addArg(observe::arg("comm_phases",
                           uint64_t(After.CommunicationPhases)));
  Span.addArg(observe::arg("move_clauses", uint64_t(After.MoveClauses)));
  if (Opts.Metrics) {
    std::string Prefix = std::string("pass.") + Name + ".";
    Opts.Metrics->gauge(Prefix + "comp_phases", After.ComputationPhases);
    Opts.Metrics->gauge(Prefix + "comm_phases", After.CommunicationPhases);
    Opts.Metrics->gauge(Prefix + "host_phases", After.HostScalarPhases);
    Opts.Metrics->gauge(Prefix + "move_clauses", After.MoveClauses);
    Opts.Metrics->gauge(Prefix + "move_clause_delta",
                        double(After.MoveClauses) - double(Before.MoveClauses));
  }
  return Result;
}

const N::ProgramImp *transform::optimize(const N::ProgramImp *Program,
                                         N::NIRContext &Ctx,
                                         DiagnosticEngine &Diags,
                                         const TransformOptions &Opts) {
  const N::Imp *I = Program;
  unsigned ErrorsBefore = Diags.errorCount();
  I = runPass("extract-comm", I, Opts, [&](const N::Imp *In) {
    return extractComm(In, Ctx, Diags);
  });
  I = runPass("mask-sections", I, Opts, [&](const N::Imp *In) {
    return maskSections(In, Ctx, Diags);
  });
  if (Opts.Fusion) {
    FusionStats FS;
    I = runPass("fuse", I, Opts, [&](const N::Imp *In) {
      return fuseElementwise(In, Ctx, Diags, &FS);
    });
    if (Opts.Metrics) {
      Opts.Metrics->gauge("fuse.temps_eliminated", FS.TempsEliminated);
      Opts.Metrics->gauge("fuse.moves_fused", FS.MovesFused);
      Opts.Metrics->gauge("fuse.bytes_saved", double(FS.BytesSaved));
    }
  }
  if (Opts.Layout) {
    layout::LayoutStats LS;
    I = runPass("layout", I, Opts, [&](const N::Imp *In) {
      return layout::materializeLayout(In, Ctx, Diags, Opts.Costs, &LS);
    });
    if (Opts.Metrics) {
      Opts.Metrics->gauge("layout.fields_realigned", LS.FieldsRealigned);
      Opts.Metrics->gauge("layout.comm_moves_localized",
                          LS.CommMovesLocalized);
      Opts.Metrics->gauge("layout.comm_cycles_saved", LS.CommCyclesSaved);
    }
  }
  if (Opts.Blocking)
    I = runPass("block-domains", I, Opts, [&](const N::Imp *In) {
      return blockDomains(In, Ctx, Diags);
    });
  if (Opts.CommSchedule)
    I = runPass("comm-schedule", I, Opts, [&](const N::Imp *In) {
      return commSchedule(In, Ctx, Diags);
    });
  if (Diags.errorCount() != ErrorsBefore)
    return Program;
  const auto *Result = cast<N::ProgramImp>(I);
  {
    observe::WallSpan Span(Opts.Trace, "verify", "pass");
    // After extract-comm, comm calls are canonical (whole clause sources
    // only); the strict check catches any pass — fusion above all — that
    // would drag computation across a communication boundary.
    N::VerifyOptions VOpts;
    VOpts.CanonicalComm = true;
    VOpts.LayoutConsistency = Opts.Layout;
    if (!N::verify(Result, Diags, VOpts))
      return Program;
  }
  return Result;
}

PhaseStats transform::countPhases(const N::Imp *Root) {
  PhaseStats Stats;
  if (!Root)
    return Stats;
  N::forEachImp(Root, [&](const N::Imp *I) {
    if (isa<N::CallImp>(I))
      ++Stats.HostScalarPhases;
    const auto *M = dyn_cast<N::MoveImp>(I);
    if (!M)
      return;
    Stats.MoveClauses += M->getClauses().size();
    switch (classifyAction(M)) {
    case PhaseKind::Computation:
      ++Stats.ComputationPhases;
      break;
    case PhaseKind::Communication:
      ++Stats.CommunicationPhases;
      break;
    case PhaseKind::HostScalar:
      ++Stats.HostScalarPhases;
      break;
    case PhaseKind::Structured:
      break;
    }
  });
  return Stats;
}
