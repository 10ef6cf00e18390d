//===- driver/Driver.cpp - Fortran-90-Y compiler driver ----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include "frontend/Inline.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "host/Printer.h"
#include "layout/LayoutDescriptor.h"
#include "lower/Lowering.h"
#include "observe/Json.h"
#include "support/Serialize.h"

#include <map>

using namespace f90y;
using namespace f90y::driver;

/// Deterministic rendering of every non-canonically placed field in the
/// program (checkpoint identity; see Checkpoint.h). AllocScopes hold all
/// field allocations, so only body-bearing statements need walking.
static void collectLayoutSig(const host::HostStmt *S,
                             std::map<std::string, std::string> &Out) {
  if (!S)
    return;
  switch (S->getKind()) {
  case host::HostStmt::Kind::Seq:
    for (const auto &Sub : cast<host::SeqStmt>(S)->stmts())
      collectLayoutSig(Sub.get(), Out);
    return;
  case host::HostStmt::Kind::AllocScope: {
    const auto *A = cast<host::AllocScopeStmt>(S);
    for (const auto &F : A->fields())
      if (!F.Offsets.empty()) {
        layout::LayoutDescriptor L;
        L.AxisMap = F.AxisMap;
        L.Offsets = F.Offsets;
        L.normalize(F.Extents);
        if (!L.isCanonical())
          Out[F.Name] = L.str();
      }
    collectLayoutSig(A->body(), Out);
    return;
  }
  case host::HostStmt::Kind::If: {
    const auto *If = cast<host::IfStmt>(S);
    collectLayoutSig(If->thenStmt(), Out);
    collectLayoutSig(If->elseStmt(), Out);
    return;
  }
  case host::HostStmt::Kind::While:
    collectLayoutSig(cast<host::WhileStmt>(S)->body(), Out);
    return;
  case host::HostStmt::Kind::SerialDo:
    collectLayoutSig(cast<host::SerialDoStmt>(S)->body(), Out);
    return;
  case host::HostStmt::Kind::ParallelLoop:
    collectLayoutSig(cast<host::ParallelLoopStmt>(S)->body(), Out);
    return;
  default:
    return;
  }
}

static std::string layoutSignature(const host::HostProgram &Program) {
  std::map<std::string, std::string> Sig;
  collectLayoutSig(Program.Body.get(), Sig);
  std::string Out;
  for (const auto &[Name, Desc] : Sig)
    Out += Name + "=" + Desc + "|";
  return Out;
}

CompileOptions CompileOptions::forProfile(Profile P, cm2::CostModel Costs) {
  CompileOptions O;
  O.Costs = Costs;
  switch (P) {
  case Profile::F90Y:
    // Everything defaults to on; alignment inference (off in the base
    // TransformOptions so bare pipelines keep their shape) joins here.
    O.Transforms.Layout = true;
    break;
  case Profile::CMFStyle:
    // Per-statement compilation: no cross-statement blocking or fusion.
    O.Transforms.Blocking = false;
    O.Transforms.Fusion = false;
    break;
  case Profile::Naive:
    O.Transforms.Blocking = false;
    O.Transforms.Fusion = false;
    O.Backend.PE.Chaining = false;
    O.Backend.PE.DualIssue = false;
    O.Backend.PE.MaddFusion = false;
    O.Backend.PE.CSE = false;
    O.Backend.PE.SpillScheduling = false;
    break;
  }
  O.Backend.PE.VectorRegs = O.Costs.VectorRegs;
  return O;
}

std::shared_ptr<const FrontEnd> FrontEnd::run(const std::string &Source,
                                              observe::TraceRecorder *Trace,
                                              observe::MetricsRegistry *Metrics) {
  auto FE = std::make_shared<FrontEnd>();
  DiagnosticEngine &Diags = FE->Diags;
  frontend::Lexer Lexer(Source, Diags);
  std::vector<frontend::Token> Tokens;
  {
    observe::WallSpan S(Trace, "lex", "phase");
    Tokens = Lexer.lexAll();
    S.addArg(observe::arg("tokens", static_cast<uint64_t>(Tokens.size())));
  }
  if (Metrics)
    Metrics->gauge("frontend.tokens", static_cast<double>(Tokens.size()));

  frontend::ast::ASTContext ACtx;
  frontend::Parser Parser(std::move(Tokens), ACtx, Diags);
  decltype(Parser.parseSourceFile()) File;
  {
    observe::WallSpan S(Trace, "parse", "phase");
    File = Parser.parseSourceFile();
  }
  if (!File)
    return FE;

  decltype(frontend::integrateProcedures(*File, ACtx, Diags)) Unit;
  {
    observe::WallSpan S(Trace, "integrate", "phase");
    Unit = frontend::integrateProcedures(*File, ACtx, Diags);
  }
  if (!Unit)
    return FE;

  observe::WallSpan S(Trace, "lower", "phase");
  if (auto Lowered = lower::lowerProgram(*Unit, FE->NCtx, Diags))
    FE->RawNIR = Lowered->Program;
  return FE;
}

bool Compilation::compile(const std::string &Source) {
  observe::WallSpan Whole(Trace, "compile", "phase");
  return compile(FrontEnd::run(Source, Trace, Metrics));
}

bool Compilation::compile(std::shared_ptr<const FrontEnd> Front) {
  FE = std::move(Front);
  Diags = FE->diags();
  NCtx = std::make_unique<nir::NIRContext>(&FE->nirContext());
  Arts.RawNIR = FE->rawNIR();
  if (!Arts.RawNIR)
    return false;

  {
    observe::WallSpan S(Trace, "optimize", "phase");
    // The layout pass weighs alignment edges with this compilation's
    // machine model (Opts is owned by value, so the pointer is stable).
    Opts.Transforms.Costs = &Opts.Costs;
    Arts.OptimizedNIR =
        transform::optimize(Arts.RawNIR, *NCtx, Diags, Opts.Transforms);
  }
  if (Diags.hasErrors())
    return false;

  decltype(backend::compileProgram(Arts.OptimizedNIR, Opts.Backend,
                                   Diags)) Compiled;
  {
    observe::WallSpan S(Trace, "backend", "phase");
    Compiled = backend::compileProgram(Arts.OptimizedNIR, Opts.Backend, Diags);
    if (Compiled)
      S.addArg(observe::arg(
          "routines",
          static_cast<uint64_t>(Compiled->Program.Routines.size())));
  }
  if (!Compiled)
    return false;
  Arts.Compiled = std::move(*Compiled);
  return true;
}

std::optional<RunReport> Execution::run(const host::HostProgram &Program) {
  RT.ledger().reset();
  RestoreFailed = false;
  // Restart the fault schedule from op 0 so repeated runs of one
  // Execution are identical (the schedule is a pure function of the seed
  // and the per-kind op streams).
  if (Injector)
    Injector->reset();
  if (Trace)
    Trace->resetCycleCursor(); // The cycle timeline restarts with the ledger.
  if (Ckpt) {
    // Checkpoint identity: a tag of the printed host program (so a resume
    // against different source or compiler options is rejected) plus the
    // run's fault configuration (a resumed schedule must be the same pure
    // function of seed and op streams the killed run was drawing from).
    Ckpt->setProgramTag(support::crc32(host::printHostProgram(Program)));
    Ckpt->setLayoutSignature(layoutSignature(Program));
    if (Injector)
      Ckpt->setFaultConfig(true, Injector->seed(), Injector->spec().Prob);
    else
      Ckpt->setFaultConfig(false, 0, nullptr);
    if (Ckpt->wantsRestore()) {
      runtime::ckpt::CheckpointState State;
      support::RtStatus St = Ckpt->loadForRestore(State);
      if (!St.isOk()) {
        RestoreFailed = true;
        Diags.error(SourceLocation(),
                    "cannot restore from '" +
                        Ckpt->options().RestorePath + "': " + St.str());
        return std::nullopt;
      }
      Exec.setRestoreState(std::move(State));
    }
  }
  bool Ok;
  {
    observe::WallSpan S(Trace, "execute", "phase");
    Ok = Exec.run(Program);
  }
  if (Trace) // Flush the untraced tail so cycle spans tile the ledger.
    Trace->closeCycles(RT.ledger().total());
  if (Metrics) {
    const runtime::CycleLedger &L = RT.ledger();
    Metrics->gauge("ledger.node_cycles", L.NodeCycles);
    Metrics->gauge("ledger.call_cycles", L.CallCycles);
    Metrics->gauge("ledger.comm_cycles", L.CommCycles);
    Metrics->gauge("ledger.host_cycles", L.HostCycles);
    Metrics->gauge("ledger.overlapped_cycles", L.OverlappedCycles);
    Metrics->gauge("ledger.total_cycles", L.total());
    Metrics->gauge("ledger.flops", static_cast<double>(L.Flops));
    if (Injector) {
      const support::FaultCounters &F = Injector->counters();
      for (unsigned K = 0; K < support::NumFaultKinds; ++K)
        if (F.Injected[K])
          Metrics->gauge(std::string("fault.injected.") +
                             support::faultKindName(
                                 static_cast<support::FaultKind>(K)),
                         static_cast<double>(F.Injected[K]));
    }
  }
  if (!Ok)
    return std::nullopt;
  RunReport Report;
  Report.Ledger = RT.ledger();
  Report.Output = Exec.output();
  Report.ClockMHz = Costs.ClockMHz;
  if (Injector)
    Report.Faults = Injector->counters();
  return Report;
}

std::string RunReport::json() const {
  namespace js = f90y::observe::json;
  std::string Out = "{\n";
  Out += "\"ledger\":{";
  Out += "\"node_cycles\":" + js::number(Ledger.NodeCycles);
  Out += ",\"call_cycles\":" + js::number(Ledger.CallCycles);
  Out += ",\"comm_cycles\":" + js::number(Ledger.CommCycles);
  Out += ",\"host_cycles\":" + js::number(Ledger.HostCycles);
  Out += ",\"overlapped_cycles\":" + js::number(Ledger.OverlappedCycles);
  Out += ",\"total_cycles\":" + js::number(Ledger.total());
  Out += ",\"flops\":" + js::number(Ledger.Flops);
  Out += "},\n";
  Out += "\"clock_mhz\":" + js::number(ClockMHz);
  Out += ",\"seconds\":" + js::number(seconds());
  Out += ",\"executed_gflops\":" + js::number(executedGflops());
  Out += ",\n\"faults\":{";
  Out += "\"injected\":{";
  bool First = true;
  for (unsigned K = 0; K < support::NumFaultKinds; ++K) {
    if (!First)
      Out += ',';
    First = false;
    Out += js::quote(support::faultKindName(
               static_cast<support::FaultKind>(K))) +
           ":" + js::number(Faults.Injected[K]);
  }
  Out += "},\"retries\":" + js::number(Faults.Retries);
  Out += ",\"rollbacks\":" + js::number(Faults.Rollbacks);
  Out += ",\"replays\":" + js::number(Faults.Replays);
  Out += "}\n}\n";
  return Out;
}
