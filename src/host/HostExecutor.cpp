//===- host/HostExecutor.cpp - Front-end execution ---------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "host/HostExecutor.h"

#include "nir/Printer.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "peac/Engine.h"
#include "peac/Executor.h"
#include "support/FaultInjector.h"

#include <cmath>
#include <utility>

using namespace f90y;
using namespace f90y::host;
using interp::RtVal;
namespace N = f90y::nir;

std::optional<RtVal> HostExecutor::getScalar(const std::string &Name) const {
  auto It = Scalars.find(Name);
  if (It == Scalars.end())
    return std::nullopt;
  return It->second;
}

int HostExecutor::fieldHandle(const std::string &Name) const {
  auto It = FieldHandles.find(Name);
  return It == FieldHandles.end() ? -1 : It->second;
}

void HostExecutor::beginPendingComm(double Cycles,
                                    const std::vector<int> &Handles) {
  if (!OverlapCommCompute)
    return;
  // The data network serializes with itself: issuing retires any previous
  // in-flight exchange (CmRuntime keeps a single slot).
  RT.commIssue(Cycles, Handles);
}

double HostExecutor::overlapAgainstPending(double Cycles,
                                           const std::vector<int> &Touched) {
  if (!OverlapCommCompute)
    return 0.0;
  return RT.noteCompute(Cycles, Touched);
}

bool HostExecutor::run(const HostProgram &Prog) {
  Program = &Prog;
  Output.clear();
  Failed = false;
  Steps = 0;
  Scalars.clear();
  ScalarKinds.clear();
  // An earlier run's top-level fields stay live for inspection until the
  // next run starts; their storage goes back to the heap here.
  for (const auto &[Name, Handle] : FieldHandles)
    RT.freeField(Handle);
  FieldHandles.clear();
  LoopCoords.clear();
  StepIndex = 0;
  LoopSeq = 0;
  LoopDepth = 0;
  flushPendingComm();
  if (Restore.has_value()) {
    Restoring = true;
    execRestore(Prog.Body.get());
    if (Restoring && !Failed)
      error("restore: the resume point (outermost loop " +
            std::to_string(Restore->LoopId) + ", step " +
            std::to_string(Restore->StepIndex) +
            ") was not reached by structural replay; the checkpointed loop "
            "must be an outermost SerialDo/While (not nested under IF)");
    Restoring = false;
    Restore.reset();
  } else {
    exec(Prog.Body.get());
  }
  return !Failed;
}

RtVal HostExecutor::convertFor(RtVal V, runtime::ElemKind K) {
  switch (K) {
  case runtime::ElemKind::Int:
    return RtVal::makeInt(V.asInt());
  case runtime::ElemKind::Real:
    return RtVal::makeReal(V.asReal());
  case runtime::ElemKind::Bool:
    return RtVal::makeBool(V.asBool());
  }
  return V;
}

RtVal HostExecutor::evalScalar(const N::Value *V) {
  if (Failed)
    return RtVal::makeInt(0);
  switch (V->getKind()) {
  case N::Value::Kind::Binary: {
    const auto *B = cast<N::BinaryValue>(V);
    RtVal L = evalScalar(B->getLHS());
    RtVal R = evalScalar(B->getRHS());
    return interp::applyBinary(B->getOp(), L, R, nullptr);
  }
  case N::Value::Kind::Unary: {
    const auto *U = cast<N::UnaryValue>(V);
    return interp::applyUnary(U->getOp(), evalScalar(U->getOperand()),
                              nullptr);
  }
  case N::Value::Kind::SVar: {
    auto It = Scalars.find(cast<N::SVarValue>(V)->getId());
    if (It == Scalars.end()) {
      error("host read of unallocated scalar '" +
            cast<N::SVarValue>(V)->getId() + "'");
      return RtVal::makeInt(0);
    }
    return It->second;
  }
  case N::Value::Kind::ScalarConst: {
    const auto *C = cast<N::ScalarConstValue>(V);
    if (C->isInt())
      return RtVal::makeInt(C->getInt());
    if (C->isBool())
      return RtVal::makeBool(C->getBool());
    return RtVal::makeReal(C->getFloat());
  }
  case N::Value::Kind::StrConst:
    error("string constant in host scalar expression");
    return RtVal::makeInt(0);
  case N::Value::Kind::LocalCoord: {
    const auto *LC = cast<N::LocalCoordValue>(V);
    auto It = LoopCoords.find(LC->getDomain());
    if (It == LoopCoords.end() || LC->getDim() > It->second.size()) {
      error("host reference to coordinates of domain '" + LC->getDomain() +
            "' outside its loop");
      return RtVal::makeInt(0);
    }
    return RtVal::makeInt(It->second[LC->getDim() - 1]);
  }
  case N::Value::Kind::AVar: {
    const auto *AV = cast<N::AVarValue>(V);
    const auto *Sub = dyn_cast<N::SubscriptAction>(AV->getAction());
    if (!Sub) {
      error("host scalar evaluation of whole array '" + AV->getId() + "'");
      return RtVal::makeInt(0);
    }
    int Handle = fieldHandle(AV->getId());
    if (Handle < 0) {
      error("host read of unallocated array '" + AV->getId() + "'");
      return RtVal::makeInt(0);
    }
    const runtime::PeArray &A = RT.field(Handle);
    std::vector<int64_t> Coord(Sub->getIndices().size());
    for (size_t D = 0; D < Coord.size(); ++D) {
      int64_t Idx = evalScalar(Sub->getIndices()[D]).asInt();
      int64_t Zero = Idx - A.Geo->Los[D];
      if (Zero < 0 || Zero >= A.Geo->Extents[D]) {
        error("subscript " + std::to_string(Idx) + " out of bounds for '" +
              AV->getId() + "'");
        return RtVal::makeInt(0);
      }
      Coord[D] = Zero;
    }
    double Raw = RT.readElement(Handle, Coord);
    switch (A.Kind) {
    case runtime::ElemKind::Int:
      return RtVal::makeInt(static_cast<int64_t>(Raw));
    case runtime::ElemKind::Bool:
      return RtVal::makeBool(Raw != 0);
    case runtime::ElemKind::Real:
      return RtVal::makeReal(Raw);
    }
    return RtVal::makeReal(Raw);
  }
  case N::Value::Kind::FcnCall: {
    const auto *F = cast<N::FcnCallValue>(V);
    const std::string &Name = F->getCallee();
    if (N::isReductionIntrinsic(Name)) {
      const auto *AV = dyn_cast<N::AVarValue>(F->getArgs()[0]);
      if (!AV || !isa<N::EverywhereAction>(AV->getAction())) {
        error("host reduction over a non-canonical argument");
        return RtVal::makeInt(0);
      }
      int Handle = fieldHandle(AV->getId());
      if (Handle < 0) {
        error("host reduction over unallocated array '" + AV->getId() + "'");
        return RtVal::makeInt(0);
      }
      support::RtResult<double> Red = RT.tryReduce(reduceOpOf(Name), Handle);
      if (!checkComm(Red.status()))
        return RtVal::makeInt(0);
      double R = Red.value();
      if (Name == "count")
        return RtVal::makeInt(static_cast<int64_t>(R));
      if (Name == "any" || Name == "all")
        return RtVal::makeBool(R != 0);
      if (RT.field(Handle).Kind == runtime::ElemKind::Int)
        return RtVal::makeInt(static_cast<int64_t>(R));
      return RtVal::makeReal(R);
    }
    if (Name == "merge") {
      RtVal M = evalScalar(F->getArgs()[2]);
      return evalScalar(F->getArgs()[M.asBool() ? 0 : 1]);
    }
    error("host evaluation of primitive '" + Name + "'");
    return RtVal::makeInt(0);
  }
  }
  return RtVal::makeInt(0);
}

void HostExecutor::execCallPeac(const CallPeacStmt *S) {
  const peac::Routine &R = Program->Routines[S->routineIndex()];
  const runtime::Geometry *Geo = RT.getGeometry(S->extents(), S->los());

  peac::ExecArgs Args;
  Args.NumPEs = static_cast<unsigned>(Geo->GridPEs);
  Args.SubgridElems = Geo->SubgridElems;
  std::vector<int> PtrHandles; ///< FieldPtr args, for trap rollback.
  for (const PeacArgSpec &A : S->args()) {
    switch (A.K) {
    case PeacArgSpec::Kind::FieldPtr: {
      int Handle = fieldHandle(A.Field);
      if (Handle < 0) {
        error("PEAC argument references unallocated array '" + A.Field +
              "'");
        return;
      }
      runtime::PeArray &F = RT.field(Handle);
      if (F.Geo != Geo) {
        error("PEAC argument '" + A.Field +
              "' has a different geometry than the computation block");
        return;
      }
      PtrHandles.push_back(Handle);
      Args.Ptrs.push_back(
          {F.Data.data(), static_cast<size_t>(Geo->PaddedSubgrid), 0});
      break;
    }
    case PeacArgSpec::Kind::CoordPtr: {
      int Handle = RT.coordField(Geo, A.Dim);
      runtime::PeArray &F = RT.field(Handle);
      Args.Ptrs.push_back(
          {F.Data.data(), static_cast<size_t>(Geo->PaddedSubgrid), 0});
      break;
    }
    case PeacArgSpec::Kind::Scalar:
      Args.Scalars.push_back(evalScalar(A.Scalar).asReal());
      break;
    }
  }
  if (Failed)
    return;

  // Checkpoint the writable pointer arguments when node traps are in
  // play: a trapped dispatch leaves real partial stores from the PEs that
  // ran before the fault, and the replay must start from clean state.
  // Coordinate subgrids are compiler-materialized constants no routine
  // writes, so they need no checkpoint.
  support::FaultInjector *FI = RT.faultInjector();
  const bool TrapsEnabled =
      FI && (FI->enabled(support::FaultKind::PeTrap) ||
             FI->enabled(support::FaultKind::FpuException));
  std::vector<std::pair<int, std::vector<double>>> Ckpts;
  if (TrapsEnabled)
    for (int Handle : PtrHandles)
      Ckpts.emplace_back(Handle, RT.snapshotField(Handle));

  runtime::CycleLedger &L = RT.ledger();
  observe::TraceRecorder *Trace = RT.trace();
  observe::MetricsRegistry *Metrics = RT.metrics();
  const double BeforeTotal = L.total();
  unsigned Replays = 0;
  double HiddenCommCycles = 0;

  // Records the dispatch as one cycle-domain span bracketed by ledger
  // totals. Called after the overlap accounting below, so the span's
  // duration is the dispatch's *net* timeline contribution and cycle
  // spans keep tiling the ledger exactly even under -overlap.
  auto NoteDispatch = [&](const peac::ExecResult &Res, bool Ok) {
    if (Trace) {
      std::string Extents;
      for (int64_t E : S->extents()) {
        if (!Extents.empty())
          Extents += 'x';
        Extents += std::to_string(E);
      }
      std::vector<observe::TraceArg> A;
      A.push_back(observe::arg("block",
                               static_cast<uint64_t>(S->routineIndex())));
      A.push_back(observe::arg("extents", Extents));
      A.push_back(observe::arg("subgrid_elems",
                               static_cast<int64_t>(Geo->SubgridElems)));
      A.push_back(observe::arg("pes", static_cast<int64_t>(Geo->GridPEs)));
      A.push_back(observe::arg("node_cycles", Res.NodeCycles));
      A.push_back(observe::arg("call_cycles", Res.CallCycles));
      A.push_back(observe::arg("flops", Res.Flops));
      if (Replays)
        A.push_back(observe::arg("replays", static_cast<uint64_t>(Replays)));
      if (HiddenCommCycles > 0)
        A.push_back(observe::arg("hidden_comm_cycles", HiddenCommCycles));
      if (!Ok)
        A.push_back(observe::arg("status", "fault"));
      Trace->cycleSpan(R.Name, "peac", BeforeTotal, L.total(), std::move(A));
    }
    if (Metrics) {
      Metrics->count("peac.calls");
      Metrics->countCycles("peac.cycles", L.total() - BeforeTotal);
      Metrics->observe("peac.subgrid_elems",
                       static_cast<double>(Args.SubgridElems));
      if (Replays)
        Metrics->count("fault.replays", Replays);
    }
  };

  // Dispatch through the runtime's execution engine when one is attached
  // (the driver always attaches one; -exec= selects its kind). Standalone
  // CmRuntime users without an engine get the reference interpreter -
  // the two are bit-identical, so this is purely a host-speed choice.
  peac::ExecutionEngine *Engine = RT.execEngine();
  peac::ExecResult Res;
  for (unsigned Attempt = 1;; ++Attempt) {
    Res = Engine ? Engine->execute(R, Args, RT.costs(), RT.threadPool(), FI,
                                   Metrics)
                 : peac::execute(R, Args, RT.costs(), RT.threadPool(), FI,
                                 Metrics);
    // Each attempt charges in full: the machine really ran (and, on a
    // trap, really trapped), so replays make the ledger strictly larger.
    L.NodeCycles += Res.NodeCycles;
    L.CallCycles += Res.CallCycles;
    L.Flops += Res.Flops;
    if (Res.Status.isOk())
      break;
    if (Attempt > runtime::CmRuntime::MaxFaultRetries) {
      NoteDispatch(Res, /*Ok=*/false);
      error("PEAC dispatch of '" + R.Name +
            "' failed permanently: " + Res.Status.str());
      return;
    }
    for (const auto &[Handle, Saved] : Ckpts)
      RT.restoreField(Handle, Saved);
    ++FI->counters().Replays;
    ++Replays;
    L.CallCycles += static_cast<double>(RT.costs().FaultRetryBackoffCycles) *
                    Attempt;
    if (Trace)
      Trace->cycleInstant("replay", "fault", L.total(),
                          {observe::arg("routine", R.Name),
                           observe::arg("attempt",
                                        static_cast<uint64_t>(Attempt))});
  }

  // Overlap credit lands before NoteDispatch: the span's bracket then
  // reflects the dispatch's net timeline contribution, so cycle spans
  // keep tiling the ledger exactly under -comm=overlap.
  HiddenCommCycles =
      overlapAgainstPending(Res.NodeCycles + Res.CallCycles, PtrHandles);
  NoteDispatch(Res, /*Ok=*/true);
}

void HostExecutor::exec(const HostStmt *S) {
  if (Failed || !S)
    return;
  if (MaxSteps && ++Steps > MaxSteps) {
    error("watchdog: run exceeded the -max-steps limit of " +
          std::to_string(MaxSteps) + " host statements");
    return;
  }
  if (observe::MetricsRegistry *M = RT.metrics())
    M->count("exec.statements");
  runtime::CycleLedger &L = RT.ledger();

  switch (S->getKind()) {
  case HostStmt::Kind::Seq:
    for (const auto &Sub : cast<SeqStmt>(S)->stmts())
      exec(Sub.get());
    return;
  case HostStmt::Kind::AllocScope: {
    const auto *A = cast<AllocScopeStmt>(S);
    for (const auto &F : A->fields()) {
      const runtime::Geometry *Geo = RT.getGeometry(F.Extents, F.Los);
      support::RtResult<int> Alloc = RT.tryAllocField(Geo, F.Kind);
      if (!Alloc.isOk()) {
        error("allocation of array '" + F.Name +
              "' failed: " + Alloc.status().str());
        return;
      }
      int Handle = Alloc.value();
      FieldHandles[F.Name] = Handle;
      if (!F.Offsets.empty())
        RT.setFieldLayout(Handle, F.AxisMap, F.Offsets);
      auto Preset = PresetArrays.find(F.Name);
      if (Preset != PresetArrays.end()) {
        // Seed row-major values through element writes (free of charge:
        // test scaffolding, not program execution).
        double SavedComm = L.CommCycles;
        std::vector<int64_t> Coord(F.Extents.size(), 0);
        size_t I = 0;
        bool Done = F.Extents.empty();
        while (!Done && I < Preset->second.size()) {
          RT.writeElement(Handle, Coord, Preset->second[I++]);
          size_t K = F.Extents.size();
          Done = true;
          while (K-- > 0) {
            if (++Coord[K] < F.Extents[K]) {
              Done = false;
              break;
            }
            Coord[K] = 0;
          }
        }
        L.CommCycles = SavedComm;
      }
      L.HostCycles += RT.costs().HostStatementCycles;
    }
    for (const auto &Sc : A->scalars()) {
      Scalars[Sc.Name] = convertFor(RtVal::makeInt(0), Sc.Kind);
      ScalarKinds[Sc.Name] = Sc.Kind;
    }
    exec(A->body());
    // Free transformation temporaries on scope exit; top-level (keep-
    // alive) allocations survive for post-run inspection.
    if (!A->keepAlive()) {
      for (const auto &F : A->fields()) {
        auto It = FieldHandles.find(F.Name);
        if (It != FieldHandles.end()) {
          RT.freeField(It->second);
          FieldHandles.erase(It);
        }
      }
    }
    return;
  }
  case HostStmt::Kind::ScalarAssign: {
    const auto *A = cast<ScalarAssignStmt>(S);
    flushPendingComm(); // Host expressions may read any field element.
    L.HostCycles += RT.costs().HostStatementCycles;
    if (A->guard() && !evalScalar(A->guard()).asBool())
      return;
    RtVal V = evalScalar(A->expr());
    auto KindIt = ScalarKinds.find(A->name());
    if (KindIt == ScalarKinds.end()) {
      error("host write to unallocated scalar '" + A->name() + "'");
      return;
    }
    Scalars[A->name()] = convertFor(V, KindIt->second);
    return;
  }
  case HostStmt::Kind::ElementMove: {
    const auto *M = cast<ElementMoveStmt>(S);
    flushPendingComm();
    L.HostCycles += RT.costs().HostStatementCycles;
    if (M->guard() && !evalScalar(M->guard()).asBool())
      return;
    int Handle = fieldHandle(M->array());
    if (Handle < 0) {
      error("element store to unallocated array '" + M->array() + "'");
      return;
    }
    const runtime::PeArray &A = RT.field(Handle);
    std::vector<int64_t> Coord(M->indices().size());
    for (size_t D = 0; D < Coord.size(); ++D) {
      int64_t Idx = evalScalar(M->indices()[D]).asInt();
      int64_t Zero = Idx - A.Geo->Los[D];
      if (Zero < 0 || Zero >= A.Geo->Extents[D]) {
        error("subscript " + std::to_string(Idx) + " out of bounds for '" +
              M->array() + "'");
        return;
      }
      Coord[D] = Zero;
    }
    double V = evalScalar(M->expr()).asReal();
    if (A.Kind == runtime::ElemKind::Int)
      V = std::trunc(V);
    else if (A.Kind == runtime::ElemKind::Bool)
      V = V != 0 ? 1 : 0;
    if (Deferred)
      Deferred->push_back({Handle, Coord, V});
    else
      RT.writeElement(Handle, Coord, V);
    return;
  }
  case HostStmt::Kind::CallPeac:
    execCallPeac(cast<CallPeacStmt>(S));
    return;
  case HostStmt::Kind::Shift: {
    const auto *Sh = cast<ShiftStmt>(S);
    int Src = fieldHandle(Sh->src());
    bool Unallocated = Src < 0;
    std::vector<runtime::CmRuntime::ShiftSpec> Specs;
    for (const ShiftStmt::Clause &C : Sh->clauses()) {
      Specs.push_back({fieldHandle(C.Dst), C.Shift});
      Unallocated |= Specs.back().Dst < 0;
    }
    if (Unallocated) {
      error("shift references an unallocated array");
      return;
    }
    double Before = L.CommCycles;
    support::RtStatus St;
    if (Specs.size() != 1)
      St = RT.multiShift(Specs, Src, Sh->dim(), Sh->isEndOff());
    else if (Sh->isEndOff())
      St = RT.eoshift(Specs[0].Dst, Src, Sh->dim(), Specs[0].Shift);
    else
      St = RT.cshift(Specs[0].Dst, Src, Sh->dim(), Specs[0].Shift);
    if (!checkComm(St))
      return;
    for (const ShiftStmt::Clause &C : Sh->clauses())
      if (C.isRealigned() && RT.trace())
        RT.trace()->cycleInstant(
            "layout-realigned", "comm", L.total(),
            {observe::arg("dst", C.Dst), observe::arg("src", Sh->src()),
             observe::arg("logical_shift", C.Logical),
             observe::arg("physical_shift", C.Shift)});
    // In-flight handles, in the order checkpoints record them: {dst, src}
    // for one clause, {src, dst...} for more.
    std::vector<int> Handles{Src};
    for (const runtime::CmRuntime::ShiftSpec &Spec : Specs)
      Handles.push_back(Spec.Dst);
    if (Specs.size() == 1)
      std::swap(Handles[0], Handles[1]);
    beginPendingComm(L.CommCycles - Before, Handles);
    return;
  }
  case HostStmt::Kind::SectionCopy: {
    const auto *C = cast<SectionCopyStmt>(S);
    int Dst = fieldHandle(C->dst()), Src = fieldHandle(C->src());
    if (Dst < 0 || Src < 0) {
      error("section copy references an unallocated array");
      return;
    }
    double Before = L.CommCycles;
    if (!checkComm(RT.sectionCopy(Dst, C->dstSec(), Src, C->srcSec())))
      return;
    beginPendingComm(L.CommCycles - Before, {Dst, Src});
    return;
  }
  case HostStmt::Kind::Transpose: {
    const auto *T = cast<TransposeStmt>(S);
    int Dst = fieldHandle(T->dst()), Src = fieldHandle(T->src());
    if (Dst < 0 || Src < 0) {
      error("transpose references an unallocated array");
      return;
    }
    double Before = L.CommCycles;
    if (!checkComm(RT.transpose(Dst, Src)))
      return;
    beginPendingComm(L.CommCycles - Before, {Dst, Src});
    return;
  }
  case HostStmt::Kind::Reduce: {
    const auto *R = cast<ReduceStmt>(S);
    flushPendingComm(); // The front end consumes the result immediately.
    int Src = fieldHandle(R->src());
    if (Src < 0) {
      error("reduction over unallocated array '" + R->src() + "'");
      return;
    }
    support::RtResult<double> V = RT.tryReduce(R->op(), Src);
    if (!checkComm(V.status()))
      return;
    auto KindIt = ScalarKinds.find(R->dstScalar());
    if (KindIt == ScalarKinds.end()) {
      error("reduction into unallocated scalar '" + R->dstScalar() + "'");
      return;
    }
    Scalars[R->dstScalar()] =
        convertFor(RtVal::makeReal(V.value()), KindIt->second);
    return;
  }
  case HostStmt::Kind::ReduceDim: {
    const auto *R = cast<ReduceDimStmt>(S);
    int Dst = fieldHandle(R->dst()), Src = fieldHandle(R->src());
    if (Dst < 0 || Src < 0) {
      error("partial reduction references an unallocated array");
      return;
    }
    double Before = L.CommCycles;
    if (!checkComm(RT.reduceAlongDim(R->op(), Dst, Src, R->dim())))
      return;
    beginPendingComm(L.CommCycles - Before, {Dst, Src});
    return;
  }
  case HostStmt::Kind::Spread: {
    const auto *Sp = cast<SpreadStmt>(S);
    int Dst = fieldHandle(Sp->dst()), Src = fieldHandle(Sp->src());
    if (Dst < 0 || Src < 0) {
      error("spread references an unallocated array");
      return;
    }
    double Before = L.CommCycles;
    if (!checkComm(RT.spreadAlongDim(Dst, Src, Sp->dim())))
      return;
    beginPendingComm(L.CommCycles - Before, {Dst, Src});
    return;
  }
  case HostStmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    flushPendingComm(); // Conditions may read reduced/loaded state.
    L.HostCycles += RT.costs().HostStatementCycles;
    if (evalScalar(If->cond()).asBool())
      exec(If->thenStmt());
    else
      exec(If->elseStmt());
    return;
  }
  case HostStmt::Kind::While:
    execWhile(cast<WhileStmt>(S));
    return;
  case HostStmt::Kind::SerialDo:
  case HostStmt::Kind::ParallelLoop:
    execLoop(S);
    return;
  case HostStmt::Kind::Print: {
    const auto *P = cast<PrintStmt>(S);
    flushPendingComm();
    L.HostCycles += RT.costs().HostStatementCycles;
    std::string Line;
    bool First = true;
    for (const N::Value *Item : P->items()) {
      if (!First)
        Line += ' ';
      First = false;
      if (const auto *Str = dyn_cast<N::StrConstValue>(Item)) {
        Line += Str->getStr();
        continue;
      }
      if (const auto *AV = dyn_cast<N::AVarValue>(Item)) {
        if (isa<N::EverywhereAction>(AV->getAction())) {
          int Handle = fieldHandle(AV->getId());
          if (Handle < 0) {
            error("PRINT of unallocated array '" + AV->getId() + "'");
            return;
          }
          support::RtResult<std::string> Rendered = RT.tryRenderField(Handle);
          if (!checkComm(Rendered.status()))
            return;
          Line += Rendered.value();
          continue;
        }
      }
      Line += evalScalar(Item).str();
    }
    Output += Line;
    Output += '\n';
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Loops and step boundaries
//===----------------------------------------------------------------------===//

void HostExecutor::execLoop(const HostStmt *S,
                            const std::vector<int64_t> *ResumeFrom,
                            uint32_t ResumeId) {
  bool Parallel = S->getKind() == HostStmt::Kind::ParallelLoop;
  const std::string &Domain =
      Parallel ? cast<ParallelLoopStmt>(S)->domain()
               : cast<SerialDoStmt>(S)->domain();
  const std::vector<int64_t> &Los = Parallel
                                        ? cast<ParallelLoopStmt>(S)->los()
                                        : cast<SerialDoStmt>(S)->los();
  const std::vector<int64_t> &His = Parallel
                                        ? cast<ParallelLoopStmt>(S)->his()
                                        : cast<SerialDoStmt>(S)->his();
  const HostStmt *Body = Parallel ? cast<ParallelLoopStmt>(S)->body()
                                  : cast<SerialDoStmt>(S)->body();
  runtime::CycleLedger &L = RT.ledger();

  // Depth-0 serial loops are the run's step loops: each completed
  // iteration is a checkpointable boundary, and the loop takes the next
  // entry-order id (a resume continuation reuses the checkpointed id).
  const bool StepLoop = !Parallel && LoopDepth == 0;
  const uint32_t Id = ResumeFrom ? ResumeId : (StepLoop ? LoopSeq++ : 0);

  std::vector<DeferredWrite> Writes;
  std::vector<DeferredWrite> *Saved = Deferred;
  if (Parallel)
    Deferred = &Writes;

  std::vector<int64_t> Coord;
  bool SkipBody = false;
  bool Empty = false;
  if (ResumeFrom) {
    // The checkpointed iteration already ran to completion; advance past
    // its coordinate before executing anything.
    Coord = *ResumeFrom;
    SkipBody = true;
  } else {
    Coord = Los;
    for (size_t D = 0; D < Los.size(); ++D)
      if (His[D] < Los[D])
        Empty = true;
  }
  while (!Empty && !Failed) {
    if (!SkipBody) {
      LoopCoords[Domain] = Coord;
      L.HostCycles += RT.costs().HostStatementCycles;
      ++LoopDepth;
      exec(Body);
      --LoopDepth;
      if (StepLoop && !Failed)
        stepBoundary(Id, Domain, &Coord);
    }
    SkipBody = false;
    size_t K = Coord.size();
    bool Done = true;
    while (K-- > 0) {
      if (++Coord[K] <= His[K]) {
        Done = false;
        break;
      }
      Coord[K] = Los[K];
    }
    if (Done)
      break;
  }
  LoopCoords.erase(Domain);
  if (Parallel) {
    Deferred = Saved;
    if (Deferred) {
      for (DeferredWrite &W : Writes)
        Deferred->push_back(std::move(W));
    } else {
      for (const DeferredWrite &W : Writes)
        RT.writeElement(W.Handle, W.Coord, W.V);
    }
  }
}

void HostExecutor::execWhile(const WhileStmt *W, const uint32_t *ResumeId) {
  const bool StepLoop = LoopDepth == 0;
  const uint32_t Id = ResumeId ? *ResumeId : (StepLoop ? LoopSeq++ : 0);
  runtime::CycleLedger &L = RT.ledger();
  // A resumed WHILE must not flush: the checkpoint's in-flight exchange
  // was just reinstated, and the original run's pre-loop flush happened
  // before the checkpointed iteration.
  if (!ResumeId)
    flushPendingComm();
  uint64_t Iterations = 0;
  while (!Failed && evalScalar(W->cond()).asBool()) {
    L.HostCycles += RT.costs().HostStatementCycles;
    ++LoopDepth;
    exec(W->body());
    --LoopDepth;
    if (StepLoop && !Failed)
      stepBoundary(Id, std::string(), nullptr);
    if (++Iterations > 100000000ull) {
      error("host WHILE exceeded the iteration bound");
      return;
    }
  }
}

void HostExecutor::stepBoundary(uint32_t LoopId, const std::string &Domain,
                                const std::vector<int64_t> *Coord) {
  ++StepIndex;
  if (!Ckpt)
    return;
  if (Ckpt->shouldWrite(StepIndex)) {
    runtime::ckpt::CheckpointState S =
        buildCheckpointState(LoopId, Domain, Coord);
    support::RtStatus St = Ckpt->write(S);
    if (!St.isOk()) {
      error("checkpoint write failed: " + St.str());
      return;
    }
  }
  Ckpt->maybeCrash(StepIndex);
}

//===----------------------------------------------------------------------===//
// Checkpoint snapshot and restore
//===----------------------------------------------------------------------===//

runtime::ckpt::CheckpointState
HostExecutor::buildCheckpointState(uint32_t LoopId, const std::string &Domain,
                                   const std::vector<int64_t> *Coord) {
  runtime::ckpt::CheckpointState S;
  S.StepIndex = StepIndex;
  S.LoopId = LoopId;
  S.LoopDomain = Domain;
  if (Coord)
    S.LoopCoord = *Coord;
  S.StepsExecuted = Steps;
  S.Ledger = RT.ledger();
  S.Output = Output;

  // Fields travel by name (FieldHandles is sorted, so the section order
  // is deterministic); handle numbers can differ in a resumed process.
  for (const auto &[Name, Handle] : FieldHandles) {
    if (!RT.isLiveField(Handle))
      continue;
    const runtime::PeArray &F = RT.field(Handle);
    runtime::ckpt::CheckpointState::FieldImage Img;
    Img.Name = Name;
    Img.Kind = static_cast<uint8_t>(F.Kind);
    Img.Extents = F.Geo->Extents;
    Img.Los = F.Geo->Los;
    Img.AxisMap = F.AxisMap;
    Img.Offsets = F.LayoutOffsets;
    Img.Data = F.Data;
    S.Fields.push_back(std::move(Img));
  }
  for (const auto &[Name, V] : Scalars) {
    runtime::ckpt::CheckpointState::ScalarImage Sc;
    Sc.Name = Name;
    auto KindIt = ScalarKinds.find(Name);
    Sc.StorageKind = static_cast<uint8_t>(KindIt != ScalarKinds.end()
                                              ? KindIt->second
                                              : runtime::ElemKind::Real);
    Sc.ValKind = static_cast<uint8_t>(V.K);
    Sc.I = V.I;
    Sc.R = V.R;
    Sc.B = V.B ? 1 : 0;
    S.Scalars.push_back(std::move(Sc));
  }
  if (const support::FaultInjector *FI = RT.faultInjector()) {
    S.HasFaults = 1;
    S.FaultSeed = FI->seed();
    for (unsigned K = 0; K < support::NumFaultKinds; ++K)
      S.FaultProb[K] = FI->spec().Prob[K];
    S.Faults = FI->snapshotState();
  }
  S.PendingRemaining = RT.pendingCommRemaining();
  if (S.PendingRemaining > 0) {
    // Map the in-flight handles back to names; every comm operand is a
    // named program field.
    for (int H : RT.pendingCommHandles())
      for (const auto &[Name, Handle] : FieldHandles)
        if (Handle == H) {
          S.PendingFields.push_back(Name);
          break;
        }
  }
  if (const observe::MetricsRegistry *M = RT.metrics()) {
    S.HasMetrics = 1;
    S.Metrics = M->snapshot();
  }
  return S;
}

bool HostExecutor::applyRestore(const runtime::ckpt::CheckpointState &S) {
  for (const auto &Img : S.Fields) {
    auto It = FieldHandles.find(Img.Name);
    if (It == FieldHandles.end()) {
      error("restore: field '" + Img.Name +
            "' is not allocated at the resume point");
      return false;
    }
    runtime::PeArray &F = RT.field(It->second);
    if (static_cast<uint8_t>(F.Kind) != Img.Kind ||
        F.Geo->Extents != Img.Extents || F.Geo->Los != Img.Los ||
        F.Data.size() != Img.Data.size()) {
      error("restore: field '" + Img.Name +
            "' has a different shape than the checkpoint");
      return false;
    }
    if (F.AxisMap != Img.AxisMap || F.LayoutOffsets != Img.Offsets) {
      error("restore: field '" + Img.Name +
            "' has a different storage layout than the checkpoint "
            "(layout mode or solved placement changed)");
      return false;
    }
    // Direct store, not CmRuntime::restoreField: this is state
    // reinstatement, not a fault rollback, and must not count as one.
    F.Data = Img.Data;
  }
  for (const auto &Sc : S.Scalars) {
    RtVal V;
    V.K = static_cast<RtVal::Kind>(Sc.ValKind);
    V.I = Sc.I;
    V.R = Sc.R;
    V.B = Sc.B != 0;
    Scalars[Sc.Name] = V;
    ScalarKinds[Sc.Name] = static_cast<runtime::ElemKind>(Sc.StorageKind);
  }
  Output = S.Output;
  Steps = S.StepsExecuted;
  StepIndex = S.StepIndex;
  RT.ledger() = S.Ledger;
  if (support::FaultInjector *FI = RT.faultInjector())
    if (S.HasFaults)
      FI->restoreState(S.Faults);
  std::vector<int> PendingHandles;
  for (const std::string &Name : S.PendingFields) {
    auto It = FieldHandles.find(Name);
    if (It != FieldHandles.end())
      PendingHandles.push_back(It->second);
  }
  RT.restorePendingComm(S.PendingRemaining, std::move(PendingHandles));
  if (S.HasMetrics) {
    if (observe::MetricsRegistry *M = RT.metrics()) {
      // Keep this process's ckpt.restore.* account across the wholesale
      // replacement: the checkpoint predates the restore that loaded it.
      std::vector<observe::MetricsRegistry::Sample> Mine = M->snapshot();
      M->restore(S.Metrics);
      for (const auto &Smp : Mine) {
        if (Smp.Name.rfind("ckpt.restore.", 0) != 0)
          continue;
        if (Smp.Kind == 0)
          M->count(Smp.Name, Smp.Count);
        else if (Smp.Kind == 1)
          M->countCycles(Smp.Name, Smp.Value);
      }
    }
  }
  // Re-warm the compiled-engine cache up front, where the original run
  // paid the translation cost (a fresh process starts cold).
  if (peac::ExecutionEngine *E = RT.execEngine())
    E->warmup(Program->Routines, RT.metrics());
  return true;
}

//===----------------------------------------------------------------------===//
// Structural replay toward the resume point
//===----------------------------------------------------------------------===//

void HostExecutor::execRestore(const HostStmt *S) {
  if (Failed || !S || !Restoring)
    return;
  switch (S->getKind()) {
  case HostStmt::Kind::Seq:
    for (const auto &Sub : cast<SeqStmt>(S)->stmts()) {
      if (Failed)
        return;
      if (Restoring)
        execRestore(Sub.get());
      else
        exec(Sub.get()); // Post-resume statements run normally.
    }
    return;
  case HostStmt::Kind::AllocScope: {
    const auto *A = cast<AllocScopeStmt>(S);
    // Rebuild the allocation structure with no cycle charges, no presets,
    // and no injector draws: contents, ledger, and the fault schedule
    // position all arrive wholesale with applyRestore.
    for (const auto &F : A->fields()) {
      const runtime::Geometry *Geo = RT.getGeometry(F.Extents, F.Los);
      int Handle = RT.allocField(Geo, F.Kind);
      FieldHandles[F.Name] = Handle;
      if (!F.Offsets.empty())
        RT.setFieldLayout(Handle, F.AxisMap, F.Offsets);
    }
    for (const auto &Sc : A->scalars()) {
      Scalars[Sc.Name] = convertFor(RtVal::makeInt(0), Sc.Kind);
      ScalarKinds[Sc.Name] = Sc.Kind;
    }
    execRestore(A->body());
    if (!A->keepAlive()) {
      for (const auto &F : A->fields()) {
        auto It = FieldHandles.find(F.Name);
        if (It != FieldHandles.end()) {
          RT.freeField(It->second);
          FieldHandles.erase(It);
        }
      }
    }
    return;
  }
  case HostStmt::Kind::SerialDo: {
    const auto *D = cast<SerialDoStmt>(S);
    uint32_t Id = LoopSeq++;
    if (Id != Restore->LoopId)
      return; // Ran to completion before the checkpoint; skip.
    if (D->domain() != Restore->LoopDomain ||
        Restore->LoopCoord.size() != D->los().size()) {
      error("restore: checkpoint does not match outermost loop " +
            std::to_string(Id) + " (domain '" + Restore->LoopDomain +
            "' vs '" + D->domain() + "')");
      return;
    }
    if (!applyRestore(*Restore))
      return;
    std::vector<int64_t> From = Restore->LoopCoord;
    Restoring = false;
    Restore.reset();
    execLoop(D, &From, Id);
    return;
  }
  case HostStmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    uint32_t Id = LoopSeq++;
    if (Id != Restore->LoopId)
      return;
    if (!Restore->LoopDomain.empty() || !Restore->LoopCoord.empty()) {
      error("restore: checkpoint loop " + std::to_string(Id) +
            " is a WHILE here but carried a DO coordinate");
      return;
    }
    if (!applyRestore(*Restore))
      return;
    Restoring = false;
    Restore.reset();
    execWhile(W, &Id);
    return;
  }
  default:
    // Skipped: the statement's effects are part of the restored state.
    // Note an outermost loop nested under IF is therefore unreachable by
    // replay; run() reports that as a structured error.
    return;
  }
}
