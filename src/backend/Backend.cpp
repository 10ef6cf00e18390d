//===- backend/Backend.cpp - CM2/NIR compiler (host/node partitioner) -------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"

#include "nir/Clause.h"
#include "nir/Printer.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "transform/Phases.h"

using namespace f90y;
using namespace f90y::backend;
using namespace f90y::host;
namespace N = f90y::nir;

std::string CompiledProgram::peacListing() const {
  std::string Out;
  for (const peac::Routine &R : Program.Routines) {
    Out += R.str();
    Out += '\n';
  }
  return Out;
}

namespace {

class FECompiler {
public:
  FECompiler(const BackendOptions &Opts, DiagnosticEngine &Diags)
      : Opts(Opts), Diags(Diags) {}

  std::optional<CompiledProgram> run(const N::ProgramImp *Program) {
    CompiledProgram Out;
    Out.Program.Name = Program->getName();
    Routines = &Out.Program.Routines;
    std::unique_ptr<HostStmt> Body = compileImp(Program->getBody());
    if (Failed)
      return std::nullopt;
    Out.Program.Body = Body ? std::move(Body)
                            : std::make_unique<SeqStmt>(
                                  std::vector<std::unique_ptr<HostStmt>>{});
    return Out;
  }

private:
  const BackendOptions &Opts;
  DiagnosticEngine &Diags;
  std::vector<peac::Routine> *Routines = nullptr;
  N::DomainEnv Domains;
  N::ElemTypeInference Types;
  bool SawTopScope = false;
  bool Failed = false;

  void error(const std::string &Msg) {
    if (!Failed)
      Diags.error(SourceLocation(), Msg);
    Failed = true;
  }

  static runtime::ElemKind elemKindOfType(const N::Type *T) {
    switch (T->getKind()) {
    case N::Type::Kind::Integer32:
      return runtime::ElemKind::Int;
    case N::Type::Kind::Logical32:
      return runtime::ElemKind::Bool;
    default:
      return runtime::ElemKind::Real;
    }
  }

  /// Sizes and lower bounds of a shape, resolved through the domain
  /// environment.
  bool shapeGeometry(const N::Shape *S, std::vector<int64_t> &Sizes,
                     std::vector<int64_t> &Los,
                     std::vector<bool> *Serial = nullptr) {
    std::vector<N::ShapeExtent> Exts;
    if (!N::shapeExtents(S, Domains, Exts))
      return false;
    Sizes.clear();
    Los.clear();
    for (const N::ShapeExtent &E : Exts) {
      Sizes.push_back(E.size());
      Los.push_back(E.Lo);
      if (Serial)
        Serial->push_back(E.Serial);
    }
    return true;
  }

  /// Geometry (sizes, los) of the array \p AV reads, from its declared
  /// dfield type.
  bool arrayGeometry(const N::AVarValue *AV, std::vector<int64_t> &Sizes,
                     std::vector<int64_t> &Los) {
    const auto *FT =
        dyn_cast_or_null<N::DFieldType>(Types.lookup(AV->getSymbol()));
    if (!FT)
      return false;
    return shapeGeometry(FT->getShape(), Sizes, Los);
  }

  std::unique_ptr<HostStmt> seqOf(std::vector<std::unique_ptr<HostStmt>> V) {
    if (V.size() == 1)
      return std::move(V[0]);
    return std::make_unique<SeqStmt>(std::move(V));
  }

  /// The runtime call of one shift exchange (a single shift, or the
  /// clauses of nir::matchExchange).
  static std::unique_ptr<HostStmt>
  shiftStmt(const std::vector<N::ShiftClause> &Shifts) {
    std::vector<ShiftStmt::Clause> Clauses;
    for (const N::ShiftClause &S : Shifts)
      Clauses.push_back({S.Dst->getId(), S.Shift, S.Logical});
    const N::ShiftClause &First = Shifts.front();
    return std::make_unique<ShiftStmt>(First.Src->getId(),
                                       static_cast<unsigned>(First.Dim),
                                       First.EndOff, std::move(Clauses));
  }

  std::unique_ptr<HostStmt> compileImp(const N::Imp *I);
  std::unique_ptr<HostStmt> compileMove(const N::MoveImp *M);
  std::unique_ptr<HostStmt> compileComputationMove(const N::MoveImp *M);
  std::unique_ptr<HostStmt> compileCommClause(const N::MoveClause &C);
  std::unique_ptr<HostStmt> compileHostClause(const N::MoveClause &C);

  /// Expands a field action into zero-based SectionDims over the array's
  /// declared geometry.
  bool expandSection(const N::AVarValue *AV,
                     std::vector<runtime::CmRuntime::SectionDim> &Out) {
    const N::FieldAction *F = AV->getAction();
    std::vector<int64_t> Sizes, Los;
    if (!arrayGeometry(AV, Sizes, Los))
      return false;
    Out.clear();
    if (isa<N::EverywhereAction>(F)) {
      for (size_t D = 0; D < Sizes.size(); ++D)
        Out.push_back({0, 1, Sizes[D]});
      return true;
    }
    const auto *Sec = dyn_cast<N::SectionAction>(F);
    if (!Sec)
      return false;
    for (size_t D = 0; D < Sec->getTriplets().size(); ++D) {
      const N::SectionTriplet &T = Sec->getTriplets()[D];
      if (T.All) {
        Out.push_back({0, 1, Sizes[D]});
        continue;
      }
      int64_t Lo = Los[D], Hi = Los[D] + Sizes[D] - 1;
      Out.push_back({T.Lo - Lo, T.Stride, T.count(Lo, Hi)});
    }
    return true;
  }
};

std::unique_ptr<HostStmt>
FECompiler::compileComputationMove(const N::MoveImp *M) {
  const N::Symbol *Domain = transform::computationDomainOf(M, Types);
  if (!Domain) {
    error("cannot determine the domain of a computation phase");
    return nullptr;
  }
  const N::Shape *S = Domains.lookup(Domain);
  std::vector<int64_t> Sizes, Los;
  std::vector<bool> Serial;
  if (!S || !shapeGeometry(S, Sizes, Los, &Serial)) {
    error("cannot resolve the shape of domain '" + Domain->Name + "'");
    return nullptr;
  }
  for (bool B : Serial)
    if (B) {
      error("computation phase over a serial domain");
      return nullptr;
    }

  unsigned Index = static_cast<unsigned>(Routines->size());
  std::optional<PEResult> PE =
      backend::compileComputation(M, Domain, Types, Opts.PE, Index, Diags);
  if (!PE) {
    Failed = true;
    return nullptr;
  }
  Routines->push_back(std::move(PE->Routine));
  return std::make_unique<CallPeacStmt>(Index, std::move(PE->Args),
                                        std::move(Sizes), std::move(Los));
}

std::unique_ptr<HostStmt>
FECompiler::compileCommClause(const N::MoveClause &C) {
  if (!N::isTrueGuard(C.Guard)) {
    error("masked communication is not supported by the CM runtime model");
    return nullptr;
  }
  if (std::optional<N::ShiftClause> S = N::matchShift(C))
    return shiftStmt({*S});

  // Reduction: dst SVar, src FCNCALL(red, [AVAR everywhere]).
  if (const auto *SV = dyn_cast<N::SVarValue>(C.Dst)) {
    const auto *F = dyn_cast<N::FcnCallValue>(C.Src);
    const auto *Arg =
        F && !F->getArgs().empty()
            ? dyn_cast<N::AVarValue>(F->getArgs()[0])
            : nullptr;
    if (!F || !N::isReductionIntrinsic(F->getCallee()) || !Arg ||
        !isa<N::EverywhereAction>(Arg->getAction())) {
      error("unsupported scalar communication pattern: " +
            N::printValue(C.Src));
      return nullptr;
    }
    return std::make_unique<ReduceStmt>(
        SV->getId(), host::reduceOpOf(F->getCallee()), Arg->getId());
  }

  const auto *DstAV = dyn_cast<N::AVarValue>(C.Dst);
  if (!DstAV) {
    error("unsupported communication destination");
    return nullptr;
  }

  // Partial reduction: FCNCALL(red, [AVAR, dim]).
  if (const auto *F = dyn_cast<N::FcnCallValue>(C.Src)) {
    if (N::isReductionIntrinsic(F->getCallee()) &&
        F->getArgs().size() == 2) {
      const auto *Arg = dyn_cast<N::AVarValue>(F->getArgs()[0]);
      const auto *Dm = dyn_cast<N::ScalarConstValue>(F->getArgs()[1]);
      if (!Arg || !isa<N::EverywhereAction>(Arg->getAction()) || !Dm ||
          !isa<N::EverywhereAction>(DstAV->getAction())) {
        error("unsupported partial-reduction pattern: " +
              N::printValue(C.Src));
        return nullptr;
      }
      return std::make_unique<ReduceDimStmt>(
          DstAV->getId(), host::reduceOpOf(F->getCallee()), Arg->getId(),
          static_cast<unsigned>(Dm->getInt()));
    }
    if (F->getCallee() == "transpose") {
      const auto *Arg = dyn_cast<N::AVarValue>(F->getArgs()[0]);
      if (!Arg || !isa<N::EverywhereAction>(Arg->getAction()) ||
          !isa<N::EverywhereAction>(DstAV->getAction())) {
        error("unsupported transpose pattern");
        return nullptr;
      }
      return std::make_unique<TransposeStmt>(DstAV->getId(), Arg->getId());
    }
    if (F->getCallee() == "spread") {
      const auto *Arg = dyn_cast<N::AVarValue>(F->getArgs()[0]);
      const auto *Dm = dyn_cast<N::ScalarConstValue>(F->getArgs()[1]);
      if (!Arg || !isa<N::EverywhereAction>(Arg->getAction()) || !Dm ||
          !isa<N::EverywhereAction>(DstAV->getAction())) {
        error("unsupported spread pattern");
        return nullptr;
      }
      return std::make_unique<SpreadStmt>(
          DstAV->getId(), Arg->getId(),
          static_cast<unsigned>(Dm->getInt()));
    }
    error("unsupported communication pattern: " + N::printValue(C.Src));
    return nullptr;
  }

  // Misaligned section copy: both sides bare AVARs.
  if (const auto *SrcAV = dyn_cast<N::AVarValue>(C.Src)) {
    std::vector<runtime::CmRuntime::SectionDim> DstSec, SrcSec;
    if (!expandSection(DstAV, DstSec) || !expandSection(SrcAV, SrcSec)) {
      error("cannot expand section geometry");
      return nullptr;
    }
    return std::make_unique<SectionCopyStmt>(DstAV->getId(), DstSec,
                                             SrcAV->getId(), SrcSec);
  }

  error("misaligned-section expressions are not supported by this "
        "prototype (only direct section-to-section copies); rewrite with "
        "a temporary");
  return nullptr;
}

std::unique_ptr<HostStmt>
FECompiler::compileHostClause(const N::MoveClause &C) {
  const N::Value *Guard = N::isTrueGuard(C.Guard) ? nullptr : C.Guard;
  if (const auto *SV = dyn_cast<N::SVarValue>(C.Dst))
    return std::make_unique<ScalarAssignStmt>(SV->getId(), C.Src, Guard);
  const auto *AV = cast<N::AVarValue>(C.Dst);
  const auto *Sub = cast<N::SubscriptAction>(AV->getAction());
  return std::make_unique<ElementMoveStmt>(AV->getId(), Sub->getIndices(),
                                           C.Src, Guard);
}

std::unique_ptr<HostStmt> FECompiler::compileMove(const N::MoveImp *M) {
  switch (transform::classifyAction(M)) {
  case transform::PhaseKind::Computation:
    return compileComputationMove(M);
  case transform::PhaseKind::Communication: {
    // comm-schedule merges shift MOVEs only into one exchange, which runs
    // as one runtime call.
    if (M->getClauses().size() > 1)
      if (std::optional<std::vector<N::ShiftClause>> X =
              N::matchExchange(M->getClauses()))
        return shiftStmt(*X);
    std::vector<std::unique_ptr<HostStmt>> Stmts;
    for (const N::MoveClause &C : M->getClauses()) {
      auto S = compileCommClause(C);
      if (!S)
        return nullptr;
      Stmts.push_back(std::move(S));
    }
    return seqOf(std::move(Stmts));
  }
  case transform::PhaseKind::HostScalar: {
    std::vector<std::unique_ptr<HostStmt>> Stmts;
    for (const N::MoveClause &C : M->getClauses())
      Stmts.push_back(compileHostClause(C));
    return seqOf(std::move(Stmts));
  }
  case transform::PhaseKind::Structured:
    break;
  }
  error("unclassifiable MOVE reached the back end");
  return nullptr;
}

std::unique_ptr<HostStmt> FECompiler::compileImp(const N::Imp *I) {
  if (Failed)
    return nullptr;
  switch (I->getKind()) {
  case N::Imp::Kind::Program:
    return compileImp(cast<N::ProgramImp>(I)->getBody());
  case N::Imp::Kind::Sequentially:
  case N::Imp::Kind::Concurrently: {
    const auto &Actions =
        isa<N::SequentiallyImp>(I)
            ? cast<N::SequentiallyImp>(I)->getActions()
            : cast<N::ConcurrentlyImp>(I)->getActions();
    std::vector<std::unique_ptr<HostStmt>> Stmts;
    for (const N::Imp *A : Actions) {
      auto S = compileImp(A);
      if (Failed)
        return nullptr;
      if (S)
        Stmts.push_back(std::move(S));
    }
    return seqOf(std::move(Stmts));
  }
  case N::Imp::Kind::Move:
    return compileMove(cast<N::MoveImp>(I));
  case N::Imp::Kind::IfThenElse: {
    const auto *If = cast<N::IfThenElseImp>(I);
    auto Then = compileImp(If->getThen());
    auto Else = compileImp(If->getElse());
    if (Failed)
      return nullptr;
    if (!Then)
      Then = std::make_unique<SeqStmt>(
          std::vector<std::unique_ptr<HostStmt>>{});
    return std::make_unique<host::IfStmt>(If->getCond(), std::move(Then),
                                          std::move(Else));
  }
  case N::Imp::Kind::While: {
    const auto *W = cast<N::WhileImp>(I);
    auto Body = compileImp(W->getBody());
    if (Failed)
      return nullptr;
    if (!Body)
      Body = std::make_unique<SeqStmt>(
          std::vector<std::unique_ptr<HostStmt>>{});
    return std::make_unique<host::WhileStmt>(W->getCond(), std::move(Body));
  }
  case N::Imp::Kind::WithDecl: {
    const auto *WD = cast<N::WithDeclImp>(I);
    Types.addDecl(WD->getDecl());
    std::vector<AllocScopeStmt::FieldAlloc> Fields;
    std::vector<AllocScopeStmt::ScalarAlloc> Scalars;
    bool Bad = false;
    N::forEachSimpleDecl(WD->getDecl(), [&](const N::SimpleDecl *SD) {
      const N::Type *Ty = SD->getType();
      if (const auto *FT = dyn_cast<N::DFieldType>(Ty)) {
        AllocScopeStmt::FieldAlloc F;
        F.Name = SD->getId();
        if (!shapeGeometry(FT->getShape(), F.Extents, F.Los)) {
          Bad = true;
          return;
        }
        F.Kind = elemKindOfType(FT->getUltimateElementType());
        if (const layout::LayoutDescriptor &L = SD->getLayout();
            !L.isCanonical()) {
          F.AxisMap = L.AxisMap;
          if (F.AxisMap.empty())
            for (size_t D = 0; D < F.Extents.size(); ++D)
              F.AxisMap.push_back(static_cast<int64_t>(D));
          F.Offsets = L.Offsets;
          F.Offsets.resize(F.Extents.size(), 0);
        }
        Fields.push_back(std::move(F));
        return;
      }
      Scalars.push_back({SD->getId(), elemKindOfType(Ty)});
    });
    if (Bad) {
      error("cannot resolve an array shape at allocation");
      return nullptr;
    }
    bool KeepAlive = !SawTopScope;
    SawTopScope = true;
    auto Body = compileImp(WD->getBody());
    if (Failed)
      return nullptr;
    if (!Body)
      Body = std::make_unique<SeqStmt>(
          std::vector<std::unique_ptr<HostStmt>>{});
    return std::make_unique<AllocScopeStmt>(std::move(Fields),
                                            std::move(Scalars),
                                            std::move(Body), KeepAlive);
  }
  case N::Imp::Kind::WithDomain: {
    const auto *WD = cast<N::WithDomainImp>(I);
    const N::Shape *Old = Domains.bind(WD->getSymbol(), WD->getShape());
    auto Body = compileImp(WD->getBody());
    Domains.restore(WD->getSymbol(), Old);
    return Body;
  }
  case N::Imp::Kind::Skip:
    return nullptr;
  case N::Imp::Kind::Do: {
    const auto *D = cast<N::DoImp>(I);
    const auto *Ref = dyn_cast<N::DomainRefShape>(D->getIterSpace());
    if (!Ref) {
      error("DO over an anonymous shape (lowering always names loop "
            "domains)");
      return nullptr;
    }
    std::vector<int64_t> Sizes, Los;
    std::vector<bool> Serial;
    if (!shapeGeometry(D->getIterSpace(), Sizes, Los, &Serial)) {
      error("cannot resolve a DO iteration space");
      return nullptr;
    }
    std::vector<int64_t> His(Sizes.size());
    bool AnySerial = false;
    for (size_t K = 0; K < Sizes.size(); ++K) {
      His[K] = Los[K] + Sizes[K] - 1;
      AnySerial |= Serial[K];
    }
    auto Body = compileImp(D->getBody());
    if (Failed)
      return nullptr;
    if (!Body)
      Body = std::make_unique<SeqStmt>(
          std::vector<std::unique_ptr<HostStmt>>{});
    if (AnySerial)
      return std::make_unique<SerialDoStmt>(Ref->getName(), Los, His,
                                            std::move(Body));
    return std::make_unique<ParallelLoopStmt>(Ref->getName(), Los, His,
                                              std::move(Body));
  }
  case N::Imp::Kind::Call: {
    const auto *C = cast<N::CallImp>(I);
    if (C->getCallee() != "print") {
      error("unknown runtime procedure '" + C->getCallee() + "'");
      return nullptr;
    }
    return std::make_unique<host::PrintStmt>(C->getArgs());
  }
  }
  return nullptr;
}

} // namespace

std::optional<CompiledProgram>
backend::compileProgram(const N::ProgramImp *Program,
                        const BackendOptions &Opts, DiagnosticEngine &Diags) {
  std::optional<CompiledProgram> Out = FECompiler(Opts, Diags).run(Program);
  if (Out && (Opts.Trace || Opts.Metrics)) {
    for (const peac::Routine &R : Out->Program.Routines) {
      uint64_t Instrs = R.bodyInstructionCount();
      uint64_t Slots = R.slotCount();
      if (Opts.Trace)
        Opts.Trace->wallInstant(R.Name, "backend",
                                {observe::arg("instructions", Instrs),
                                 observe::arg("slots", Slots),
                                 observe::arg("spill_slots",
                                              uint64_t(R.NumSpillSlots))});
      if (Opts.Metrics) {
        Opts.Metrics->count("backend.routines");
        Opts.Metrics->count("backend.peac_instructions", Instrs);
        Opts.Metrics->count("backend.issue_slots", Slots);
        Opts.Metrics->observe("backend.routine_instructions", double(Instrs));
      }
    }
  }
  return Out;
}
