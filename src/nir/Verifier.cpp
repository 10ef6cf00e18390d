//===- nir/Verifier.cpp - NIR well-formedness checks -----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/Verifier.h"

#include "nir/Clause.h"
#include "nir/Printer.h"
#include "nir/Rewrite.h"

using namespace f90y;
using namespace f90y::nir;

namespace {

class VerifierImpl {
public:
  explicit VerifierImpl(DiagnosticEngine &Diags,
                        const VerifyOptions &Opts = {})
      : Diags(Diags), Opts(Opts) {}

  bool run(const Imp *Root) {
    unsigned Before = Diags.errorCount();
    visitImp(Root);
    return Diags.errorCount() == Before;
  }

private:
  DiagnosticEngine &Diags;
  VerifyOptions Opts;
  DomainEnv Domains;
  SymbolMap<const Type *> Decls;
  /// Non-canonical layouts in scope (null: canonical).
  SymbolMap<const layout::LayoutDescriptor *> Layouts;

  void error(const std::string &Msg) { Diags.error(SourceLocation(), Msg); }

  const layout::LayoutDescriptor &layoutOf(const AVarValue *AV) {
    static const layout::LayoutDescriptor Canonical;
    const layout::LayoutDescriptor *L = Layouts.lookup(AV->getSymbol());
    return L ? *L : Canonical;
  }

  /// LayoutConsistency helpers: walks \p V collecting whole-field AVAR
  /// participants and flagging layout-sensitive constructs. Pointwise
  /// subscripts, sections, and coordinate values address logical
  /// positions, so any realigned participant there is an error.
  void collectLayoutParticipants(const Value *V,
                                 std::vector<const AVarValue *> &Fields,
                                 bool &SawCoord) {
    forEachValue(V, [&](const Value *X) {
      if (const auto *AV = dyn_cast<AVarValue>(X)) {
        if (isa<EverywhereAction>(AV->getAction()))
          Fields.push_back(AV);
        else if (!layoutOf(AV).isCanonical())
          error("subscript/section access to realigned field '" +
                AV->getId() + "' (layout " + layoutOf(AV).str() + ")");
      }
      SawCoord |= isa<LocalCoordValue>(X);
      return true;
    });
  }

  /// LayoutConsistency invariant for one MOVE clause (the materialization
  /// post-condition, DESIGN.md Section 12).
  void checkLayoutClause(const MoveClause &C) {
    const auto *F = dyn_cast<FcnCallValue>(C.Src);
    if (F && isCommOrReductionIntrinsic(F->getCallee())) {
      if (std::optional<ShiftClause> S = matchShift(C); S && !S->EndOff) {
        // A residual shift exchange sweeps raw slot storage along one
        // axis; endpoints may disagree only on that axis's offset.
        const layout::LayoutDescriptor &SL = layoutOf(S->Src);
        const layout::LayoutDescriptor &DL = layoutOf(S->Dst);
        if (!SL.identityAxes() || !DL.identityAxes() || SL.Replicated ||
            DL.Replicated) {
          error("cshift between permuted/replicated layouts ('" +
                S->Src->getId() + "' -> '" + S->Dst->getId() + "')");
          return;
        }
        size_t Rank = SL.Offsets.size() > DL.Offsets.size()
                          ? SL.Offsets.size()
                          : DL.Offsets.size();
        for (size_t A = 0; A < Rank; ++A)
          if (A != static_cast<size_t>(S->Dim - 1) &&
              SL.offsetAt(A) != DL.offsetAt(A))
            error("cshift along dim " + std::to_string(S->Dim) +
                  " between fields misaligned on axis " +
                  std::to_string(A + 1) + " ('" + S->Src->getId() + "' " +
                  SL.str() + " -> '" + S->Dst->getId() + "' " + DL.str() +
                  ")");
        return;
      }
      // Every other comm/reduction intrinsic, and a cshift the shift
      // matcher does not decompose (a non-constant dim, say), iterates
      // storage in an order the offsets would change: operands and
      // destination must be canonical.
      auto RequireCanonical = [&](const AVarValue *AV) {
        if (!layoutOf(AV).isCanonical())
          error("'" + F->getCallee() + "' requires canonical operand '" +
                AV->getId() + "' but its layout is " + layoutOf(AV).str());
      };
      for (const Value *A : F->getArgs())
        if (const auto *AV = dyn_cast<AVarValue>(A))
          RequireCanonical(AV);
      if (const auto *DstAV = dyn_cast<AVarValue>(C.Dst))
        RequireCanonical(DstAV);
      return;
    }
    // Localized exchange: an unguarded whole-field copy is the form the
    // materializer leaves behind when alignment removed a shift entirely.
    // The raw slot copy dst[s] = src[s] realizes dst(x) = src(x+od-os),
    // so the endpoints may legitimately differ in offsets (identity axes,
    // unreplicated) - exactly the misalignment the copy absorbs.
    if (const auto *SrcAV = dyn_cast<AVarValue>(C.Src);
        SrcAV && isa<EverywhereAction>(SrcAV->getAction()) &&
        isTrueGuard(C.Guard)) {
      if (const auto *DstAV = dyn_cast<AVarValue>(C.Dst);
          DstAV && isa<EverywhereAction>(DstAV->getAction())) {
        layout::LayoutDescriptor SL = layoutOf(SrcAV);
        layout::LayoutDescriptor DL = layoutOf(DstAV);
        if (SL.identityAxes() && DL.identityAxes() && !SL.Replicated &&
            !DL.Replicated)
          return;
      }
    }
    // Computational clause: slot-wise evaluation is correct only when
    // every whole-field participant shares one placement.
    std::vector<const AVarValue *> Fields;
    bool SawCoord = false;
    collectLayoutParticipants(C.Guard, Fields, SawCoord);
    collectLayoutParticipants(C.Src, Fields, SawCoord);
    collectLayoutParticipants(C.Dst, Fields, SawCoord);
    if (Fields.empty())
      return;
    const layout::LayoutDescriptor &Ref = layoutOf(Fields.front());
    for (const AVarValue *AV : Fields)
      if (layoutOf(AV) != Ref)
        error("MOVE mixes misaligned layouts: '" +
              Fields.front()->getId() + "' is " + Ref.str() + " but '" +
              AV->getId() + "' is " + layoutOf(AV).str());
    if (SawCoord && !Ref.isCanonical())
      error("coordinate-valued MOVE touches realigned field '" +
            Fields.front()->getId() + "' (layout " + Ref.str() + ")");
  }

  /// CanonicalComm: no communication/reduction call anywhere under \p V.
  void checkNoCommCall(const Value *V, const char *Where) {
    forEachValue(V, [&](const Value *X) {
      const auto *F = dyn_cast<FcnCallValue>(X);
      if (F && isCommOrReductionIntrinsic(F->getCallee()))
        error(std::string("communication intrinsic '") + F->getCallee() +
              "' nested inside a " + Where +
              " (fusion across a communication boundary?)");
      return true;
    });
  }

  /// CanonicalComm invariant for one MOVE clause: a comm/reduction call is
  /// legal only as the entire clause source (the extract-comm canonical
  /// form); guards and nested expression positions must be comm-free.
  void checkCanonicalClause(const MoveClause &C) {
    checkNoCommCall(C.Guard, "MOVE guard");
    if (const auto *F = dyn_cast<FcnCallValue>(C.Src);
        F && isCommOrReductionIntrinsic(F->getCallee())) {
      for (const Value *A : F->getArgs())
        checkNoCommCall(A, "communication operand");
    } else {
      checkNoCommCall(C.Src, "computational expression");
    }
  }

  void checkShape(const Shape *S) {
    switch (S->getKind()) {
    case Shape::Kind::Point:
      return;
    case Shape::Kind::Interval:
    case Shape::Kind::SerialInterval: {
      const auto *IV = cast<IntervalShape>(S);
      if (IV->getHi() < IV->getLo())
        error("empty interval shape [" + std::to_string(IV->getLo()) + ", " +
              std::to_string(IV->getHi()) + "]");
      return;
    }
    case Shape::Kind::ProdDom:
      for (const Shape *Dim : cast<ProdDomShape>(S)->getDims())
        checkShape(Dim);
      return;
    case Shape::Kind::DomainRef: {
      const auto *Ref = cast<DomainRefShape>(S);
      if (!Domains.lookup(Ref->getSymbol()))
        error("reference to unbound domain '" + Ref->getName() + "'");
      return;
    }
    }
  }

  void checkType(const Type *T) {
    if (const auto *F = dyn_cast<DFieldType>(T)) {
      checkShape(F->getShape());
      checkType(F->getElementType());
    }
  }

  /// Checks that restrictor \p F of \p AV has one entry per dimension.
  void checkFieldAction(const FieldAction *F, const AVarValue *AV) {
    const std::string &ArrayId = AV->getId();
    const Type *Ty = Decls.lookup(AV->getSymbol());
    const auto *FieldTy = dyn_cast_or_null<DFieldType>(Ty);
    int Rank = FieldTy ? rankOf(FieldTy->getShape(), Domains) : -1;
    switch (F->getKind()) {
    case FieldAction::Kind::Everywhere:
      return;
    case FieldAction::Kind::Subscript: {
      const auto &Indices = cast<SubscriptAction>(F)->getIndices();
      if (Rank >= 0 && static_cast<int>(Indices.size()) != Rank)
        error("subscript of '" + ArrayId + "' has " +
              std::to_string(Indices.size()) + " indices but rank is " +
              std::to_string(Rank));
      return;
    }
    case FieldAction::Kind::Section: {
      const auto &Triplets = cast<SectionAction>(F)->getTriplets();
      if (Rank >= 0 && static_cast<int>(Triplets.size()) != Rank)
        error("section of '" + ArrayId + "' has " +
              std::to_string(Triplets.size()) + " triplets but rank is " +
              std::to_string(Rank));
      return;
    }
    }
  }

  /// Checks every name and coordinate under \p V against the scopes; an
  /// AVAR that names no field hides its subscript indices.
  void visitValue(const Value *V) {
    forEachValue(V, [&](const Value *X) {
      if (const auto *SV = dyn_cast<SVarValue>(X)) {
        const Type *Ty = Decls.lookup(SV->getSymbol());
        if (!Ty)
          error("reference to undeclared scalar '" + SV->getId() + "'");
        else if (Ty->isField())
          error("SVAR '" + SV->getId() + "' refers to a dfield binding");
      } else if (const auto *AV = dyn_cast<AVarValue>(X)) {
        const Type *Ty = Decls.lookup(AV->getSymbol());
        if (!Ty) {
          error("reference to undeclared array '" + AV->getId() + "'");
          return false;
        }
        if (!Ty->isField()) {
          error("AVAR '" + AV->getId() + "' refers to a scalar binding");
          return false;
        }
        checkFieldAction(AV->getAction(), AV);
      } else if (const auto *LC = dyn_cast<LocalCoordValue>(X)) {
        const Shape *S = Domains.lookup(LC->getSymbol());
        int Rank = S ? rankOf(S, Domains) : -1;
        if (!S)
          error("local_under references unbound domain '" + LC->getDomain() +
                "'");
        else if (Rank >= 0 &&
                 (LC->getDim() < 1 || static_cast<int>(LC->getDim()) > Rank))
          error("local_under dimension " + std::to_string(LC->getDim()) +
                " out of range for domain '" + LC->getDomain() +
                "' of rank " + std::to_string(Rank));
      }
      return true;
    });
  }

  void visitImp(const Imp *I) {
    switch (I->getKind()) {
    case Imp::Kind::Program:
      visitImp(cast<ProgramImp>(I)->getBody());
      return;
    case Imp::Kind::Sequentially:
      for (const Imp *A : cast<SequentiallyImp>(I)->getActions())
        visitImp(A);
      return;
    case Imp::Kind::Concurrently:
      for (const Imp *A : cast<ConcurrentlyImp>(I)->getActions())
        visitImp(A);
      return;
    case Imp::Kind::Move: {
      for (const MoveClause &C : cast<MoveImp>(I)->getClauses()) {
        if (Opts.CanonicalComm)
          checkCanonicalClause(C);
        if (Opts.LayoutConsistency)
          checkLayoutClause(C);
        visitValue(C.Guard);
        visitValue(C.Src);
        if (!isa<SVarValue>(C.Dst) && !isa<AVarValue>(C.Dst)) {
          error("MOVE destination must be an SVAR or AVAR, got " +
                printValue(C.Dst));
          continue;
        }
        visitValue(C.Dst);
      }
      return;
    }
    case Imp::Kind::IfThenElse: {
      const auto *If = cast<IfThenElseImp>(I);
      visitValue(If->getCond());
      visitImp(If->getThen());
      visitImp(If->getElse());
      return;
    }
    case Imp::Kind::While: {
      const auto *W = cast<WhileImp>(I);
      visitValue(W->getCond());
      visitImp(W->getBody());
      return;
    }
    case Imp::Kind::WithDecl: {
      const auto *WD = cast<WithDeclImp>(I);
      struct Outer {
        const Symbol *Id;
        const Type *Ty;
        const layout::LayoutDescriptor *Layout;
      };
      std::vector<Outer> Saved;
      forEachSimpleDecl(WD->getDecl(), [&](const SimpleDecl *SD) {
        checkType(SD->getType());
        const Symbol *Id = SD->getSymbol();
        Saved.push_back({Id, Decls.lookup(Id), Layouts.lookup(Id)});
        Decls[Id] = SD->getType();
        Layouts[Id] =
            SD->getLayout().isCanonical() ? nullptr : &SD->getLayout();
      });
      visitImp(WD->getBody());
      for (auto It = Saved.rbegin(); It != Saved.rend(); ++It) {
        Decls[It->Id] = It->Ty;
        Layouts[It->Id] = It->Layout;
      }
      return;
    }
    case Imp::Kind::WithDomain: {
      const auto *WD = cast<WithDomainImp>(I);
      checkShape(WD->getShape());
      const Shape *Old = Domains.bind(WD->getSymbol(), WD->getShape());
      visitImp(WD->getBody());
      Domains.restore(WD->getSymbol(), Old);
      return;
    }
    case Imp::Kind::Skip:
      return;
    case Imp::Kind::Call:
      for (const Value *A : cast<CallImp>(I)->getArgs())
        visitValue(A);
      return;
    case Imp::Kind::Do: {
      const auto *D = cast<DoImp>(I);
      checkShape(D->getIterSpace());
      visitImp(D->getBody());
      return;
    }
    }
  }
};

} // namespace

bool nir::verify(const Imp *Root, DiagnosticEngine &Diags) {
  return VerifierImpl(Diags).run(Root);
}

bool nir::verify(const Imp *Root, DiagnosticEngine &Diags,
                 const VerifyOptions &Opts) {
  return VerifierImpl(Diags, Opts).run(Root);
}
