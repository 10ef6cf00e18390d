//===- layout/AlignmentGraph.cpp - Field alignment constraint graph ---------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "layout/AlignmentGraph.h"

#include "cm2/CostModel.h"
#include "nir/Clause.h"
#include "nir/Imperative.h"
#include "nir/Rewrite.h"
#include "nir/Shape.h"
#include "nir/Type.h"

#include <cmath>

using namespace f90y;
using namespace f90y::layout;
namespace N = f90y::nir;

namespace {

/// Trip-count guess for loops whose extent the builder cannot resolve.
constexpr double UnknownTripCount = 16.0;

class GraphBuilder {
public:
  explicit GraphBuilder(const cm2::CostModel *Costs) : Costs(Costs) {}

  AlignmentGraph take(const N::Imp *Root) {
    visitImp(Root, 1.0);
    return std::move(G);
  }

private:
  const cm2::CostModel *Costs;
  AlignmentGraph G;
  N::DomainEnv Domains;

  AlignField *fieldOf(const N::Symbol *Id) {
    unsigned P = G.Index.lookup(Id);
    return P ? &G.Fields[P - 1] : nullptr;
  }

  void pin(const N::Symbol *Id) {
    if (AlignField *F = fieldOf(Id))
      F->Pinned = true;
  }

  /// Pins every AVAR field referenced anywhere under \p V.
  void pinFieldsIn(const N::Value *V) {
    N::forEachValue(V, [&](const N::Value *X) {
      if (const auto *AV = dyn_cast<N::AVarValue>(X))
        pin(AV->getSymbol());
      return true;
    });
  }

  /// Collects whole-field participants of a computational expression;
  /// sets \p Irregular when the expression contains a construct that
  /// forces its fields canonical (subscript, section, coordinate value).
  void collectParticipants(const N::Value *V,
                           std::vector<const N::Symbol *> &Out,
                           bool &Irregular) {
    N::forEachValue(V, [&](const N::Value *X) {
      if (const auto *AV = dyn_cast<N::AVarValue>(X)) {
        Out.push_back(AV->getSymbol());
        Irregular |= !isa<N::EverywhereAction>(AV->getAction());
      }
      Irregular |= isa<N::LocalCoordValue>(X);
      return true;
    });
  }

  /// Estimated dynamic comm cycles of one CSHIFT execution over \p F.
  double shiftCost(const AlignField &F, int64_t Shift) const {
    double Elems = 1;
    for (int64_t E : F.Extents)
      Elems *= static_cast<double>(E);
    if (!Costs)
      return Elems;
    double Hops = static_cast<double>(Shift < 0 ? -Shift : Shift);
    return static_cast<double>(Costs->CommStartupCycles) +
           Elems * Costs->GridWirePerElemHop * (Hops > 0 ? Hops : 1.0) /
               static_cast<double>(Costs->NumPEs ? Costs->NumPEs : 1);
  }

  void visitClause(const N::MoveClause &C, double TripMult) {
    const auto *F = dyn_cast<N::FcnCallValue>(C.Src);
    if (F && N::isCommOrReductionIntrinsic(F->getCallee())) {
      // The one pattern worth an edge: an unmasked whole-field constant
      // circular shift. Everything else iterates storage in an order a
      // rotation would change (or fills edges / reassociates FP), so its
      // fields stay canonical.
      std::optional<N::ShiftClause> S = N::matchShift(C);
      AlignField *SF = S ? fieldOf(S->Src->getSymbol()) : nullptr;
      AlignField *DF = S ? fieldOf(S->Dst->getSymbol()) : nullptr;
      if (SF && DF && !S->EndOff && !S->isRealigned() &&
          SF->Extents == DF->Extents && S->Dim >= 1 &&
          static_cast<size_t>(S->Dim) <= SF->Extents.size()) {
        AlignEdge E;
        E.K = AlignEdge::Kind::Shift;
        E.Src = S->Src->getSymbol();
        E.Dst = S->Dst->getSymbol();
        E.Axis = static_cast<unsigned>(S->Dim - 1);
        E.Shift = S->Shift;
        E.Weight = TripMult * shiftCost(*SF, E.Shift);
        G.Edges.push_back(E);
        return;
      }
      pinFieldsIn(C.Guard);
      pinFieldsIn(C.Src);
      pinFieldsIn(C.Dst);
      return;
    }

    // Computational clause. A comm call nested below the top level (the
    // pass ran without extract-comm) defeats the slot-wise argument, so
    // everything it touches stays canonical.
    std::vector<const N::Symbol *> Parts;
    bool Irregular =
        N::containsCommCall(C.Guard) || N::containsCommCall(C.Src);
    collectParticipants(C.Guard, Parts, Irregular);
    collectParticipants(C.Src, Parts, Irregular);
    collectParticipants(C.Dst, Parts, Irregular);
    if (Parts.empty())
      return;
    if (!isa<N::AVarValue>(C.Dst))
      Irregular = true; // Field read into scalar storage.
    const AlignField *Ref = fieldOf(Parts.front());
    for (const N::Symbol *Id : Parts) {
      const AlignField *AF = fieldOf(Id);
      if (!AF || !Ref || AF->Extents != Ref->Extents)
        Irregular = true;
    }
    if (Irregular) {
      for (const N::Symbol *Id : Parts)
        pin(Id);
      return;
    }
    for (size_t I = 1; I < Parts.size(); ++I) {
      if (Parts[I] == Parts.front())
        continue;
      AlignEdge E;
      E.K = AlignEdge::Kind::Equality;
      E.Src = Parts.front();
      E.Dst = Parts[I];
      G.Edges.push_back(E);
    }
  }

  void visitImp(const N::Imp *I, double TripMult) {
    if (!I)
      return;
    switch (I->getKind()) {
    case N::Imp::Kind::Program:
      visitImp(cast<N::ProgramImp>(I)->getBody(), TripMult);
      return;
    case N::Imp::Kind::Sequentially:
      for (const N::Imp *A : cast<N::SequentiallyImp>(I)->getActions())
        visitImp(A, TripMult);
      return;
    case N::Imp::Kind::Concurrently:
      for (const N::Imp *A : cast<N::ConcurrentlyImp>(I)->getActions())
        visitImp(A, TripMult);
      return;
    case N::Imp::Kind::Move:
      for (const N::MoveClause &C : cast<N::MoveImp>(I)->getClauses())
        visitClause(C, TripMult);
      return;
    case N::Imp::Kind::IfThenElse: {
      const auto *If = cast<N::IfThenElseImp>(I);
      pinFieldsIn(If->getCond());
      visitImp(If->getThen(), TripMult);
      visitImp(If->getElse(), TripMult);
      return;
    }
    case N::Imp::Kind::While: {
      const auto *W = cast<N::WhileImp>(I);
      pinFieldsIn(W->getCond());
      visitImp(W->getBody(), TripMult * UnknownTripCount);
      return;
    }
    case N::Imp::Kind::WithDecl: {
      const auto *WD = cast<N::WithDeclImp>(I);
      N::forEachSimpleDecl(WD->getDecl(), [&](const N::SimpleDecl *SD) {
        const auto *FT = dyn_cast<N::DFieldType>(SD->getType());
        if (!FT)
          return;
        AlignField AF;
        AF.Name = SD->getSymbol();
        std::vector<N::ShapeExtent> Ext;
        if (!N::shapeExtents(FT->getShape(), Domains, Ext)) {
          AF.Pinned = true;
        } else {
          for (const N::ShapeExtent &SE : Ext)
            AF.Extents.push_back(SE.Hi - SE.Lo + 1);
        }
        unsigned &Slot = G.Index[AF.Name];
        if (!Slot) {
          G.Fields.push_back(std::move(AF));
          Slot = static_cast<unsigned>(G.Fields.size());
        } else {
          G.Fields[Slot - 1] = std::move(AF);
        }
      });
      visitImp(WD->getBody(), TripMult);
      return;
    }
    case N::Imp::Kind::WithDomain: {
      const auto *WD = cast<N::WithDomainImp>(I);
      const N::Shape *Old = Domains.bind(WD->getSymbol(), WD->getShape());
      visitImp(WD->getBody(), TripMult);
      Domains.restore(WD->getSymbol(), Old);
      return;
    }
    case N::Imp::Kind::Skip:
      return;
    case N::Imp::Kind::Do: {
      const auto *D = cast<N::DoImp>(I);
      int64_t Points = N::shapeNumElements(D->getIterSpace(), Domains);
      double Mult = Points > 0 ? static_cast<double>(Points)
                               : UnknownTripCount;
      visitImp(D->getBody(), TripMult * Mult);
      return;
    }
    case N::Imp::Kind::Call:
      // PRINT renders fields through the layout-aware element reader;
      // any other residual call gets conservative canonical operands.
      if (cast<N::CallImp>(I)->getCallee() != "print")
        for (const N::Value *A : cast<N::CallImp>(I)->getArgs())
          pinFieldsIn(A);
      return;
    }
  }
};

} // namespace

AlignmentGraph layout::buildAlignmentGraph(const N::Imp *Root,
                                           const cm2::CostModel *Costs) {
  return GraphBuilder(Costs).take(Root);
}
