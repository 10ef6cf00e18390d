//===- transform/Fusion.cpp - Cross-statement elementwise fusion -----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Eliminates single-use array temporaries by folding each producer MOVE's
/// RHS into its unique consumer, within a block of sequential actions:
///
///     t    = a + b                MOVE(u, c + (a + b) * d)
///     u    = c + t * d      ==>   (t's store, load, and declaration gone)
///
/// Lowering materializes a field for every named temporary the programmer
/// (or a front-end rewrite) introduces, so compound computations walk the
/// subgrid once per statement and round-trip every intermediate through PE
/// memory. After fusion the back end compiles the whole producer chain as
/// one PEAC routine: one sweep, intermediates held in PE registers, and the
/// cost model stops charging the temporary's loads, stores, and allocation.
///
/// Legality (checked with name-level Effects):
///  - the producer is a single-clause, unguarded computation MOVE whose
///    destination is a whole-field (everywhere) AVAR;
///  - that temporary is declared once, written once, and read exactly once
///    in the entire program — multi-use temporaries never fuse;
///  - the unique read is a bare everywhere AVAR in a consumer clause's
///    source (not in a guard, a subscript, or a communication/reduction
///    call: cshift-fed operands block fusion);
///  - producer and consumer compute over the same domain (same shape, and
///    the consumer's mask only restricts the store of the fused value);
///  - no action between the two writes anything the producer's RHS reads
///    (and nothing can touch the temporary in between, by the use counts).
///
/// Producers and consumers arising from different source statements sit in
/// sibling WITH_DECL scopes after extract-comm; the pass splices those
/// move-only scopes into one flattened action list (names are unique after
/// lowering) so chains fuse across statement boundaries. When nothing in a
/// block fuses, the block is left structurally unchanged.
///
//===----------------------------------------------------------------------===//

#include "nir/Clause.h"
#include "nir/Rewrite.h"
#include "nir/Shape.h"
#include "nir/TypeInfer.h"
#include "transform/Effects.h"
#include "transform/Phases.h"
#include "transform/Transforms.h"

#include <vector>

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

namespace {

/// Occurrence counts (with multiplicity) of every variable name in the
/// program. Fusion demands exactly one declaration, one write, and one
/// read of a temporary; shadowed or re-declared names never qualify.
struct UseCounts {
  N::SymbolMap<unsigned> Reads, Writes, Decls;
};

void countValueReads(const N::Value *V, UseCounts &C) {
  N::forEachValue(V, [&](const N::Value *X) {
    if (const auto *SV = dyn_cast<N::SVarValue>(X))
      ++C.Reads[SV->getSymbol()];
    else if (const auto *AV = dyn_cast<N::AVarValue>(X))
      ++C.Reads[AV->getSymbol()];
    return true;
  });
}

void countImp(const N::Imp *Root, UseCounts &C) {
  N::forEachImp(Root, [&](const N::Imp *I) {
    switch (I->getKind()) {
    case N::Imp::Kind::Move:
      for (const N::MoveClause &Cl : cast<N::MoveImp>(I)->getClauses()) {
        countValueReads(Cl.Guard, C);
        countValueReads(Cl.Src, C);
        if (const auto *AV = dyn_cast<N::AVarValue>(Cl.Dst)) {
          ++C.Writes[AV->getSymbol()];
          if (const auto *Sub = dyn_cast<N::SubscriptAction>(AV->getAction()))
            for (const N::Value *Idx : Sub->getIndices())
              countValueReads(Idx, C);
        } else if (const auto *SV = dyn_cast<N::SVarValue>(Cl.Dst)) {
          ++C.Writes[SV->getSymbol()];
        }
      }
      return;
    case N::Imp::Kind::IfThenElse:
      countValueReads(cast<N::IfThenElseImp>(I)->getCond(), C);
      return;
    case N::Imp::Kind::While:
      countValueReads(cast<N::WhileImp>(I)->getCond(), C);
      return;
    case N::Imp::Kind::WithDecl:
      N::forEachSimpleDecl(
          cast<N::WithDeclImp>(I)->getDecl(),
          [&](const N::SimpleDecl *SD) { ++C.Decls[SD->getSymbol()]; });
      return;
    case N::Imp::Kind::Call:
      // COPY_OUT convention: host calls may read and write their arguments.
      for (const N::Value *A : cast<N::CallImp>(I)->getArgs()) {
        countValueReads(A, C);
        if (const auto *AV = dyn_cast<N::AVarValue>(A))
          ++C.Writes[AV->getSymbol()];
        else if (const auto *SV = dyn_cast<N::SVarValue>(A))
          ++C.Writes[SV->getSymbol()];
      }
      return;
    default:
      return;
    }
  });
}

/// Classifies the lone read of \p Temp inside a consumer source tree.
/// Fusible only when the read is a bare everywhere AVAR and not an
/// argument of any FCNCALL except the elemental 'merge' (communication
/// and reduction intrinsics gather shifted/partial values, so folding a
/// producer under them would change which elements are combined).
enum class ReadSite { Absent, Fusible, Blocked };

ReadSite locateRead(const N::Value *V, const N::Symbol *Temp,
                    bool UnderCall) {
  if (!V)
    return ReadSite::Absent;
  switch (V->getKind()) {
  case N::Value::Kind::Binary: {
    const auto *B = cast<N::BinaryValue>(V);
    ReadSite L = locateRead(B->getLHS(), Temp, UnderCall);
    if (L != ReadSite::Absent)
      return L;
    return locateRead(B->getRHS(), Temp, UnderCall);
  }
  case N::Value::Kind::Unary:
    return locateRead(cast<N::UnaryValue>(V)->getOperand(), Temp, UnderCall);
  case N::Value::Kind::SVar:
  case N::Value::Kind::ScalarConst:
  case N::Value::Kind::StrConst:
  case N::Value::Kind::LocalCoord:
    return ReadSite::Absent;
  case N::Value::Kind::FcnCall: {
    const auto *F = cast<N::FcnCallValue>(V);
    bool Nested = UnderCall || F->getCallee() != "merge";
    for (const N::Value *A : F->getArgs()) {
      ReadSite S = locateRead(A, Temp, Nested);
      if (S != ReadSite::Absent)
        return S;
    }
    return ReadSite::Absent;
  }
  case N::Value::Kind::AVar: {
    const auto *AV = cast<N::AVarValue>(V);
    if (const auto *Sub = dyn_cast<N::SubscriptAction>(AV->getAction()))
      for (const N::Value *Idx : Sub->getIndices()) {
        ReadSite S = locateRead(Idx, Temp, UnderCall);
        if (S != ReadSite::Absent)
          return ReadSite::Blocked;
      }
    if (AV->getSymbol() != Temp)
      return ReadSite::Absent;
    if (UnderCall || !isa<N::EverywhereAction>(AV->getAction()))
      return ReadSite::Blocked;
    return ReadSite::Fusible;
  }
  }
  return ReadSite::Absent;
}

class FusionPass : public N::ImpRewriter {
public:
  FusionPass(N::NIRContext &Ctx, const UseCounts &Counts)
      : ImpRewriter(Ctx), Counts(Counts) {}

  const N::SymbolSet &eliminated() const { return Eliminated; }
  const FusionStats &stats() const { return Stats; }

private:
  const UseCounts &Counts;
  N::ElemTypeInference Types;
  N::DomainEnv Domains;
  N::SymbolSet Eliminated;
  FusionStats Stats;

  struct Item : PhaseItem {
    bool Absorbed = false; ///< Already counted toward MovesFused.
  };

  Item makeItem(const N::Imp *A) { return {phaseItem(A, Types)}; }


  /// True for the WITH_DECL wrappers extract-comm builds around a single
  /// statement: declarations over a body that is a MOVE or a sequence of
  /// MOVEs. Only those are spliced; nested control stays opaque.
  static bool spliceable(const N::WithDeclImp *WD) {
    if (isa<N::MoveImp>(WD->getBody()))
      return true;
    const auto *Seq = dyn_cast<N::SequentiallyImp>(WD->getBody());
    if (!Seq)
      return false;
    for (const N::Imp *A : Seq->getActions())
      if (!isa<N::MoveImp>(A))
        return false;
    return true;
  }

  /// Static memory-traffic estimate for one eliminated temporary: a full
  /// store of the field plus a full reload (elements x element size x 2).
  uint64_t bytesFor(const N::Symbol *Temp) const {
    const auto *FT = dyn_cast_or_null<N::DFieldType>(Types.lookup(Temp));
    if (!FT)
      return 0;
    int64_t Elems = N::shapeNumElements(FT->getShape(), Domains);
    if (Elems < 0)
      return 0;
    const N::Type *Elem = FT->getUltimateElementType();
    uint64_t Bytes = Elem->getKind() == N::Type::Kind::Float64 ? 8 : 4;
    return 2 * Bytes * static_cast<uint64_t>(Elems);
  }

  /// Attempts to fold the producer at \p I into its unique consumer later
  /// in \p Items. On success the producer is erased (the caller must not
  /// advance its index) and true is returned.
  bool tryFuseFrom(size_t I, std::vector<Item> &Items) {
    if (!Items[I].Domain)
      return false;
    const auto *M = cast<N::MoveImp>(Items[I].Action);
    if (M->getClauses().size() != 1)
      return false;
    const N::MoveClause &P = M->getClauses()[0];
    if (!N::isTrueGuard(P.Guard))
      return false;
    const auto *Dst = dyn_cast<N::AVarValue>(P.Dst);
    if (!Dst || !isa<N::EverywhereAction>(Dst->getAction()))
      return false;
    const N::Symbol *Temp = Dst->getSymbol();
    if (Eliminated.contains(Temp))
      return false;
    if (Counts.Decls.lookup(Temp) != 1 || Counts.Writes.lookup(Temp) != 1 ||
        Counts.Reads.lookup(Temp) != 1)
      return false;

    N::SymbolSet SrcReads;
    collectReads(P.Src, SrcReads);

    for (size_t J = I + 1; J < Items.size(); ++J) {
      Item &Cand = Items[J];
      if (Cand.Eff.Reads.contains(Temp)) {
        // The unique read. Fusible only in a same-domain computation MOVE.
        if (Cand.Domain != Items[I].Domain)
          return false;
        const auto *CM = cast<N::MoveImp>(Cand.Action);
        int ClauseIdx = -1;
        for (size_t K = 0; K < CM->getClauses().size(); ++K) {
          const N::MoveClause &C = CM->getClauses()[K];
          if (locateRead(C.Guard, Temp, /*UnderCall=*/true) !=
              ReadSite::Absent)
            return false; // read in a mask: evaluation must stay put
          ReadSite S = locateRead(C.Src, Temp, /*UnderCall=*/false);
          if (S == ReadSite::Blocked)
            return false;
          if (S == ReadSite::Fusible)
            ClauseIdx = static_cast<int>(K);
        }
        if (ClauseIdx < 0)
          return false;
        // Clauses apply in order and sources see the pre-state of their
        // clause, so clauses ahead of the read must not write anything
        // the producer's RHS reads.
        for (int K = 0; K < ClauseIdx; ++K)
          if (const auto *AV =
                  dyn_cast<N::AVarValue>(CM->getClauses()[K].Dst)) {
            if (SrcReads.contains(AV->getSymbol()))
              return false;
          } else if (const auto *SV =
                         dyn_cast<N::SVarValue>(CM->getClauses()[K].Dst)) {
            if (SrcReads.contains(SV->getSymbol()))
              return false;
          }

        std::vector<N::MoveClause> Clauses = CM->getClauses();
        // Replace the unique AVAR(Temp, everywhere) read.
        const N::Value *&Src = Clauses[static_cast<size_t>(ClauseIdx)].Src;
        Src = N::mapAVars(Src, Ctx, [&](const N::AVarValue *AV) {
          bool Read = AV->getSymbol() == Temp &&
                      isa<N::EverywhereAction>(AV->getAction());
          return Read ? P.Src : AV;
        });
        bool WasAbsorbed = Cand.Absorbed;
        Item Fused = makeItem(Ctx.getMove(Clauses));
        Fused.Absorbed = true;
        if (!WasAbsorbed)
          ++Stats.MovesFused;
        ++Stats.TempsEliminated;
        Stats.BytesSaved += bytesFor(Temp);
        Eliminated.insert(Temp);
        // Placement: prefer the producer's slot. Fusing in place at the
        // consumer would sink the producer's (comm-independent) work past
        // whatever sits between — typically a computation that depends on
        // an in-flight exchange — and rob the split-phase executor of the
        // independent work it hides communication under. Hoisting is
        // legal exactly when everything in between is independent of the
        // fused MOVE; otherwise fuse where the consumer stands.
        bool Hoist = true;
        for (size_t K = I + 1; K < J && Hoist; ++K)
          Hoist = independent(Items[K].Eff, Fused.Eff);
        if (Hoist) {
          Items[I] = Fused;
          Items.erase(Items.begin() + static_cast<long>(J));
        } else {
          Items[J] = Fused;
          Items.erase(Items.begin() + static_cast<long>(I));
        }
        return true;
      }
      // No read of the temporary here: the producer's evaluation is being
      // delayed past this action, so nothing in it may overwrite an
      // operand of the producer's RHS.
      if (Cand.Eff.Writes.intersects(SrcReads))
        return false;
    }
    return false;
  }

  const N::Imp *sequentially(const N::SequentiallyImp *S) override {
    std::vector<const N::Imp *> Plain;
    Plain.reserve(S->getActions().size());
    for (const N::Imp *A : S->getActions())
      Plain.push_back(rewrite(A));

    // Flatten: splice the move-only WITH_DECL wrappers extract-comm put
    // around single statements, so producers and consumers from different
    // statements become siblings of one list.
    std::vector<Item> Items;
    std::vector<const N::Decl *> Spliced;
    for (const N::Imp *A : Plain) {
      const auto *WD = dyn_cast<N::WithDeclImp>(A);
      if (WD && spliceable(WD)) {
        Spliced.push_back(WD->getDecl());
        if (const auto *Seq = dyn_cast<N::SequentiallyImp>(WD->getBody()))
          for (const N::Imp *Inner : Seq->getActions())
            Items.push_back(makeItem(Inner));
        else
          Items.push_back(makeItem(WD->getBody()));
      } else {
        Items.push_back(makeItem(A));
      }
    }

    bool Changed = false;
    size_t I = 0;
    while (I < Items.size()) {
      if (tryFuseFrom(I, Items))
        Changed = true;
      else
        ++I;
    }

    // Nothing fused: keep the block structurally unchanged (the splice
    // above was only a view for the analysis).
    if (!Changed)
      return sequence(S, std::move(Plain));

    std::vector<const N::Imp *> Out;
    Out.reserve(Items.size());
    for (const Item &It : Items)
      Out.push_back(It.Action);
    const N::Imp *Body =
        Out.size() == 1 ? Out[0] : Ctx.getSequentially(Out);
    if (Spliced.empty())
      return Body;
    const N::Decl *D = Spliced.size() == 1
                           ? Spliced[0]
                           : Ctx.getDeclSet(Spliced);
    return Ctx.getWithDecl(D, Body);
  }

  const N::Decl *decl(const N::WithDeclImp *W) override {
    Types.addDecl(W->getDecl());
    return W->getDecl();
  }

  const N::Imp *withDomain(const N::WithDomainImp *W) override {
    const N::Shape *Old = Domains.bind(W->getSymbol(), W->getShape());
    const N::Imp *Result = ImpRewriter::withDomain(W);
    Domains.restore(W->getSymbol(), Old);
    return Result;
  }
};

/// Deletes the declarations of eliminated temporaries (their one store and
/// one load are gone, so the binding is dead and its allocation with it).
class DeclPruner : public N::ImpRewriter {
public:
  DeclPruner(N::NIRContext &Ctx, const N::SymbolSet &Dead)
      : ImpRewriter(Ctx), Dead(Dead) {}

private:
  const N::SymbolSet &Dead;

  /// Returns \p D with dead bindings removed, or null when none survive.
  const N::Decl *filterDecl(const N::Decl *D) {
    switch (D->getKind()) {
    case N::Decl::Kind::Simple:
      return Dead.contains(cast<N::SimpleDecl>(D)->getSymbol()) ? nullptr : D;
    case N::Decl::Kind::Set: {
      const auto &Decls = cast<N::DeclSet>(D)->getDecls();
      std::vector<const N::Decl *> Kept;
      for (const N::Decl *Child : Decls)
        if (const N::Decl *F = filterDecl(Child))
          Kept.push_back(F);
      if (Kept == Decls)
        return D;
      if (Kept.empty())
        return nullptr;
      return Kept.size() == 1 ? Kept[0] : Ctx.getDeclSet(Kept);
    }
    }
    return D;
  }

  const N::Decl *decl(const N::WithDeclImp *W) override {
    return filterDecl(W->getDecl());
  }
};

} // namespace

const N::Imp *transform::fuseElementwise(const N::Imp *Root,
                                         N::NIRContext &Ctx,
                                         DiagnosticEngine &,
                                         FusionStats *Stats) {
  UseCounts Counts;
  countImp(Root, Counts);
  FusionPass Pass(Ctx, Counts);
  const N::Imp *Result = Pass.rewrite(Root);
  if (Pass.stats().TempsEliminated)
    Result = DeclPruner(Ctx, Pass.eliminated()).rewrite(Result);
  if (Stats)
    *Stats = Pass.stats();
  return Result;
}
