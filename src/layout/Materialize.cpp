//===- layout/Materialize.cpp - Layout materialization pass -----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "layout/Materialize.h"

#include "layout/AlignmentGraph.h"
#include "layout/AlignmentSolver.h"
#include "nir/Clause.h"
#include "nir/Rewrite.h"

using namespace f90y;
using namespace f90y::layout;
namespace N = f90y::nir;

namespace {

class Materializer : public N::ImpRewriter {
public:
  Materializer(N::NIRContext &Ctx, const AlignmentGraph &G,
               const SolveResult &Solved, LayoutStats &Stats)
      : ImpRewriter(Ctx), G(G), Solved(Solved), Stats(Stats) {}

private:
  const AlignmentGraph &G;
  const SolveResult &Solved;
  LayoutStats &Stats;

  /// The solved layout of \p Id, or null when it is no graph field.
  const LayoutDescriptor *layoutOf(const N::Symbol *Id) const {
    unsigned P = G.Index.lookup(Id);
    return P ? &Solved.Layouts[P - 1] : nullptr;
  }

  const N::Decl *rewriteDecl(const N::Decl *D) {
    switch (D->getKind()) {
    case N::Decl::Kind::Simple: {
      const auto *SD = cast<N::SimpleDecl>(D);
      const LayoutDescriptor *L = layoutOf(SD->getSymbol());
      if (!L || L->isCanonical() || SD->getLayout() == *L)
        return D;
      return Ctx.getDecl(SD->getSymbol(), SD->getType(), *L);
    }
    case N::Decl::Kind::Set: {
      const auto *Set = cast<N::DeclSet>(D);
      std::vector<const N::Decl *> Subs;
      Subs.reserve(Set->getDecls().size());
      for (const N::Decl *Sub : Set->getDecls())
        Subs.push_back(rewriteDecl(Sub));
      return Subs == Set->getDecls() ? D : Ctx.getDeclSet(std::move(Subs));
    }
    }
    return D;
  }

  /// Rewrites one MOVE clause against the solved placements. Only the
  /// canonical unmasked constant CSHIFT form is ever touched - exactly
  /// the form the graph builder turned into a shift edge; every other
  /// construct had its fields pinned, so its operands are canonical and
  /// the clause is already correct as written.
  N::MoveClause rewriteClause(const N::MoveClause &C, bool &Changed) {
    std::optional<N::ShiftClause> S = N::matchShift(C);
    if (!S || S->EndOff || S->isRealigned())
      return C;
    const LayoutDescriptor *SL = layoutOf(S->Src->getSymbol());
    const LayoutDescriptor *DL = layoutOf(S->Dst->getSymbol());
    if (!SL || !DL)
      return C;
    size_t Axis = static_cast<size_t>(S->Dim - 1);
    const std::vector<int64_t> &Extents = G.find(S->Src->getSymbol())->Extents;
    if (Axis >= Extents.size())
      return C;
    int64_t N = Extents[Axis];
    if (N <= 0)
      return C;
    // Slot-level distance: the runtime sweep reads raw slot storage, so
    // the offsets fold into the shift (DST slot y holds logical y - o_d;
    // see DESIGN.md 12.3).
    int64_t Logical = S->Logical;
    int64_t Physical =
        ((Logical + SL->offsetAt(Axis) - DL->offsetAt(Axis)) % N + N) % N;
    if (Physical > N / 2)
      Physical -= N; // Minimal-magnitude representative.
    if (Physical == 0) {
      // Fully aligned: the exchange degenerates to a local copy sweep.
      Changed = true;
      ++Stats.CommMovesLocalized;
      N::MoveClause Copy = C;
      Copy.Src = S->Src;
      return Copy;
    }
    if (Physical == Logical)
      return C; // Same wire distance; keep the original node.
    // Residual exchange at the (smaller) physical distance; the logical
    // distance rides along as a trailing argument so the executor can
    // trace the realigned exchange.
    Changed = true;
    N::MoveClause Out = C;
    Out.Src = N::buildRealignedShift(Ctx, *S, Physical);
    return Out;
  }

  const N::Decl *decl(const N::WithDeclImp *W) override {
    return rewriteDecl(W->getDecl());
  }

  const N::Imp *move(const N::MoveImp *M) override {
    bool Any = false;
    std::vector<N::MoveClause> Clauses;
    Clauses.reserve(M->getClauses().size());
    for (const N::MoveClause &C : M->getClauses())
      Clauses.push_back(rewriteClause(C, Any));
    return Any ? Ctx.getMove(std::move(Clauses)) : M;
  }
};

} // namespace

const N::Imp *layout::materializeLayout(const N::Imp *Root,
                                        N::NIRContext &Ctx,
                                        DiagnosticEngine &Diags,
                                        const cm2::CostModel *Costs,
                                        LayoutStats *Stats) {
  (void)Diags; // Inference is total: a program it cannot improve is
               // returned unchanged, never diagnosed.
  AlignmentGraph G = buildAlignmentGraph(Root, Costs);
  SolveResult Solved = solveAlignment(G);
  LayoutStats Local;
  LayoutStats &S = Stats ? *Stats : Local;
  S.FieldsRealigned = Solved.FieldsRealigned;
  S.CommCyclesSaved = Solved.CommCyclesSaved;
  if (Solved.FieldsRealigned == 0)
    return Root; // Canonical solve: nothing to materialize.
  return Materializer(Ctx, G, Solved, S).rewrite(Root);
}
