//===- transform/CommSchedule.cpp - Communication scheduling ----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Section 5.3.2: the sequencer can drive the data network and the
/// node datapaths concurrently, so a communication whose result is not
/// needed until later should be issued as early as possible and allowed
/// to drain under the intervening computation. This pass rearranges each
/// SEQUENTIALLY toward that shape:
///
///  - Hoisting: communication MOVEs migrate upward past every later-issued
///    action they are independent of (by transform/Effects), maximizing
///    the computation available to hide them. The split-phase host
///    executor (-comm=overlap) then credits min(comm, compute) as
///    OverlappedCycles.
///
///  - Coalescing: adjacent communication MOVEs whose clauses are all
///    unguarded shifts of the same source field along the same axis (same
///    cshift/eoshift flavor, pairwise-distinct destinations, none
///    aliasing the source) merge into one multi-clause MOVE. The back end
///    lowers it to a single multi-shift exchange that pays the grid's
///    communication startup once instead of once per shift.
///
/// Both rewrites preserve program output exactly: hoisting only crosses
/// independent actions, and coalescing's guards keep the fused exchange
/// identical to the unfused sequence.
///
//===----------------------------------------------------------------------===//

#include "nir/Rewrite.h"
#include "transform/Effects.h"
#include "transform/Phases.h"
#include "transform/Transforms.h"

#include <algorithm>

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

namespace {

/// One unguarded shift clause, decomposed: Dst <- callee(Src, shift, dim).
struct ShiftClause {
  std::string Dst;
  std::string Src;
  std::string Callee;
  int64_t Dim = 0;
};

/// Decomposes \p C if it is an unguarded whole-field shift of the form
/// AVAR[everywhere] <- (cshift|eoshift)(AVAR[everywhere], const, const).
bool matchShiftClause(const N::MoveClause &C, ShiftClause &Out) {
  if (C.Guard) {
    const auto *G = dyn_cast<N::ScalarConstValue>(C.Guard);
    if (!G || !G->isBool() || !G->getBool())
      return false;
  }
  const auto *DstAV = dyn_cast<N::AVarValue>(C.Dst);
  if (!DstAV || !isa<N::EverywhereAction>(DstAV->getAction()))
    return false;
  const auto *F = dyn_cast<N::FcnCallValue>(C.Src);
  if (!F || (F->getCallee() != "cshift" && F->getCallee() != "eoshift") ||
      F->getArgs().size() != 3)
    return false;
  const auto *Arg = dyn_cast<N::AVarValue>(F->getArgs()[0]);
  const auto *Sh = dyn_cast<N::ScalarConstValue>(F->getArgs()[1]);
  const auto *Dm = dyn_cast<N::ScalarConstValue>(F->getArgs()[2]);
  if (!Arg || !isa<N::EverywhereAction>(Arg->getAction()) || !Sh || !Dm)
    return false;
  Out.Dst = DstAV->getId();
  Out.Src = Arg->getId();
  Out.Callee = F->getCallee();
  Out.Dim = Dm->getInt();
  return true;
}

class CommSchedulePass : public N::ImpRewriter {
public:
  explicit CommSchedulePass(N::NIRContext &Ctx) : ImpRewriter(Ctx) {}

private:

  struct Item {
    const N::Imp *Action;
    Effects Eff;
    bool IsComm = false;
  };

  Item makeItem(const N::Imp *A) {
    Item It;
    It.Action = A;
    It.Eff = effectsOf(A);
    if (const auto *M = dyn_cast<N::MoveImp>(A))
      It.IsComm = classifyAction(M) == PhaseKind::Communication;
    return It;
  }

  /// True when every clause of both MOVEs is an unguarded shift of one
  /// common source along one common axis with one common flavor, all
  /// destinations (across both) pairwise distinct and none aliasing the
  /// source. Under those guards the fused multi-clause MOVE is
  /// element-for-element identical to the unfused sequence.
  static bool coalescible(const std::vector<N::MoveClause> &A,
                          const std::vector<N::MoveClause> &B) {
    std::vector<ShiftClause> Shifts;
    for (const std::vector<N::MoveClause> *Part : {&A, &B})
      for (const N::MoveClause &C : *Part) {
        ShiftClause S;
        if (!matchShiftClause(C, S))
          return false;
        Shifts.push_back(std::move(S));
      }
    for (size_t I = 1; I < Shifts.size(); ++I)
      if (Shifts[I].Src != Shifts[0].Src ||
          Shifts[I].Callee != Shifts[0].Callee ||
          Shifts[I].Dim != Shifts[0].Dim)
        return false;
    for (size_t I = 0; I < Shifts.size(); ++I) {
      if (Shifts[I].Dst == Shifts[I].Src)
        return false;
      for (size_t J = I + 1; J < Shifts.size(); ++J)
        if (Shifts[I].Dst == Shifts[J].Dst)
          return false;
    }
    return true;
  }

  const N::Imp *sequentially(const N::SequentiallyImp *S) override {
    // Hoist: each communication MOVE migrates upward past every already
    // placed action it is independent of, so the maximum run of
    // computation sits between the exchange and its first consumer.
    std::vector<Item> R;
    for (const N::Imp *A : S->getActions()) {
      Item X = makeItem(rewrite(A));
      if (!X.IsComm) {
        R.push_back(std::move(X));
        continue;
      }
      int Blocker = static_cast<int>(R.size()) - 1;
      while (Blocker >= 0 &&
             independent(R[static_cast<size_t>(Blocker)].Eff, X.Eff))
        --Blocker;
      R.insert(R.begin() + static_cast<long>(Blocker + 1), std::move(X));
    }

    // Coalesce: adjacent compatible shift MOVEs merge clause lists.
    std::vector<const N::Imp *> Out;
    size_t I = 0;
    while (I < R.size()) {
      if (!R[I].IsComm) {
        Out.push_back(R[I].Action);
        ++I;
        continue;
      }
      const auto *Lead = cast<N::MoveImp>(R[I].Action);
      std::vector<N::MoveClause> Clauses = Lead->getClauses();
      size_t J = I + 1;
      while (J < R.size() && R[J].IsComm &&
             coalescible(Clauses,
                         cast<N::MoveImp>(R[J].Action)->getClauses())) {
        const auto &More = cast<N::MoveImp>(R[J].Action)->getClauses();
        Clauses.insert(Clauses.end(), More.begin(), More.end());
        ++J;
      }
      Out.push_back(J == I + 1 ? R[I].Action : Ctx.getMove(Clauses));
      I = J;
    }

    if (Out.size() == 1)
      return Out[0];
    return sequence(S, std::move(Out));
  }
};

} // namespace

const N::Imp *transform::commSchedule(const N::Imp *Root, N::NIRContext &Ctx,
                                      DiagnosticEngine &) {
  return CommSchedulePass(Ctx).rewrite(Root);
}
