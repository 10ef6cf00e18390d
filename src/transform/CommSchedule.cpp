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
///  - Coalescing: adjacent communication MOVEs merge into one
///    multi-clause MOVE while their clauses together form one exchange
///    (nir::matchExchange: shifts of one source field along one axis with
///    one flavor, pairwise-distinct destinations, none aliasing the
///    source). The back end lowers that MOVE to a single multi-shift
///    exchange that pays the grid's communication startup once instead
///    of once per shift.
///
/// Both rewrites preserve program output exactly: hoisting only crosses
/// independent actions, and the one-exchange condition keeps the fused
/// exchange identical to the unfused sequence.
///
//===----------------------------------------------------------------------===//

#include "nir/Clause.h"
#include "nir/Rewrite.h"
#include "transform/Effects.h"
#include "transform/Phases.h"
#include "transform/Transforms.h"

#include <algorithm>

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

namespace {

class CommSchedulePass : public N::ImpRewriter {
public:
  explicit CommSchedulePass(N::NIRContext &Ctx) : ImpRewriter(Ctx) {}

private:
  N::ElemTypeInference NoTypes; ///< Domains are not needed here.

  const N::Imp *sequentially(const N::SequentiallyImp *S) override {
    // Hoist: each communication MOVE migrates upward past every already
    // placed action it is independent of, so the maximum run of
    // computation sits between the exchange and its first consumer.
    std::vector<PhaseItem> R;
    for (const N::Imp *A : S->getActions()) {
      PhaseItem X = phaseItem(rewrite(A), NoTypes);
      if (X.Kind != PhaseKind::Communication) {
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
      if (R[I].Kind != PhaseKind::Communication) {
        Out.push_back(R[I].Action);
        ++I;
        continue;
      }
      std::vector<N::MoveClause> Clauses =
          cast<N::MoveImp>(R[I].Action)->getClauses();
      size_t J = I + 1;
      for (; J < R.size() && R[J].Kind == PhaseKind::Communication; ++J) {
        const auto &More = cast<N::MoveImp>(R[J].Action)->getClauses();
        Clauses.insert(Clauses.end(), More.begin(), More.end());
        if (!N::matchExchange(Clauses)) {
          Clauses.resize(Clauses.size() - More.size());
          break;
        }
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
