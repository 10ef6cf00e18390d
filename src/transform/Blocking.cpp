//===- transform/Blocking.cpp - Domain blocking (shape-level fusion) --------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 9 / Section 4.2: "it attempts to rearrange these phases so
/// as to maximize the length of the blocks of aligned computation between
/// successive communications. Successive loops over common, aligned
/// domains appear in NIR as DO- or MOVE-constructs with common shapes, and
/// as such are easily recognized and their actions composed sequentially —
/// the shape equivalent of loop fusion."
///
/// Algorithm: within each SEQUENTIALLY, computation MOVEs migrate upward
/// past independent actions toward the nearest earlier computation MOVE
/// over the same domain; adjacent same-domain computation MOVEs then fuse
/// into single MOVEs (one PEAC computation burst each).
///
//===----------------------------------------------------------------------===//

#include "nir/Rewrite.h"
#include "nir/TypeInfer.h"
#include "transform/Effects.h"
#include "transform/Phases.h"
#include "transform/Transforms.h"

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

namespace {

class BlockingPass : public N::ImpRewriter {
public:
  explicit BlockingPass(N::NIRContext &Ctx) : ImpRewriter(Ctx) {}

private:
  N::ElemTypeInference Types;

  const N::Imp *sequentially(const N::SequentiallyImp *S) override {
    std::vector<PhaseItem> R;
    for (const N::Imp *A : S->getActions()) {
      PhaseItem X = phaseItem(rewrite(A), Types);
      if (!X.Domain) {
        R.push_back(std::move(X));
        continue;
      }
      // Find the earliest position X may move up to: everything after
      // index Blocker is independent of X.
      int Blocker = static_cast<int>(R.size()) - 1;
      while (Blocker >= 0 &&
             independent(R[static_cast<size_t>(Blocker)].Eff, X.Eff))
        --Blocker;
      // Prefer landing immediately after a same-domain computation:
      // either the blocker itself (if same-domain) or the first
      // same-domain computation below it.
      size_t Best = R.size();
      for (size_t J = Blocker < 0 ? 0 : static_cast<size_t>(Blocker);
           J < R.size(); ++J) {
        if (R[J].Domain == X.Domain &&
            (static_cast<int>(J) >= Blocker)) {
          Best = J + 1;
          break;
        }
      }
      if (Best > R.size())
        Best = R.size();
      R.insert(R.begin() + static_cast<long>(Best), std::move(X));
    }

    // Fuse adjacent same-domain computation MOVEs.
    std::vector<const N::Imp *> Out;
    size_t I = 0;
    while (I < R.size()) {
      if (!R[I].Domain) {
        Out.push_back(R[I].Action);
        ++I;
        continue;
      }
      std::vector<N::MoveClause> Clauses =
          cast<N::MoveImp>(R[I].Action)->getClauses();
      size_t J = I + 1;
      while (J < R.size() && R[J].Domain == R[I].Domain) {
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

  const N::Decl *decl(const N::WithDeclImp *W) override {
    Types.addDecl(W->getDecl());
    return W->getDecl();
  }
};

} // namespace

const N::Imp *transform::blockDomains(const N::Imp *Root, N::NIRContext &Ctx,
                                      DiagnosticEngine &) {
  return BlockingPass(Ctx).rewrite(Root);
}
