//===- transform/MaskSections.cpp - Pad sections to masked moves ------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figure 10: "By generating mask code, the compiler pads
/// computations over array subsections to full-array operations,
/// increasing the pool of sibling computations which could be implemented
/// in the same computation block."
///
/// A sectioned MOVE clause is *aligned* when every sectioned operand uses
/// the identical triplets as the destination; the element correspondence
/// is then coordinate-wise, so the clause can be rewritten over the full
/// shape under a coordinate mask built from local_under values:
///
///   b(1:32:2,:) = a(1:32:2,:)
///     ==>  MOVE[(mod(local_under(S,1) - 1, 2) == 0,
///                (AVAR('a', everywhere), AVAR('b', everywhere)))]
///
/// Misaligned sections are left untouched; they are communication.
///
//===----------------------------------------------------------------------===//

#include "nir/Clause.h"
#include "nir/Rewrite.h"
#include "nir/TypeInfer.h"
#include "transform/Phases.h"
#include "transform/Transforms.h"

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

namespace {

class MaskSectionsPass : public N::ImpRewriter {
public:
  explicit MaskSectionsPass(N::NIRContext &Ctx) : ImpRewriter(Ctx) {}

private:
  N::ElemTypeInference Types;

  /// Collects the triplets of every sectioned AVAR in \p V into \p Out;
  /// returns false if two sectioned reads disagree.
  bool collectSectionReads(const N::Value *V,
                           const std::vector<N::SectionTriplet> *&Out) {
    bool Agree = true;
    N::forEachValue(V, [&](const N::Value *X) {
      const auto *AV = dyn_cast<N::AVarValue>(X);
      if (!AV || !Agree)
        return Agree;
      if (const auto *Sec = dyn_cast<N::SectionAction>(AV->getAction())) {
        if (!Out)
          Out = &Sec->getTriplets();
        Agree = *Out == Sec->getTriplets();
      }
      return false;
    });
    return Agree;
  }

  /// Mask condition for one dimension's triplet over \p Domain.
  const N::Value *dimMask(const N::Symbol *Domain, unsigned Dim,
                          const N::SectionTriplet &T) {
    if (T.All)
      return nullptr;
    const N::Value *Coord = Ctx.getLocalCoord(Domain, Dim);
    const N::Value *Cond = nullptr;
    auto AndIn = [&](const N::Value *C) {
      Cond = Cond ? Ctx.getBinary(N::BinaryOp::And, Cond, C) : C;
    };
    if (T.Stride > 0) {
      AndIn(Ctx.getBinary(N::BinaryOp::Ge, Coord, Ctx.getIntConst(T.Lo)));
      AndIn(Ctx.getBinary(N::BinaryOp::Le, Coord, Ctx.getIntConst(T.Hi)));
      if (T.Stride != 1)
        AndIn(Ctx.getBinary(
            N::BinaryOp::Eq,
            Ctx.getBinary(N::BinaryOp::Mod,
                          Ctx.getBinary(N::BinaryOp::Sub, Coord,
                                        Ctx.getIntConst(T.Lo)),
                          Ctx.getIntConst(T.Stride)),
            Ctx.getIntConst(0)));
    } else {
      AndIn(Ctx.getBinary(N::BinaryOp::Le, Coord, Ctx.getIntConst(T.Lo)));
      AndIn(Ctx.getBinary(N::BinaryOp::Ge, Coord, Ctx.getIntConst(T.Hi)));
      if (T.Stride != -1)
        AndIn(Ctx.getBinary(
            N::BinaryOp::Eq,
            Ctx.getBinary(N::BinaryOp::Mod,
                          Ctx.getBinary(N::BinaryOp::Sub,
                                        Ctx.getIntConst(T.Lo), Coord),
                          Ctx.getIntConst(-T.Stride)),
            Ctx.getIntConst(0)));
    }
    return Cond;
  }

  /// Attempts the aligned-section-to-mask rewrite on one clause. Returns
  /// true (and replaces \p C) on success.
  bool tryMaskClause(N::MoveClause &C) {
    const auto *DstAV = dyn_cast<N::AVarValue>(C.Dst);
    if (!DstAV)
      return false;
    const auto *DstSec = dyn_cast<N::SectionAction>(DstAV->getAction());
    if (!DstSec)
      return false;

    // Every sectioned read must agree with the destination triplets.
    const std::vector<N::SectionTriplet> *ReadTriplets = nullptr;
    if (!collectSectionReads(C.Src, ReadTriplets) ||
        !collectSectionReads(C.Guard, ReadTriplets))
      return false;
    if (ReadTriplets && *ReadTriplets != DstSec->getTriplets())
      return false;
    // Everywhere reads cannot appear in a genuinely restricted statement
    // (shapecheck would have rejected them), so alignment is established.

    const auto *FT =
        dyn_cast_or_null<N::DFieldType>(Types.lookup(DstAV->getSymbol()));
    if (!FT)
      return false;
    const auto *Ref = dyn_cast<N::DomainRefShape>(FT->getShape());
    if (!Ref)
      return false;
    const N::Symbol *Domain = Ref->getSymbol();

    const N::Value *Mask = nullptr;
    for (size_t D = 0; D < DstSec->getTriplets().size(); ++D) {
      const N::Value *M = dimMask(Domain, static_cast<unsigned>(D + 1),
                                  DstSec->getTriplets()[D]);
      if (!M)
        continue;
      Mask = Mask ? Ctx.getBinary(N::BinaryOp::And, Mask, M) : M;
    }

    const N::Value *Guard = C.Guard;
    if (Mask)
      Guard = N::isTrueGuard(Guard)
                  ? Mask
                  : Ctx.getBinary(N::BinaryOp::And, Guard, Mask);

    C.Guard = Guard ? Guard : Ctx.getTrue();
    C.Src = N::mapAVars(C.Src, Ctx, [&](const N::AVarValue *AV) {
      return isa<N::SectionAction>(AV->getAction())
                 ? Ctx.getAVar(AV->getSymbol(), Ctx.getEverywhere())
                 : AV;
    });
    C.Dst = Ctx.getAVar(DstAV->getSymbol(), Ctx.getEverywhere());
    return true;
  }

  const N::Decl *decl(const N::WithDeclImp *W) override {
    Types.addDecl(W->getDecl());
    return W->getDecl();
  }

  const N::Imp *move(const N::MoveImp *M) override {
    std::vector<N::MoveClause> Clauses = M->getClauses();
    bool Changed = false;
    for (N::MoveClause &C : Clauses)
      Changed |= tryMaskClause(C);
    return Changed ? Ctx.getMove(Clauses) : M;
  }
};

} // namespace

const N::Imp *transform::maskSections(const N::Imp *Root, N::NIRContext &Ctx,
                                      DiagnosticEngine &) {
  return MaskSectionsPass(Ctx).rewrite(Root);
}
