//===- nir/Rewrite.h - One rewriter under every NIR pass ---------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one traversal of the imperative domain that every NIR-to-NIR
/// transformation builds on. ImpRewriter walks the eleven Imp kinds and
/// rebuilds a node only when one of its children changed, so a rewrite
/// that changes nothing returns its input node and a local change shares
/// every untouched subtree. A pass overrides only the hooks it needs:
///
///   move, call     replace one MOVE / CALL (default: keep it);
///   sequentially   rearrange one SEQUENTIALLY (default: rewrite each
///                  action); the hook calls rewrite() on the actions itself,
///                  so each pass keeps its own order of work;
///   decl           the declaration a WITH_DECL keeps, asked before its
///                  body is rewritten; null splices the scope out;
///   withDomain     one WITH_DOMAIN (default: rewrite the body), for passes
///                  that track domain bindings around the body.
///
/// forEachImp and mapAVars are the matching read-only visit and the
/// value-domain substitution. forEachValue is the one read-only walk of a
/// value tree: every fold that only reads values (effects, use counts,
/// participants, gathers, verifier checks, PEAC argument discovery) is a
/// visitor on it, and names no child of any value kind itself.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_REWRITE_H
#define F90Y_NIR_REWRITE_H

#include "nir/NIRContext.h"

#include <functional>
#include <vector>

namespace f90y {
namespace nir {

class ImpRewriter {
public:
  explicit ImpRewriter(NIRContext &Ctx) : Ctx(Ctx) {}

  /// Rewrites \p I; returns \p I itself when nothing under it changed.
  const Imp *rewrite(const Imp *I);

protected:
  NIRContext &Ctx;

  virtual const Imp *move(const MoveImp *M) { return M; }
  virtual const Imp *call(const CallImp *C) { return C; }
  virtual const Imp *sequentially(const SequentiallyImp *S);
  virtual const Decl *decl(const WithDeclImp *W) { return W->getDecl(); }
  virtual const Imp *withDomain(const WithDomainImp *W);

  /// \p S when \p Actions are its own, else a SEQUENTIALLY of them.
  const Imp *sequence(const SequentiallyImp *S,
                      std::vector<const Imp *> Actions);

private:
  /// Rewrites each action; true when any changed.
  bool rewriteAll(const std::vector<const Imp *> &In,
                  std::vector<const Imp *> &Out);
};

/// Calls \p Visit on every imperative node under \p Root, parents before
/// children and siblings in order.
void forEachImp(const Imp *Root,
                const std::function<void(const Imp *)> &Visit);

/// Calls \p Visit on \p V and, when it returns true, on V's children in
/// order: a BINARY's lhs then rhs, a UNARY's operand, an FCNCALL's
/// arguments, and a subscripted AVAR's indices. Parents come before their
/// children; a visitor that returns false prunes the subtree below the
/// node it was given. A null \p V visits nothing.
template <typename Fn> void forEachValue(const Value *V, Fn &&Visit) {
  if (!V || !Visit(V))
    return;
  switch (V->getKind()) {
  case Value::Kind::Binary:
    forEachValue(cast<BinaryValue>(V)->getLHS(), Visit);
    forEachValue(cast<BinaryValue>(V)->getRHS(), Visit);
    return;
  case Value::Kind::Unary:
    forEachValue(cast<UnaryValue>(V)->getOperand(), Visit);
    return;
  case Value::Kind::FcnCall:
    for (const Value *A : cast<FcnCallValue>(V)->getArgs())
      forEachValue(A, Visit);
    return;
  case Value::Kind::AVar:
    if (const auto *Sub =
            dyn_cast<SubscriptAction>(cast<AVarValue>(V)->getAction()))
      for (const Value *I : Sub->getIndices())
        forEachValue(I, Visit);
    return;
  case Value::Kind::SVar:
  case Value::Kind::ScalarConst:
  case Value::Kind::StrConst:
  case Value::Kind::LocalCoord:
    return;
  }
}

/// True when a communication or reduction intrinsic is called anywhere
/// under \p V, subscript indices included.
bool containsCommCall(const Value *V);

/// Replaces each AVAR in \p V by \p Map's result for it (the AVAR itself
/// keeps it), sharing every unchanged subtree. An AVAR's subscript indices
/// are not visited: \p Map sees the whole AVAR.
const Value *
mapAVars(const Value *V, NIRContext &Ctx,
         const std::function<const Value *(const AVarValue *)> &Map);

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_REWRITE_H
