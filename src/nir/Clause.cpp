//===- nir/Clause.cpp - Canonical MOVE clause forms -----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/Clause.h"

#include "nir/NIRContext.h"

using namespace f90y;
using namespace f90y::nir;

bool nir::isTrueGuard(const Value *Guard) {
  if (!Guard)
    return true;
  const auto *C = dyn_cast<ScalarConstValue>(Guard);
  return C && C->isBool() && C->getBool();
}

/// \p V as an integer constant.
static std::optional<int64_t> intConst(const Value *V) {
  const auto *C = dyn_cast<ScalarConstValue>(V);
  if (!C || !C->isInt())
    return std::nullopt;
  return C->getInt();
}

/// \p V when it is a whole-field AVAR.
static const AVarValue *wholeField(const Value *V) {
  const auto *AV = dyn_cast_or_null<AVarValue>(V);
  return AV && isa<EverywhereAction>(AV->getAction()) ? AV : nullptr;
}

std::optional<ShiftClause> nir::matchShift(const MoveClause &C) {
  const auto *F = dyn_cast<FcnCallValue>(C.Src);
  if (!F || !isTrueGuard(C.Guard))
    return std::nullopt;
  bool EndOff = F->getCallee() == "eoshift";
  size_t Arity = F->getArgs().size();
  if ((!EndOff && F->getCallee() != "cshift") ||
      (Arity != 3 && (Arity != 4 || EndOff)))
    return std::nullopt;
  ShiftClause S;
  S.Dst = wholeField(C.Dst);
  S.Src = wholeField(F->getArgs()[0]);
  std::optional<int64_t> Shift = intConst(F->getArgs()[1]);
  std::optional<int64_t> Dim = intConst(F->getArgs()[2]);
  std::optional<int64_t> Logical =
      Arity == 4 ? intConst(F->getArgs()[3]) : Shift;
  if (!S.Dst || !S.Src || !Shift || !Dim || !Logical)
    return std::nullopt;
  S.Shift = *Shift;
  S.Dim = *Dim;
  S.EndOff = EndOff;
  S.Logical = *Logical;
  return S;
}

std::optional<std::vector<ShiftClause>>
nir::matchExchange(const std::vector<MoveClause> &Clauses) {
  std::vector<ShiftClause> Shifts;
  for (const MoveClause &C : Clauses) {
    std::optional<ShiftClause> S = matchShift(C);
    if (!S || S->isRealigned() || S->Dst->getSymbol() == S->Src->getSymbol())
      return std::nullopt;
    const ShiftClause &First = Shifts.empty() ? *S : Shifts.front();
    if (S->Src->getSymbol() != First.Src->getSymbol() || S->Dim != First.Dim ||
        S->EndOff != First.EndOff)
      return std::nullopt;
    for (const ShiftClause &Earlier : Shifts)
      if (Earlier.Dst->getSymbol() == S->Dst->getSymbol())
        return std::nullopt;
    Shifts.push_back(*S);
  }
  return Shifts;
}

const Value *nir::buildRealignedShift(NIRContext &Ctx, const ShiftClause &S,
                                      int64_t Physical) {
  return Ctx.getFcnCall("cshift", {S.Src, Ctx.getIntConst(Physical),
                                   Ctx.getIntConst(S.Dim),
                                   Ctx.getIntConst(S.Logical)});
}
