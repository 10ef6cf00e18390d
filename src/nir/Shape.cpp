//===- nir/Shape.cpp - NIR shape domain ------------------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/Shape.h"

using namespace f90y;
using namespace f90y::nir;

const Shape *nir::resolveShape(const Shape *S, const DomainEnv &Env) {
  // Domain references may chain (a domain bound to another reference);
  // follow them with a small step bound to catch accidental cycles.
  for (unsigned Steps = 0; Steps < 64; ++Steps) {
    const auto *Ref = dyn_cast<DomainRefShape>(S);
    if (!Ref)
      return S;
    const Shape *Next = Env.lookup(Ref->getSymbol());
    if (!Next)
      return nullptr;
    S = Next;
  }
  return nullptr;
}

bool nir::shapeExtents(const Shape *S, const DomainEnv &Env,
                       std::vector<ShapeExtent> &Out) {
  S = resolveShape(S, Env);
  if (!S)
    return false;
  switch (S->getKind()) {
  case Shape::Kind::Point:
    return true; // Zero-dimensional: contributes no extents.
  case Shape::Kind::Interval:
  case Shape::Kind::SerialInterval: {
    const auto *IV = cast<IntervalShape>(S);
    Out.push_back({IV->getLo(), IV->getHi(), IV->isSerial()});
    return true;
  }
  case Shape::Kind::ProdDom: {
    for (const Shape *Dim : cast<ProdDomShape>(S)->getDims())
      if (!shapeExtents(Dim, Env, Out))
        return false;
    return true;
  }
  case Shape::Kind::DomainRef:
    break; // Resolved above; unreachable.
  }
  return false;
}

/// Folds \p S's extents into \p Rank and \p N as shapeExtents lists
/// them, without the list; false when a domain reference is unbound.
static bool countExtents(const Shape *S, const DomainEnv &Env, int &Rank,
                         int64_t &N) {
  S = resolveShape(S, Env);
  if (!S)
    return false;
  if (const auto *IV = dyn_cast<IntervalShape>(S)) {
    ++Rank;
    N *= IV->size();
  } else if (const auto *P = dyn_cast<ProdDomShape>(S)) {
    for (const Shape *Dim : P->getDims())
      if (!countExtents(Dim, Env, Rank, N))
        return false;
  }
  return true; // A point contributes no extent.
}

int64_t nir::shapeNumElements(const Shape *S, const DomainEnv &Env) {
  int Rank = 0;
  int64_t N = 1;
  return countExtents(S, Env, Rank, N) ? N : -1;
}

int nir::rankOf(const Shape *S, const DomainEnv &Env) {
  int Rank = 0;
  int64_t N = 1;
  return countExtents(S, Env, Rank, N) ? Rank : -1;
}

bool nir::shapesIdentical(const Shape *A, const Shape *B,
                          const DomainEnv &Env) {
  std::vector<ShapeExtent> EA, EB;
  if (!shapeExtents(A, Env, EA) || !shapeExtents(B, Env, EB))
    return false;
  return EA == EB;
}

bool nir::shapesConformable(const Shape *A, const Shape *B,
                            const DomainEnv &Env) {
  std::vector<ShapeExtent> EA, EB;
  if (!shapeExtents(A, Env, EA) || !shapeExtents(B, Env, EB))
    return false;
  if (EA.size() != EB.size())
    return false;
  for (size_t I = 0, E = EA.size(); I != E; ++I)
    if (EA[I].size() != EB[I].size())
      return false;
  return true;
}

bool nir::shapeFullyParallel(const Shape *S, const DomainEnv &Env) {
  std::vector<ShapeExtent> Exts;
  if (!shapeExtents(S, Env, Exts))
    return false;
  for (const ShapeExtent &E : Exts)
    if (E.Serial)
      return false;
  return true;
}
