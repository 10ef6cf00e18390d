//===- nir/Decl.cpp - NIR declaration domain -------------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/Decl.h"

using namespace f90y;
using namespace f90y::nir;

void nir::forEachBinding(
    const Decl *D, const std::function<void(const std::string &, const Type *,
                                            const Value *)> &Fn) {
  forEachSimpleDecl(D, [&](const SimpleDecl *SD) {
    Fn(SD->getId(), SD->getType(), nullptr);
  });
}
