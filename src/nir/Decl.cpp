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
  switch (D->getKind()) {
  case Decl::Kind::Simple: {
    const auto *SD = cast<SimpleDecl>(D);
    Fn(SD->getId(), SD->getType(), nullptr);
    return;
  }
  case Decl::Kind::Set: {
    for (const Decl *Sub : cast<DeclSet>(D)->getDecls())
      forEachBinding(Sub, Fn);
    return;
  }
  }
}

const layout::LayoutDescriptor *nir::findLayout(const Decl *D,
                                                const std::string &Id) {
  switch (D->getKind()) {
  case Decl::Kind::Simple: {
    const auto *SD = cast<SimpleDecl>(D);
    return SD->getId() == Id ? &SD->getLayout() : nullptr;
  }
  case Decl::Kind::Set:
    for (const Decl *Sub : cast<DeclSet>(D)->getDecls())
      if (const layout::LayoutDescriptor *L = findLayout(Sub, Id))
        return L;
    return nullptr;
  }
  return nullptr;
}
