//===- nir/Decl.h - NIR declaration domain -----------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declaration domain of NIR (paper Figure 5):
///
///   DECL         id * T -> D        simple declaration
///   DECLSET      D list -> D        multiple declarations
///
/// Declarations by themselves do not define scoping; scoping is achieved by
/// the imperative bridge operator WITH_DECL(d, I). The paper's third form,
/// INITIALIZED (a declaration plus initial value), has no counterpart:
/// lowering rejects a declaration initializer other than a PARAMETER's,
/// which folds into the constants that use it.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_DECL_H
#define F90Y_NIR_DECL_H

#include "layout/LayoutDescriptor.h"
#include "nir/Type.h"
#include "nir/Value.h"
#include "support/Casting.h"

#include <functional>
#include <string>
#include <vector>

namespace f90y {
namespace nir {

/// Base class of the declaration domain.
class Decl {
public:
  enum class Kind { Simple, Set };

  Kind getKind() const { return K; }

  virtual ~Decl() = default;

protected:
  explicit Decl(Kind K) : K(K) {}

private:
  const Kind K;
};

/// DECL(id, T). Optionally carries the layout descriptor alignment
/// inference assigned to the field (canonical when defaulted); the
/// printer renders the descriptor only when non-canonical, so programs
/// untouched by the layout pass keep their historical printed form.
class SimpleDecl : public Decl {
public:
  SimpleDecl(const Symbol *Sym, const Type *Ty, layout::LayoutDescriptor L)
      : Decl(Kind::Simple), Sym(Sym), Ty(Ty), Layout(std::move(L)) {}

  const std::string &getId() const { return Sym->Name; }
  const Symbol *getSymbol() const { return Sym; }
  const Type *getType() const { return Ty; }
  const layout::LayoutDescriptor &getLayout() const { return Layout; }

  static bool classof(const Decl *D) { return D->getKind() == Kind::Simple; }

private:
  const Symbol *Sym;
  const Type *Ty;
  layout::LayoutDescriptor Layout;
};

/// DECLSET[d1, d2, ...].
class DeclSet : public Decl {
public:
  explicit DeclSet(std::vector<const Decl *> Decls)
      : Decl(Kind::Set), Decls(std::move(Decls)) {}

  const std::vector<const Decl *> &getDecls() const { return Decls; }

  static bool classof(const Decl *D) { return D->getKind() == Kind::Set; }

private:
  std::vector<const Decl *> Decls;
};

/// Visits every DECL in \p D in order, flattening DECLSETs.
template <typename Fn> void forEachSimpleDecl(const Decl *D, Fn &&F) {
  if (const auto *SD = dyn_cast<SimpleDecl>(D)) {
    F(SD);
    return;
  }
  for (const Decl *Sub : cast<DeclSet>(D)->getDecls())
    forEachSimpleDecl(Sub, F);
}

/// Visits every binding in \p D, flattening DECLSETs, invoking \p Fn with
/// its id and type. The third argument, the initial value, is always null:
/// no declaration carries one. Only the benchmark harness's oracle still
/// calls this; code under src/ uses forEachSimpleDecl.
void forEachBinding(const Decl *D,
                    const std::function<void(const std::string &, const Type *,
                                             const Value *)> &Fn);

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_DECL_H
