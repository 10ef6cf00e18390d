//===- nir/Shape.h - NIR shape domain ----------------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shape domain of the Native Intermediate Language (paper Figure 6).
/// Shapes model serial and parallel iteration over abstract Cartesian
/// product spaces:
///
///   point            int -> S          single point
///   interval         S*S -> S          parallel vector shape
///   serial_interval  S*S -> S          serial vector shape
///   prod_dom         S list -> S       shape cross-product
///
/// In addition, a shape may be a *reference* to a named domain introduced by
/// the imperative WITH_DOMAIN operator, which is how user code and the
/// lowering phase share one shape across many computations.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_SHAPE_H
#define F90Y_NIR_SHAPE_H

#include "nir/Symbol.h"
#include "support/Casting.h"

#include <cstdint>
#include <string>
#include <vector>

namespace f90y {
namespace nir {

class Shape;

/// One resolved dimension of a shape: the closed index range [Lo, Hi] and
/// whether iteration over it is serial or parallel.
struct ShapeExtent {
  int64_t Lo = 0;
  int64_t Hi = 0;
  bool Serial = false;

  int64_t size() const { return Hi >= Lo ? Hi - Lo + 1 : 0; }

  bool operator==(const ShapeExtent &RHS) const = default;
};

/// Base class of the shape domain.
class Shape {
public:
  enum class Kind { Point, Interval, SerialInterval, ProdDom, DomainRef };

  Kind getKind() const { return K; }

  virtual ~Shape() = default;

protected:
  explicit Shape(Kind K) : K(K) {}

private:
  const Kind K;
};

/// A single point: the degenerate, zero-dimensional iteration space.
class PointShape : public Shape {
public:
  explicit PointShape(int64_t Value) : Shape(Kind::Point), Value(Value) {}

  int64_t getValue() const { return Value; }

  static bool classof(const Shape *S) { return S->getKind() == Kind::Point; }

private:
  int64_t Value;
};

/// A one-dimensional index range. The kind distinguishes a *parallel*
/// interval (every point may be visited concurrently) from a *serial* one
/// (points must be visited in order, e.g. a time loop or a loop whose body
/// carries dependencies).
class IntervalShape : public Shape {
public:
  IntervalShape(int64_t Lo, int64_t Hi, bool Serial)
      : Shape(Serial ? Kind::SerialInterval : Kind::Interval), Lo(Lo), Hi(Hi) {
  }

  int64_t getLo() const { return Lo; }
  int64_t getHi() const { return Hi; }
  bool isSerial() const { return getKind() == Kind::SerialInterval; }
  int64_t size() const { return Hi >= Lo ? Hi - Lo + 1 : 0; }

  static bool classof(const Shape *S) {
    return S->getKind() == Kind::Interval ||
           S->getKind() == Kind::SerialInterval;
  }

private:
  int64_t Lo, Hi;
};

/// Cartesian product of shapes; the basis for multidimensional arrays and
/// nested loops. Dimension order follows Fortran source order (dimension 1
/// first).
class ProdDomShape : public Shape {
public:
  explicit ProdDomShape(std::vector<const Shape *> Dims)
      : Shape(Kind::ProdDom), Dims(std::move(Dims)) {}

  const std::vector<const Shape *> &getDims() const { return Dims; }

  static bool classof(const Shape *S) { return S->getKind() == Kind::ProdDom; }

private:
  std::vector<const Shape *> Dims;
};

/// Reference to a domain bound by WITH_DOMAIN. The binding environment is
/// threaded by whichever analysis is walking the program (see DomainEnv).
class DomainRefShape : public Shape {
public:
  explicit DomainRefShape(const Symbol *Name)
      : Shape(Kind::DomainRef), Name(Name) {}

  const std::string &getName() const { return Name->Name; }
  const Symbol *getSymbol() const { return Name; }

  static bool classof(const Shape *S) {
    return S->getKind() == Kind::DomainRef;
  }

private:
  const Symbol *Name;
};

/// Lexical environment mapping domain names (bound by WITH_DOMAIN) to their
/// shapes. Shadowing follows lexical scope; analyses push/pop bindings as
/// they walk the imperative tree.
class DomainEnv {
public:
  /// Binds \p Name to \p S, returning the previous binding (or null) so the
  /// caller can restore it on scope exit.
  const Shape *bind(const Symbol *Name, const Shape *S) {
    const Shape *Old = lookup(Name);
    Bindings[Name] = S;
    return Old;
  }

  void restore(const Symbol *Name, const Shape *Old) { Bindings[Name] = Old; }

  /// Returns the binding for \p Name, or null if unbound.
  const Shape *lookup(const Symbol *Name) const {
    return Bindings.lookup(Name);
  }

private:
  SymbolMap<const Shape *> Bindings;
};

/// Follows DomainRef links through \p Env until a structural shape is
/// reached. Returns null if a reference is unbound.
const Shape *resolveShape(const Shape *S, const DomainEnv &Env);

/// Flattens \p S (after resolving references through \p Env) into a list of
/// per-dimension extents. A Point contributes no dimensions. Returns false
/// if any reference is unbound.
bool shapeExtents(const Shape *S, const DomainEnv &Env,
                  std::vector<ShapeExtent> &Out);

/// Number of index points in \p S (product of extent sizes; 1 for a point).
/// Returns -1 if the shape cannot be resolved.
int64_t shapeNumElements(const Shape *S, const DomainEnv &Env);

/// Number of dimensions of \p S after resolution, or -1 if unresolvable.
int rankOf(const Shape *S, const DomainEnv &Env);

/// True if \p A and \p B resolve to structurally identical extent lists
/// (same bounds, same serial/parallel classification per dimension).
bool shapesIdentical(const Shape *A, const Shape *B, const DomainEnv &Env);

/// True if \p A and \p B are *conformable* in the Fortran-90 sense: the
/// same rank and the same size in every dimension (bounds may differ).
/// This is the check performed by static shapechecking.
bool shapesConformable(const Shape *A, const Shape *B, const DomainEnv &Env);

/// True if every dimension of \p S is parallel (no serial_interval), i.e.
/// the whole space may be executed as one data-parallel computation.
bool shapeFullyParallel(const Shape *S, const DomainEnv &Env);

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_SHAPE_H
