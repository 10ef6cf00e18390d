//===- interp/RtValue.h - Runtime scalar values -------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamically-typed scalar values used by the reference NIR interpreter.
/// Fortran numeric semantics: integer division truncates toward zero, MOD
/// takes the sign of the dividend, and integer**integer stays integral.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_INTERP_RTVALUE_H
#define F90Y_INTERP_RTVALUE_H

#include "nir/Value.h"

#include <cstdint>
#include <string>

namespace f90y {
namespace interp {

/// One runtime scalar.
struct RtVal {
  enum class Kind { Int, Real, Bool };

  Kind K = Kind::Real;
  int64_t I = 0;
  double R = 0.0;
  bool B = false;

  static RtVal makeInt(int64_t V) {
    RtVal X;
    X.K = Kind::Int;
    X.I = V;
    return X;
  }
  static RtVal makeReal(double V) {
    RtVal X;
    X.K = Kind::Real;
    X.R = V;
    return X;
  }
  static RtVal makeBool(bool V) {
    RtVal X;
    X.K = Kind::Bool;
    X.B = V;
    return X;
  }

  bool isInt() const { return K == Kind::Int; }
  bool isBool() const { return K == Kind::Bool; }

  double asReal() const {
    switch (K) {
    case Kind::Int:
      return static_cast<double>(I);
    case Kind::Real:
      return R;
    case Kind::Bool:
      return B ? 1.0 : 0.0;
    }
    return 0.0;
  }

  int64_t asInt() const {
    switch (K) {
    case Kind::Int:
      return I;
    case Kind::Real:
      return static_cast<int64_t>(R); // Truncation toward zero.
    case Kind::Bool:
      return B ? 1 : 0;
    }
    return 0;
  }

  bool asBool() const {
    switch (K) {
    case Kind::Bool:
      return B;
    case Kind::Int:
      return I != 0;
    case Kind::Real:
      return R != 0.0;
    }
    return false;
  }

  std::string str() const;
};

/// Applies a NIR binary operator with Fortran semantics. \p FlopCounter, if
/// non-null, is incremented when the operation is a floating-point
/// arithmetic operation (the metric used for sustained-GFLOPS accounting).
RtVal applyBinary(nir::BinaryOp Op, const RtVal &L, const RtVal &R,
                  uint64_t *FlopCounter = nullptr);

/// Applies a NIR unary operator.
RtVal applyUnary(nir::UnaryOp Op, const RtVal &V,
                 uint64_t *FlopCounter = nullptr);

} // namespace interp
} // namespace f90y

#endif // F90Y_INTERP_RTVALUE_H
