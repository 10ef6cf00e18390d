//===- nir/Value.h - NIR value domain ----------------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value domain of NIR (paper Figure 5) and the field-restrictor domain
/// (paper Figure 6). Value-producing operators:
///
///   BINARY  binop*V*V -> V       binary computation
///   UNARY   monop*V -> V         unary computation
///   SVAR    id -> V              scalar variable
///   SCALAR  T*s_rep -> V         scalar constant
///   FCNCALL id*(V)list -> V      function call (communication intrinsics
///                                stay in this form until the back end
///                                replaces them with CM runtime calls)
///   AVAR    id*F -> V            array variable restricted by field action
///   local_under(S,d)             coordinate value: the d-th coordinate of
///                                the current point of domain S
///
/// Field restrictors specialize the declared shape of an AVAR:
///
///   everywhere                   unrestricted, whole-shape access
///   subscript(V list)            pointwise subscripting
///   section(triplet list)        regular array section (lo:hi:stride)
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_VALUE_H
#define F90Y_NIR_VALUE_H

#include "nir/Symbol.h"
#include "nir/Type.h"
#include "support/Casting.h"

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace f90y {
namespace nir {

//===----------------------------------------------------------------------===//
// Operators
//===----------------------------------------------------------------------===//

/// Binary operators of the value domain. Comparison and logical operators
/// produce logical_32 values (used as MOVE guards / masks).
enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Pow,
  Mod,
  Min,
  Max,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or
};

/// Unary operators, including the elemental math intrinsics that lower to
/// in-processor code (as opposed to communication intrinsics, which stay as
/// FCNCALLs).
enum class UnaryOp { Neg, Not, Abs, Sqrt, Sin, Cos, Tan, Exp, Log, IntToF, FToInt };

/// Spelling of \p Op in NIR listings ("Add", "Mul", ...).
const char *binaryOpName(BinaryOp Op);
const char *unaryOpName(UnaryOp Op);

/// True for Eq/Ne/Lt/Le/Gt/Ge, whose result type is logical_32.
bool isComparison(BinaryOp Op);
/// True for And/Or.
bool isLogicalOp(BinaryOp Op);

//===----------------------------------------------------------------------===//
// Field restrictors
//===----------------------------------------------------------------------===//

class Value;

/// Base class of the field-restrictor domain (paper Figure 6, domain F).
class FieldAction {
public:
  enum class Kind { Everywhere, Subscript, Section };

  Kind getKind() const { return K; }

  virtual ~FieldAction() = default;

protected:
  explicit FieldAction(Kind K) : K(K) {}

private:
  const Kind K;
};

/// `everywhere`: unrestricted shape access. The access is parallel over the
/// whole declared shape of the array; the precise shape is supplied by
/// context (paper Section 3.2).
class EverywhereAction : public FieldAction {
public:
  EverywhereAction() : FieldAction(Kind::Everywhere) {}

  static bool classof(const FieldAction *F) {
    return F->getKind() == Kind::Everywhere;
  }
};

/// `subscript`: pointwise element access, one index value per declared
/// dimension. Indices typically reference loop coordinates via
/// local_under values.
class SubscriptAction : public FieldAction {
public:
  explicit SubscriptAction(std::vector<const Value *> Indices)
      : FieldAction(Kind::Subscript), Indices(std::move(Indices)) {}

  const std::vector<const Value *> &getIndices() const { return Indices; }

  static bool classof(const FieldAction *F) {
    return F->getKind() == Kind::Subscript;
  }

private:
  std::vector<const Value *> Indices;
};

/// One dimension of a regular section: `lo:hi:stride`, or the whole
/// dimension when `All` is set (Fortran's lone `:`). Bounds are constant;
/// the front end rejects variable section bounds in this prototype.
struct SectionTriplet {
  bool All = true;
  int64_t Lo = 0;
  int64_t Hi = 0;
  int64_t Stride = 1;

  int64_t count(int64_t DeclLo, int64_t DeclHi) const {
    int64_t L = All ? DeclLo : Lo;
    int64_t H = All ? DeclHi : Hi;
    int64_t S = All ? 1 : Stride;
    if (S == 0)
      return 0;
    if (S > 0)
      return H >= L ? (H - L) / S + 1 : 0;
    return L >= H ? (L - H) / (-S) + 1 : 0;
  }

  bool operator==(const SectionTriplet &RHS) const = default;
};

/// `section`: a regular array section (one triplet per declared dimension).
/// NIR transformations pad section accesses into full-shape masked accesses
/// (paper Figure 10) or recognize them as shift communication.
class SectionAction : public FieldAction {
public:
  explicit SectionAction(std::vector<SectionTriplet> Triplets)
      : FieldAction(Kind::Section), Triplets(std::move(Triplets)) {}

  const std::vector<SectionTriplet> &getTriplets() const { return Triplets; }

  static bool classof(const FieldAction *F) {
    return F->getKind() == Kind::Section;
  }

private:
  std::vector<SectionTriplet> Triplets;
};

//===----------------------------------------------------------------------===//
// Values
//===----------------------------------------------------------------------===//

/// Base class of the value domain.
class Value {
public:
  enum class Kind {
    Binary,
    Unary,
    SVar,
    ScalarConst,
    StrConst,
    FcnCall,
    AVar,
    LocalCoord
  };

  Kind getKind() const { return K; }

  virtual ~Value() = default;

protected:
  explicit Value(Kind K) : K(K) {}

private:
  const Kind K;
};

/// BINARY(op, lhs, rhs).
class BinaryValue : public Value {
public:
  BinaryValue(BinaryOp Op, const Value *LHS, const Value *RHS)
      : Value(Kind::Binary), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOp getOp() const { return Op; }
  const Value *getLHS() const { return LHS; }
  const Value *getRHS() const { return RHS; }

  static bool classof(const Value *V) { return V->getKind() == Kind::Binary; }

private:
  BinaryOp Op;
  const Value *LHS, *RHS;
};

/// UNARY(op, operand).
class UnaryValue : public Value {
public:
  UnaryValue(UnaryOp Op, const Value *Operand)
      : Value(Kind::Unary), Op(Op), Operand(Operand) {}

  UnaryOp getOp() const { return Op; }
  const Value *getOperand() const { return Operand; }

  static bool classof(const Value *V) { return V->getKind() == Kind::Unary; }

private:
  UnaryOp Op;
  const Value *Operand;
};

/// SVAR(id): reference to scalar storage.
class SVarValue : public Value {
public:
  explicit SVarValue(const Symbol *Sym) : Value(Kind::SVar), Sym(Sym) {}

  const std::string &getId() const { return Sym->Name; }
  const Symbol *getSymbol() const { return Sym; }

  static bool classof(const Value *V) { return V->getKind() == Kind::SVar; }

private:
  const Symbol *Sym;
};

/// SCALAR(T, rep): a scalar constant of the given machine type.
class ScalarConstValue : public Value {
public:
  using Payload = std::variant<int64_t, double, bool>;

  ScalarConstValue(const Type *Ty, Payload V)
      : Value(Kind::ScalarConst), Ty(Ty), V(V) {}

  const Type *getType() const { return Ty; }

  bool isInt() const { return std::holds_alternative<int64_t>(V); }
  bool isBool() const { return std::holds_alternative<bool>(V); }

  int64_t getInt() const { return std::get<int64_t>(V); }
  double getFloat() const { return std::get<double>(V); }
  bool getBool() const { return std::get<bool>(V); }

  /// Numeric value as a double regardless of payload kind.
  double asDouble() const {
    if (isInt())
      return static_cast<double>(getInt());
    if (isBool())
      return getBool() ? 1.0 : 0.0;
    return getFloat();
  }

  static bool classof(const Value *V) {
    return V->getKind() == Kind::ScalarConst;
  }

private:
  const Type *Ty;
  Payload V;
};

/// String constant; appears only as an argument of host-side CALL actions
/// (PRINT formatting). Strings never reach node code.
class StrConstValue : public Value {
public:
  explicit StrConstValue(std::string Str)
      : Value(Kind::StrConst), Str(std::move(Str)) {}

  const std::string &getStr() const { return Str; }

  static bool classof(const Value *V) {
    return V->getKind() == Kind::StrConst;
  }

private:
  std::string Str;
};

/// FCNCALL(id, args): call to a primitive function. After lowering, the only
/// surviving FCNCALLs are the elemental "merge" and the communication and
/// reduction intrinsics below, which the back end replaces with CM runtime
/// library calls.
class FcnCallValue : public Value {
public:
  FcnCallValue(const Symbol *Callee, std::vector<const Value *> Args)
      : Value(Kind::FcnCall), Callee(Callee), Args(std::move(Args)) {}

  const std::string &getCallee() const { return Callee->Name; }
  const Symbol *getSymbol() const { return Callee; }
  const std::vector<const Value *> &getArgs() const { return Args; }

  static bool classof(const Value *V) { return V->getKind() == Kind::FcnCall; }

private:
  const Symbol *Callee;
  std::vector<const Value *> Args;
};

/// The communication intrinsics: "cshift", "eoshift", "transpose" and
/// "spread".
bool isCommIntrinsic(const std::string &Name);
/// The reduction intrinsics: "sum", "product", "maxval", "minval", "count",
/// "any" and "all".
bool isReductionIntrinsic(const std::string &Name);
inline bool isCommOrReductionIntrinsic(const std::string &Name) {
  return isCommIntrinsic(Name) || isReductionIntrinsic(Name);
}

/// AVAR(id, F): reference to array storage bound to `id`, restricted through
/// field action F.
class AVarValue : public Value {
public:
  AVarValue(const Symbol *Sym, const FieldAction *Action)
      : Value(Kind::AVar), Sym(Sym), Action(Action) {}

  const std::string &getId() const { return Sym->Name; }
  const Symbol *getSymbol() const { return Sym; }
  const FieldAction *getAction() const { return Action; }

  static bool classof(const Value *V) { return V->getKind() == Kind::AVar; }

private:
  const Symbol *Sym;
  const FieldAction *Action;
};

/// local_under(S, d) in value position: at each point of the iteration over
/// domain `S`, evaluates to that point's d-th coordinate (1-based). This is
/// the coordinate-matrix constructor of paper Figures 7, 9, and 10.
class LocalCoordValue : public Value {
public:
  LocalCoordValue(const Symbol *Domain, unsigned Dim)
      : Value(Kind::LocalCoord), Domain(Domain), Dim(Dim) {}

  const std::string &getDomain() const { return Domain->Name; }
  const Symbol *getSymbol() const { return Domain; }
  unsigned getDim() const { return Dim; }

  static bool classof(const Value *V) {
    return V->getKind() == Kind::LocalCoord;
  }

private:
  const Symbol *Domain;
  unsigned Dim;
};

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_VALUE_H
