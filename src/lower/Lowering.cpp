//===- lower/Lowering.cpp - AST to NIR semantic lowering --------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lower/Lowering.h"

#include "nir/Printer.h"
#include "nir/Rewrite.h"
#include "nir/Verifier.h"
#include "support/StringUtil.h"

#include <cmath>
#include <map>
#include <set>

using namespace f90y;
using namespace f90y::lower;
using namespace f90y::frontend;
using namespace f90y::frontend::ast;
namespace N = f90y::nir;

namespace {

/// True when \p V contains a subscripted array read whose indices depend
/// on coordinates of \p Domain at any depth, through nested subscripts and
/// calls (a gather that cannot run grid-locally).
bool containsGather(const N::Value *V, const N::Symbol *Domain) {
  bool Found = false;
  auto ReadsCoord = [&](const N::Value *X) {
    const auto *LC = dyn_cast<N::LocalCoordValue>(X);
    Found |= LC && LC->getSymbol() == Domain;
    return !Found;
  };
  N::forEachValue(V, [&](const N::Value *X) {
    const auto *AV = dyn_cast<N::AVarValue>(X);
    if (AV && isa<N::SubscriptAction>(AV->getAction())) {
      N::forEachValue(AV, ReadsCoord);
      return false;
    }
    return !Found;
  });
  return Found;
}

/// A lowered expression: the NIR value plus its elemental scalar type and
/// its shape (null shape = scalar).
struct LoweredExpr {
  const N::Value *V = nullptr;
  const N::Type *ElemTy = nullptr;
  const N::Shape *Sh = nullptr; ///< Null for scalars.
  /// Per-dimension element counts when Sh is non-null (section counts for
  /// sectioned references, full extents otherwise).
  std::vector<int64_t> Counts;

  bool isScalar() const { return Sh == nullptr; }
};

class LoweringImpl {
public:
  LoweringImpl(const ProgramUnit &Unit, N::NIRContext &Ctx,
               DiagnosticEngine &Diags)
      : Unit(Unit), Ctx(Ctx), Diags(Diags) {}

  std::optional<LoweredProgram> run();

private:
  const ProgramUnit &Unit;
  N::NIRContext &Ctx;
  DiagnosticEngine &Diags;

  struct VarInfo {
    const N::Type *Ty = nullptr; ///< Scalar type or DFieldType.
    const N::Symbol *Domain = nullptr; ///< Domain of arrays.
    std::vector<N::ShapeExtent> Extents;
    const N::ScalarConstValue *ParamValue = nullptr;

    bool isArray() const { return Domain != nullptr; }
    bool isParameter() const { return ParamValue != nullptr; }
  };

  N::SymbolMap<VarInfo> Vars; ///< Declared names (null Ty: undeclared).

  VarInfo *findVar(const std::string &Name) {
    VarInfo &V = Vars[Ctx.intern(Name)];
    return V.Ty ? &V : nullptr;
  }

  /// Loop variables currently in scope, mapped to their coordinate value
  /// (null: not a loop variable).
  N::SymbolMap<const N::Value *> LoopVars;

  const N::Value *&loopVar(const std::string &Name) {
    return LoopVars[Ctx.intern(Name)];
  }

  /// Domains created for declared array shapes, keyed by extent signature.
  std::map<std::string, const N::Symbol *> DomainBySig;
  std::vector<std::pair<const N::Symbol *, const N::Shape *>> DomainOrder;
  unsigned DomainCounter = 0;

  bool HadError = false;

  void error(SourceLocation Loc, const std::string &Msg) {
    Diags.error(Loc, Msg);
    HadError = true;
  }

  //===------------------------------------------------------------------===//
  // Constants and parameters
  //===------------------------------------------------------------------===//

  std::optional<int64_t> evalConstInt(const Expr *E);
  std::optional<double> evalConstReal(const Expr *E);

  //===------------------------------------------------------------------===//
  // Declarations and domains
  //===------------------------------------------------------------------===//

  const N::ScalarType *scalarTypeFor(TypeSpec Ty) {
    switch (Ty) {
    case TypeSpec::Integer:
      return Ctx.getInteger32();
    case TypeSpec::Real:
      return Ctx.getFloat32();
    case TypeSpec::DoublePrecision:
      return Ctx.getFloat64();
    case TypeSpec::Logical:
      return Ctx.getLogical32();
    }
    return Ctx.getFloat32();
  }

  /// Returns (creating if needed) the domain name for the given extents.
  /// Arrays with identical shapes share one domain — the basis for the
  /// domain-blocking transformation.
  const N::Symbol *domainFor(const std::vector<N::ShapeExtent> &Extents);

  bool processDecls();

  //===------------------------------------------------------------------===//
  // Values (the value-domain semantic equation)
  //===------------------------------------------------------------------===//

  /// Context for expression lowering. When Counts is non-empty the
  /// expression appears in a parallel statement whose per-dimension element
  /// counts are given; field-valued operands must conform.
  struct ExprCtx {
    bool Parallel = false;
    std::vector<int64_t> Counts; ///< Expected counts (empty = any).
  };

  std::optional<LoweredExpr> lowerExpr(const Expr *E, const ExprCtx &EC);
  std::optional<LoweredExpr> lowerBinary(const BinaryExpr *E,
                                         const ExprCtx &EC);
  std::optional<LoweredExpr> lowerCall(const CallExpr *E, const ExprCtx &EC);
  std::optional<LoweredExpr> lowerArrayRef(const ArrayRefExpr *E,
                                           const ExprCtx &EC);

  /// Inserts an int-to-float conversion when \p Want is floating and the
  /// expression is integral.
  LoweredExpr convertTo(LoweredExpr LE, const N::Type *Want);

  /// Joint result type of arithmetic between \p A and \p B.
  const N::Type *promote(const N::Type *A, const N::Type *B) {
    if (A->getKind() == N::Type::Kind::Float64 ||
        B->getKind() == N::Type::Kind::Float64)
      return Ctx.getFloat64();
    if (A->isFloating() || B->isFloating())
      return Ctx.getFloat32();
    return Ctx.getInteger32();
  }

  /// Shape agreement for two operands; reports an error and returns false
  /// when two field operands disagree. On success merges shape/counts of
  /// \p B into \p A (scalar + field = field).
  bool mergeShapes(LoweredExpr &A, const LoweredExpr &B, SourceLocation Loc);

  //===------------------------------------------------------------------===//
  // Imperatives (the imperative-domain semantic equation)
  //===------------------------------------------------------------------===//

  const N::Imp *lowerStmt(const Stmt *S);
  const N::Imp *lowerAssign(const AssignStmt *S);
  const N::Imp *lowerIf(const IfStmt *S);
  const N::Imp *lowerDoLoop(const DoLoopStmt *S);
  const N::Imp *lowerDoWhile(const DoWhileStmt *S);
  const N::Imp *lowerWhere(const WhereStmt *S);
  const N::Imp *lowerForall(const ForallStmt *S);
  const N::Imp *lowerPrint(const PrintStmt *S);
  const N::Imp *lowerBlock(const std::vector<const Stmt *> &Stmts);

  /// Lowers a scalar-context expression, reporting an error if it turns out
  /// field-valued.
  const N::Value *lowerScalarExpr(const Expr *E, const char *What);
};

//===----------------------------------------------------------------------===//
// Constants
//===----------------------------------------------------------------------===//

std::optional<int64_t> LoweringImpl::evalConstInt(const Expr *E) {
  if (const auto *I = dyn_cast<IntLitExpr>(E))
    return I->getValue();
  if (const auto *Id = dyn_cast<IdentExpr>(E)) {
    VarInfo *Var = findVar(Id->getName());
    if (Var && Var->isParameter() && Var->ParamValue->isInt())
      return Var->ParamValue->getInt();
    return std::nullopt;
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    auto V = evalConstInt(U->getOperand());
    if (!V)
      return std::nullopt;
    switch (U->getOp()) {
    case UnOp::Neg:
      return -*V;
    case UnOp::Plus:
      return *V;
    case UnOp::Not:
      return std::nullopt;
    }
  }
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    auto L = evalConstInt(B->getLHS());
    auto R = evalConstInt(B->getRHS());
    if (!L || !R)
      return std::nullopt;
    switch (B->getOp()) {
    case BinOp::Add:
      return *L + *R;
    case BinOp::Sub:
      return *L - *R;
    case BinOp::Mul:
      return *L * *R;
    case BinOp::Div:
      return *R == 0 ? std::nullopt : std::optional<int64_t>(*L / *R);
    case BinOp::Pow: {
      if (*R < 0)
        return std::nullopt;
      int64_t Acc = 1;
      for (int64_t I = 0; I < *R; ++I)
        Acc *= *L;
      return Acc;
    }
    default:
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<double> LoweringImpl::evalConstReal(const Expr *E) {
  if (const auto *R = dyn_cast<RealLitExpr>(E))
    return R->getValue();
  if (const auto *I = dyn_cast<IntLitExpr>(E))
    return static_cast<double>(I->getValue());
  if (const auto *Id = dyn_cast<IdentExpr>(E)) {
    VarInfo *Var = findVar(Id->getName());
    if (Var && Var->isParameter())
      return Var->ParamValue->asDouble();
    return std::nullopt;
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    auto V = evalConstReal(U->getOperand());
    if (!V || U->getOp() == UnOp::Not)
      return std::nullopt;
    return U->getOp() == UnOp::Neg ? -*V : *V;
  }
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    auto L = evalConstReal(B->getLHS());
    auto R = evalConstReal(B->getRHS());
    if (!L || !R)
      return std::nullopt;
    switch (B->getOp()) {
    case BinOp::Add:
      return *L + *R;
    case BinOp::Sub:
      return *L - *R;
    case BinOp::Mul:
      return *L * *R;
    case BinOp::Div:
      return *L / *R;
    case BinOp::Pow:
      return std::pow(*L, *R);
    default:
      return std::nullopt;
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Declarations and domains
//===----------------------------------------------------------------------===//

static std::string extentSignature(const std::vector<N::ShapeExtent> &Exts) {
  std::string Sig;
  for (const N::ShapeExtent &E : Exts) {
    Sig += std::to_string(E.Lo) + ":" + std::to_string(E.Hi);
    Sig += E.Serial ? "s" : "p";
    Sig += "x";
  }
  return Sig;
}

const N::Symbol *
LoweringImpl::domainFor(const std::vector<N::ShapeExtent> &Extents) {
  std::string Sig = extentSignature(Extents);
  auto It = DomainBySig.find(Sig);
  if (It != DomainBySig.end())
    return It->second;

  static const char *GreekNames[] = {"alpha", "beta",  "gamma", "delta",
                                     "epsilon", "zeta", "eta",  "theta"};
  const N::Symbol *Name =
      Ctx.intern(DomainCounter < 8 ? GreekNames[DomainCounter]
                                   : "dom" + std::to_string(DomainCounter));
  ++DomainCounter;

  std::vector<const N::Shape *> Dims;
  for (const N::ShapeExtent &E : Extents)
    Dims.push_back(E.Serial ? Ctx.getSerialInterval(E.Lo, E.Hi)
                            : Ctx.getInterval(E.Lo, E.Hi));
  const N::Shape *S = Dims.size() == 1
                          ? Dims[0]
                          : static_cast<const N::Shape *>(Ctx.getProdDom(Dims));
  DomainBySig[Sig] = Name;
  DomainOrder.emplace_back(Name, S);
  return Name;
}

bool LoweringImpl::processDecls() {
  for (const EntityDecl &D : Unit.Decls) {
    if (findVar(D.Name)) {
      error(D.Loc, "duplicate declaration of '" + D.Name + "'");
      continue;
    }
    VarInfo Info;
    const N::ScalarType *Elem = scalarTypeFor(D.Ty);

    if (D.IsParameter) {
      if (D.isArray()) {
        error(D.Loc, "array PARAMETERs are not supported");
        continue;
      }
      if (!D.Init) {
        error(D.Loc, "PARAMETER '" + D.Name + "' lacks a value");
        continue;
      }
      if (Elem->isInteger()) {
        auto V = evalConstInt(D.Init);
        if (!V) {
          error(D.Loc, "PARAMETER '" + D.Name +
                           "' must have a constant integer value");
          continue;
        }
        Info.ParamValue = Ctx.getIntConst(*V);
      } else {
        auto V = evalConstReal(D.Init);
        if (!V) {
          error(D.Loc,
                "PARAMETER '" + D.Name + "' must have a constant value");
          continue;
        }
        Info.ParamValue = Ctx.getFloatConst(
            *V, Elem->getKind() == N::Type::Kind::Float64);
      }
      Info.Ty = Elem;
      Vars[Ctx.intern(D.Name)] = Info;
      continue;
    }

    if (D.Init) {
      error(D.Loc, "initializer of '" + D.Name +
                       "' is not supported by this prototype (only a "
                       "PARAMETER takes a value in its declaration); "
                       "assign it in an executable statement");
      continue;
    }

    if (!D.isArray()) {
      Info.Ty = Elem;
      Vars[Ctx.intern(D.Name)] = Info;
      continue;
    }

    // Array: fold the bounds, build/share the domain.
    std::vector<N::ShapeExtent> Extents;
    bool Bad = false;
    for (const auto &[LoE, HiE] : D.Dims) {
      int64_t Lo = 1;
      if (LoE) {
        auto V = evalConstInt(LoE);
        if (!V) {
          error(D.Loc, "array bound of '" + D.Name +
                           "' must be a compile-time constant");
          Bad = true;
          break;
        }
        Lo = *V;
      }
      auto Hi = evalConstInt(HiE);
      if (!Hi) {
        error(D.Loc, "array bound of '" + D.Name +
                         "' must be a compile-time constant");
        Bad = true;
        break;
      }
      if (*Hi < Lo) {
        error(D.Loc, "array '" + D.Name + "' has empty dimension");
        Bad = true;
        break;
      }
      Extents.push_back({Lo, *Hi, /*Serial=*/false});
    }
    if (Bad)
      continue;
    Info.Extents = Extents;
    Info.Domain = domainFor(Extents);
    Info.Ty = Ctx.getDField(Ctx.getDomainRef(Info.Domain), Elem);
    Vars[Ctx.intern(D.Name)] = Info;
  }
  return !HadError;
}

//===----------------------------------------------------------------------===//
// Values
//===----------------------------------------------------------------------===//

LoweredExpr LoweringImpl::convertTo(LoweredExpr LE, const N::Type *Want) {
  if (!Want->isFloating() || !LE.ElemTy->isInteger())
    return LE;
  LE.V = Ctx.getUnary(N::UnaryOp::IntToF, LE.V);
  LE.ElemTy = Want;
  return LE;
}

bool LoweringImpl::mergeShapes(LoweredExpr &A, const LoweredExpr &B,
                               SourceLocation Loc) {
  if (B.isScalar())
    return true;
  if (A.isScalar()) {
    A.Sh = B.Sh;
    A.Counts = B.Counts;
    return true;
  }
  if (A.Counts != B.Counts) {
    error(Loc, "shape mismatch between array operands (" +
                   join([&] {
                          std::vector<std::string> P;
                          for (int64_t C : A.Counts)
                            P.push_back(std::to_string(C));
                          return P;
                        }(),
                        "x") +
                   " vs " +
                   join([&] {
                          std::vector<std::string> P;
                          for (int64_t C : B.Counts)
                            P.push_back(std::to_string(C));
                          return P;
                        }(),
                        "x") +
                   ")");
    return false;
  }
  return true;
}

std::optional<LoweredExpr> LoweringImpl::lowerExpr(const Expr *E,
                                                   const ExprCtx &EC) {
  switch (E->getKind()) {
  case Expr::Kind::IntLit: {
    LoweredExpr LE;
    LE.V = Ctx.getIntConst(cast<IntLitExpr>(E)->getValue());
    LE.ElemTy = Ctx.getInteger32();
    return LE;
  }
  case Expr::Kind::RealLit: {
    const auto *R = cast<RealLitExpr>(E);
    LoweredExpr LE;
    LE.V = Ctx.getFloatConst(R->getValue(), R->isDouble());
    LE.ElemTy = R->isDouble() ? static_cast<const N::Type *>(Ctx.getFloat64())
                              : Ctx.getFloat32();
    return LE;
  }
  case Expr::Kind::LogicalLit: {
    LoweredExpr LE;
    LE.V = Ctx.getBoolConst(cast<LogicalLitExpr>(E)->getValue());
    LE.ElemTy = Ctx.getLogical32();
    return LE;
  }
  case Expr::Kind::StringLit:
    error(E->getLoc(), "string literal in computational expression");
    return std::nullopt;
  case Expr::Kind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    // Loop variable?
    if (const N::Value *Coord = loopVar(Id->getName())) {
      LoweredExpr LE;
      LE.V = Coord;
      LE.ElemTy = Ctx.getInteger32();
      return LE;
    }
    VarInfo *Var = findVar(Id->getName());
    if (!Var) {
      error(E->getLoc(), "use of undeclared name '" + Id->getName() + "'");
      return std::nullopt;
    }
    const VarInfo &Info = *Var;
    if (Info.isParameter()) {
      LoweredExpr LE;
      LE.V = Info.ParamValue;
      LE.ElemTy = Info.ParamValue->getType();
      return LE;
    }
    if (!Info.isArray()) {
      LoweredExpr LE;
      LE.V = Ctx.getSVar(Id->getName());
      LE.ElemTy = Info.Ty;
      return LE;
    }
    // Whole-array reference.
    if (!EC.Parallel) {
      error(E->getLoc(), "whole array '" + Id->getName() +
                             "' used in scalar context");
      return std::nullopt;
    }
    LoweredExpr LE;
    LE.V = Ctx.getAVar(Id->getName(), Ctx.getEverywhere());
    LE.ElemTy = cast<N::DFieldType>(Info.Ty)->getUltimateElementType();
    LE.Sh = cast<N::DFieldType>(Info.Ty)->getShape();
    for (const N::ShapeExtent &X : Info.Extents)
      LE.Counts.push_back(X.size());
    return LE;
  }
  case Expr::Kind::Binary:
    return lowerBinary(cast<BinaryExpr>(E), EC);
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    auto Operand = lowerExpr(U->getOperand(), EC);
    if (!Operand)
      return std::nullopt;
    LoweredExpr LE = *Operand;
    switch (U->getOp()) {
    case UnOp::Plus:
      return LE;
    case UnOp::Neg:
      if (LE.ElemTy->isLogical()) {
        error(E->getLoc(), "arithmetic negation of a logical value");
        return std::nullopt;
      }
      LE.V = Ctx.getUnary(N::UnaryOp::Neg, LE.V);
      return LE;
    case UnOp::Not:
      if (!LE.ElemTy->isLogical()) {
        error(E->getLoc(), ".not. applied to a non-logical value");
        return std::nullopt;
      }
      LE.V = Ctx.getUnary(N::UnaryOp::Not, LE.V);
      return LE;
    }
    return std::nullopt;
  }
  case Expr::Kind::Call:
    return lowerCall(cast<CallExpr>(E), EC);
  case Expr::Kind::ArrayRef:
    return lowerArrayRef(cast<ArrayRefExpr>(E), EC);
  }
  return std::nullopt;
}

std::optional<LoweredExpr> LoweringImpl::lowerBinary(const BinaryExpr *E,
                                                     const ExprCtx &EC) {
  auto L = lowerExpr(E->getLHS(), EC);
  auto R = lowerExpr(E->getRHS(), EC);
  if (!L || !R)
    return std::nullopt;

  LoweredExpr Result = *L;
  if (!mergeShapes(Result, *R, E->getLoc()))
    return std::nullopt;

  BinOp Op = E->getOp();
  bool Logical = Op == BinOp::And || Op == BinOp::Or;
  bool Compare = Op == BinOp::Eq || Op == BinOp::Ne || Op == BinOp::Lt ||
                 Op == BinOp::Le || Op == BinOp::Gt || Op == BinOp::Ge;

  if (Logical) {
    if (!L->ElemTy->isLogical() || !R->ElemTy->isLogical()) {
      error(E->getLoc(), "logical operator requires logical operands");
      return std::nullopt;
    }
  } else if (L->ElemTy->isLogical() || R->ElemTy->isLogical()) {
    error(E->getLoc(), "arithmetic on logical operands");
    return std::nullopt;
  }

  // The switch is fully covered; the initializer placates GCC's
  // may-be-uninitialized analysis over out-of-range enum values.
  N::BinaryOp NOp = N::BinaryOp::Add;
  switch (Op) {
  case BinOp::Add:
    NOp = N::BinaryOp::Add;
    break;
  case BinOp::Sub:
    NOp = N::BinaryOp::Sub;
    break;
  case BinOp::Mul:
    NOp = N::BinaryOp::Mul;
    break;
  case BinOp::Div:
    NOp = N::BinaryOp::Div;
    break;
  case BinOp::Pow:
    NOp = N::BinaryOp::Pow;
    break;
  case BinOp::Eq:
    NOp = N::BinaryOp::Eq;
    break;
  case BinOp::Ne:
    NOp = N::BinaryOp::Ne;
    break;
  case BinOp::Lt:
    NOp = N::BinaryOp::Lt;
    break;
  case BinOp::Le:
    NOp = N::BinaryOp::Le;
    break;
  case BinOp::Gt:
    NOp = N::BinaryOp::Gt;
    break;
  case BinOp::Ge:
    NOp = N::BinaryOp::Ge;
    break;
  case BinOp::And:
    NOp = N::BinaryOp::And;
    break;
  case BinOp::Or:
    NOp = N::BinaryOp::Or;
    break;
  }

  LoweredExpr LV = *L, RV = *R;
  if (!Logical) {
    const N::Type *Joint = promote(L->ElemTy, R->ElemTy);
    // Keep integer exponents integral: a**2 with float base is the common
    // vectorizable case (strength-reduced by the back end).
    bool KeepIntExp = Op == BinOp::Pow && R->ElemTy->isInteger();
    LV = convertTo(LV, Joint);
    if (!KeepIntExp)
      RV = convertTo(RV, Joint);
    Result.ElemTy = Compare ? static_cast<const N::Type *>(Ctx.getLogical32())
                            : Joint;
  } else {
    Result.ElemTy = Ctx.getLogical32();
  }
  Result.V = Ctx.getBinary(NOp, LV.V, RV.V);
  return Result;
}

std::optional<LoweredExpr> LoweringImpl::lowerArrayRef(const ArrayRefExpr *E,
                                                       const ExprCtx &EC) {
  VarInfo *Var = findVar(E->getName());
  if (!Var || !Var->isArray()) {
    error(E->getLoc(), "'" + E->getName() + "' is not a declared array");
    return std::nullopt;
  }
  const VarInfo &Info = *Var;
  if (E->getDims().size() != Info.Extents.size()) {
    error(E->getLoc(), "rank mismatch in reference to '" + E->getName() +
                           "': " + std::to_string(E->getDims().size()) +
                           " subscripts for rank " +
                           std::to_string(Info.Extents.size()));
    return std::nullopt;
  }

  const N::Type *Elem =
      cast<N::DFieldType>(Info.Ty)->getUltimateElementType();

  if (!E->hasSection()) {
    // Element reference: lower indices in scalar context.
    std::vector<const N::Value *> Indices;
    for (const DimSelector &D : E->getDims()) {
      auto Idx = lowerExpr(D.Index, ExprCtx{});
      if (!Idx)
        return std::nullopt;
      if (!Idx->isScalar() || !Idx->ElemTy->isInteger()) {
        error(E->getLoc(), "subscript of '" + E->getName() +
                               "' must be a scalar integer");
        return std::nullopt;
      }
      Indices.push_back(Idx->V);
    }

    // Identity access under a parallel statement over the array's own
    // domain — a(i,j) where i,j are exactly this domain's coordinates —
    // is a whole-array (everywhere) read, not a gather.
    if (EC.Parallel && Indices.size() == Info.Extents.size()) {
      bool Identity = true;
      for (size_t D = 0; D < Indices.size() && Identity; ++D) {
        const auto *LC = dyn_cast<N::LocalCoordValue>(Indices[D]);
        Identity = LC && LC->getSymbol() == Info.Domain &&
                   LC->getDim() == D + 1;
      }
      if (Identity) {
        LoweredExpr LE;
        LE.V = Ctx.getAVar(E->getName(), Ctx.getEverywhere());
        LE.ElemTy = Elem;
        LE.Sh = cast<N::DFieldType>(Info.Ty)->getShape();
        for (const N::ShapeExtent &X : Info.Extents)
          LE.Counts.push_back(X.size());
        return LE;
      }
    }

    LoweredExpr LE;
    LE.V = Ctx.getAVar(E->getName(), Ctx.getSubscript(Indices));
    LE.ElemTy = Elem;
    return LE;
  }

  // Sectioned reference: all triplets must fold to constants. Index dims
  // are normalized to degenerate (lo == hi) triplets, keeping full rank.
  std::vector<N::SectionTriplet> Triplets;
  std::vector<int64_t> Counts;
  for (size_t I = 0, Rank = E->getDims().size(); I != Rank; ++I) {
    const DimSelector &D = E->getDims()[I];
    const N::ShapeExtent &Ext = Info.Extents[I];
    N::SectionTriplet T;
    if (!D.IsSection) {
      auto Idx = evalConstInt(D.Index);
      if (!Idx) {
        error(E->getLoc(),
              "index of sectioned reference to '" + E->getName() +
                  "' must be a compile-time constant in this prototype");
        return std::nullopt;
      }
      T = {false, *Idx, *Idx, 1};
    } else if (!D.Lo && !D.Hi && !D.Stride) {
      T = {}; // Whole dimension.
    } else {
      T.All = false;
      T.Lo = Ext.Lo;
      T.Hi = Ext.Hi;
      T.Stride = 1;
      if (D.Lo) {
        auto V = evalConstInt(D.Lo);
        if (!V) {
          error(E->getLoc(), "section bound must be a compile-time constant");
          return std::nullopt;
        }
        T.Lo = *V;
      }
      if (D.Hi) {
        auto V = evalConstInt(D.Hi);
        if (!V) {
          error(E->getLoc(), "section bound must be a compile-time constant");
          return std::nullopt;
        }
        T.Hi = *V;
      }
      if (D.Stride) {
        auto V = evalConstInt(D.Stride);
        if (!V || *V == 0) {
          error(E->getLoc(),
                "section stride must be a non-zero compile-time constant");
          return std::nullopt;
        }
        T.Stride = *V;
      }
    }
    if (!T.All && (T.Lo < Ext.Lo || T.Hi > Ext.Hi)) {
      error(E->getLoc(), "section of '" + E->getName() +
                             "' exceeds declared bounds in dimension " +
                             std::to_string(I + 1));
      return std::nullopt;
    }
    Counts.push_back(T.count(Ext.Lo, Ext.Hi));
    Triplets.push_back(T);
  }

  if (!EC.Parallel) {
    error(E->getLoc(), "array section used in scalar context");
    return std::nullopt;
  }

  // The section's shape: the declared domain restricted pointwise; for
  // conformance purposes only the counts matter.
  LoweredExpr LE;
  bool Whole = true;
  for (const N::SectionTriplet &T : Triplets)
    if (!T.All)
      Whole = false;
  LE.V = Ctx.getAVar(E->getName(), Whole
                                       ? static_cast<const N::FieldAction *>(
                                             Ctx.getEverywhere())
                                       : Ctx.getSection(Triplets));
  LE.ElemTy = Elem;
  LE.Sh = cast<N::DFieldType>(Info.Ty)->getShape();
  LE.Counts = Counts;
  return LE;
}

std::optional<LoweredExpr> LoweringImpl::lowerCall(const CallExpr *E,
                                                   const ExprCtx &EC) {
  std::string Name = E->getCallee();

  // Resolve keyword arguments to positional order per intrinsic.
  auto positional = [&](const std::vector<std::string> &Order)
      -> std::optional<std::vector<const Expr *>> {
    std::vector<const Expr *> Out(Order.size(), nullptr);
    size_t NextPositional = 0;
    for (size_t I = 0; I < E->getArgs().size(); ++I) {
      const std::string &KW = E->getKeywords()[I];
      if (KW.empty()) {
        if (NextPositional >= Order.size()) {
          error(E->getLoc(), "too many arguments to '" + Name + "'");
          return std::nullopt;
        }
        Out[NextPositional++] = E->getArgs()[I];
        continue;
      }
      bool Placed = false;
      for (size_t P = 0; P < Order.size(); ++P) {
        if (Order[P] == KW) {
          Out[P] = E->getArgs()[I];
          Placed = true;
          break;
        }
      }
      if (!Placed) {
        error(E->getLoc(),
              "unknown keyword '" + KW + "' in call to '" + Name + "'");
        return std::nullopt;
      }
    }
    return Out;
  };

  // Elemental math intrinsics -> UNARY operators.
  static const std::map<std::string, N::UnaryOp> Elementals = {
      {"sqrt", N::UnaryOp::Sqrt}, {"sin", N::UnaryOp::Sin},
      {"cos", N::UnaryOp::Cos},   {"tan", N::UnaryOp::Tan},
      {"exp", N::UnaryOp::Exp},   {"log", N::UnaryOp::Log},
      {"abs", N::UnaryOp::Abs}};
  auto ElemIt = Elementals.find(Name);
  if (ElemIt != Elementals.end()) {
    if (E->getArgs().size() != 1) {
      error(E->getLoc(), "'" + Name + "' takes exactly one argument");
      return std::nullopt;
    }
    auto A = lowerExpr(E->getArgs()[0], EC);
    if (!A)
      return std::nullopt;
    LoweredExpr LE = *A;
    if (Name != "abs")
      LE = convertTo(LE, Ctx.getFloat32());
    LE.V = Ctx.getUnary(ElemIt->second, LE.V);
    return LE;
  }

  // Type conversions.
  if (Name == "real" || Name == "float" || Name == "dble") {
    if (E->getArgs().size() != 1) {
      error(E->getLoc(), "'" + Name + "' takes exactly one argument");
      return std::nullopt;
    }
    auto A = lowerExpr(E->getArgs()[0], EC);
    if (!A)
      return std::nullopt;
    LoweredExpr LE = *A;
    const N::Type *Want =
        Name == "dble" ? static_cast<const N::Type *>(Ctx.getFloat64())
                       : Ctx.getFloat32();
    if (LE.ElemTy->isInteger())
      LE.V = Ctx.getUnary(N::UnaryOp::IntToF, LE.V);
    LE.ElemTy = Want;
    return LE;
  }
  if (Name == "int" || Name == "ifix" || Name == "idint" || Name == "nint") {
    if (E->getArgs().size() != 1) {
      error(E->getLoc(), "'" + Name + "' takes exactly one argument");
      return std::nullopt;
    }
    auto A = lowerExpr(E->getArgs()[0], EC);
    if (!A)
      return std::nullopt;
    LoweredExpr LE = *A;
    if (LE.ElemTy->isFloating())
      LE.V = Ctx.getUnary(N::UnaryOp::FToInt, LE.V);
    LE.ElemTy = Ctx.getInteger32();
    return LE;
  }

  // N-ary elemental min/max and binary mod.
  if (Name == "min" || Name == "max" || Name == "mod") {
    size_t MinArgs = 2;
    if (E->getArgs().size() < MinArgs ||
        (Name == "mod" && E->getArgs().size() != 2)) {
      error(E->getLoc(), "wrong number of arguments to '" + Name + "'");
      return std::nullopt;
    }
    auto Acc = lowerExpr(E->getArgs()[0], EC);
    if (!Acc)
      return std::nullopt;
    N::BinaryOp Op = Name == "min"
                         ? N::BinaryOp::Min
                         : (Name == "max" ? N::BinaryOp::Max
                                          : N::BinaryOp::Mod);
    LoweredExpr Result = *Acc;
    for (size_t I = 1; I < E->getArgs().size(); ++I) {
      auto Next = lowerExpr(E->getArgs()[I], EC);
      if (!Next)
        return std::nullopt;
      if (!mergeShapes(Result, *Next, E->getLoc()))
        return std::nullopt;
      const N::Type *Joint = promote(Result.ElemTy, Next->ElemTy);
      LoweredExpr LV = Result, RV = *Next;
      LV = convertTo(LV, Joint);
      RV = convertTo(RV, Joint);
      Result.V = Ctx.getBinary(Op, LV.V, RV.V);
      Result.ElemTy = Joint;
    }
    return Result;
  }

  // merge(tsource, fsource, mask): elemental selection.
  if (Name == "merge") {
    auto Args = positional({"tsource", "fsource", "mask"});
    if (!Args)
      return std::nullopt;
    for (const Expr *A : *Args)
      if (!A) {
        error(E->getLoc(), "'merge' requires tsource, fsource, and mask");
        return std::nullopt;
      }
    auto T = lowerExpr((*Args)[0], EC);
    auto F = lowerExpr((*Args)[1], EC);
    auto M = lowerExpr((*Args)[2], EC);
    if (!T || !F || !M)
      return std::nullopt;
    if (!M->ElemTy->isLogical()) {
      error(E->getLoc(), "'merge' mask must be logical");
      return std::nullopt;
    }
    LoweredExpr Result = *T;
    if (!mergeShapes(Result, *F, E->getLoc()) ||
        !mergeShapes(Result, *M, E->getLoc()))
      return std::nullopt;
    const N::Type *Joint = promote(T->ElemTy, F->ElemTy);
    LoweredExpr TV = convertTo(*T, Joint), FV = convertTo(*F, Joint);
    Result.ElemTy = Joint;
    Result.V = Ctx.getFcnCall("merge", {TV.V, FV.V, M->V});
    return Result;
  }

  // Communication intrinsics: cshift / eoshift / transpose.
  if (Name == "cshift" || Name == "eoshift") {
    auto Args = positional({"array", "shift", "dim"});
    if (!Args)
      return std::nullopt;
    if (!(*Args)[0] || !(*Args)[1]) {
      error(E->getLoc(), "'" + Name + "' requires array and shift");
      return std::nullopt;
    }
    if (!EC.Parallel) {
      error(E->getLoc(), "'" + Name + "' used in scalar context");
      return std::nullopt;
    }
    auto A = lowerExpr((*Args)[0], EC);
    if (!A)
      return std::nullopt;
    if (A->isScalar()) {
      error(E->getLoc(), "'" + Name + "' argument must be an array");
      return std::nullopt;
    }
    auto Shift = evalConstInt((*Args)[1]);
    if (!Shift) {
      error(E->getLoc(), "'" + Name +
                             "' shift must be a compile-time constant in "
                             "this prototype");
      return std::nullopt;
    }
    int64_t Dim = 1;
    if ((*Args)[2]) {
      auto D = evalConstInt((*Args)[2]);
      if (!D) {
        error(E->getLoc(), "'" + Name + "' dim must be a compile-time "
                                        "constant");
        return std::nullopt;
      }
      Dim = *D;
    }
    if (Dim < 1 || static_cast<size_t>(Dim) > A->Counts.size()) {
      error(E->getLoc(), "'" + Name + "' dim out of range");
      return std::nullopt;
    }
    LoweredExpr LE = *A;
    LE.V = Ctx.getFcnCall(Name, {A->V, Ctx.getIntConst(*Shift),
                                 Ctx.getIntConst(Dim)});
    return LE;
  }
  if (Name == "transpose") {
    if (E->getArgs().size() != 1) {
      error(E->getLoc(), "'transpose' takes exactly one argument");
      return std::nullopt;
    }
    auto A = lowerExpr(E->getArgs()[0], EC);
    if (!A)
      return std::nullopt;
    if (A->Counts.size() != 2) {
      error(E->getLoc(), "'transpose' requires a rank-2 array");
      return std::nullopt;
    }
    LoweredExpr LE = *A;
    std::swap(LE.Counts[0], LE.Counts[1]);
    LE.V = Ctx.getFcnCall("transpose", {A->V});
    return LE;
  }

  // spread(array, dim, ncopies): broadcast along a new dimension.
  if (Name == "spread") {
    auto Args = positional({"source", "dim", "ncopies"});
    if (!Args)
      return std::nullopt;
    if (!(*Args)[0] || !(*Args)[1] || !(*Args)[2]) {
      error(E->getLoc(), "'spread' requires source, dim, and ncopies");
      return std::nullopt;
    }
    if (!EC.Parallel) {
      error(E->getLoc(), "'spread' used in scalar context");
      return std::nullopt;
    }
    ExprCtx Inner;
    Inner.Parallel = true;
    auto A = lowerExpr((*Args)[0], Inner);
    if (!A)
      return std::nullopt;
    if (A->isScalar()) {
      error(E->getLoc(), "'spread' source must be an array in this "
                         "prototype (use a scalar assignment instead)");
      return std::nullopt;
    }
    auto Dim = evalConstInt((*Args)[1]);
    auto Copies = evalConstInt((*Args)[2]);
    if (!Dim || !Copies) {
      error(E->getLoc(),
            "'spread' dim and ncopies must be compile-time constants");
      return std::nullopt;
    }
    if (*Dim < 1 || static_cast<size_t>(*Dim) > A->Counts.size() + 1) {
      error(E->getLoc(), "'spread' dim out of range");
      return std::nullopt;
    }
    if (*Copies < 1) {
      error(E->getLoc(), "'spread' ncopies must be positive");
      return std::nullopt;
    }
    LoweredExpr LE;
    LE.V = Ctx.getFcnCall("spread", {A->V, Ctx.getIntConst(*Dim),
                                     Ctx.getIntConst(*Copies)});
    LE.ElemTy = A->ElemTy;
    LE.Sh = A->Sh;
    LE.Counts = A->Counts;
    LE.Counts.insert(LE.Counts.begin() + (*Dim - 1), *Copies);
    return LE;
  }

  // dot_product(a, b) desugars to sum(a*b): a multiply computation phase
  // feeding a sum reduction (communication extraction splits them).
  if (Name == "dot_product") {
    if (E->getArgs().size() != 2) {
      error(E->getLoc(), "'dot_product' takes exactly two arguments");
      return std::nullopt;
    }
    ExprCtx Inner;
    Inner.Parallel = true;
    auto A = lowerExpr(E->getArgs()[0], Inner);
    auto B = lowerExpr(E->getArgs()[1], Inner);
    if (!A || !B)
      return std::nullopt;
    if (A->isScalar() || B->isScalar()) {
      error(E->getLoc(), "'dot_product' arguments must be arrays");
      return std::nullopt;
    }
    LoweredExpr Result = *A;
    if (!mergeShapes(Result, *B, E->getLoc()))
      return std::nullopt;
    const N::Type *Joint = promote(A->ElemTy, B->ElemTy);
    LoweredExpr AV = convertTo(*A, Joint), BV = convertTo(*B, Joint);
    LoweredExpr LE;
    LE.V = Ctx.getFcnCall(
        "sum", {Ctx.getBinary(N::BinaryOp::Mul, AV.V, BV.V)});
    LE.ElemTy = Joint;
    return LE;
  }

  // Reductions: array -> scalar, or array + dim -> rank-reduced array.
  if (N::isReductionIntrinsic(Name)) {
    auto Args = positional({"array", "dim"});
    if (!Args)
      return std::nullopt;
    if (!(*Args)[0]) {
      error(E->getLoc(), "'" + Name + "' requires an array argument");
      return std::nullopt;
    }
    // The argument is lowered in parallel mode regardless of the statement
    // context: reductions consume a whole field.
    ExprCtx Inner;
    Inner.Parallel = true;
    auto A = lowerExpr((*Args)[0], Inner);
    if (!A)
      return std::nullopt;
    if (A->isScalar()) {
      error(E->getLoc(), "'" + Name + "' argument must be an array");
      return std::nullopt;
    }
    if ((Name == "any" || Name == "all" || Name == "count") &&
        !A->ElemTy->isLogical()) {
      error(E->getLoc(), "'" + Name + "' argument must be logical");
      return std::nullopt;
    }
    const N::Type *ResultTy;
    if (Name == "count")
      ResultTy = Ctx.getInteger32();
    else if (Name == "any" || Name == "all")
      ResultTy = Ctx.getLogical32();
    else
      ResultTy = A->ElemTy->isInteger()
                     ? static_cast<const N::Type *>(Ctx.getInteger32())
                     : A->ElemTy;

    if (!(*Args)[1]) {
      LoweredExpr LE;
      LE.V = Ctx.getFcnCall(Name, {A->V});
      LE.ElemTy = ResultTy;
      return LE;
    }

    // Partial reduction along a dimension: result rank drops by one.
    auto Dim = evalConstInt((*Args)[1]);
    if (!Dim) {
      error(E->getLoc(),
            "'" + Name + "' dim must be a compile-time constant");
      return std::nullopt;
    }
    if (*Dim < 1 || static_cast<size_t>(*Dim) > A->Counts.size()) {
      error(E->getLoc(), "'" + Name + "' dim out of range");
      return std::nullopt;
    }
    if (A->Counts.size() < 2) {
      error(E->getLoc(), "'" + Name +
                             "' with dim requires rank >= 2 (a rank-1 "
                             "partial reduction is the scalar form)");
      return std::nullopt;
    }
    LoweredExpr LE;
    LE.V = Ctx.getFcnCall(Name, {A->V, Ctx.getIntConst(*Dim)});
    LE.ElemTy = ResultTy;
    LE.Sh = A->Sh;
    LE.Counts = A->Counts;
    LE.Counts.erase(LE.Counts.begin() + (*Dim - 1));
    return LE;
  }

  error(E->getLoc(), "unknown function or unsupported intrinsic '" + Name +
                         "'");
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Imperatives
//===----------------------------------------------------------------------===//

const N::Value *LoweringImpl::lowerScalarExpr(const Expr *E,
                                              const char *What) {
  auto LE = lowerExpr(E, ExprCtx{});
  if (!LE)
    return nullptr;
  if (!LE->isScalar()) {
    error(E->getLoc(), std::string(What) + " must be scalar");
    return nullptr;
  }
  return LE->V;
}

const N::Imp *LoweringImpl::lowerBlock(const std::vector<const Stmt *> &Stmts) {
  std::vector<const N::Imp *> Actions;
  for (const Stmt *S : Stmts) {
    const N::Imp *I = lowerStmt(S);
    if (I && !isa<N::SkipImp>(I))
      Actions.push_back(I);
  }
  if (Actions.empty())
    return Ctx.getSkip();
  if (Actions.size() == 1)
    return Actions[0];
  return Ctx.getSequentially(Actions);
}

const N::Imp *LoweringImpl::lowerStmt(const Stmt *S) {
  switch (S->getKind()) {
  case Stmt::Kind::Assign:
    return lowerAssign(cast<AssignStmt>(S));
  case Stmt::Kind::If:
    return lowerIf(cast<IfStmt>(S));
  case Stmt::Kind::DoLoop:
    return lowerDoLoop(cast<DoLoopStmt>(S));
  case Stmt::Kind::DoWhile:
    return lowerDoWhile(cast<DoWhileStmt>(S));
  case Stmt::Kind::Where:
    return lowerWhere(cast<WhereStmt>(S));
  case Stmt::Kind::Forall:
    return lowerForall(cast<ForallStmt>(S));
  case Stmt::Kind::Print:
    return lowerPrint(cast<PrintStmt>(S));
  case Stmt::Kind::Block:
    return lowerBlock(cast<BlockStmt>(S)->getStmts());
  case Stmt::Kind::Continue:
    return Ctx.getSkip();
  case Stmt::Kind::Call:
    error(S->getLoc(), "CALL reached lowering; run procedure integration "
                       "(frontend/Inline.h) first");
    return Ctx.getSkip();
  }
  return Ctx.getSkip();
}

const N::Imp *LoweringImpl::lowerAssign(const AssignStmt *S) {
  const Expr *LHS = S->getLHS();

  // Scalar or whole-array identifier target.
  if (const auto *Id = dyn_cast<IdentExpr>(LHS)) {
    if (loopVar(Id->getName())) {
      error(S->getLoc(), "assignment to loop variable '" + Id->getName() +
                             "'");
      return Ctx.getSkip();
    }
    VarInfo *Var = findVar(Id->getName());
    if (!Var) {
      error(S->getLoc(), "assignment to undeclared name '" + Id->getName() +
                             "'");
      return Ctx.getSkip();
    }
    const VarInfo &Info = *Var;
    if (Info.isParameter()) {
      error(S->getLoc(), "assignment to PARAMETER '" + Id->getName() + "'");
      return Ctx.getSkip();
    }
    if (!Info.isArray()) {
      auto RHS = lowerExpr(S->getRHS(), ExprCtx{});
      if (!RHS)
        return Ctx.getSkip();
      if (!RHS->isScalar()) {
        error(S->getLoc(), "array value assigned to scalar '" +
                               Id->getName() + "'");
        return Ctx.getSkip();
      }
      LoweredExpr RV = convertTo(*RHS, Info.Ty);
      if (Info.Ty->isInteger() && RV.ElemTy->isFloating())
        RV.V = Ctx.getUnary(N::UnaryOp::FToInt, RV.V);
      if (Info.Ty->isLogical() != RV.ElemTy->isLogical()) {
        error(S->getLoc(), "type mismatch in assignment to '" +
                               Id->getName() + "'");
        return Ctx.getSkip();
      }
      return Ctx.getMove({{Ctx.getTrue(), RV.V, Ctx.getSVar(Id->getName())}});
    }
    // Whole-array assignment: parallel over the array's own domain.
    ExprCtx EC;
    EC.Parallel = true;
    for (const N::ShapeExtent &X : Info.Extents)
      EC.Counts.push_back(X.size());
    auto RHS = lowerExpr(S->getRHS(), EC);
    if (!RHS)
      return Ctx.getSkip();
    if (!RHS->isScalar() && RHS->Counts != EC.Counts) {
      error(S->getLoc(), "shape mismatch in assignment to '" +
                             Id->getName() + "'");
      return Ctx.getSkip();
    }
    const N::Type *Elem =
        cast<N::DFieldType>(Info.Ty)->getUltimateElementType();
    LoweredExpr RV = convertTo(*RHS, Elem);
    if (Elem->isInteger() && RV.ElemTy->isFloating())
      RV.V = Ctx.getUnary(N::UnaryOp::FToInt, RV.V);
    if (Elem->isLogical() != RV.ElemTy->isLogical()) {
      error(S->getLoc(), "type mismatch in assignment to '" + Id->getName() +
                             "'");
      return Ctx.getSkip();
    }
    return Ctx.getMove({{Ctx.getTrue(), RV.V,
                         Ctx.getAVar(Id->getName(), Ctx.getEverywhere())}});
  }

  const auto *Ref = cast<ArrayRefExpr>(LHS);
  VarInfo *Var = findVar(Ref->getName());
  if (!Var || !Var->isArray()) {
    error(S->getLoc(), "'" + Ref->getName() + "' is not a declared array");
    return Ctx.getSkip();
  }
  const VarInfo &Info = *Var;
  const N::Type *Elem =
      cast<N::DFieldType>(Info.Ty)->getUltimateElementType();

  if (!Ref->hasSection()) {
    // Element assignment.
    ExprCtx Scalar;
    auto L = lowerArrayRef(Ref, Scalar);
    if (!L)
      return Ctx.getSkip();
    auto RHS = lowerExpr(S->getRHS(), Scalar);
    if (!RHS)
      return Ctx.getSkip();
    if (!RHS->isScalar()) {
      error(S->getLoc(), "array value assigned to array element");
      return Ctx.getSkip();
    }
    LoweredExpr RV = convertTo(*RHS, Elem);
    if (Elem->isInteger() && RV.ElemTy->isFloating())
      RV.V = Ctx.getUnary(N::UnaryOp::FToInt, RV.V);
    return Ctx.getMove({{Ctx.getTrue(), RV.V, L->V}});
  }

  // Section assignment.
  ExprCtx EC;
  EC.Parallel = true;
  auto L = lowerArrayRef(Ref, EC);
  if (!L)
    return Ctx.getSkip();
  EC.Counts = L->Counts;
  auto RHS = lowerExpr(S->getRHS(), EC);
  if (!RHS)
    return Ctx.getSkip();
  if (!RHS->isScalar() && RHS->Counts != L->Counts) {
    error(S->getLoc(), "shape mismatch in section assignment to '" +
                           Ref->getName() + "'");
    return Ctx.getSkip();
  }
  LoweredExpr RV = convertTo(*RHS, Elem);
  if (Elem->isInteger() && RV.ElemTy->isFloating())
    RV.V = Ctx.getUnary(N::UnaryOp::FToInt, RV.V);
  return Ctx.getMove({{Ctx.getTrue(), RV.V, L->V}});
}

const N::Imp *LoweringImpl::lowerIf(const IfStmt *S) {
  const N::Value *Cond = lowerScalarExpr(S->getCond(), "IF condition");
  if (!Cond)
    return Ctx.getSkip();
  const N::Imp *Then = lowerStmt(S->getThen());
  const N::Imp *Else = S->getElse() ? lowerStmt(S->getElse()) : Ctx.getSkip();
  return Ctx.getIfThenElse(Cond, Then, Else);
}

const N::Imp *LoweringImpl::lowerDoLoop(const DoLoopStmt *S) {
  auto Lo = evalConstInt(S->getLo());
  auto Hi = evalConstInt(S->getHi());
  std::optional<int64_t> Step = int64_t{1};
  if (S->getStep())
    Step = evalConstInt(S->getStep());
  if (!Lo || !Hi || !Step || *Step == 0) {
    error(S->getLoc(), "DO bounds must be non-zero compile-time constants "
                       "in this prototype");
    return Ctx.getSkip();
  }
  int64_t Count = 0;
  if (*Step > 0 && *Hi >= *Lo)
    Count = (*Hi - *Lo) / *Step + 1;
  else if (*Step < 0 && *Lo >= *Hi)
    Count = (*Lo - *Hi) / (-*Step) + 1;
  if (Count == 0)
    return Ctx.getSkip();

  const N::Symbol *Dom = Ctx.freshDomainName("serial");
  const N::Shape *Space;
  const N::Value *VarValue;
  if (*Step == 1) {
    Space = Ctx.getSerialInterval(*Lo, *Hi);
    VarValue = Ctx.getLocalCoord(Dom, 1);
  } else {
    Space = Ctx.getSerialInterval(0, Count - 1);
    VarValue = Ctx.getBinary(
        N::BinaryOp::Add, Ctx.getIntConst(*Lo),
        Ctx.getBinary(N::BinaryOp::Mul, Ctx.getLocalCoord(Dom, 1),
                      Ctx.getIntConst(*Step)));
  }

  if (loopVar(S->getVar())) {
    error(S->getLoc(), "loop variable '" + S->getVar() +
                           "' reused in nested loop");
    return Ctx.getSkip();
  }
  loopVar(S->getVar()) = VarValue;
  const N::Imp *Body = lowerStmt(S->getBody());
  loopVar(S->getVar()) = nullptr;

  return Ctx.getWithDomain(Dom, Space,
                           Ctx.getDo(Ctx.getDomainRef(Dom), Body));
}

const N::Imp *LoweringImpl::lowerDoWhile(const DoWhileStmt *S) {
  const N::Value *Cond = lowerScalarExpr(S->getCond(), "DO WHILE condition");
  if (!Cond)
    return Ctx.getSkip();
  return Ctx.getWhile(Cond, lowerStmt(S->getBody()));
}

const N::Imp *LoweringImpl::lowerWhere(const WhereStmt *S) {
  // The mask's shape comes from the mask expression itself.
  ExprCtx EC;
  EC.Parallel = true;
  auto Mask = lowerExpr(S->getMask(), EC);
  if (!Mask)
    return Ctx.getSkip();
  if (Mask->isScalar() || !Mask->ElemTy->isLogical()) {
    error(S->getLoc(), "WHERE mask must be a logical array");
    return Ctx.getSkip();
  }
  EC.Counts = Mask->Counts;

  std::vector<N::MoveClause> Clauses;
  auto LowerArm = [&](const std::vector<const AssignStmt *> &Assigns,
                      const N::Value *Guard) {
    for (const AssignStmt *A : Assigns) {
      const auto *Id = dyn_cast<IdentExpr>(A->getLHS());
      if (!Id) {
        error(A->getLoc(), "WHERE assignments must target whole arrays in "
                           "this prototype");
        continue;
      }
      VarInfo *Var = findVar(Id->getName());
      if (!Var || !Var->isArray()) {
        error(A->getLoc(), "WHERE assignment target '" + Id->getName() +
                               "' is not an array");
        continue;
      }
      std::vector<int64_t> Counts;
      for (const N::ShapeExtent &X : Var->Extents)
        Counts.push_back(X.size());
      if (Counts != Mask->Counts) {
        error(A->getLoc(), "WHERE assignment target shape disagrees with "
                           "mask shape");
        continue;
      }
      auto RHS = lowerExpr(A->getRHS(), EC);
      if (!RHS)
        continue;
      if (!RHS->isScalar() && RHS->Counts != Mask->Counts) {
        error(A->getLoc(), "shape mismatch inside WHERE");
        continue;
      }
      const N::Type *Elem =
          cast<N::DFieldType>(Var->Ty)->getUltimateElementType();
      LoweredExpr RV = convertTo(*RHS, Elem);
      if (Elem->isInteger() && RV.ElemTy->isFloating())
        RV.V = Ctx.getUnary(N::UnaryOp::FToInt, RV.V);
      Clauses.push_back(
          {Guard, RV.V, Ctx.getAVar(Id->getName(), Ctx.getEverywhere())});
    }
  };

  LowerArm(S->getThenAssigns(), Mask->V);
  if (!S->getElseAssigns().empty())
    LowerArm(S->getElseAssigns(), Ctx.getUnary(N::UnaryOp::Not, Mask->V));
  if (Clauses.empty())
    return Ctx.getSkip();
  return Ctx.getMove(Clauses);
}

const N::Imp *LoweringImpl::lowerForall(const ForallStmt *S) {
  const AssignStmt *A = S->getBody();
  const auto *Ref = dyn_cast<ArrayRefExpr>(A->getLHS());
  if (!Ref) {
    error(S->getLoc(), "FORALL assignment must target an array element");
    return Ctx.getSkip();
  }
  VarInfo *Var = findVar(Ref->getName());
  if (!Var || !Var->isArray()) {
    error(S->getLoc(), "'" + Ref->getName() + "' is not a declared array");
    return Ctx.getSkip();
  }
  const VarInfo &Info = *Var;

  // Fold index bounds.
  struct FoldedIndex {
    std::string Var;
    int64_t Lo, Hi, Stride;
  };
  std::vector<FoldedIndex> Indices;
  for (const ForallIndex &FI : S->getIndices()) {
    auto Lo = evalConstInt(FI.Lo), Hi = evalConstInt(FI.Hi);
    std::optional<int64_t> Stride = int64_t{1};
    if (FI.Stride)
      Stride = evalConstInt(FI.Stride);
    if (!Lo || !Hi || !Stride || *Stride == 0) {
      error(S->getLoc(), "FORALL bounds must be compile-time constants");
      return Ctx.getSkip();
    }
    Indices.push_back({FI.Var, *Lo, *Hi, *Stride});
  }

  // Identity fast path (paper Figure 7): the target subscripts are exactly
  // the FORALL indices in declaration order, each spanning its whole
  // dimension with stride 1 -> a single parallel MOVE over the array's own
  // domain, with indices becoming local_under coordinates.
  bool Identity = Ref->getDims().size() == Indices.size() &&
                  Indices.size() == Info.Extents.size();
  if (Identity) {
    for (size_t I = 0; I < Indices.size() && Identity; ++I) {
      const auto *IdxId = Ref->getDims()[I].IsSection
                              ? nullptr
                              : dyn_cast<IdentExpr>(Ref->getDims()[I].Index);
      Identity = IdxId && IdxId->getName() == Indices[I].Var &&
                 Indices[I].Lo == Info.Extents[I].Lo &&
                 Indices[I].Hi == Info.Extents[I].Hi &&
                 Indices[I].Stride == 1;
    }
  }

  if (Identity) {
    for (size_t I = 0; I < Indices.size(); ++I)
      loopVar(Indices[I].Var) =
          Ctx.getLocalCoord(Info.Domain, static_cast<unsigned>(I + 1));
    ExprCtx EC;
    EC.Parallel = true;
    for (const N::ShapeExtent &X : Info.Extents)
      EC.Counts.push_back(X.size());
    auto RHS = lowerExpr(A->getRHS(), EC);
    for (const FoldedIndex &FI : Indices)
      loopVar(FI.Var) = nullptr;
    if (!RHS)
      return Ctx.getSkip();
    // A remaining coordinate-dependent gather (e.g. b(j,i)) means the
    // statement is not grid-local after all: fall back to the general
    // DO form, which the back end executes as router communication.
    if (!containsGather(RHS->V, Info.Domain)) {
      if (!RHS->isScalar() && RHS->Counts != EC.Counts) {
        error(S->getLoc(), "shape mismatch in FORALL");
        return Ctx.getSkip();
      }
      const N::Type *Elem =
          cast<N::DFieldType>(Info.Ty)->getUltimateElementType();
      LoweredExpr RV = convertTo(*RHS, Elem);
      if (Elem->isInteger() && RV.ElemTy->isFloating())
        RV.V = Ctx.getUnary(N::UnaryOp::FToInt, RV.V);
      return Ctx.getMove(
          {{Ctx.getTrue(), RV.V,
            Ctx.getAVar(Ref->getName(), Ctx.getEverywhere())}});
    }
  }

  // General path: a parallel DO over a fresh domain with a subscripted
  // store at each point.
  const N::Symbol *Dom = Ctx.freshDomainName("forall");
  std::vector<const N::Shape *> Dims;
  for (const FoldedIndex &FI : Indices) {
    int64_t Count = FI.Stride > 0 ? (FI.Hi - FI.Lo) / FI.Stride + 1
                                  : (FI.Lo - FI.Hi) / (-FI.Stride) + 1;
    if (Count <= 0) {
      error(S->getLoc(), "empty FORALL index range");
      return Ctx.getSkip();
    }
    Dims.push_back(FI.Stride == 1 ? Ctx.getInterval(FI.Lo, FI.Hi)
                                  : Ctx.getInterval(0, Count - 1));
  }
  const N::Shape *Space =
      Dims.size() == 1 ? Dims[0]
                       : static_cast<const N::Shape *>(Ctx.getProdDom(Dims));

  for (size_t I = 0; I < Indices.size(); ++I) {
    const N::Value *Coord =
        Ctx.getLocalCoord(Dom, static_cast<unsigned>(I + 1));
    if (Indices[I].Stride != 1)
      Coord = Ctx.getBinary(
          N::BinaryOp::Add, Ctx.getIntConst(Indices[I].Lo),
          Ctx.getBinary(N::BinaryOp::Mul, Coord,
                        Ctx.getIntConst(Indices[I].Stride)));
    loopVar(Indices[I].Var) = Coord;
  }

  ExprCtx Scalar;
  auto L = lowerArrayRef(Ref, Scalar);
  auto RHS = lowerExpr(A->getRHS(), Scalar);
  for (const FoldedIndex &FI : Indices)
    loopVar(FI.Var) = nullptr;
  if (!L || !RHS)
    return Ctx.getSkip();
  if (!RHS->isScalar()) {
    error(S->getLoc(), "FORALL right-hand side must be elemental");
    return Ctx.getSkip();
  }
  const N::Type *Elem =
      cast<N::DFieldType>(Info.Ty)->getUltimateElementType();
  LoweredExpr RV = convertTo(*RHS, Elem);
  if (Elem->isInteger() && RV.ElemTy->isFloating())
    RV.V = Ctx.getUnary(N::UnaryOp::FToInt, RV.V);

  const N::Imp *Body = Ctx.getMove({{Ctx.getTrue(), RV.V, L->V}});
  return Ctx.getWithDomain(Dom, Space,
                           Ctx.getDo(Ctx.getDomainRef(Dom), Body));
}

const N::Imp *LoweringImpl::lowerPrint(const PrintStmt *S) {
  std::vector<const N::Value *> Args;
  for (const Expr *E : S->getItems()) {
    if (const auto *Str = dyn_cast<StringLitExpr>(E)) {
      Args.push_back(Ctx.getStrConst(Str->getValue()));
      continue;
    }
    ExprCtx EC;
    EC.Parallel = true; // PRINT accepts whole arrays (host renders them).
    auto LE = lowerExpr(E, EC);
    if (!LE)
      continue;
    Args.push_back(LE->V);
  }
  return Ctx.getCall("print", Args);
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

std::optional<LoweredProgram> LoweringImpl::run() {
  if (!processDecls())
    return std::nullopt;

  const N::Imp *Body = lowerBlock(Unit.Body);
  if (HadError)
    return std::nullopt;

  // WITH_DECL for every non-parameter binding.
  std::vector<const N::Decl *> Decls;
  for (const EntityDecl &D : Unit.Decls) {
    VarInfo *Var = findVar(D.Name);
    if (!Var || Var->isParameter())
      continue;
    Decls.push_back(Ctx.getDecl(D.Name, Var->Ty));
  }
  const N::Imp *WithDecls =
      Decls.empty() ? Body : Ctx.getWithDecl(Ctx.getDeclSet(Decls), Body);

  // WITH_DOMAIN chain, innermost-first in reverse creation order so later
  // domains may reference earlier ones.
  const N::Imp *Wrapped = WithDecls;
  for (auto It = DomainOrder.rbegin(); It != DomainOrder.rend(); ++It)
    Wrapped = Ctx.getWithDomain(It->first, It->second, Wrapped);

  const N::ProgramImp *Prog = Ctx.getProgram(Unit.Name, Wrapped);
  if (!N::verify(Prog, Diags)) {
    HadError = true;
    return std::nullopt;
  }
  return LoweredProgram{Prog};
}

} // namespace

std::optional<LoweredProgram>
lower::lowerProgram(const ProgramUnit &Unit, N::NIRContext &Ctx,
                    DiagnosticEngine &Diags) {
  return LoweringImpl(Unit, Ctx, Diags).run();
}
