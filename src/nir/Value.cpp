//===- nir/Value.cpp - NIR value domain ------------------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/Value.h"

using namespace f90y;
using namespace f90y::nir;

const char *nir::binaryOpName(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "Add";
  case BinaryOp::Sub:
    return "Sub";
  case BinaryOp::Mul:
    return "Mul";
  case BinaryOp::Div:
    return "Div";
  case BinaryOp::Pow:
    return "Pow";
  case BinaryOp::Mod:
    return "Mod";
  case BinaryOp::Min:
    return "Min";
  case BinaryOp::Max:
    return "Max";
  case BinaryOp::Eq:
    return "Equals";
  case BinaryOp::Ne:
    return "NotEquals";
  case BinaryOp::Lt:
    return "Less";
  case BinaryOp::Le:
    return "LessEq";
  case BinaryOp::Gt:
    return "Greater";
  case BinaryOp::Ge:
    return "GreaterEq";
  case BinaryOp::And:
    return "And";
  case BinaryOp::Or:
    return "Or";
  }
  return "<invalid-binop>";
}

const char *nir::unaryOpName(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Neg:
    return "Neg";
  case UnaryOp::Not:
    return "Not";
  case UnaryOp::Abs:
    return "Abs";
  case UnaryOp::Sqrt:
    return "Sqrt";
  case UnaryOp::Sin:
    return "Sin";
  case UnaryOp::Cos:
    return "Cos";
  case UnaryOp::Tan:
    return "Tan";
  case UnaryOp::Exp:
    return "Exp";
  case UnaryOp::Log:
    return "Log";
  case UnaryOp::IntToF:
    return "IntToF";
  case UnaryOp::FToInt:
    return "FToInt";
  }
  return "<invalid-monop>";
}

bool nir::isComparison(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return true;
  default:
    return false;
  }
}

bool nir::isLogicalOp(BinaryOp Op) {
  return Op == BinaryOp::And || Op == BinaryOp::Or;
}

bool nir::isCommIntrinsic(const std::string &Name) {
  return Name == "cshift" || Name == "eoshift" || Name == "transpose" ||
         Name == "spread";
}

bool nir::isReductionIntrinsic(const std::string &Name) {
  return Name == "sum" || Name == "product" || Name == "maxval" ||
         Name == "minval" || Name == "count" || Name == "any" ||
         Name == "all";
}
