//===- nir/Printer.cpp - NIR pretty-printer --------------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/Printer.h"

#include "support/StringUtil.h"

using namespace f90y;
using namespace f90y::nir;

std::string nir::printShape(const Shape *S) {
  switch (S->getKind()) {
  case Shape::Kind::Point:
    return "point " + std::to_string(cast<PointShape>(S)->getValue());
  case Shape::Kind::Interval: {
    const auto *IV = cast<IntervalShape>(S);
    return "interval(point " + std::to_string(IV->getLo()) + ", point " +
           std::to_string(IV->getHi()) + ")";
  }
  case Shape::Kind::SerialInterval: {
    const auto *IV = cast<IntervalShape>(S);
    return "serial_interval(point " + std::to_string(IV->getLo()) +
           ", point " + std::to_string(IV->getHi()) + ")";
  }
  case Shape::Kind::ProdDom: {
    std::vector<std::string> Parts;
    for (const Shape *Dim : cast<ProdDomShape>(S)->getDims())
      Parts.push_back(printShape(Dim));
    return "prod_dom[" + join(Parts, ", ") + "]";
  }
  case Shape::Kind::DomainRef:
    return "domain '" + cast<DomainRefShape>(S)->getName() + "'";
  }
  return "<invalid-shape>";
}

std::string nir::printType(const Type *T) {
  if (const auto *F = dyn_cast<DFieldType>(T))
    return "dfield(shape=" + printShape(F->getShape()) +
           ", element=" + printType(F->getElementType()) + ")";
  return typeKindName(T->getKind());
}

std::string nir::printFieldAction(const FieldAction *F) {
  switch (F->getKind()) {
  case FieldAction::Kind::Everywhere:
    return "everywhere";
  case FieldAction::Kind::Subscript: {
    std::vector<std::string> Parts;
    for (const Value *V : cast<SubscriptAction>(F)->getIndices())
      Parts.push_back(printValue(V));
    return "subscript[" + join(Parts, ", ") + "]";
  }
  case FieldAction::Kind::Section: {
    std::vector<std::string> Parts;
    for (const SectionTriplet &T : cast<SectionAction>(F)->getTriplets()) {
      if (T.All) {
        Parts.push_back(":");
        continue;
      }
      std::string P = std::to_string(T.Lo) + ":" + std::to_string(T.Hi);
      if (T.Stride != 1)
        P.append(":").append(std::to_string(T.Stride));
      Parts.push_back(P);
    }
    return "section[" + join(Parts, ", ") + "]";
  }
  }
  return "<invalid-field-action>";
}

std::string nir::printValue(const Value *V) {
  switch (V->getKind()) {
  case Value::Kind::Binary: {
    const auto *B = cast<BinaryValue>(V);
    return std::string("BINARY(") + binaryOpName(B->getOp()) + ", " +
           printValue(B->getLHS()) + ", " + printValue(B->getRHS()) + ")";
  }
  case Value::Kind::Unary: {
    const auto *U = cast<UnaryValue>(V);
    return std::string("UNARY(") + unaryOpName(U->getOp()) + ", " +
           printValue(U->getOperand()) + ")";
  }
  case Value::Kind::SVar:
    return "SVAR '" + cast<SVarValue>(V)->getId() + "'";
  case Value::Kind::ScalarConst: {
    const auto *C = cast<ScalarConstValue>(V);
    std::string Rep;
    if (C->isInt())
      Rep = std::to_string(C->getInt());
    else if (C->isBool())
      return C->getBool() ? "True" : "False";
    else
      Rep = formatDouble(C->getFloat());
    return std::string("SCALAR(") + typeKindName(C->getType()->getKind()) +
           ",'" + Rep + "')";
  }
  case Value::Kind::StrConst:
    return "STRING('" + cast<StrConstValue>(V)->getStr() + "')";
  case Value::Kind::FcnCall: {
    const auto *F = cast<FcnCallValue>(V);
    std::vector<std::string> Parts;
    for (const Value *A : F->getArgs())
      Parts.push_back(printValue(A));
    return "FCNCALL('" + F->getCallee() + "', [" + join(Parts, ", ") + "])";
  }
  case Value::Kind::AVar: {
    const auto *A = cast<AVarValue>(V);
    return "AVAR('" + A->getId() + "', " + printFieldAction(A->getAction()) +
           ")";
  }
  case Value::Kind::LocalCoord: {
    const auto *L = cast<LocalCoordValue>(V);
    return "local_under(domain '" + L->getDomain() + "'," +
           std::to_string(L->getDim()) + ")";
  }
  }
  return "<invalid-value>";
}

std::string nir::printDecl(const Decl *D) {
  switch (D->getKind()) {
  case Decl::Kind::Simple: {
    const auto *SD = cast<SimpleDecl>(D);
    std::string Out =
        "DECL('" + SD->getId() + "', " + printType(SD->getType());
    // Canonical layouts are elided so programs untouched by alignment
    // inference keep their historical printed form (and the fingerprints
    // and program tags derived from it).
    if (!SD->getLayout().isCanonical())
      Out += ", layout{" + SD->getLayout().str() + "}";
    return Out + ")";
  }
  case Decl::Kind::Set: {
    std::vector<std::string> Parts;
    for (const Decl *Sub : cast<DeclSet>(D)->getDecls())
      Parts.push_back(printDecl(Sub));
    return "DECLSET[" + join(Parts, ", ") + "]";
  }
  }
  return "<invalid-decl>";
}

namespace {

/// Indenting printer for the imperative tree.
class ImpPrinter {
public:
  std::string print(const Imp *I) {
    Out.clear();
    emit(I, 0);
    return Out;
  }

private:
  std::string Out;

  void indent(unsigned Depth) { Out.append(Depth * 2, ' '); }

  void line(unsigned Depth, const std::string &Text) {
    indent(Depth);
    Out += Text;
    Out += '\n';
  }

  void emit(const Imp *I, unsigned Depth) {
    switch (I->getKind()) {
    case Imp::Kind::Program: {
      const auto *P = cast<ProgramImp>(I);
      line(Depth, "PROGRAM '" + P->getName() + "'");
      emit(P->getBody(), Depth + 1);
      return;
    }
    case Imp::Kind::Sequentially: {
      line(Depth, "SEQUENTIALLY[");
      for (const Imp *A : cast<SequentiallyImp>(I)->getActions())
        emit(A, Depth + 1);
      line(Depth, "]");
      return;
    }
    case Imp::Kind::Concurrently: {
      line(Depth, "CONCURRENTLY[");
      for (const Imp *A : cast<ConcurrentlyImp>(I)->getActions())
        emit(A, Depth + 1);
      line(Depth, "]");
      return;
    }
    case Imp::Kind::Move: {
      const auto *M = cast<MoveImp>(I);
      line(Depth, "MOVE[");
      for (const MoveClause &C : M->getClauses()) {
        std::string Guard = C.Guard ? printValue(C.Guard) : "True";
        line(Depth + 1, "(" + Guard + ", (" + printValue(C.Src) + ", " +
                            printValue(C.Dst) + "))");
      }
      line(Depth, "]");
      return;
    }
    case Imp::Kind::IfThenElse: {
      const auto *If = cast<IfThenElseImp>(I);
      line(Depth, "IFTHENELSE(" + printValue(If->getCond()) + ",");
      emit(If->getThen(), Depth + 1);
      line(Depth, ",");
      emit(If->getElse(), Depth + 1);
      line(Depth, ")");
      return;
    }
    case Imp::Kind::While: {
      const auto *W = cast<WhileImp>(I);
      line(Depth, "WHILE(" + printValue(W->getCond()) + ",");
      emit(W->getBody(), Depth + 1);
      line(Depth, ")");
      return;
    }
    case Imp::Kind::WithDecl: {
      const auto *WD = cast<WithDeclImp>(I);
      line(Depth, "WITH_DECL(" + printDecl(WD->getDecl()) + ",");
      emit(WD->getBody(), Depth + 1);
      line(Depth, ")");
      return;
    }
    case Imp::Kind::WithDomain: {
      const auto *WD = cast<WithDomainImp>(I);
      line(Depth, "WITH_DOMAIN(('" + WD->getName() + "', " +
                      printShape(WD->getShape()) + "),");
      emit(WD->getBody(), Depth + 1);
      line(Depth, ")");
      return;
    }
    case Imp::Kind::Skip:
      line(Depth, "SKIP");
      return;
    case Imp::Kind::Call: {
      const auto *C = cast<CallImp>(I);
      std::vector<std::string> Parts;
      for (const Value *A : C->getArgs())
        Parts.push_back(printValue(A));
      line(Depth, "CALL('" + C->getCallee() + "', [" + join(Parts, ", ") +
                      "])");
      return;
    }
    case Imp::Kind::Do: {
      const auto *D = cast<DoImp>(I);
      line(Depth, "DO(" + printShape(D->getIterSpace()) + ",");
      emit(D->getBody(), Depth + 1);
      line(Depth, ")");
      return;
    }
    }
  }
};

} // namespace

std::string nir::printImp(const Imp *I) { return ImpPrinter().print(I); }
