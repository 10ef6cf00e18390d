//===- nir/NIRContext.cpp - Ownership and factories for NIR nodes ---------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nir/NIRContext.h"

#include "support/RtStatus.h"

using namespace f90y;
using namespace f90y::nir;

NIRContext::NIRContext()
    : Int32Ty(make<ScalarType>(Type::Kind::Integer32)),
      Logical32Ty(make<ScalarType>(Type::Kind::Logical32)),
      Float32Ty(make<ScalarType>(Type::Kind::Float32)),
      Float64Ty(make<ScalarType>(Type::Kind::Float64)),
      Everywhere(make<EverywhereAction>()), Skip(make<SkipImp>()) {}

NIRContext::NIRContext(const NIRContext *Base)
    : Symbols(&Base->Symbols), Int32Ty(Base->Int32Ty),
      Logical32Ty(Base->Logical32Ty), Float32Ty(Base->Float32Ty),
      Float64Ty(Base->Float64Ty), Everywhere(Base->Everywhere),
      Skip(Base->Skip), NextDomainId(Base->NextDomainId) {}

NIRContext::~NIRContext() = default;

const ScalarType *NIRContext::getScalarType(Type::Kind K) const {
  switch (K) {
  case Type::Kind::Integer32:
    return getInteger32();
  case Type::Kind::Logical32:
    return getLogical32();
  case Type::Kind::Float32:
    return getFloat32();
  case Type::Kind::Float64:
    return getFloat64();
  case Type::Kind::DField:
    break;
  }
  support::checkFailed("scalar kind", "getScalarType called with DField kind",
                       __FILE__, __LINE__);
}

const DFieldType *NIRContext::getDField(const Shape *S, const Type *Elem) {
  return make<DFieldType>(S, Elem);
}

const PointShape *NIRContext::getPoint(int64_t V) {
  return make<PointShape>(V);
}

const IntervalShape *NIRContext::getInterval(int64_t Lo, int64_t Hi) {
  return make<IntervalShape>(Lo, Hi, /*Serial=*/false);
}

const IntervalShape *NIRContext::getSerialInterval(int64_t Lo, int64_t Hi) {
  return make<IntervalShape>(Lo, Hi, /*Serial=*/true);
}

const ProdDomShape *NIRContext::getProdDom(std::vector<const Shape *> Dims) {
  return make<ProdDomShape>(std::move(Dims));
}

const DomainRefShape *NIRContext::getDomainRef(NameRef Name) {
  return make<DomainRefShape>(intern(Name));
}

const SubscriptAction *
NIRContext::getSubscript(std::vector<const Value *> Indices) {
  return make<SubscriptAction>(std::move(Indices));
}

const SectionAction *
NIRContext::getSection(std::vector<SectionTriplet> Triplets) {
  return make<SectionAction>(std::move(Triplets));
}

const BinaryValue *NIRContext::getBinary(BinaryOp Op, const Value *L,
                                         const Value *R) {
  F90Y_CHECK(L && R, "binary operands must be non-null");
  return make<BinaryValue>(Op, L, R);
}

const UnaryValue *NIRContext::getUnary(UnaryOp Op, const Value *V) {
  F90Y_CHECK(V, "unary operand must be non-null");
  return make<UnaryValue>(Op, V);
}

const SVarValue *NIRContext::getSVar(NameRef Id) {
  return make<SVarValue>(intern(Id));
}

const ScalarConstValue *NIRContext::getIntConst(int64_t V) {
  return make<ScalarConstValue>(getInteger32(), ScalarConstValue::Payload(V));
}

const ScalarConstValue *NIRContext::getFloatConst(double V, bool Double) {
  return make<ScalarConstValue>(Double ? getFloat64() : getFloat32(),
                                ScalarConstValue::Payload(V));
}

const ScalarConstValue *NIRContext::getBoolConst(bool V) {
  return make<ScalarConstValue>(getLogical32(), ScalarConstValue::Payload(V));
}

const StrConstValue *NIRContext::getStrConst(std::string Str) {
  return make<StrConstValue>(std::move(Str));
}

const FcnCallValue *NIRContext::getFcnCall(NameRef Callee,
                                           std::vector<const Value *> Args) {
  return make<FcnCallValue>(intern(Callee), std::move(Args));
}

const AVarValue *NIRContext::getAVar(NameRef Id, const FieldAction *Action) {
  F90Y_CHECK(Action, "AVAR requires a field action");
  return make<AVarValue>(intern(Id), Action);
}

const LocalCoordValue *NIRContext::getLocalCoord(NameRef Domain,
                                                 unsigned Dim) {
  F90Y_CHECK(Dim >= 1, "local_under dimensions are 1-based");
  return make<LocalCoordValue>(intern(Domain), Dim);
}

const SimpleDecl *NIRContext::getDecl(NameRef Id, const Type *Ty,
                                      layout::LayoutDescriptor Layout) {
  return make<SimpleDecl>(intern(Id), Ty, std::move(Layout));
}

const DeclSet *NIRContext::getDeclSet(std::vector<const Decl *> Decls) {
  return make<DeclSet>(std::move(Decls));
}

const ProgramImp *NIRContext::getProgram(NameRef Name, const Imp *Body) {
  return make<ProgramImp>(intern(Name), Body);
}

const SequentiallyImp *
NIRContext::getSequentially(std::vector<const Imp *> Actions) {
  return make<SequentiallyImp>(std::move(Actions));
}

const ConcurrentlyImp *
NIRContext::getConcurrently(std::vector<const Imp *> Actions) {
  return make<ConcurrentlyImp>(std::move(Actions));
}

const MoveImp *NIRContext::getMove(std::vector<MoveClause> Clauses) {
  return make<MoveImp>(std::move(Clauses));
}

const IfThenElseImp *NIRContext::getIfThenElse(const Value *C, const Imp *T,
                                               const Imp *E) {
  return make<IfThenElseImp>(C, T, E);
}

const WhileImp *NIRContext::getWhile(const Value *C, const Imp *Body) {
  return make<WhileImp>(C, Body);
}

const WithDeclImp *NIRContext::getWithDecl(const Decl *D, const Imp *Body) {
  return make<WithDeclImp>(D, Body);
}

const WithDomainImp *NIRContext::getWithDomain(NameRef Name, const Shape *S,
                                               const Imp *Body) {
  return make<WithDomainImp>(intern(Name), S, Body);
}

const DoImp *NIRContext::getDo(const Shape *IterSpace, const Imp *Body) {
  return make<DoImp>(IterSpace, Body);
}

const CallImp *NIRContext::getCall(NameRef Callee,
                                   std::vector<const Value *> Args) {
  return make<CallImp>(intern(Callee), std::move(Args));
}

const Symbol *NIRContext::freshDomainName(const std::string &Prefix) {
  return intern(Prefix + "." + std::to_string(NextDomainId++));
}
