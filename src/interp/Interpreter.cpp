//===- interp/Interpreter.cpp - Reference NIR interpreter -------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "nir/Printer.h"

#include <algorithm>

using namespace f90y;
using namespace f90y::interp;
namespace N = f90y::nir;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

static RtVal::Kind kindOfType(const N::Type *T) {
  switch (T->getKind()) {
  case N::Type::Kind::Integer32:
    return RtVal::Kind::Int;
  case N::Type::Kind::Logical32:
    return RtVal::Kind::Bool;
  case N::Type::Kind::Float32:
  case N::Type::Kind::Float64:
    return RtVal::Kind::Real;
  case N::Type::Kind::DField:
    break;
  }
  return RtVal::Kind::Real;
}

/// Advances \p Pos through the space of \p Counts (odometer, last dim
/// fastest). Returns false when iteration wraps to the origin.
static bool advance(std::vector<int64_t> &Pos,
                    const std::vector<int64_t> &Counts) {
  for (size_t D = Pos.size(); D-- > 0;) {
    if (++Pos[D] < Counts[D])
      return true;
    Pos[D] = 0;
  }
  return false;
}

static int64_t totalCount(const std::vector<int64_t> &Counts) {
  int64_t N = 1;
  for (int64_t C : Counts)
    N *= C;
  return N;
}

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

const ArrayStorage *Interpreter::getArray(const std::string &Name) const {
  auto It = Arrays.find(Name);
  return It == Arrays.end() ? nullptr : &It->second;
}

std::optional<RtVal> Interpreter::getScalar(const std::string &Name) const {
  auto It = Scalars.find(Name);
  if (It == Scalars.end())
    return std::nullopt;
  return It->second;
}

bool Interpreter::run(const N::ProgramImp *Program) {
  Output.clear();
  Flops = 0;
  Failed = false;
  Arrays.clear();
  Scalars.clear();
  LoopCoords.clear();
  execImp(Program->getBody());
  return !Failed;
}

//===----------------------------------------------------------------------===//
// Imperative execution
//===----------------------------------------------------------------------===//

RtVal Interpreter::convertForStore(RtVal V, RtVal::Kind K) {
  switch (K) {
  case RtVal::Kind::Int:
    return RtVal::makeInt(V.asInt());
  case RtVal::Kind::Real:
    return RtVal::makeReal(V.asReal());
  case RtVal::Kind::Bool:
    return RtVal::makeBool(V.asBool());
  }
  return V;
}

void Interpreter::commit(const PendingWrite &W) {
  if (!W.IsArray) {
    Scalars[W.Name] = W.V;
    return;
  }
  auto It = Arrays.find(W.Name);
  if (It == Arrays.end()) {
    error("write to unallocated array '" + W.Name + "'");
    return;
  }
  It->second.Data[W.Index] = convertForStore(W.V, It->second.ElemKind);
}

void Interpreter::execImp(const N::Imp *I) {
  if (Failed)
    return;
  switch (I->getKind()) {
  case N::Imp::Kind::Program:
    execImp(cast<N::ProgramImp>(I)->getBody());
    return;
  case N::Imp::Kind::Sequentially:
    for (const N::Imp *A : cast<N::SequentiallyImp>(I)->getActions())
      execImp(A);
    return;
  case N::Imp::Kind::Concurrently:
    // Reference semantics: any order is valid; use program order.
    for (const N::Imp *A : cast<N::ConcurrentlyImp>(I)->getActions())
      execImp(A);
    return;
  case N::Imp::Kind::Move:
    execMove(cast<N::MoveImp>(I));
    return;
  case N::Imp::Kind::IfThenElse: {
    const auto *If = cast<N::IfThenElseImp>(I);
    RtVal C = evalScalar(If->getCond());
    execImp(C.asBool() ? If->getThen() : If->getElse());
    return;
  }
  case N::Imp::Kind::While: {
    const auto *W = cast<N::WhileImp>(I);
    uint64_t Guard = 0;
    while (!Failed && evalScalar(W->getCond()).asBool()) {
      execImp(W->getBody());
      if (++Guard > 100000000ull) {
        error("WHILE exceeded the interpreter iteration bound");
        return;
      }
    }
    return;
  }
  case N::Imp::Kind::WithDecl: {
    const auto *WD = cast<N::WithDeclImp>(I);
    // Allocate bindings; shadowing intentionally unsupported at the store
    // level in this prototype (lowering never produces it for arrays).
    N::forEachSimpleDecl(WD->getDecl(), [&](const N::SimpleDecl *SD) {
      const std::string &Id = SD->getId();
      const N::Type *Ty = SD->getType();
      if (const auto *FT = dyn_cast<N::DFieldType>(Ty)) {
        ArrayStorage A;
        A.ElemKind = kindOfType(FT->getUltimateElementType());
        std::vector<N::ShapeExtent> Exts;
        if (!N::shapeExtents(FT->getShape(), Domains, Exts)) {
          error("cannot resolve shape of array '" + Id + "'");
          return;
        }
        A.Extents = Exts;
        if (const auto *Ref = dyn_cast<N::DomainRefShape>(FT->getShape()))
          A.Domain = Ref->getName();
        RtVal Zero = convertForStore(RtVal::makeInt(0), A.ElemKind);
        A.Data.assign(static_cast<size_t>(A.size()), Zero);
        auto Preset = PresetArrays.find(Id);
        if (Preset != PresetArrays.end()) {
          size_t M = std::min(Preset->second.size(), A.Data.size());
          for (size_t K = 0; K < M; ++K)
            A.Data[K] = convertForStore(RtVal::makeReal(Preset->second[K]),
                                        A.ElemKind);
        }
        Arrays[Id] = std::move(A);
        return;
      }
      Scalars[Id] = convertForStore(RtVal::makeInt(0), kindOfType(Ty));
    });
    execImp(WD->getBody());
    return;
  }
  case N::Imp::Kind::WithDomain: {
    const auto *WD = cast<N::WithDomainImp>(I);
    const N::Shape *Old = Domains.bind(WD->getSymbol(), WD->getShape());
    execImp(WD->getBody());
    Domains.restore(WD->getSymbol(), Old);
    return;
  }
  case N::Imp::Kind::Skip:
    return;
  case N::Imp::Kind::Do:
    execDo(cast<N::DoImp>(I));
    return;
  case N::Imp::Kind::Call: {
    const auto *C = cast<N::CallImp>(I);
    if (C->getCallee() == "print") {
      execCallPrint(C);
      return;
    }
    error("unknown runtime procedure '" + C->getCallee() + "'");
    return;
  }
  }
}

void Interpreter::execDo(const N::DoImp *D) {
  std::string DomName;
  if (const auto *Ref = dyn_cast<N::DomainRefShape>(D->getIterSpace()))
    DomName = Ref->getName();
  std::vector<N::ShapeExtent> Exts;
  if (!N::shapeExtents(D->getIterSpace(), Domains, Exts)) {
    error("cannot resolve DO iteration space");
    return;
  }
  bool Parallel = true;
  for (const N::ShapeExtent &E : Exts)
    if (E.Serial)
      Parallel = false;

  std::vector<int64_t> Counts;
  std::vector<int64_t> Coord;
  for (const N::ShapeExtent &E : Exts) {
    Counts.push_back(E.size());
    Coord.push_back(E.Lo);
  }
  if (totalCount(Counts) == 0)
    return;

  // FORALL semantics for a parallel DO: defer all stores until every
  // iteration's evaluations are complete.
  std::vector<PendingWrite> Writes;
  std::vector<PendingWrite> *SavedDeferred = Deferred;
  if (Parallel)
    Deferred = &Writes;

  std::vector<int64_t> Pos(Exts.size(), 0);
  do {
    for (size_t K = 0; K < Exts.size(); ++K)
      Coord[K] = Exts[K].Lo + Pos[K];
    if (!DomName.empty())
      LoopCoords[DomName] = Coord;
    execImp(D->getBody());
    if (Failed)
      break;
  } while (advance(Pos, Counts));

  if (!DomName.empty())
    LoopCoords.erase(DomName);
  if (Parallel) {
    Deferred = SavedDeferred;
    if (Deferred) {
      // Nested parallel DOs: propagate to the outer buffer.
      for (PendingWrite &W : Writes)
        Deferred->push_back(std::move(W));
    } else {
      for (const PendingWrite &W : Writes)
        commit(W);
    }
  }
}

void Interpreter::execMove(const N::MoveImp *M) {
  for (const N::MoveClause &C : M->getClauses()) {
    if (Failed)
      return;

    // Classify the destination.
    if (const auto *SV = dyn_cast<N::SVarValue>(C.Dst)) {
      RtVal G = C.Guard ? evalScalar(C.Guard) : RtVal::makeBool(true);
      if (!G.asBool())
        continue;
      auto It = Scalars.find(SV->getId());
      if (It == Scalars.end()) {
        error("write to undeclared scalar '" + SV->getId() + "'");
        return;
      }
      RtVal V = convertForStore(evalScalar(C.Src), It->second.K);
      PendingWrite W{false, SV->getId(), 0, V};
      if (Deferred)
        Deferred->push_back(W);
      else
        commit(W);
      continue;
    }

    const auto *AV = cast<N::AVarValue>(C.Dst);
    auto AIt = Arrays.find(AV->getId());
    if (AIt == Arrays.end()) {
      error("write to unallocated array '" + AV->getId() + "'");
      return;
    }
    ArrayStorage &Arr = AIt->second;

    // Subscripted element store (inside DO loops).
    if (const auto *Sub = dyn_cast<N::SubscriptAction>(AV->getAction())) {
      RtVal G = C.Guard ? evalScalar(C.Guard) : RtVal::makeBool(true);
      if (!G.asBool())
        continue;
      std::vector<int64_t> Pos;
      for (size_t D = 0; D < Sub->getIndices().size(); ++D) {
        int64_t Idx = evalScalar(Sub->getIndices()[D]).asInt();
        if (Idx < Arr.Extents[D].Lo || Idx > Arr.Extents[D].Hi) {
          error("subscript " + std::to_string(Idx) + " out of bounds for '" +
                AV->getId() + "'");
          return;
        }
        Pos.push_back(Idx - Arr.Extents[D].Lo);
      }
      PendingWrite W{true, AV->getId(), Arr.linearIndex(Pos),
                     evalElem(C.Src, {}, StmtSpace{})};
      if (Deferred)
        Deferred->push_back(W);
      else
        commit(W);
      continue;
    }

    // Field store: the iteration space is the destination's point list.
    StmtSpace Space;
    std::vector<int64_t> DstStrides; // Per-dim stride within the dst array.
    std::vector<int64_t> DstLos;     // Zero-based start positions.
    Space.Domain = Arr.Domain;
    if (isa<N::EverywhereAction>(AV->getAction())) {
      for (const N::ShapeExtent &E : Arr.Extents) {
        Space.Los.push_back(E.Lo);
        Space.Counts.push_back(E.size());
        DstLos.push_back(0);
        DstStrides.push_back(1);
      }
    } else {
      const auto *Sec = cast<N::SectionAction>(AV->getAction());
      Space.Domain.clear(); // local_under is not meaningful over a section.
      for (size_t D = 0; D < Sec->getTriplets().size(); ++D) {
        const N::SectionTriplet &T = Sec->getTriplets()[D];
        const N::ShapeExtent &E = Arr.Extents[D];
        int64_t Lo = T.All ? E.Lo : T.Lo;
        int64_t Stride = T.All ? 1 : T.Stride;
        Space.Los.push_back(Lo);
        Space.Counts.push_back(T.count(E.Lo, E.Hi));
        DstLos.push_back(Lo - E.Lo);
        DstStrides.push_back(Stride);
      }
    }

    if (totalCount(Space.Counts) == 0)
      continue;

    // Vector semantics: evaluate the whole right-hand side (and guard)
    // before committing any element.
    std::vector<PendingWrite> Writes;
    std::vector<int64_t> Pos(Space.Counts.size(), 0);
    do {
      RtVal G = C.Guard ? evalElem(C.Guard, Pos, Space)
                        : RtVal::makeBool(true);
      if (Failed)
        return;
      if (!G.asBool())
        continue;
      RtVal V = evalElem(C.Src, Pos, Space);
      std::vector<int64_t> DstPos(Pos.size());
      for (size_t D = 0; D < Pos.size(); ++D)
        DstPos[D] = DstLos[D] + Pos[D] * DstStrides[D];
      Writes.push_back(
          {true, AV->getId(), Arr.linearIndex(DstPos), V});
    } while (advance(Pos, Space.Counts));

    if (Deferred) {
      for (PendingWrite &W : Writes)
        Deferred->push_back(std::move(W));
    } else {
      for (const PendingWrite &W : Writes)
        commit(W);
    }
  }
}

void Interpreter::execCallPrint(const N::CallImp *C) {
  std::string Line;
  bool First = true;
  for (const N::Value *A : C->getArgs()) {
    if (!First)
      Line += ' ';
    First = false;
    if (const auto *S = dyn_cast<N::StrConstValue>(A)) {
      Line += S->getStr();
      continue;
    }
    std::vector<int64_t> Counts = fieldCounts(A);
    if (Counts.empty()) {
      Line += evalScalar(A).str();
      continue;
    }
    StmtSpace Space = spaceOf(A);
    std::vector<int64_t> Pos(Counts.size(), 0);
    bool FirstElem = true;
    do {
      if (!FirstElem)
        Line += ' ';
      FirstElem = false;
      Line += evalElem(A, Pos, Space).str();
    } while (advance(Pos, Counts));
  }
  Output += Line;
  Output += '\n';
}

//===----------------------------------------------------------------------===//
// Value evaluation
//===----------------------------------------------------------------------===//

std::vector<int64_t> Interpreter::fieldCounts(const N::Value *V) {
  switch (V->getKind()) {
  case N::Value::Kind::Binary: {
    const auto *B = cast<N::BinaryValue>(V);
    std::vector<int64_t> L = fieldCounts(B->getLHS());
    return L.empty() ? fieldCounts(B->getRHS()) : L;
  }
  case N::Value::Kind::Unary:
    return fieldCounts(cast<N::UnaryValue>(V)->getOperand());
  case N::Value::Kind::AVar: {
    const auto *A = cast<N::AVarValue>(V);
    auto It = Arrays.find(A->getId());
    if (It == Arrays.end())
      return {};
    if (isa<N::SubscriptAction>(A->getAction()))
      return {};
    if (const auto *Sec = dyn_cast<N::SectionAction>(A->getAction())) {
      std::vector<int64_t> Counts;
      for (size_t D = 0; D < Sec->getTriplets().size(); ++D)
        Counts.push_back(Sec->getTriplets()[D].count(
            It->second.Extents[D].Lo, It->second.Extents[D].Hi));
      return Counts;
    }
    std::vector<int64_t> Counts;
    for (const N::ShapeExtent &E : It->second.Extents)
      Counts.push_back(E.size());
    return Counts;
  }
  case N::Value::Kind::LocalCoord: {
    const auto *LC = cast<N::LocalCoordValue>(V);
    const N::Shape *S = Domains.lookup(LC->getSymbol());
    std::vector<N::ShapeExtent> Exts;
    if (!S || !N::shapeExtents(S, Domains, Exts))
      return {};
    std::vector<int64_t> Counts;
    for (const N::ShapeExtent &E : Exts)
      Counts.push_back(E.size());
    return Counts;
  }
  case N::Value::Kind::FcnCall: {
    const auto *F = cast<N::FcnCallValue>(V);
    if (N::isReductionIntrinsic(F->getCallee())) {
      if (F->getArgs().size() == 2) {
        // Partial reduction: the argument's counts minus the dim.
        std::vector<int64_t> C = fieldCounts(F->getArgs()[0]);
        int64_t Dim = 1;
        if (const auto *K =
                dyn_cast<N::ScalarConstValue>(F->getArgs()[1]))
          Dim = K->getInt();
        if (Dim >= 1 && static_cast<size_t>(Dim) <= C.size())
          C.erase(C.begin() + (Dim - 1));
        return C;
      }
      return {};
    }
    if (F->getCallee() == "transpose") {
      std::vector<int64_t> C = fieldCounts(F->getArgs()[0]);
      if (C.size() == 2)
        std::swap(C[0], C[1]);
      return C;
    }
    if (F->getCallee() == "spread") {
      std::vector<int64_t> C = fieldCounts(F->getArgs()[0]);
      int64_t Dim = 1, Copies = 1;
      if (const auto *K = dyn_cast<N::ScalarConstValue>(F->getArgs()[1]))
        Dim = K->getInt();
      if (const auto *K = dyn_cast<N::ScalarConstValue>(F->getArgs()[2]))
        Copies = K->getInt();
      if (Dim >= 1 && static_cast<size_t>(Dim) <= C.size() + 1)
        C.insert(C.begin() + (Dim - 1), Copies);
      return C;
    }
    for (const N::Value *A : F->getArgs()) {
      std::vector<int64_t> C = fieldCounts(A);
      if (!C.empty())
        return C;
    }
    return {};
  }
  default:
    return {};
  }
}

Interpreter::StmtSpace Interpreter::spaceOf(const N::Value *V) {
  // The space of the first everywhere AVAR reachable in the expression;
  // falls back to an anonymous space shaped like fieldCounts(V).
  struct Finder {
    Interpreter &I;
    const ArrayStorage *find(const N::Value *V) {
      switch (V->getKind()) {
      case N::Value::Kind::Binary: {
        const auto *B = cast<N::BinaryValue>(V);
        if (const ArrayStorage *A = find(B->getLHS()))
          return A;
        return find(B->getRHS());
      }
      case N::Value::Kind::Unary:
        return find(cast<N::UnaryValue>(V)->getOperand());
      case N::Value::Kind::AVar: {
        const auto *AV = cast<N::AVarValue>(V);
        if (!isa<N::EverywhereAction>(AV->getAction()))
          return nullptr;
        auto It = I.Arrays.find(AV->getId());
        return It == I.Arrays.end() ? nullptr : &It->second;
      }
      case N::Value::Kind::FcnCall: {
        for (const N::Value *A : cast<N::FcnCallValue>(V)->getArgs())
          if (const ArrayStorage *S = find(A))
            return S;
        return nullptr;
      }
      default:
        return nullptr;
      }
    }
  };
  StmtSpace Space;
  if (const ArrayStorage *A = Finder{*this}.find(V)) {
    Space.Domain = A->Domain;
    for (const N::ShapeExtent &E : A->Extents) {
      Space.Los.push_back(E.Lo);
      Space.Counts.push_back(E.size());
    }
    return Space;
  }
  std::vector<int64_t> Counts = fieldCounts(V);
  for (int64_t C : Counts) {
    Space.Los.push_back(1);
    Space.Counts.push_back(C);
  }
  return Space;
}

RtVal Interpreter::readArray(const ArrayStorage &A,
                             const std::vector<int64_t> &Pos) {
  return A.Data[A.linearIndex(Pos)];
}

RtVal Interpreter::evalReduction(const N::FcnCallValue *F) {
  const N::Value *Arg = F->getArgs()[0];
  std::vector<int64_t> Counts = fieldCounts(Arg);
  if (Counts.empty()) {
    error("reduction '" + F->getCallee() + "' over a scalar");
    return RtVal::makeInt(0);
  }
  StmtSpace Space = spaceOf(Arg);
  const std::string &Name = F->getCallee();

  bool FirstElem = true;
  RtVal Acc = RtVal::makeInt(0);
  int64_t CountTrue = 0;
  bool Any = false, All = true;
  std::vector<int64_t> Pos(Counts.size(), 0);
  do {
    RtVal V = evalElem(Arg, Pos, Space);
    if (Failed)
      return RtVal::makeInt(0);
    if (Name == "count" || Name == "any" || Name == "all") {
      bool T = V.asBool();
      CountTrue += T;
      Any = Any || T;
      All = All && T;
      continue;
    }
    if (FirstElem) {
      Acc = V;
      FirstElem = false;
      continue;
    }
    if (Name == "sum")
      Acc = applyBinary(N::BinaryOp::Add, Acc, V, &Flops);
    else if (Name == "product")
      Acc = applyBinary(N::BinaryOp::Mul, Acc, V, &Flops);
    else if (Name == "maxval")
      Acc = applyBinary(N::BinaryOp::Max, Acc, V, nullptr);
    else if (Name == "minval")
      Acc = applyBinary(N::BinaryOp::Min, Acc, V, nullptr);
  } while (advance(Pos, Counts));

  if (Name == "count")
    return RtVal::makeInt(CountTrue);
  if (Name == "any")
    return RtVal::makeBool(Any);
  if (Name == "all")
    return RtVal::makeBool(All);
  return Acc;
}

RtVal Interpreter::evalElem(const N::Value *V, const std::vector<int64_t> &Pos,
                            const StmtSpace &Space) {
  if (Failed)
    return RtVal::makeInt(0);
  switch (V->getKind()) {
  case N::Value::Kind::Binary: {
    const auto *B = cast<N::BinaryValue>(V);
    RtVal L = evalElem(B->getLHS(), Pos, Space);
    RtVal R = evalElem(B->getRHS(), Pos, Space);
    return applyBinary(B->getOp(), L, R, &Flops);
  }
  case N::Value::Kind::Unary: {
    const auto *U = cast<N::UnaryValue>(V);
    return applyUnary(U->getOp(), evalElem(U->getOperand(), Pos, Space),
                      &Flops);
  }
  case N::Value::Kind::SVar: {
    const auto *SV = cast<N::SVarValue>(V);
    auto It = Scalars.find(SV->getId());
    if (It == Scalars.end()) {
      error("read of undeclared scalar '" + SV->getId() + "'");
      return RtVal::makeInt(0);
    }
    return It->second;
  }
  case N::Value::Kind::ScalarConst: {
    const auto *C = cast<N::ScalarConstValue>(V);
    if (C->isInt())
      return RtVal::makeInt(C->getInt());
    if (C->isBool())
      return RtVal::makeBool(C->getBool());
    return RtVal::makeReal(C->getFloat());
  }
  case N::Value::Kind::StrConst:
    error("string constant in computational context");
    return RtVal::makeInt(0);
  case N::Value::Kind::AVar: {
    const auto *AV = cast<N::AVarValue>(V);
    auto It = Arrays.find(AV->getId());
    if (It == Arrays.end()) {
      error("read of unallocated array '" + AV->getId() + "'");
      return RtVal::makeInt(0);
    }
    const ArrayStorage &Arr = It->second;
    if (const auto *Sub = dyn_cast<N::SubscriptAction>(AV->getAction())) {
      std::vector<int64_t> P;
      for (size_t D = 0; D < Sub->getIndices().size(); ++D) {
        int64_t Idx = evalElem(Sub->getIndices()[D], Pos, Space).asInt();
        if (Idx < Arr.Extents[D].Lo || Idx > Arr.Extents[D].Hi) {
          error("subscript " + std::to_string(Idx) +
                " out of bounds for '" + AV->getId() + "'");
          return RtVal::makeInt(0);
        }
        P.push_back(Idx - Arr.Extents[D].Lo);
      }
      return readArray(Arr, P);
    }
    if (Pos.empty()) {
      error("whole-array read of '" + AV->getId() + "' in scalar context");
      return RtVal::makeInt(0);
    }
    if (isa<N::EverywhereAction>(AV->getAction()))
      return readArray(Arr, Pos);
    const auto *Sec = cast<N::SectionAction>(AV->getAction());
    std::vector<int64_t> P(Pos.size());
    for (size_t D = 0; D < Pos.size(); ++D) {
      const N::SectionTriplet &T = Sec->getTriplets()[D];
      const N::ShapeExtent &E = Arr.Extents[D];
      int64_t Lo = T.All ? E.Lo : T.Lo;
      int64_t Stride = T.All ? 1 : T.Stride;
      P[D] = (Lo - E.Lo) + Pos[D] * Stride;
    }
    return readArray(Arr, P);
  }
  case N::Value::Kind::LocalCoord: {
    const auto *LC = cast<N::LocalCoordValue>(V);
    unsigned D = LC->getDim() - 1;
    if (!Space.Domain.empty() && LC->getDomain() == Space.Domain) {
      if (D >= Pos.size()) {
        error("local_under dimension out of range");
        return RtVal::makeInt(0);
      }
      return RtVal::makeInt(Space.Los[D] + Pos[D]);
    }
    auto It = LoopCoords.find(LC->getDomain());
    if (It == LoopCoords.end()) {
      error("local_under references domain '" + LC->getDomain() +
            "' outside any iteration over it");
      return RtVal::makeInt(0);
    }
    if (D >= It->second.size()) {
      error("local_under dimension out of range");
      return RtVal::makeInt(0);
    }
    return RtVal::makeInt(It->second[D]);
  }
  case N::Value::Kind::FcnCall: {
    const auto *F = cast<N::FcnCallValue>(V);
    const std::string &Name = F->getCallee();
    if (N::isReductionIntrinsic(Name)) {
      if (F->getArgs().size() == 2) {
        // Partial reduction at result position Pos: accumulate over the
        // reduced dimension of the argument's space.
        int64_t Dim = evalScalar(F->getArgs()[1]).asInt();
        StmtSpace ArgSpace = spaceOf(F->getArgs()[0]);
        size_t D = static_cast<size_t>(Dim - 1);
        if (D >= ArgSpace.Counts.size()) {
          error("'" + Name + "' dim out of range at runtime");
          return RtVal::makeInt(0);
        }
        std::vector<int64_t> P(ArgSpace.Counts.size());
        for (size_t K = 0, Out = 0; K < P.size(); ++K)
          P[K] = K == D ? 0 : Pos[Out++];
        RtVal Acc = RtVal::makeInt(0);
        int64_t CountTrue = 0;
        for (int64_t K = 0; K < ArgSpace.Counts[D]; ++K) {
          P[D] = K;
          RtVal E = evalElem(F->getArgs()[0], P, ArgSpace);
          if (Name == "count" || Name == "any" || Name == "all") {
            CountTrue += E.asBool();
            continue;
          }
          if (K == 0) {
            Acc = E;
            continue;
          }
          if (Name == "sum")
            Acc = applyBinary(N::BinaryOp::Add, Acc, E, &Flops);
          else if (Name == "product")
            Acc = applyBinary(N::BinaryOp::Mul, Acc, E, &Flops);
          else if (Name == "maxval")
            Acc = applyBinary(N::BinaryOp::Max, Acc, E, nullptr);
          else if (Name == "minval")
            Acc = applyBinary(N::BinaryOp::Min, Acc, E, nullptr);
        }
        if (Name == "count")
          return RtVal::makeInt(CountTrue);
        if (Name == "any")
          return RtVal::makeBool(CountTrue > 0);
        if (Name == "all")
          return RtVal::makeBool(CountTrue == ArgSpace.Counts[D]);
        return Acc;
      }
      return evalReduction(F);
    }
    if (Name == "merge") {
      RtVal M = evalElem(F->getArgs()[2], Pos, Space);
      return evalElem(F->getArgs()[M.asBool() ? 0 : 1], Pos, Space);
    }
    if (Name == "cshift" || Name == "eoshift") {
      int64_t Shift = evalScalar(F->getArgs()[1]).asInt();
      int64_t Dim = evalScalar(F->getArgs()[2]).asInt();
      size_t D = static_cast<size_t>(Dim - 1);
      if (Pos.empty() || D >= Pos.size()) {
        error("'" + Name + "' dim out of range at runtime");
        return RtVal::makeInt(0);
      }
      std::vector<int64_t> P = Pos;
      int64_t N = Space.Counts[D];
      int64_t Shifted = P[D] + Shift;
      if (Name == "cshift") {
        Shifted = ((Shifted % N) + N) % N;
        P[D] = Shifted;
        return evalElem(F->getArgs()[0], P, Space);
      }
      if (Shifted < 0 || Shifted >= N) {
        // End-off shift: the boundary value is a typed zero.
        RtVal Proto = evalElem(F->getArgs()[0], Pos, Space);
        return convertForStore(RtVal::makeInt(0), Proto.K);
      }
      P[D] = Shifted;
      return evalElem(F->getArgs()[0], P, Space);
    }
    if (Name == "spread") {
      int64_t Dim = evalScalar(F->getArgs()[1]).asInt();
      size_t D = static_cast<size_t>(Dim - 1);
      if (Pos.empty() || D >= Pos.size()) {
        error("'spread' dim out of range at runtime");
        return RtVal::makeInt(0);
      }
      // Drop the broadcast coordinate; the argument space loses the dim.
      std::vector<int64_t> P = Pos;
      P.erase(P.begin() + static_cast<long>(D));
      StmtSpace S2;
      S2.Los = Space.Los;
      S2.Counts = Space.Counts;
      if (D < S2.Los.size()) {
        S2.Los.erase(S2.Los.begin() + static_cast<long>(D));
        S2.Counts.erase(S2.Counts.begin() + static_cast<long>(D));
      }
      return evalElem(F->getArgs()[0], P, S2);
    }
    if (Name == "transpose") {
      if (Pos.size() != 2) {
        error("'transpose' outside a rank-2 context");
        return RtVal::makeInt(0);
      }
      std::vector<int64_t> P = {Pos[1], Pos[0]};
      StmtSpace S2 = Space;
      std::swap(S2.Los[0], S2.Los[1]);
      std::swap(S2.Counts[0], S2.Counts[1]);
      S2.Domain.clear(); // Coordinates are transposed; don't leak them.
      return evalElem(F->getArgs()[0], P, S2);
    }
    error("unknown primitive function '" + Name + "'");
    return RtVal::makeInt(0);
  }
  }
  return RtVal::makeInt(0);
}
