//===- transform/ExtractComm.cpp - Hoist communication intrinsics -----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hoists communication intrinsics and reductions out of computational
/// MOVEs into fresh temporaries. Afterwards every MOVE clause is one of:
///
///  - a pure local computation (no FCNCALL except elemental 'merge');
///  - a communication action: src is exactly FCNCALL(comm, [AVAR, ...])
///    with an everywhere destination;
///  - a reduction action: src is exactly FCNCALL(red, [AVAR]) with a
///    scalar destination.
///
/// This realizes the tmp0/tmp1 temporaries visible in paper Figure 12.
///
//===----------------------------------------------------------------------===//

#include "nir/Rewrite.h"
#include "nir/TypeInfer.h"
#include "transform/Phases.h"
#include "transform/Transforms.h"

using namespace f90y;
using namespace f90y::transform;
namespace N = f90y::nir;

namespace {

class ExtractCommPass : public N::ImpRewriter {
public:
  ExtractCommPass(N::NIRContext &Ctx, DiagnosticEngine &Diags)
      : ImpRewriter(Ctx), Diags(Diags) {}

private:
  DiagnosticEngine &Diags;
  N::ElemTypeInference Types;
  unsigned TmpCounter = 0;

  // Accumulated per-MOVE state.
  std::vector<const N::Decl *> TempDecls;
  std::vector<const N::Imp *> PreActions;

  const N::Symbol *freshTemp() {
    return Ctx.intern("tmp" + std::to_string(TmpCounter++));
  }

  const N::ScalarType *scalarTypeOf(N::Type::Kind K) {
    return Ctx.getScalarType(K);
  }

  /// The domain of the first everywhere AVAR (or local_under) in \p V
  /// that has one, outside any subscript index.
  const N::Symbol *domainOfFieldExpr(const N::Value *V) {
    const N::Symbol *Domain = nullptr;
    N::forEachValue(V, [&](const N::Value *X) {
      if (Domain)
        return false;
      if (const auto *AV = dyn_cast<N::AVarValue>(X)) {
        if (isa<N::EverywhereAction>(AV->getAction()))
          Domain = domainOf(AV);
        return false;
      }
      if (const auto *LC = dyn_cast<N::LocalCoordValue>(X))
        Domain = LC->getSymbol();
      return true;
    });
    return Domain;
  }

  bool isBareEverywhereAVar(const N::Value *V) {
    const auto *AV = dyn_cast<N::AVarValue>(V);
    return AV && isa<N::EverywhereAction>(AV->getAction());
  }

  /// Materializes \p V into a fresh field temporary over \p Domain and
  /// returns an everywhere reference to it.
  const N::Value *hoistField(const N::Value *V, const N::Symbol *Domain) {
    if (!Domain) {
      Diags.error(SourceLocation(),
                  "cannot determine the domain of a hoisted communication "
                  "operand");
      return V;
    }
    const N::Symbol *T = freshTemp();
    N::Type::Kind K = Types.elemKindOf(V);
    const N::Type *Ty =
        Ctx.getDField(Ctx.getDomainRef(Domain), scalarTypeOf(K));
    TempDecls.push_back(Ctx.getDecl(T, Ty));
    Types.addBinding(T, Ty);
    PreActions.push_back(
        Ctx.getMove({{Ctx.getTrue(), V, Ctx.getAVar(T, Ctx.getEverywhere())}}));
    return Ctx.getAVar(T, Ctx.getEverywhere());
  }

  /// Materializes a scalar value into a fresh scalar temporary.
  const N::Value *hoistScalar(const N::Value *V) {
    const N::Symbol *T = freshTemp();
    N::Type::Kind K = Types.elemKindOf(V);
    const N::Type *Ty = scalarTypeOf(K);
    TempDecls.push_back(Ctx.getDecl(T, Ty));
    Types.addBinding(T, Ty);
    PreActions.push_back(
        Ctx.getMove({{Ctx.getTrue(), V, Ctx.getSVar(T)}}));
    return Ctx.getSVar(T);
  }

  /// \p F with \p Arg as its first argument (\p F itself when unchanged).
  const N::Value *withFirstArg(const N::FcnCallValue *F, const N::Value *Arg) {
    if (Arg == F->getArgs()[0])
      return F;
    std::vector<const N::Value *> Args = F->getArgs();
    Args[0] = Arg;
    return Ctx.getFcnCall(F->getSymbol(), std::move(Args));
  }

  /// Rewrites \p V, hoisting comm/reduction calls. \p StmtDomain is the
  /// domain of the enclosing statement (used for transpose results).
  /// \p AtTop is true when V is the entire clause source (a bare comm or
  /// reduction at top level is already in canonical position).
  const N::Value *rewriteValue(const N::Value *V,
                               const N::Symbol *StmtDomain, bool AtTop) {
    switch (V->getKind()) {
    case N::Value::Kind::Binary: {
      const auto *B = cast<N::BinaryValue>(V);
      const N::Value *L = rewriteValue(B->getLHS(), StmtDomain, false);
      const N::Value *R = rewriteValue(B->getRHS(), StmtDomain, false);
      if (L == B->getLHS() && R == B->getRHS())
        return V;
      return Ctx.getBinary(B->getOp(), L, R);
    }
    case N::Value::Kind::Unary: {
      const auto *U = cast<N::UnaryValue>(V);
      const N::Value *Op = rewriteValue(U->getOperand(), StmtDomain, false);
      return Op == U->getOperand() ? V : Ctx.getUnary(U->getOp(), Op);
    }
    case N::Value::Kind::FcnCall: {
      const auto *F = cast<N::FcnCallValue>(V);
      const std::string &Name = F->getCallee();

      if (N::isCommIntrinsic(Name)) {
        if (containsSection(F->getArgs()[0])) {
          Diags.error(SourceLocation(),
                      "communication intrinsic over an array section is "
                      "unsupported in this prototype");
          return V;
        }
        const N::Value *Arg = rewriteValue(F->getArgs()[0], StmtDomain,
                                           false);
        const N::Symbol *ArgDomain = domainOfFieldExpr(Arg);
        if (!isBareEverywhereAVar(Arg))
          Arg = hoistField(Arg, ArgDomain ? ArgDomain : StmtDomain);
        const N::Value *Call = withFirstArg(F, Arg);
        if (AtTop)
          return Call; // Already a canonical communication MOVE.
        // Shape-preserving shifts keep the argument's domain; transpose
        // and spread produce values of the statement's shape.
        bool ResultHasStmtShape =
            Name == "transpose" || Name == "spread";
        const N::Symbol *ResultDomain =
            ResultHasStmtShape && StmtDomain ? StmtDomain
                                             : domainOfFieldExpr(Arg);
        return hoistField(Call, ResultDomain ? ResultDomain : StmtDomain);
      }

      if (N::isReductionIntrinsic(Name)) {
        const N::Value *Arg = rewriteValue(F->getArgs()[0], StmtDomain,
                                           false);
        if (!isBareEverywhereAVar(Arg))
          Arg = hoistField(Arg, domainOfFieldExpr(Arg));
        const N::Value *Call = withFirstArg(F, Arg);
        if (AtTop)
          return Call; // Canonical reduction MOVE.
        if (F->getArgs().size() == 2) {
          // Partial reduction: the result is a field over the statement
          // domain (shapechecking guaranteed conformance).
          return hoistField(Call, StmtDomain);
        }
        return hoistScalar(Call);
      }

      // Elemental calls (merge): rewrite arguments in place.
      std::vector<const N::Value *> Args;
      bool Changed = false;
      for (const N::Value *A : F->getArgs()) {
        const N::Value *NA = rewriteValue(A, StmtDomain, false);
        Changed |= NA != A;
        Args.push_back(NA);
      }
      return Changed ? Ctx.getFcnCall(Name, Args) : V;
    }
    case N::Value::Kind::AVar: {
      const auto *AV = cast<N::AVarValue>(V);
      if (const auto *Sub = dyn_cast<N::SubscriptAction>(AV->getAction())) {
        std::vector<const N::Value *> Indices;
        bool Changed = false;
        for (const N::Value *I : Sub->getIndices()) {
          const N::Value *NI = rewriteValue(I, StmtDomain, false);
          Changed |= NI != I;
          Indices.push_back(NI);
        }
        if (Changed)
          return Ctx.getAVar(AV->getSymbol(), Ctx.getSubscript(Indices));
      }
      return V;
    }
    default:
      return V;
    }
  }

  /// The declared domain of the field \p V refers to, if any.
  const N::Symbol *domainOf(const N::Value *V) {
    const auto *AV = dyn_cast<N::AVarValue>(V);
    if (!AV)
      return nullptr;
    const auto *FT =
        dyn_cast_or_null<N::DFieldType>(Types.lookup(AV->getSymbol()));
    if (!FT)
      return nullptr;
    if (const auto *Ref = dyn_cast<N::DomainRefShape>(FT->getShape()))
      return Ref->getSymbol();
    return nullptr;
  }

  /// \p Stmt behind the moves into the temporaries hoisted out of it.
  const N::Imp *withTemps(const N::Imp *Stmt) {
    if (TempDecls.empty())
      return Stmt;
    PreActions.push_back(Stmt);
    const N::Imp *Result = Ctx.getWithDecl(Ctx.getDeclSet(TempDecls),
                                           Ctx.getSequentially(PreActions));
    TempDecls.clear();
    PreActions.clear();
    return Result;
  }

  const N::Decl *decl(const N::WithDeclImp *W) override {
    Types.addDecl(W->getDecl());
    return W->getDecl();
  }

  const N::Imp *move(const N::MoveImp *M) override {
    std::vector<N::MoveClause> Clauses;
    bool Changed = false;
    for (const N::MoveClause &C : M->getClauses()) {
      const N::Symbol *StmtDomain = domainOf(C.Dst);
      N::MoveClause NC = C;
      if (C.Guard) {
        NC.Guard = rewriteValue(C.Guard, StmtDomain, false);
        Changed |= NC.Guard != C.Guard;
      }
      // A bare comm/reduction call may stay at clause top level only when
      // the clause is effectively unguarded; a real mask forces a temp
      // plus a masked copy.
      bool TopOk = !C.Guard || isa<N::ScalarConstValue>(C.Guard);
      NC.Src = rewriteValue(C.Src, StmtDomain, TopOk);
      Changed |= NC.Src != C.Src;
      Clauses.push_back(NC);
    }
    return withTemps(Changed ? Ctx.getMove(Clauses) : M);
  }

  const N::Imp *call(const N::CallImp *C) override {
    std::vector<const N::Value *> Args;
    bool Changed = false;
    for (const N::Value *A : C->getArgs()) {
      const N::Value *NA = rewriteValue(A, nullptr, false);
      Changed |= NA != A;
      Args.push_back(NA);
    }
    return withTemps(Changed ? Ctx.getCall(C->getSymbol(), Args) : C);
  }
};

} // namespace

const N::Imp *transform::extractComm(const N::Imp *Root, N::NIRContext &Ctx,
                                     DiagnosticEngine &Diags) {
  return ExtractCommPass(Ctx, Diags).rewrite(Root);
}
