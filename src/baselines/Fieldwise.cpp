//===- baselines/Fieldwise.cpp - *Lisp fieldwise baseline --------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/Fieldwise.h"

#include "interp/Interpreter.h"
#include "nir/TypeInfer.h"

#include <cmath>

using namespace f90y;
using namespace f90y::baselines;
namespace N = f90y::nir;

namespace {

/// Static fieldwise cycle analysis. Loop trip counts are known statically
/// (the prototype's shapes are constant); WHILE bodies are data-dependent
/// and poison timeability.
class FieldwiseAnalysis {
public:
  FieldwiseAnalysis(const cm2::CostModel &Costs) : Costs(Costs) {}

  double run(const N::ProgramImp *Program, bool &TimeableOut) {
    Cycles = 0;
    Timeable = true;
    visit(Program, 1.0);
    TimeableOut = Timeable;
    return Cycles;
  }

private:
  const cm2::CostModel &Costs;
  N::DomainEnv Domains;
  N::ElemTypeInference Types;
  double Cycles = 0;
  bool Timeable = true;

  /// ceil(field elements / processors): how many VP loops each fieldwise
  /// operation makes.
  double vpFactor(int64_t Elements) const {
    return std::ceil(static_cast<double>(Elements) /
                     static_cast<double>(Costs.FieldwiseProcessors));
  }

  /// Cycles of one elemental field operation over \p Elements elements.
  double opCycles(double PerElemOp, int64_t Elements) const {
    return Costs.FieldwiseOpOverhead + PerElemOp * vpFactor(Elements);
  }

  /// Per-VP-loop cost of one elemental operator.
  double elementalCost(bool Floating, double Scale = 1.0) const {
    return Scale * (Floating ? Costs.FieldwiseFpOpCycles
                             : Costs.FieldwiseIntOpCycles);
  }

  /// Accumulates the cost of evaluating \p V elementally over \p Elements
  /// elements, including embedded shifts and reductions.
  void chargeValue(const N::Value *V, int64_t Elements, double Mult) {
    switch (V->getKind()) {
    case N::Value::Kind::Binary: {
      const auto *B = cast<N::BinaryValue>(V);
      chargeValue(B->getLHS(), Elements, Mult);
      chargeValue(B->getRHS(), Elements, Mult);
      bool Fp = Types.elemKindOf(B) != N::Type::Kind::Integer32 &&
                Types.elemKindOf(B) != N::Type::Kind::Logical32;
      double Scale = 1.0;
      if (B->getOp() == N::BinaryOp::Div)
        Scale = 3.0; // Bit-serial divide is much worse than add/multiply.
      else if (B->getOp() == N::BinaryOp::Pow)
        Scale = 4.0;
      Cycles += Mult * opCycles(elementalCost(Fp, Scale), Elements);
      return;
    }
    case N::Value::Kind::Unary: {
      const auto *U = cast<N::UnaryValue>(V);
      chargeValue(U->getOperand(), Elements, Mult);
      double Scale = 1.0;
      switch (U->getOp()) {
      case N::UnaryOp::Sqrt:
        Scale = 4.0;
        break;
      case N::UnaryOp::Sin:
      case N::UnaryOp::Cos:
      case N::UnaryOp::Tan:
      case N::UnaryOp::Exp:
      case N::UnaryOp::Log:
        Scale = 8.0;
        break;
      default:
        break;
      }
      bool Fp = Types.elemKindOf(U) != N::Type::Kind::Integer32 &&
                Types.elemKindOf(U) != N::Type::Kind::Logical32;
      Cycles += Mult * opCycles(elementalCost(Fp, Scale), Elements);
      return;
    }
    case N::Value::Kind::FcnCall: {
      const auto *F = cast<N::FcnCallValue>(V);
      for (const N::Value *A : F->getArgs())
        chargeValue(A, Elements, Mult);
      const std::string &Name = F->getCallee();
      if (Name == "cshift" || Name == "eoshift") {
        int64_t Shift = 1;
        if (const auto *C =
                dyn_cast<N::ScalarConstValue>(F->getArgs()[1]))
          Shift = C->getInt();
        double Hops = static_cast<double>(Shift < 0 ? -Shift : Shift);
        Cycles += Mult * (Costs.FieldwiseOpOverhead +
                          Hops * Costs.FieldwiseShiftCyclesPerHop *
                              vpFactor(Elements));
        return;
      }
      if (Name == "transpose") {
        // Fieldwise general communication: router-class.
        Cycles += Mult * (Costs.CommStartupCycles +
                          Costs.RouterPerElem * vpFactor(Elements) * 8);
        return;
      }
      if (N::isReductionIntrinsic(Name)) {
        Cycles += Mult * (Costs.FieldwiseOpOverhead +
                          elementalCost(true) * vpFactor(Elements) +
                          16 * Costs.ReduceStepCycles);
        return;
      }
      if (Name == "merge")
        Cycles += Mult * opCycles(elementalCost(false), Elements);
      return;
    }
    default:
      return; // Leaves carry no op cost (memory-to-memory ops pay it).
    }
  }

  /// Element count of the statement space of a MOVE clause.
  int64_t clauseElements(const N::MoveClause &C) {
    const auto *AV = dyn_cast<N::AVarValue>(C.Dst);
    if (!AV)
      return 1;
    const auto *FT =
        dyn_cast_or_null<N::DFieldType>(Types.lookup(AV->getSymbol()));
    if (!FT)
      return 1;
    if (const auto *Sec = dyn_cast<N::SectionAction>(AV->getAction())) {
      std::vector<N::ShapeExtent> Exts;
      if (!N::shapeExtents(FT->getShape(), Domains, Exts))
        return 1;
      int64_t Count = 1;
      for (size_t D = 0; D < Sec->getTriplets().size(); ++D)
        Count *= Sec->getTriplets()[D].count(Exts[D].Lo, Exts[D].Hi);
      return Count;
    }
    int64_t N = N::shapeNumElements(FT->getShape(), Domains);
    return N < 0 ? 1 : N;
  }

  void visit(const N::Imp *I, double Mult) {
    switch (I->getKind()) {
    case N::Imp::Kind::Program:
      visit(cast<N::ProgramImp>(I)->getBody(), Mult);
      return;
    case N::Imp::Kind::Sequentially:
      for (const N::Imp *A : cast<N::SequentiallyImp>(I)->getActions())
        visit(A, Mult);
      return;
    case N::Imp::Kind::Concurrently:
      for (const N::Imp *A : cast<N::ConcurrentlyImp>(I)->getActions())
        visit(A, Mult);
      return;
    case N::Imp::Kind::Move: {
      for (const N::MoveClause &C : cast<N::MoveImp>(I)->getClauses()) {
        const auto *AV = dyn_cast<N::AVarValue>(C.Dst);
        if (AV && isa<N::SubscriptAction>(AV->getAction())) {
          // Front-end element access through the router.
          Cycles += Mult * Costs.RouterPerElem;
          continue;
        }
        if (!AV) {
          // Scalar statement on the front end.
          chargeValue(C.Src, 1, Mult);
          Cycles += Mult * Costs.HostStatementCycles;
          continue;
        }
        int64_t Elements = clauseElements(C);
        if (C.Guard) {
          chargeValue(C.Guard, Elements, Mult);
          // Applying the context mask is one more field op.
          Cycles += Mult * opCycles(elementalCost(false), Elements);
        }
        chargeValue(C.Src, Elements, Mult);
        // The store itself (memory-to-memory move of the result field).
        Cycles += Mult * opCycles(elementalCost(false), Elements);
      }
      return;
    }
    case N::Imp::Kind::IfThenElse: {
      // Data-dependent, but bounded: charge the then-branch (dominant for
      // the benchmark programs) and note both in the analysis.
      const auto *If = cast<N::IfThenElseImp>(I);
      visit(If->getThen(), Mult);
      return;
    }
    case N::Imp::Kind::While:
      Timeable = false;
      return;
    case N::Imp::Kind::WithDecl:
      Types.addDecl(cast<N::WithDeclImp>(I)->getDecl());
      visit(cast<N::WithDeclImp>(I)->getBody(), Mult);
      return;
    case N::Imp::Kind::WithDomain: {
      const auto *WD = cast<N::WithDomainImp>(I);
      const N::Shape *Old = Domains.bind(WD->getSymbol(), WD->getShape());
      visit(WD->getBody(), Mult);
      Domains.restore(WD->getSymbol(), Old);
      return;
    }
    case N::Imp::Kind::Skip:
      return;
    case N::Imp::Kind::Do: {
      const auto *D = cast<N::DoImp>(I);
      int64_t Trips = N::shapeNumElements(D->getIterSpace(), Domains);
      if (Trips < 0)
        Trips = 1;
      visit(D->getBody(), Mult * static_cast<double>(Trips));
      return;
    }
    case N::Imp::Kind::Call:
      Cycles += Mult * Costs.HostStatementCycles;
      return;
    }
  }
};

} // namespace

double baselines::fieldwiseCycles(const N::ProgramImp *Program,
                                  const cm2::CostModel &Costs,
                                  bool &Timeable) {
  return FieldwiseAnalysis(Costs).run(Program, Timeable);
}

FieldwiseReport baselines::runFieldwise(const N::ProgramImp *Program,
                                        const cm2::CostModel &Costs,
                                        DiagnosticEngine &Diags) {
  FieldwiseReport Report;
  interp::Interpreter Interp(Diags);
  if (!Interp.run(Program))
    return Report;
  Report.OK = true;
  Report.Flops = Interp.flopCount();
  Report.Output = Interp.output();
  Report.Cycles = fieldwiseCycles(Program, Costs, Report.Timeable);
  return Report;
}
