//===- host/Printer.cpp - Host IR listings -----------------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "host/Printer.h"

#include "nir/Printer.h"
#include "support/StringUtil.h"

using namespace f90y;
using namespace f90y::host;

namespace {

const char *kindName(runtime::ElemKind K) {
  switch (K) {
  case runtime::ElemKind::Int:
    return "integer";
  case runtime::ElemKind::Real:
    return "real";
  case runtime::ElemKind::Bool:
    return "logical";
  }
  return "?";
}

std::string dims(const std::vector<int64_t> &V) {
  std::vector<std::string> Parts;
  for (int64_t X : V)
    Parts.push_back(std::to_string(X));
  return join(Parts, "x");
}

std::string ranges(const std::vector<int64_t> &Los,
                   const std::vector<int64_t> &His) {
  std::vector<std::string> Parts;
  for (size_t D = 0; D < Los.size(); ++D)
    Parts.push_back(std::to_string(Los[D]) + ".." + std::to_string(His[D]));
  return join(Parts, ", ");
}

std::string sections(const std::vector<runtime::CmRuntime::SectionDim> &S) {
  std::vector<std::string> Parts;
  for (const auto &D : S)
    Parts.push_back(std::to_string(D.Start) + ":+" +
                    std::to_string(D.Count) + ":" +
                    std::to_string(D.Stride));
  return cat({"[", join(Parts, ", "), "]"});
}

class Printer {
public:
  std::string print(const HostStmt *S, unsigned Depth) {
    Out.clear();
    emit(S, Depth);
    return Out;
  }

private:
  std::string Out;

  void line(unsigned Depth, const std::string &Text) {
    Out.append(Depth * 2, ' ');
    Out += Text;
    Out += '\n';
  }

  void emit(const HostStmt *S, unsigned Depth) {
    if (!S)
      return;
    switch (S->getKind()) {
    case HostStmt::Kind::Seq:
      for (const auto &Sub : cast<SeqStmt>(S)->stmts())
        emit(Sub.get(), Depth);
      return;
    case HostStmt::Kind::AllocScope: {
      const auto *A = cast<AllocScopeStmt>(S);
      for (const auto &F : A->fields()) {
        // Realigned fields carry their placement so the printed program
        // (and the program tag derived from it) distinguishes layouts;
        // canonical allocations print in the historical form.
        std::string Layout;
        if (!F.Offsets.empty()) {
          Layout = " layout{off=";
          for (size_t D = 0; D < F.Offsets.size(); ++D)
            Layout.append(D ? "," : "").append(std::to_string(F.Offsets[D]));
          Layout += "}";
        }
        line(Depth, "alloc    " + F.Name + " : " + dims(F.Extents) + " " +
                        kindName(F.Kind) + " (cm heap)" + Layout);
      }
      for (const auto &Sc : A->scalars())
        line(Depth, "alloc    " + Sc.Name + " : " + kindName(Sc.Kind) +
                        " (host)");
      emit(A->body(), Depth);
      if (!A->keepAlive())
        line(Depth, "free     scope temporaries");
      return;
    }
    case HostStmt::Kind::ScalarAssign: {
      const auto *A = cast<ScalarAssignStmt>(S);
      std::string Guard =
          A->guard() ? " when " + nir::printValue(A->guard()) : "";
      line(Depth, "set      " + A->name() + " <- " +
                      nir::printValue(A->expr()) + Guard);
      return;
    }
    case HostStmt::Kind::ElementMove: {
      const auto *M = cast<ElementMoveStmt>(S);
      std::vector<std::string> Idx;
      for (const nir::Value *I : M->indices())
        Idx.push_back(nir::printValue(I));
      std::string Guard =
          M->guard() ? " when " + nir::printValue(M->guard()) : "";
      line(Depth, "store    " + M->array() + "(" + join(Idx, ", ") +
                      ") <- " + nir::printValue(M->expr()) + Guard);
      return;
    }
    case HostStmt::Kind::CallPeac: {
      const auto *C = cast<CallPeacStmt>(S);
      std::vector<std::string> Args;
      for (const PeacArgSpec &A : C->args()) {
        switch (A.K) {
        case PeacArgSpec::Kind::FieldPtr:
          Args.push_back("ptr(" + A.Field + ")");
          break;
        case PeacArgSpec::Kind::CoordPtr:
          Args.push_back("coord(" + std::to_string(A.Dim) + ")");
          break;
        case PeacArgSpec::Kind::Scalar:
          Args.push_back("scalar(" + nir::printValue(A.Scalar) + ")");
          break;
        }
      }
      line(Depth, "call     P" + std::to_string(C->routineIndex()) +
                      "vs1 over " + dims(C->extents()) + " <- " +
                      join(Args, ", "));
      return;
    }
    case HostStmt::Kind::Shift: {
      const auto *Sh = cast<ShiftStmt>(S);
      std::string Flavor = Sh->isEndOff() ? "eoshift" : "cshift";
      std::string Dim = ", dim=" + std::to_string(Sh->dim());
      if (Sh->clauses().size() == 1) {
        const ShiftStmt::Clause &C = Sh->clauses()[0];
        std::string Realigned =
            C.isRealigned()
                ? " realigned(logical=" + std::to_string(C.Logical) + ")"
                : "";
        line(Depth, "cm_shift " + C.Dst + " <- " + Flavor + "(" + Sh->src() +
                        Dim + ", shift=" + std::to_string(C.Shift) + ")" +
                        Realigned);
        return;
      }
      std::vector<std::string> Reqs;
      for (const ShiftStmt::Clause &C : Sh->clauses())
        Reqs.push_back(C.Dst + "@" + std::to_string(C.Shift));
      line(Depth, "cm_mshift " + join(Reqs, ", ") + " <- " + Flavor + "(" +
                      Sh->src() + Dim + ")");
      return;
    }
    case HostStmt::Kind::SectionCopy: {
      const auto *C = cast<SectionCopyStmt>(S);
      line(Depth, "cm_copy  " + C->dst() + sections(C->dstSec()) + " <- " +
                      C->src() + sections(C->srcSec()));
      return;
    }
    case HostStmt::Kind::Transpose: {
      const auto *T = cast<TransposeStmt>(S);
      line(Depth, "cm_xpose " + T->dst() + " <- transpose(" + T->src() +
                      ")");
      return;
    }
    case HostStmt::Kind::Reduce: {
      const auto *R = cast<ReduceStmt>(S);
      line(Depth, "cm_reduce " + R->dstScalar() + " <- " +
                      reduceOpName(R->op()) + "(" + R->src() + ")");
      return;
    }
    case HostStmt::Kind::ReduceDim: {
      const auto *R = cast<ReduceDimStmt>(S);
      line(Depth, "cm_reduce " + R->dst() + " <- " + reduceOpName(R->op()) +
                      "(" + R->src() + ", dim=" + std::to_string(R->dim()) +
                      ")");
      return;
    }
    case HostStmt::Kind::Spread: {
      const auto *Sp = cast<SpreadStmt>(S);
      line(Depth, "cm_sprd  " + Sp->dst() + " <- spread(" + Sp->src() +
                      ", dim=" + std::to_string(Sp->dim()) + ")");
      return;
    }
    case HostStmt::Kind::If: {
      const auto *If = cast<host::IfStmt>(S);
      line(Depth, "if       " + nir::printValue(If->cond()));
      emit(If->thenStmt(), Depth + 1);
      if (If->elseStmt()) {
        line(Depth, "else");
        emit(If->elseStmt(), Depth + 1);
      }
      line(Depth, "end");
      return;
    }
    case HostStmt::Kind::While: {
      const auto *W = cast<host::WhileStmt>(S);
      line(Depth, "while    " + nir::printValue(W->cond()));
      emit(W->body(), Depth + 1);
      line(Depth, "end");
      return;
    }
    case HostStmt::Kind::SerialDo: {
      const auto *D = cast<SerialDoStmt>(S);
      line(Depth, "do       " + D->domain() + " = " +
                      ranges(D->los(), D->his()));
      emit(D->body(), Depth + 1);
      line(Depth, "end");
      return;
    }
    case HostStmt::Kind::ParallelLoop: {
      const auto *D = cast<ParallelLoopStmt>(S);
      line(Depth, "scatter  " + D->domain() + " = " +
                      ranges(D->los(), D->his()) + " (router)");
      emit(D->body(), Depth + 1);
      line(Depth, "end");
      return;
    }
    case HostStmt::Kind::Print: {
      const auto *P = cast<host::PrintStmt>(S);
      std::vector<std::string> Items;
      for (const nir::Value *I : P->items())
        Items.push_back(nir::printValue(I));
      line(Depth, "print    " + join(Items, ", "));
      return;
    }
    }
  }
};

} // namespace

std::string host::printHostStmt(const HostStmt *S, unsigned Depth) {
  return Printer().print(S, Depth);
}

std::string host::printHostProgram(const HostProgram &Program) {
  std::string Out = "; host program '" + Program.Name + "' (" +
                    std::to_string(Program.Routines.size()) +
                    " PEAC routines)\n";
  Out += printHostStmt(Program.Body.get(), 0);
  return Out;
}
