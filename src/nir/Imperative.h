//===- nir/Imperative.h - NIR imperative domain ------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The imperative (control and store) domain of NIR (paper Figures 5 and 6):
///
///   PROGRAM       I -> I               top-level program action
///   SEQUENTIALLY  I list -> I          sequential composition
///   CONCURRENTLY  I list -> I          concurrent composition
///   MOVE          (V*(V*V)) list -> I  move multiple under mask
///   IFTHENELSE    V*I*I -> I           classical if-then-else
///   WHILE         V*I -> I             classical while-construct
///   WITH_DECL     D*I -> I             execute in extended environment
///   WITH_DOMAIN   id*S*I -> I          bind a named shape over I
///   SKIP          I                    (SEQUENTIALLY nil)
///   DO            S*I -> I             execute I at each point of shape S
///
/// Whether a DO's iterations execute serially or in parallel depends
/// entirely on the definition of its shape (serial_interval vs interval).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_NIR_IMPERATIVE_H
#define F90Y_NIR_IMPERATIVE_H

#include "nir/Decl.h"
#include "nir/Shape.h"
#include "nir/Value.h"
#include "support/Casting.h"

#include <string>
#include <vector>

namespace f90y {
namespace nir {

/// Base class of the imperative domain.
class Imp {
public:
  enum class Kind {
    Program,
    Sequentially,
    Concurrently,
    Move,
    IfThenElse,
    While,
    WithDecl,
    WithDomain,
    Skip,
    Do,
    Call
  };

  Kind getKind() const { return K; }

  virtual ~Imp() = default;

protected:
  explicit Imp(Kind K) : K(K) {}

private:
  const Kind K;
};

/// PROGRAM(I): the top-level action of a compiled procedural unit.
class ProgramImp : public Imp {
public:
  ProgramImp(const Symbol *Name, const Imp *Body)
      : Imp(Kind::Program), Name(Name), Body(Body) {}

  const std::string &getName() const { return Name->Name; }
  const Symbol *getSymbol() const { return Name; }
  const Imp *getBody() const { return Body; }

  static bool classof(const Imp *I) { return I->getKind() == Kind::Program; }

private:
  const Symbol *Name;
  const Imp *Body;
};

/// SEQUENTIALLY[i1, i2, ...].
class SequentiallyImp : public Imp {
public:
  explicit SequentiallyImp(std::vector<const Imp *> Actions)
      : Imp(Kind::Sequentially), Actions(std::move(Actions)) {}

  const std::vector<const Imp *> &getActions() const { return Actions; }

  static bool classof(const Imp *I) {
    return I->getKind() == Kind::Sequentially;
  }

private:
  std::vector<const Imp *> Actions;
};

/// CONCURRENTLY[i1, i2, ...]: sub-actions with no mutual dependencies; the
/// implementation may execute them in any order or simultaneously.
class ConcurrentlyImp : public Imp {
public:
  explicit ConcurrentlyImp(std::vector<const Imp *> Actions)
      : Imp(Kind::Concurrently), Actions(std::move(Actions)) {}

  const std::vector<const Imp *> &getActions() const { return Actions; }

  static bool classof(const Imp *I) {
    return I->getKind() == Kind::Concurrently;
  }

private:
  std::vector<const Imp *> Actions;
};

/// One guarded clause of a MOVE: when `Guard` holds (pointwise, for field
/// moves), move the value of `Src` into the storage denoted by `Dst`.
struct MoveClause {
  const Value *Guard = nullptr; ///< Logical guard; null means True.
  const Value *Src = nullptr;
  const Value *Dst = nullptr;
};

/// MOVE[(g1,(s1,d1)), ...]: move multiple under mask. All clauses of one
/// MOVE belong to a single computation burst; sources are evaluated against
/// the pre-state of the clause (clauses apply in order).
class MoveImp : public Imp {
public:
  explicit MoveImp(std::vector<MoveClause> Clauses)
      : Imp(Kind::Move), Clauses(std::move(Clauses)) {}

  const std::vector<MoveClause> &getClauses() const { return Clauses; }

  static bool classof(const Imp *I) { return I->getKind() == Kind::Move; }

private:
  std::vector<MoveClause> Clauses;
};

/// IFTHENELSE(cond, then, else): scalar control flow (front-end side).
class IfThenElseImp : public Imp {
public:
  IfThenElseImp(const Value *Cond, const Imp *Then, const Imp *Else)
      : Imp(Kind::IfThenElse), Cond(Cond), Then(Then), Else(Else) {}

  const Value *getCond() const { return Cond; }
  const Imp *getThen() const { return Then; }
  const Imp *getElse() const { return Else; }

  static bool classof(const Imp *I) {
    return I->getKind() == Kind::IfThenElse;
  }

private:
  const Value *Cond;
  const Imp *Then, *Else;
};

/// WHILE(cond, body).
class WhileImp : public Imp {
public:
  WhileImp(const Value *Cond, const Imp *Body)
      : Imp(Kind::While), Cond(Cond), Body(Body) {}

  const Value *getCond() const { return Cond; }
  const Imp *getBody() const { return Body; }

  static bool classof(const Imp *I) { return I->getKind() == Kind::While; }

private:
  const Value *Cond;
  const Imp *Body;
};

/// WITH_DECL(d, I): executes I in a context in which declaration d is
/// visible.
class WithDeclImp : public Imp {
public:
  WithDeclImp(const Decl *D, const Imp *Body)
      : Imp(Kind::WithDecl), D(D), Body(Body) {}

  const Decl *getDecl() const { return D; }
  const Imp *getBody() const { return Body; }

  static bool classof(const Imp *I) { return I->getKind() == Kind::WithDecl; }

private:
  const Decl *D;
  const Imp *Body;
};

/// WITH_DOMAIN(name, S, I): binds `name` to shape S over I, so dfield types,
/// DOs, and local_under values can share one domain by reference.
class WithDomainImp : public Imp {
public:
  WithDomainImp(const Symbol *Name, const Shape *S, const Imp *Body)
      : Imp(Kind::WithDomain), Name(Name), S(S), Body(Body) {}

  const std::string &getName() const { return Name->Name; }
  const Symbol *getSymbol() const { return Name; }
  const Shape *getShape() const { return S; }
  const Imp *getBody() const { return Body; }

  static bool classof(const Imp *I) {
    return I->getKind() == Kind::WithDomain;
  }

private:
  const Symbol *Name;
  const Shape *S;
  const Imp *Body;
};

/// SKIP: the empty action, (SEQUENTIALLY nil).
class SkipImp : public Imp {
public:
  SkipImp() : Imp(Kind::Skip) {}

  static bool classof(const Imp *I) { return I->getKind() == Kind::Skip; }
};

/// DO(S, I): carries out action I at each point of shape S. Serial or
/// parallel execution is determined entirely by S. The shape is usually a
/// DomainRef so the body can address coordinates via local_under.
class DoImp : public Imp {
public:
  DoImp(const Shape *IterSpace, const Imp *Body)
      : Imp(Kind::Do), IterSpace(IterSpace), Body(Body) {}

  const Shape *getIterSpace() const { return IterSpace; }
  const Imp *getBody() const { return Body; }

  static bool classof(const Imp *I) { return I->getKind() == Kind::Do; }

private:
  const Shape *IterSpace;
  const Imp *Body;
};

/// CALL(id, args): invocation of a host/runtime procedure for its effect
/// (e.g. "print"). Parameter passing follows the COPY_OUT convention of the
/// paper's core imperative domain.
class CallImp : public Imp {
public:
  CallImp(const Symbol *Callee, std::vector<const Value *> Args)
      : Imp(Kind::Call), Callee(Callee), Args(std::move(Args)) {}

  const std::string &getCallee() const { return Callee->Name; }
  const Symbol *getSymbol() const { return Callee; }
  const std::vector<const Value *> &getArgs() const { return Args; }

  static bool classof(const Imp *I) { return I->getKind() == Kind::Call; }

private:
  const Symbol *Callee;
  std::vector<const Value *> Args;
};

} // namespace nir
} // namespace f90y

#endif // F90Y_NIR_IMPERATIVE_H
