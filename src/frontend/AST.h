//===- frontend/AST.h - Fortran-90 abstract syntax ---------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for the data-parallel Fortran-90 subset accepted by the
/// prototype: whole-array expressions, array sections, WHERE/ELSEWHERE,
/// FORALL, serial DO loops, and the transformational intrinsics.
/// Ownership: ASTContext owns all nodes; references are raw pointers.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_FRONTEND_AST_H
#define F90Y_FRONTEND_AST_H

#include "support/Casting.h"
#include "support/SourceLocation.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace f90y {
namespace frontend {
namespace ast {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Expr {
public:
  enum class Kind {
    IntLit,
    RealLit,
    LogicalLit,
    StringLit,
    Ident,
    Binary,
    Unary,
    Call,     ///< Intrinsic or function reference: name(args).
    ArrayRef  ///< Array element or section reference.
  };

  Kind getKind() const { return K; }
  SourceLocation getLoc() const { return Loc; }
  void setLoc(SourceLocation L) { Loc = L; }

  virtual ~Expr() = default;

protected:
  explicit Expr(Kind K) : K(K) {}

private:
  const Kind K;
  SourceLocation Loc;
};

class IntLitExpr : public Expr {
public:
  explicit IntLitExpr(int64_t Value) : Expr(Kind::IntLit), Value(Value) {}
  int64_t getValue() const { return Value; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::IntLit; }

private:
  int64_t Value;
};

class RealLitExpr : public Expr {
public:
  RealLitExpr(double Value, bool Double)
      : Expr(Kind::RealLit), Value(Value), Double(Double) {}
  double getValue() const { return Value; }
  bool isDouble() const { return Double; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::RealLit; }

private:
  double Value;
  bool Double;
};

class LogicalLitExpr : public Expr {
public:
  explicit LogicalLitExpr(bool Value)
      : Expr(Kind::LogicalLit), Value(Value) {}
  bool getValue() const { return Value; }
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::LogicalLit;
  }

private:
  bool Value;
};

class StringLitExpr : public Expr {
public:
  explicit StringLitExpr(std::string Value)
      : Expr(Kind::StringLit), Value(std::move(Value)) {}
  const std::string &getValue() const { return Value; }
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::StringLit;
  }

private:
  std::string Value;
};

class IdentExpr : public Expr {
public:
  explicit IdentExpr(std::string Name)
      : Expr(Kind::Ident), Name(std::move(Name)) {}
  const std::string &getName() const { return Name; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Ident; }

private:
  std::string Name;
};

enum class BinOp {
  Add,
  Sub,
  Mul,
  Div,
  Pow,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(BinOp Op, const Expr *LHS, const Expr *RHS)
      : Expr(Kind::Binary), Op(Op), LHS(LHS), RHS(RHS) {}
  BinOp getOp() const { return Op; }
  const Expr *getLHS() const { return LHS; }
  const Expr *getRHS() const { return RHS; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }

private:
  BinOp Op;
  const Expr *LHS, *RHS;
};

enum class UnOp { Neg, Plus, Not };

class UnaryExpr : public Expr {
public:
  UnaryExpr(UnOp Op, const Expr *Operand)
      : Expr(Kind::Unary), Op(Op), Operand(Operand) {}
  UnOp getOp() const { return Op; }
  const Expr *getOperand() const { return Operand; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }

private:
  UnOp Op;
  const Expr *Operand;
};

class CallExpr : public Expr {
public:
  /// \p Keywords runs parallel to \p Args; an empty string marks a
  /// positional argument ("cshift(v, dim=1, shift=-1)" keeps its keyword
  /// spellings so lowering can reorder to positional form).
  CallExpr(std::string Callee, std::vector<const Expr *> Args,
           std::vector<std::string> Keywords = {})
      : Expr(Kind::Call), Callee(std::move(Callee)), Args(std::move(Args)),
        Keywords(std::move(Keywords)) {
    this->Keywords.resize(this->Args.size());
  }
  const std::string &getCallee() const { return Callee; }
  const std::vector<const Expr *> &getArgs() const { return Args; }
  const std::vector<std::string> &getKeywords() const { return Keywords; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }

private:
  std::string Callee;
  std::vector<const Expr *> Args;
  std::vector<std::string> Keywords;
};

/// One dimension of an array reference: either a single index expression or
/// a section triplet lo:hi:stride (each part optional; a lone ':' has all
/// three absent).
struct DimSelector {
  bool IsSection = false;
  const Expr *Index = nullptr;           ///< When !IsSection.
  const Expr *Lo = nullptr;              ///< Optional when IsSection.
  const Expr *Hi = nullptr;              ///< Optional when IsSection.
  const Expr *Stride = nullptr;          ///< Optional when IsSection.
};

class ArrayRefExpr : public Expr {
public:
  ArrayRefExpr(std::string Name, std::vector<DimSelector> Dims)
      : Expr(Kind::ArrayRef), Name(std::move(Name)), Dims(std::move(Dims)) {}
  const std::string &getName() const { return Name; }
  const std::vector<DimSelector> &getDims() const { return Dims; }

  /// True if any dimension is a section (so the reference denotes an array
  /// value rather than a single element).
  bool hasSection() const {
    for (const DimSelector &D : Dims)
      if (D.IsSection)
        return true;
    return false;
  }

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::ArrayRef;
  }

private:
  std::string Name;
  std::vector<DimSelector> Dims;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind { Assign, If, DoLoop, DoWhile, Where, Forall, Print, Block,
                    Continue, Call };

  Kind getKind() const { return K; }
  SourceLocation getLoc() const { return Loc; }
  void setLoc(SourceLocation L) { Loc = L; }

  virtual ~Stmt() = default;

protected:
  explicit Stmt(Kind K) : K(K) {}

private:
  const Kind K;
  SourceLocation Loc;
};

/// lhs = rhs, where lhs is an identifier (scalar or whole array) or an
/// ArrayRef (element or section).
class AssignStmt : public Stmt {
public:
  AssignStmt(const Expr *LHS, const Expr *RHS)
      : Stmt(Kind::Assign), LHS(LHS), RHS(RHS) {}
  const Expr *getLHS() const { return LHS; }
  const Expr *getRHS() const { return RHS; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

private:
  const Expr *LHS, *RHS;
};

class BlockStmt : public Stmt {
public:
  explicit BlockStmt(std::vector<const Stmt *> Stmts)
      : Stmt(Kind::Block), Stmts(std::move(Stmts)) {}
  const std::vector<const Stmt *> &getStmts() const { return Stmts; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Block; }

private:
  std::vector<const Stmt *> Stmts;
};

class IfStmt : public Stmt {
public:
  IfStmt(const Expr *Cond, const Stmt *Then, const Stmt *Else)
      : Stmt(Kind::If), Cond(Cond), Then(Then), Else(Else) {}
  const Expr *getCond() const { return Cond; }
  const Stmt *getThen() const { return Then; }
  const Stmt *getElse() const { return Else; } ///< May be null.
  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

private:
  const Expr *Cond;
  const Stmt *Then, *Else;
};

/// DO var = lo, hi [, step] ... END DO (or labeled CONTINUE form).
class DoLoopStmt : public Stmt {
public:
  DoLoopStmt(std::string Var, const Expr *Lo, const Expr *Hi,
             const Expr *Step, const Stmt *Body)
      : Stmt(Kind::DoLoop), Var(std::move(Var)), Lo(Lo), Hi(Hi), Step(Step),
        Body(Body) {}
  const std::string &getVar() const { return Var; }
  const Expr *getLo() const { return Lo; }
  const Expr *getHi() const { return Hi; }
  const Expr *getStep() const { return Step; } ///< May be null (step 1).
  const Stmt *getBody() const { return Body; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::DoLoop; }

private:
  std::string Var;
  const Expr *Lo, *Hi, *Step;
  const Stmt *Body;
};

class DoWhileStmt : public Stmt {
public:
  DoWhileStmt(const Expr *Cond, const Stmt *Body)
      : Stmt(Kind::DoWhile), Cond(Cond), Body(Body) {}
  const Expr *getCond() const { return Cond; }
  const Stmt *getBody() const { return Body; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::DoWhile; }

private:
  const Expr *Cond;
  const Stmt *Body;
};

/// WHERE (mask) assigns ELSEWHERE assigns END WHERE. Bodies are restricted
/// to assignment statements (checked by the parser).
class WhereStmt : public Stmt {
public:
  WhereStmt(const Expr *Mask, std::vector<const AssignStmt *> Then,
            std::vector<const AssignStmt *> Else)
      : Stmt(Kind::Where), Mask(Mask), Then(std::move(Then)),
        Else(std::move(Else)) {}
  const Expr *getMask() const { return Mask; }
  const std::vector<const AssignStmt *> &getThenAssigns() const {
    return Then;
  }
  const std::vector<const AssignStmt *> &getElseAssigns() const {
    return Else;
  }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Where; }

private:
  const Expr *Mask;
  std::vector<const AssignStmt *> Then, Else;
};

/// One index specification of a FORALL: var = lo : hi [: stride].
struct ForallIndex {
  std::string Var;
  const Expr *Lo = nullptr;
  const Expr *Hi = nullptr;
  const Expr *Stride = nullptr; ///< May be null (stride 1).
};

class ForallStmt : public Stmt {
public:
  ForallStmt(std::vector<ForallIndex> Indices, const AssignStmt *Body)
      : Stmt(Kind::Forall), Indices(std::move(Indices)), Body(Body) {}
  const std::vector<ForallIndex> &getIndices() const { return Indices; }
  const AssignStmt *getBody() const { return Body; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Forall; }

private:
  std::vector<ForallIndex> Indices;
  const AssignStmt *Body;
};

class PrintStmt : public Stmt {
public:
  explicit PrintStmt(std::vector<const Expr *> Items)
      : Stmt(Kind::Print), Items(std::move(Items)) {}
  const std::vector<const Expr *> &getItems() const { return Items; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Print; }

private:
  std::vector<const Expr *> Items;
};

class ContinueStmt : public Stmt {
public:
  ContinueStmt() : Stmt(Kind::Continue) {}
  static bool classof(const Stmt *S) {
    return S->getKind() == Kind::Continue;
  }
};

/// CALL name(args): invocation of a SUBROUTINE unit. Resolved by
/// procedure integration (frontend/Inline.h) before lowering.
class CallStmt : public Stmt {
public:
  CallStmt(std::string Callee, std::vector<const Expr *> Args)
      : Stmt(Kind::Call), Callee(std::move(Callee)), Args(std::move(Args)) {}
  const std::string &getCallee() const { return Callee; }
  const std::vector<const Expr *> &getArgs() const { return Args; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Call; }

private:
  std::string Callee;
  std::vector<const Expr *> Args;
};

//===----------------------------------------------------------------------===//
// Declarations and program units
//===----------------------------------------------------------------------===//

enum class TypeSpec { Integer, Real, DoublePrecision, Logical };

/// One declared entity: `REAL, DIMENSION(64,64) :: A` or `INTEGER K(128)`.
/// Dimensions are (lo, hi) expression pairs; lo may be null (default 1).
struct EntityDecl {
  std::string Name;
  TypeSpec Ty = TypeSpec::Real;
  std::vector<std::pair<const Expr *, const Expr *>> Dims;
  const Expr *Init = nullptr;
  bool IsParameter = false;
  SourceLocation Loc;

  bool isArray() const { return !Dims.empty(); }
};

/// A main program unit.
struct ProgramUnit {
  std::string Name;
  std::vector<EntityDecl> Decls;
  std::vector<const Stmt *> Body;
};

/// A SUBROUTINE unit. Dummy arguments are declared like any entity in
/// Decls; Params records their order.
struct SubroutineUnit {
  std::string Name;
  std::vector<std::string> Params;
  std::vector<EntityDecl> Decls;
  std::vector<const Stmt *> Body;
  SourceLocation Loc;
};

/// A parsed source file: one main program plus any subroutine units.
struct SourceFile {
  ProgramUnit Main;
  std::vector<SubroutineUnit> Subroutines;
};

//===----------------------------------------------------------------------===//
// Context
//===----------------------------------------------------------------------===//

/// Owns all AST nodes of one parse. Exprs and Stmts have no common base,
/// so nodes are held behind a type-erasing holder.
class ASTContext {
public:
  template <typename T, typename... Args> const T *make(Args &&...As) {
    auto H = std::make_unique<Holder<T>>(std::forward<Args>(As)...);
    const T *Raw = &H->Node;
    Nodes.push_back(std::move(H));
    return Raw;
  }

  template <typename T, typename... Args>
  const T *makeAt(SourceLocation Loc, Args &&...As) {
    auto H = std::make_unique<Holder<T>>(std::forward<Args>(As)...);
    H->Node.setLoc(Loc);
    const T *Raw = &H->Node;
    Nodes.push_back(std::move(H));
    return Raw;
  }

private:
  struct AnyNode {
    virtual ~AnyNode() = default;
  };
  template <typename T> struct Holder final : AnyNode {
    template <typename... Args>
    explicit Holder(Args &&...As) : Node(std::forward<Args>(As)...) {}
    T Node;
  };

  std::vector<std::unique_ptr<AnyNode>> Nodes;
};

/// Renders the operator spelling ("+", ".and.", ...).
const char *binOpSpelling(BinOp Op);

} // namespace ast
} // namespace frontend
} // namespace f90y

#endif // F90Y_FRONTEND_AST_H
