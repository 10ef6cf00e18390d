//===- frontend/Parser.h - Fortran-90 parser ---------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the Fortran-90 subset. Produces an
/// ast::ProgramUnit. The parser keeps a symbol table of declared arrays so
/// that `name(...)` can be classified as an array reference versus an
/// intrinsic/function call at parse time (declarations precede use).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_FRONTEND_PARSER_H
#define F90Y_FRONTEND_PARSER_H

#include "frontend/AST.h"
#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <optional>
#include <set>
#include <vector>

namespace f90y {
namespace frontend {

/// Parses one main program unit from \p Tokens. On error, reports to
/// \p Diags and returns std::nullopt (after attempting recovery to collect
/// multiple diagnostics).
class Parser {
public:
  Parser(std::vector<Token> Tokens, ast::ASTContext &Ctx,
         DiagnosticEngine &Diags);

  std::optional<ast::ProgramUnit> parseProgram();

  /// Parses a whole source file: one main program plus any SUBROUTINE
  /// units (in any order). Returns std::nullopt on error.
  std::optional<ast::SourceFile> parseSourceFile();

private:
  std::optional<ast::SubroutineUnit> parseSubroutine();
  void parseSpecificationPart(std::vector<ast::EntityDecl> &Decls);

  std::vector<Token> Tokens;
  ast::ASTContext &Ctx;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  std::set<std::string> ArrayNames;
  std::set<std::string> ScalarNames;

  const Token &peek(unsigned Ahead = 0) const;
  const Token &current() const { return peek(); }
  Token consume();
  bool check(TokenKind K) const { return peek().is(K); }
  bool accept(TokenKind K);
  bool expect(TokenKind K, const char *Context);
  void skipToStatementEnd();
  void expectEndOfStatement(const char *Context);

  // Declarations.
  bool atTypeDeclaration() const;
  void parseDeclarationStmt(std::vector<ast::EntityDecl> &Decls);
  void parseParameterStmt(std::vector<ast::EntityDecl> &Decls);
  std::vector<std::pair<const ast::Expr *, const ast::Expr *>>
  parseArraySpec();

  // Statements.
  const ast::Stmt *parseStatement();
  const ast::Stmt *parseAssignmentLike();
  const ast::Stmt *parseIf();
  const ast::Stmt *parseDo();
  const ast::Stmt *parseWhere();
  const ast::Stmt *parseForall();
  const ast::Stmt *parsePrint();
  std::vector<const ast::Stmt *> parseBlockUntil(
      const std::vector<TokenKind> &Terminators, int64_t UntilLabel = 0);

  // Expressions (precedence climbing).
  const ast::Expr *parseExpr();
  const ast::Expr *parseOr();
  const ast::Expr *parseAnd();
  const ast::Expr *parseNot();
  const ast::Expr *parseComparison();
  const ast::Expr *parseAdditive();
  const ast::Expr *parseMultiplicative();
  const ast::Expr *parseUnary();
  const ast::Expr *parsePower();
  const ast::Expr *parsePrimary();
  ast::DimSelector parseDimSelector();
};

} // namespace frontend
} // namespace f90y

#endif // F90Y_FRONTEND_PARSER_H
