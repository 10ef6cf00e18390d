//===- frontend/Lexer.cpp - Fortran-90 lexer -------------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <cctype>
#include <string_view>

using namespace f90y;
using namespace f90y::frontend;

const char *frontend::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::EndOfStatement:
    return "end of statement";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::RealLiteral:
    return "real literal";
  case TokenKind::DoubleLiteral:
    return "double-precision literal";
  case TokenKind::StringLiteral:
    return "string literal";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::ColonColon:
    return "'::'";
  case TokenKind::Equal:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::StarStar:
    return "'**'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::SlashEq:
    return "'/='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::DotAnd:
    return "'.and.'";
  case TokenKind::DotOr:
    return "'.or.'";
  case TokenKind::DotNot:
    return "'.not.'";
  case TokenKind::DotEqv:
    return "'.eqv.'";
  case TokenKind::DotTrue:
    return "'.true.'";
  case TokenKind::DotFalse:
    return "'.false.'";
  case TokenKind::KwProgram:
    return "'program'";
  case TokenKind::KwEnd:
    return "'end'";
  case TokenKind::KwInteger:
    return "'integer'";
  case TokenKind::KwReal:
    return "'real'";
  case TokenKind::KwDouble:
    return "'double'";
  case TokenKind::KwPrecision:
    return "'precision'";
  case TokenKind::KwLogical:
    return "'logical'";
  case TokenKind::KwParameter:
    return "'parameter'";
  case TokenKind::KwDimension:
    return "'dimension'";
  case TokenKind::KwArray:
    return "'array'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwContinue:
    return "'continue'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwElseIf:
    return "'elseif'";
  case TokenKind::KwEndIf:
    return "'endif'";
  case TokenKind::KwEndDo:
    return "'enddo'";
  case TokenKind::KwWhere:
    return "'where'";
  case TokenKind::KwElsewhere:
    return "'elsewhere'";
  case TokenKind::KwEndWhere:
    return "'endwhere'";
  case TokenKind::KwForall:
    return "'forall'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwPrint:
    return "'print'";
  case TokenKind::KwCall:
    return "'call'";
  case TokenKind::KwSubroutine:
    return "'subroutine'";
  }
  return "<token>";
}

Lexer::Lexer(std::string Source, DiagnosticEngine &Diags)
    : Source(std::move(Source)), Diags(Diags) {}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

void Lexer::skipHorizontalSpaceAndComments() {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r') {
      advance();
      continue;
    }
    if (C == '!') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    // A continuation: '&' then (comment/space)* then newline joins lines.
    if (C == '&') {
      size_t Save = Pos;
      uint32_t SaveLine = Line, SaveCol = Col;
      advance();
      while (!atEnd() && (peek() == ' ' || peek() == '\t' || peek() == '\r'))
        advance();
      if (!atEnd() && peek() == '!')
        while (!atEnd() && peek() != '\n')
          advance();
      if (!atEnd() && peek() == '\n') {
        advance();
        // Swallow an optional leading '&' on the continued line.
        while (!atEnd() && (peek() == ' ' || peek() == '\t'))
          advance();
        if (!atEnd() && peek() == '&')
          advance();
        continue;
      }
      // Lone '&' not followed by newline: restore and report below.
      Pos = Save;
      Line = SaveLine;
      Col = SaveCol;
      return;
    }
    return;
  }
}

/// The keyword spelled \p Text (lower case), or Identifier.
static TokenKind keywordKind(std::string_view Text) {
  static constexpr std::pair<std::string_view, TokenKind> Keywords[] = {
      {"program", TokenKind::KwProgram},
      {"end", TokenKind::KwEnd},
      {"integer", TokenKind::KwInteger},
      {"real", TokenKind::KwReal},
      {"double", TokenKind::KwDouble},
      {"precision", TokenKind::KwPrecision},
      {"logical", TokenKind::KwLogical},
      {"parameter", TokenKind::KwParameter},
      {"dimension", TokenKind::KwDimension},
      {"array", TokenKind::KwArray},
      {"do", TokenKind::KwDo},
      {"continue", TokenKind::KwContinue},
      {"if", TokenKind::KwIf},
      {"then", TokenKind::KwThen},
      {"else", TokenKind::KwElse},
      {"elseif", TokenKind::KwElseIf},
      {"endif", TokenKind::KwEndIf},
      {"enddo", TokenKind::KwEndDo},
      {"where", TokenKind::KwWhere},
      {"elsewhere", TokenKind::KwElsewhere},
      {"endwhere", TokenKind::KwEndWhere},
      {"forall", TokenKind::KwForall},
      {"while", TokenKind::KwWhile},
      {"print", TokenKind::KwPrint},
      {"call", TokenKind::KwCall},
      {"subroutine", TokenKind::KwSubroutine}};
  for (const auto &[Spelling, Kind] : Keywords)
    if (Spelling == Text)
      return Kind;
  return TokenKind::Identifier;
}

Token Lexer::lexIdentifierOrKeyword() {
  SourceLocation Start = loc();
  Token T;
  T.Loc = Start;
  while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                      peek() == '_'))
    T.Text.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(advance()))));
  T.Kind = keywordKind(T.Text);
  return T;
}

Token Lexer::lexNumber() {
  SourceLocation Start = loc();
  std::string Text;
  bool SawDot = false, SawExp = false, DoubleExp = false;
  while (!atEnd()) {
    char C = peek();
    if (std::isdigit(static_cast<unsigned char>(C))) {
      Text.push_back(advance());
      continue;
    }
    if (C == '.' && !SawDot && !SawExp) {
      // Don't consume ".and." style operators: '.' followed by a letter
      // that starts a dotted operator. A digit after '.' is a fraction.
      char Next = peek(1);
      if (std::isalpha(static_cast<unsigned char>(Next))) {
        // "1.e5" is a real; "1.and." is INT then .and. — 'e'/'d' followed
        // by sign/digit means exponent.
        char After = peek(2);
        bool IsExp = (Next == 'e' || Next == 'E' || Next == 'd' ||
                      Next == 'D') &&
                     (std::isdigit(static_cast<unsigned char>(After)) ||
                      After == '+' || After == '-');
        if (!IsExp)
          break;
      }
      SawDot = true;
      Text.push_back(advance());
      continue;
    }
    if ((C == 'e' || C == 'E' || C == 'd' || C == 'D') && !SawExp) {
      char Next = peek(1);
      if (!std::isdigit(static_cast<unsigned char>(Next)) && Next != '+' &&
          Next != '-')
        break;
      SawExp = true;
      DoubleExp = (C == 'd' || C == 'D');
      Text.push_back('e'); // Canonicalize the exponent marker.
      advance();
      if (peek() == '+' || peek() == '-')
        Text.push_back(advance());
      continue;
    }
    break;
  }
  Token T;
  T.Loc = Start;
  T.Text = Text;
  if (DoubleExp)
    T.Kind = TokenKind::DoubleLiteral;
  else if (SawDot || SawExp)
    T.Kind = TokenKind::RealLiteral;
  else
    T.Kind = TokenKind::IntLiteral;
  return T;
}

Token Lexer::lexDotted() {
  SourceLocation Start = loc();
  advance(); // consume '.'
  std::string Word;
  while (!atEnd() && std::isalpha(static_cast<unsigned char>(peek())))
    Word.push_back(advance());
  Word = toLower(Word);
  Token T;
  T.Loc = Start;
  if (atEnd() || peek() != '.') {
    Diags.error(Start, "malformed dotted operator '." + Word + "'");
    T.Kind = TokenKind::EndOfStatement;
    return T;
  }
  advance(); // consume trailing '.'
  static constexpr std::pair<std::string_view, TokenKind> Dotted[] = {
      {"and", TokenKind::DotAnd},   {"or", TokenKind::DotOr},
      {"not", TokenKind::DotNot},   {"eqv", TokenKind::DotEqv},
      {"true", TokenKind::DotTrue}, {"false", TokenKind::DotFalse},
      {"eq", TokenKind::EqEq},      {"ne", TokenKind::SlashEq},
      {"lt", TokenKind::Less},      {"le", TokenKind::LessEq},
      {"gt", TokenKind::Greater},   {"ge", TokenKind::GreaterEq}};
  const auto *It = std::find_if(std::begin(Dotted), std::end(Dotted),
                                [&](const auto &E) { return E.first == Word; });
  if (It == std::end(Dotted)) {
    Diags.error(Start, "unknown dotted operator '." + Word + ".'");
    T.Kind = TokenKind::EndOfStatement;
    return T;
  }
  T.Kind = It->second;
  T.Text = "." + Word + ".";
  return T;
}

Token Lexer::lexString(char Quote) {
  SourceLocation Start = loc();
  advance(); // opening quote
  std::string Text;
  while (!atEnd() && peek() != '\n') {
    char C = advance();
    if (C == Quote) {
      if (peek() == Quote) { // Doubled quote is an escaped quote.
        Text.push_back(Quote);
        advance();
        continue;
      }
      Token T;
      T.Kind = TokenKind::StringLiteral;
      T.Text = Text;
      T.Loc = Start;
      return T;
    }
    Text.push_back(C);
  }
  Diags.error(Start, "unterminated string literal");
  Token T;
  T.Kind = TokenKind::StringLiteral;
  T.Text = Text;
  T.Loc = Start;
  return T;
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  auto PushEOS = [&](SourceLocation L) {
    if (!Tokens.empty() && Tokens.back().is(TokenKind::EndOfStatement))
      return;
    if (Tokens.empty())
      return; // No leading separators.
    Token T;
    T.Kind = TokenKind::EndOfStatement;
    T.Loc = L;
    Tokens.push_back(T);
  };

  int64_t PendingLabel = 0;
  while (true) {
    skipHorizontalSpaceAndComments();
    if (atEnd())
      break;
    char C = peek();
    if (C == '\n') {
      advance();
      PushEOS(loc());
      AtStatementStart = true;
      PendingLabel = 0;
      continue;
    }
    if (C == ';') {
      advance();
      PushEOS(loc());
      AtStatementStart = true;
      PendingLabel = 0;
      continue;
    }

    // Numeric statement label at statement start ("10 CONTINUE").
    if (AtStatementStart && std::isdigit(static_cast<unsigned char>(C))) {
      Token Num = lexNumber();
      skipHorizontalSpaceAndComments();
      if (Num.is(TokenKind::IntLiteral) && !atEnd() && peek() != '\n' &&
          (std::isalpha(static_cast<unsigned char>(peek())))) {
        PendingLabel = std::stoll(Num.Text);
        AtStatementStart = false;
        continue;
      }
      // Not a label: an expression statement can't start with a number in
      // Fortran, but emit the literal and let the parser diagnose.
      Num.Label = PendingLabel;
      Tokens.push_back(std::move(Num));
      AtStatementStart = false;
      continue;
    }

    Token T;
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      T = lexIdentifierOrKeyword();
    } else if (std::isdigit(static_cast<unsigned char>(C))) {
      T = lexNumber();
    } else if (C == '.' &&
               std::isdigit(static_cast<unsigned char>(peek(1)))) {
      T = lexNumber();
    } else if (C == '.') {
      T = lexDotted();
      if (T.is(TokenKind::EndOfStatement))
        continue; // Error already reported.
    } else if (C == '\'' || C == '"') {
      T = lexString(C);
    } else {
      SourceLocation Start = loc();
      advance();
      auto Two = [&](char Next, TokenKind IfTwo, TokenKind IfOne) {
        if (peek() == Next) {
          advance();
          return IfTwo;
        }
        return IfOne;
      };
      switch (C) {
      case '(':
        T.Kind = TokenKind::LParen;
        break;
      case ')':
        T.Kind = TokenKind::RParen;
        break;
      case ',':
        T.Kind = TokenKind::Comma;
        break;
      case ':':
        T.Kind = Two(':', TokenKind::ColonColon, TokenKind::Colon);
        break;
      case '=':
        T.Kind = Two('=', TokenKind::EqEq, TokenKind::Equal);
        break;
      case '+':
        T.Kind = TokenKind::Plus;
        break;
      case '-':
        T.Kind = TokenKind::Minus;
        break;
      case '*':
        T.Kind = Two('*', TokenKind::StarStar, TokenKind::Star);
        break;
      case '/':
        T.Kind = Two('=', TokenKind::SlashEq, TokenKind::Slash);
        break;
      case '<':
        T.Kind = Two('=', TokenKind::LessEq, TokenKind::Less);
        break;
      case '>':
        T.Kind = Two('=', TokenKind::GreaterEq, TokenKind::Greater);
        break;
      default:
        Diags.error(Start, std::string("unexpected character '") + C + "'");
        continue;
      }
      T.Loc = Start;
    }
    T.Label = PendingLabel;
    PendingLabel = 0;
    AtStatementStart = false;
    Tokens.push_back(std::move(T));
  }

  PushEOS(loc());
  Token Eof;
  Eof.Kind = TokenKind::EndOfFile;
  Eof.Loc = loc();
  Tokens.push_back(Eof);
  return Tokens;
}
