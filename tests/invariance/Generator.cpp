//===- tests/invariance/Generator.cpp - seeded Fortran programs -----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "invariance/Generator.h"

#include <functional>
#include <random>
#include <sstream>

using namespace f90y;
using namespace f90y::invariance;

namespace {

/// Draws one program's choices. mt19937's output is fixed by the
/// standard and `% K` is too, so a seed names one program everywhere.
class Draw {
public:
  explicit Draw(unsigned Seed) : Rng(Seed) {}

  unsigned upTo(unsigned K) { return static_cast<unsigned>(Rng() % K); }
  std::string field() { return std::string(1, "abc"[upTo(3)]); }
  std::string dim() { return upTo(2) ? "2" : "1"; }
  std::string shift() {
    const char *Shifts[] = {"-2", "-1", "1", "2"};
    return Shifts[upTo(4)];
  }
  std::string expr() {
    switch (upTo(4)) {
    case 0:
      return field() + "*0.5 + " + field();
    case 1:
      return field() + " - " + field() + "*0.25";
    case 2:
      return field() + "*0.5 + 0.75";
    default:
      return "0.125*" + field() + " + 0.75*" + field();
    }
  }

private:
  std::mt19937 Rng;
};

/// Emits one block, naming its temporaries t<Temps>, t<Temps+1>, ...
class BlockBuilder {
public:
  BlockBuilder(Draw &D, unsigned &Temps, int64_t N)
      : D(D), Temps(Temps), N(std::to_string(N)) {}

  std::string temp() {
    std::string T = "t";
    T += std::to_string(Temps++);
    B.Decls += "real " + T + "(n,n)\n";
    return T;
  }
  BlockBuilder &operator<<(const std::string &Line) {
    B.Body += Line + "\n";
    return *this;
  }

  Block build(unsigned Idiom);

private:
  Draw &D;
  unsigned &Temps;
  std::string N;
  Block B;
};

constexpr unsigned NumIdioms = 25;

Block BlockBuilder::build(unsigned Idiom) {
  const std::string X = D.field(), Y = D.field(), Z = D.field();
  switch (Idiom) {
  case 0: { // A single-use chain of temporaries: fuses.
    std::string T = temp();
    *this << T + " = " + D.expr();
    for (unsigned I = 0, Len = 1 + D.upTo(2); I < Len; ++I) {
      std::string Next = temp();
      *this << Next + " = " + T + "*0.5 + " + D.field();
      T = Next;
    }
    *this << X + " = " + X + " + 0.01*" + T;
    break;
  }
  case 1: { // A temporary read twice: does not fuse.
    std::string T = temp();
    *this << T + " = " + D.expr() << "a = a + 0.01*" + T
          << "b = b - 0.01*" + T;
    break;
  }
  case 2: // A dead temporary: left alone.
    *this << temp() + " = " + D.expr();
    break;
  case 3:
    *this << "where (" + X + " > 0.5)" << "  " + Y + " = " + Y + "*0.5 + 0.25"
          << "end where";
    break;
  case 4:
    *this << "where (a > b)" << "  c = a" << "elsewhere" << "  c = b"
          << "end where";
    break;
  case 5:
    *this << X + " = cshift(" + X + ", " + (D.upTo(2) ? "1" : "-1") + ", " +
                 D.dim() + ")";
    break;
  case 6: { // A temporary produced by a shift: does not fuse.
    std::string T = temp();
    *this << T + " = cshift(" + X + ", " + D.shift() + ", " + D.dim() + ")"
          << Y + " = " + Y + " + 0.01*" + T;
    break;
  }
  case 7:
    *this << X + "(1:" + N + ":2,:) = " + X + "(1:" + N + ":2,:) + 0.5";
    break;
  case 8:
    *this << "c(1:" + N + ":2,:) = " + (X == "c" ? "a" : X) + "(1:" + N +
                 ":2,:)";
    break;
  case 9: { // A temporary read under a shift: does not fuse.
    std::string T = temp();
    *this << T + " = " + D.expr()
          << Y + " = " + Y + " + 0.01*cshift(" + T + ", -1, " + D.dim() + ")";
    break;
  }
  case 10:
    *this << X + " = cshift(" + Y + ", 1, 1) - cshift(" + Z + ", -1, 2)";
    break;
  case 11:
    *this << X + " = merge(" + Y + ", " + Z + ", " + Y + " > " + Z + ")";
    break;
  case 12:
    *this << X + " = abs(" + Y + " - " + Z + ") + 0.25*" + D.field();
    break;
  case 13:
    *this << "s = sum(" + X + ")";
    break;
  case 14:
    *this << X + " = " + Y + " / (1.0 + abs(" + Z + "))";
    break;
  case 15:
    *this << X + " = " + X + " + cshift(" + Y + ", 2, 1)*0.1";
    break;
  case 16:
    *this << "v = 0.5*v + 1.0";
    break;
  case 17:
    *this << X + " = max(" + Y + ", min(" + Z + ", " + D.field() + "))";
    break;
  case 18:
    *this << "do k = 1, 3" << "  " + X + " = " + X + "*0.9 + 0.1*" + Y
          << "end do";
    break;
  case 19: { // A chain of shifted copies: localized, residual or pinned.
    std::string Prev = X;
    for (unsigned I = 0, Len = 1 + D.upTo(3); I < Len; ++I) {
      std::string T = temp();
      *this << T + " = cshift(" + Prev + ", " + D.shift() + ", " + D.dim() +
                   ")";
      Prev = T;
    }
    *this << X + " = 0.5*" + X + " + 0.25*" + Prev;
    break;
  }
  case 20:
    *this << X + " = 0.5*" + X + " + 0.5*eoshift(" + Y + ", " + D.shift() +
                 ", " + D.dim() + ")";
    break;
  case 21:
    *this << X + " = 0.5*" + X + " + 0.5*transpose(" + Y + ")";
    break;
  case 22:
    *this << "v = sum(" + X + ", " + D.dim() + ")*0.05"
          << Y + " = 0.5*" + Y + " + spread(v, " + D.dim() + ", " + N + ")";
    break;
  case 23: { // Four shifts of one field along one axis: coalesce.
    const std::string Dim = D.dim();
    std::string Sum;
    for (const char *S : {"1", "-1", "2", "-2"}) {
      std::string T = temp();
      *this << T + " = cshift(" + X + ", " + S + ", " + Dim + ")";
      Sum += (Sum.empty() ? "" : " + ") + T;
    }
    *this << X + " = 0.25*(" + Sum + ") + 0.01";
    break;
  }
  default: { // Neighbour fields that meet only each other: localized.
    const std::string Dim = D.dim();
    std::string Near = temp(), Flux = temp(), Back = temp();
    *this << Near + " = cshift(" + X + ", 1, " + Dim + ")"
          << Flux + " = 0.5*" + Near + " + 1.0"
          << Back + " = cshift(" + Flux + ", -1, " + Dim + ")"
          << X + " = " + X + " + 0.001*" + Back;
    break;
  }
  }
  return B;
}

std::string firstLine(const std::string &S) {
  return S.substr(0, S.find('\n'));
}

/// Drops one block at a time, then the time loop, while \p Check still
/// reports a divergence whose first line is the one it reports for \p P.
Program shrink(Program P,
               const std::function<std::string(const std::string &)> &Check) {
  const std::string Want = firstLine(Check(P.source()));
  auto StillFails = [&](const Program &Q) {
    const std::string D = Check(Q.source());
    return !D.empty() && firstLine(D) == Want;
  };
  for (bool Progress = true; Progress;) {
    Progress = false;
    for (size_t I = 0; I < P.Blocks.size();) {
      Program Q = P;
      Q.Blocks.erase(Q.Blocks.begin() + static_cast<std::ptrdiff_t>(I));
      if (StillFails(Q)) {
        P = std::move(Q);
        Progress = true;
      } else {
        ++I;
      }
    }
    Program Q = P;
    Q.TimeLoop = false;
    if (P.TimeLoop && StillFails(Q)) {
      P = std::move(Q);
      Progress = true;
    }
  }
  return P;
}

} // namespace

Program invariance::generate(unsigned Seed) {
  Draw D(Seed);
  Program P;
  P.Seed = Seed;
  const int64_t Sizes[] = {8, 12, 13, 16};
  P.N = Sizes[D.upTo(4)];
  P.TimeLoop = D.upTo(2);
  unsigned Temps = 0;
  for (unsigned I = 0, Count = 4 + D.upTo(7); I < Count; ++I) {
    BlockBuilder B(D, Temps, P.N);
    P.Blocks.push_back(B.build(D.upTo(NumIdioms)));
  }
  return P;
}

std::string Program::source() const {
  std::string Src = "program g" + std::to_string(Seed) +
                    "\ninteger, parameter :: n = " + std::to_string(N) +
                    "\nreal a(n,n), b(n,n), c(n,n)\nreal v(n), s\n";
  for (const Block &B : Blocks)
    Src += B.Decls;
  Src += "integer i, j, k, t\n"
         "forall (i=1:n, j=1:n) a(i,j) = real(i) + 0.125*real(j)\n"
         "forall (i=1:n, j=1:n) b(i,j) = real(i*j)*0.01\n"
         "forall (i=1:n, j=1:n) c(i,j) = real(mod(i + j, 7))*0.125\n"
         "v = 1.0\ns = 0.0\n";
  if (TimeLoop)
    Src += "do t = 1, 3\n";
  for (const Block &B : Blocks)
    Src += B.Body;
  if (TimeLoop)
    Src += "end do\n";
  return Src + "end\n";
}

unsigned Program::statements() const {
  unsigned Count = 0;
  for (const Block &B : Blocks) {
    std::istringstream In(B.Body);
    for (std::string Line; std::getline(In, Line);) {
      Line.erase(0, Line.find_first_not_of(' '));
      Count += Line.rfind("end", 0) != 0 && Line.rfind("else", 0) != 0;
    }
  }
  return Count;
}

std::string invariance::checkGenerated(unsigned Seed, const Matrix &M) {
  auto Check = [&](const std::string &Src) {
    return check(Src, M).Divergence;
  };
  const Program P = generate(Seed);
  if (Check(P.source()).empty())
    return "";
  const Program Small = shrink(P, Check);
  return "seed " + std::to_string(Seed) + ", shrunk to " +
         std::to_string(Small.statements()) + " statements: " +
         Check(Small.source()) + "\n" + Small.source();
}
