//===- perfbench/harness/Programs.cpp - benchmark program catalogue ---------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "driver/Workloads.h"

#include <cstdio>

using namespace perfbench;
namespace drv = f90y::driver;

const Kind perfbench::ServeKinds[8] = {Kind::Swe,   Kind::SweTemps, Kind::Mswe,
                                       Kind::Heat,  Kind::Fig9,     Kind::Fig10,
                                       Kind::Fig12, Kind::Gridops};
const int64_t perfbench::ServeGrids[4] = {8, 16, 24, 32};
const int64_t perfbench::ServeSteps[2] = {1, 2};

namespace {

/// Full-size workload parameters. mswe's step count makes one execute
/// take about a second at one host thread; gridops' about half that.
constexpr int64_t FullN = 512;
constexpr int64_t SweSteps = 6;
constexpr int64_t MsweSteps = 40;
constexpr int64_t GridopsSteps = 4;

uint64_t splitmix(uint64_t &S) {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::string fixed(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.4f", V);
  return Buf;
}

std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To) {
  for (size_t Pos = 0; (Pos = S.find(From, Pos)) != std::string::npos;
       Pos += To.size())
    S.replace(Pos, From.size(), To);
  return S;
}

} // namespace

std::string perfbench::gridopsSource(int64_t N, int64_t Steps,
                                     unsigned Variant) {
  uint64_t S = 0x6772696470ull + Variant; // "gridp"
  auto Pick = [&S](uint64_t Range) { return splitmix(S) % Range; };
  const int64_t K1 = 1 + static_cast<int64_t>(Pick(3));
  const int64_t K2 = 1 + static_cast<int64_t>(Pick(3));
  const int64_t Dim = 1 + static_cast<int64_t>(Pick(2));
  const double C0 = 1.0 + 0.25 * static_cast<double>(Pick(8));
  const double C1 = 0.5 + 0.125 * static_cast<double>(Pick(8));
  const double C2 = 0.0625 * static_cast<double>(1 + Pick(8));
  const double CA = 0.5 + 0.0625 * static_cast<double>(Pick(5));
  const double CB = 0.25 + 0.0625 * static_cast<double>(Pick(5));

  std::string Src = R"f90(
program gridops
integer, parameter :: n = @N@
integer, parameter :: nsteps = @S@
real a(n,n), b(n,n), c(n,n), d(n,n), e(n,n), w(n,n)
real r(n)
real di, dj
integer i, j, t
di = 6.2831853/real(n)
dj = 6.2831853/real(n)
forall (i=1:n, j=1:n) a(i,j) = @C0@ + @C1@*sin(real(i)*di)*cos(real(j)*dj)
forall (i=1:n, j=1:n) b(i,j) = @C2@*cos(real(i+j)*di)
e = a
w = b
do t = 1, nsteps
  ! Neighbour average with zero boundary fill. The two shifts of a are
  ! coalesced into one multi-shift; those of e and w stay single eoshifts.
  c = 0.25*(eoshift(a, @K1@, 1) + eoshift(a, -@K1@, 1) &
          + eoshift(e, @K2@, 2) + eoshift(w, -@K2@, 2))
  ! Router transpose.
  d = transpose(c)
  d = 0.5*(d + b)
  ! Strided section copies: swap odd and even rows.
  e(1:n:2, :) = d(2:n:2, :)
  e(2:n:2, :) = d(1:n:2, :)
  ! Means along one dimension, broadcast back over the grid.
  r = sum(e, @D@)/real(n)
  w = spread(r, @D@, n)
  ! Masked relaxation toward the mean.
  where (e > w)
    a = @CA@*a + (1.0 - @CA@)*w
  elsewhere
    a = @CB@*a + (1.0 - @CB@)*e
  end where
end do
print *, 'gridops mean a:', sum(a)/real(n*n)
end program gridops
)f90";
  Src = replaceAll(Src, "@N@", std::to_string(N));
  Src = replaceAll(Src, "@S@", std::to_string(Steps));
  Src = replaceAll(Src, "@K1@", std::to_string(K1));
  Src = replaceAll(Src, "@K2@", std::to_string(K2));
  Src = replaceAll(Src, "@D@", std::to_string(Dim));
  Src = replaceAll(Src, "@C0@", fixed(C0));
  Src = replaceAll(Src, "@C1@", fixed(C1));
  Src = replaceAll(Src, "@C2@", fixed(C2));
  Src = replaceAll(Src, "@CA@", fixed(CA));
  Src = replaceAll(Src, "@CB@", fixed(CB));
  return Src;
}

Program perfbench::makeProgram(Kind K, int64_t N, int64_t Steps,
                               unsigned Variant) {
  const std::string Grid = "/n" + std::to_string(N);
  const std::string Sized = Grid + "/s" + std::to_string(Steps);
  Program P;
  P.N = N;
  P.Steps = Steps;
  switch (K) {
  case Kind::Swe:
    P.Name = "swe" + Sized;
    P.Source = drv::sweSource(N, Steps);
    break;
  case Kind::SweTemps:
    P.Name = "swe-temps" + Sized;
    P.Source = drv::sweTempsSource(N, Steps);
    break;
  case Kind::Mswe:
    P.Name = "mswe" + Sized;
    P.Source = drv::misalignedSweSource(N, Steps);
    break;
  case Kind::Heat:
    P.Name = "heat" + Sized;
    P.Source = drv::heatSource(N, Steps);
    break;
  case Kind::Fig9:
    P.Name = "fig9";
    P.Source = drv::figure9Source();
    break;
  case Kind::Fig10:
    P.Name = "fig10";
    P.Source = drv::figure10Source();
    break;
  case Kind::Fig12:
    P.Name = "fig12" + Grid;
    P.Source = drv::figure12Source(N);
    break;
  case Kind::Gridops:
    P.Name = "gridops.v" + std::to_string(Variant) + Sized;
    P.Source = gridopsSource(N, Steps, Variant);
    break;
  }
  return P;
}

Program perfbench::sweWorkload() {
  return makeProgram(Kind::Swe, FullN, SweSteps);
}

Program perfbench::msweWorkload() {
  return makeProgram(Kind::Mswe, FullN, MsweSteps);
}

Program perfbench::gridopsWorkload(uint64_t Seed) {
  return makeProgram(Kind::Gridops, FullN, GridopsSteps,
                     static_cast<unsigned>(Seed % GridopsVariants));
}

std::vector<Program> perfbench::serveCatalogue() {
  std::vector<Program> Out;
  for (Kind K : ServeKinds)
    for (int64_t N : ServeGrids)
      for (int64_t S : ServeSteps)
        for (unsigned V = 0;
             V < (K == Kind::Gridops ? ServeGridopsVariants : 1u); ++V) {
          Program P = makeProgram(K, N, S, V);
          bool Dup = false;
          for (const Program &Q : Out)
            Dup = Dup || Q.Name == P.Name;
          if (!Dup)
            Out.push_back(std::move(P));
        }
  return Out;
}
