//===- perfbench/harness/Oracle.cpp - NIR-interpreter references ------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "interp/Interpreter.h"
#include "nir/Decl.h"
#include "nir/Imperative.h"
#include "observe/Json.h"
#include "support/Casting.h"

#include <cmath>
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

using namespace perfbench;
using namespace f90y;
namespace js = f90y::observe::json;

namespace {

constexpr int64_t SampleStrata = 8;

/// Names bound by the program's outer declaration scopes (the arrays the
/// interpreter keeps allocated after the run).
void collectNames(const nir::Imp *I, std::set<std::string> &Out) {
  while (I) {
    if (const auto *P = dyn_cast<nir::ProgramImp>(I)) {
      I = P->getBody();
    } else if (const auto *D = dyn_cast<nir::WithDomainImp>(I)) {
      I = D->getBody();
    } else if (const auto *W = dyn_cast<nir::WithDeclImp>(I)) {
      nir::forEachBinding(W->getDecl(),
                          [&Out](const std::string &Id, const nir::Type *,
                                 const nir::Value *) { Out.insert(Id); });
      I = W->getBody();
    } else {
      return;
    }
  }
}

std::vector<int64_t> coordOf(int64_t Linear,
                             const std::vector<int64_t> &Extents) {
  std::vector<int64_t> C(Extents.size(), 0);
  for (size_t D = Extents.size(); D-- > 0;) {
    C[D] = Linear % Extents[D];
    Linear /= Extents[D];
  }
  return C;
}

double readLogical(const runtime::PeArray &A,
                   const std::vector<int64_t> &Coord) {
  std::vector<int64_t> Slot = Coord;
  if (A.hasLayout())
    A.toSlot(Coord, Slot);
  int64_t PE = 0, Off = 0;
  A.Geo->locate(Slot, PE, Off);
  return A.peBase(PE)[Off];
}

bool parseNumber(const std::string &Tok, double &V) {
  if (Tok.empty())
    return false;
  char *End = nullptr;
  V = std::strtod(Tok.c_str(), &End);
  return End == Tok.c_str() + Tok.size();
}

/// Adds every element of a field, visited in linear order (last dimension
/// fastest) through \p At, to its marginal sums.
template <typename ElementAt>
std::vector<std::vector<double>>
marginalSums(const std::vector<int64_t> &Extents, ElementAt At) {
  std::vector<std::vector<double>> M;
  int64_t N = 1;
  for (int64_t E : Extents) {
    M.emplace_back(static_cast<size_t>(E), 0.0);
    N *= E;
  }
  std::vector<int64_t> Coord(Extents.size(), 0);
  for (int64_t I = 0; I < N; ++I) {
    const double V = At(I, Coord);
    for (size_t D = 0; D < Coord.size(); ++D)
      M[D][static_cast<size_t>(Coord[D])] += V;
    for (size_t D = Coord.size(); D-- > 0;) {
      if (++Coord[D] < Extents[D])
        break;
      Coord[D] = 0;
    }
  }
  return M;
}

bool near(double Got, double Want, double Scale) {
  return std::fabs(Got - Want) <= Tolerance * Scale;
}

void fnv(uint64_t &H, const void *Data, size_t Bytes) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Bytes; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
}

} // namespace

std::optional<ProgramRef> perfbench::computeReference(const std::string &Source,
                                                      std::string &Error) {
  driver::Compilation C(
      driver::CompileOptions::forProfile(driver::Profile::F90Y));
  if (!C.compile(Source)) {
    Error = C.diags().str();
    return std::nullopt;
  }
  DiagnosticEngine Diags;
  interp::Interpreter Interp(Diags);
  if (!Interp.run(C.artifacts().RawNIR)) {
    Error = Diags.str();
    return std::nullopt;
  }
  ProgramRef R;
  R.Flops = Interp.flopCount();
  R.Output = Interp.output();
  std::set<std::string> Names;
  collectNames(C.artifacts().RawNIR, Names);
  for (const std::string &Name : Names) {
    const interp::ArrayStorage *A = Interp.getArray(Name);
    if (!A)
      continue;
    FieldRef F;
    F.Name = Name;
    for (const nir::ShapeExtent &E : A->Extents)
      F.Extents.push_back(E.size());
    F.Marginals = marginalSums(
        F.Extents, [A](int64_t I, const std::vector<int64_t> &) {
          return A->Data[static_cast<size_t>(I)].asReal();
        });
    const int64_t N = A->size();
    if (N == 0)
      continue;
    std::set<int64_t> Picks = {0, N - 1};
    for (int64_t K = 0; K < std::min(SampleStrata, N); ++K)
      Picks.insert(((2 * K + 1) * N) / (2 * std::min(SampleStrata, N)));
    for (int64_t I : Picks)
      F.Samples.emplace_back(I, A->Data[static_cast<size_t>(I)].asReal());
    R.Fields.push_back(std::move(F));
  }
  return R;
}

std::string RefStore::pathOf(const std::string &Name) const {
  std::string File = Name;
  std::replace(File.begin(), File.end(), '/', '_');
  return Dir + "/" + File + ".json";
}

const ProgramRef *RefStore::find(const std::string &Name) const {
  auto [It, Fresh] = Loaded.try_emplace(Name);
  if (!Fresh)
    return It->second ? &*It->second : nullptr;
  const std::string Path = pathOf(Name);
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  js::Value P;
  std::string Error;
  if (!In || !js::parse(SS.str(), P, Error) || !P.isObject()) {
    std::cerr << "perfbench: cannot read " << Path << " " << Error << "\n";
    return nullptr;
  }
  ProgramRef R;
  R.Flops = static_cast<uint64_t>(P.numOr("flops", 0));
  R.Output = P.strOr("output", "");
  if (const js::Value *Fs = P.get("fields"))
    for (const js::Value &FV : Fs->Arr) {
      FieldRef F;
      F.Name = FV.strOr("name", "");
      if (const js::Value *E = FV.get("extents"))
        for (const js::Value &X : E->Arr)
          F.Extents.push_back(static_cast<int64_t>(X.Num));
      if (const js::Value *M = FV.get("marginals"))
        for (const js::Value &Axis : M->Arr) {
          F.Marginals.emplace_back();
          for (const js::Value &X : Axis.Arr)
            F.Marginals.back().push_back(X.Num);
        }
      if (const js::Value *S = FV.get("samples"))
        for (const js::Value &Pair : S->Arr)
          if (Pair.Arr.size() == 2)
            F.Samples.emplace_back(static_cast<int64_t>(Pair.Arr[0].Num),
                                   Pair.Arr[1].Num);
      R.Fields.push_back(std::move(F));
    }
  It->second = std::move(R);
  return &*It->second;
}

bool RefStore::save(const std::string &Name, const ProgramRef &R) const {
  std::ofstream Out(pathOf(Name));
  Out << "{\"name\":" << js::quote(Name) << ",\"flops\":"
      << js::number(R.Flops) << ",\"output\":" << js::quote(R.Output)
      << ",\"fields\":[";
  for (size_t I = 0; I < R.Fields.size(); ++I) {
    const FieldRef &F = R.Fields[I];
    Out << (I ? ",\n" : "\n") << "{\"name\":" << js::quote(F.Name)
        << ",\"extents\":[";
    for (size_t D = 0; D < F.Extents.size(); ++D)
      Out << (D ? "," : "") << F.Extents[D];
    Out << "],\"marginals\":[";
    for (size_t D = 0; D < F.Marginals.size(); ++D) {
      Out << (D ? "," : "") << "[";
      for (size_t K = 0; K < F.Marginals[D].size(); ++K)
        Out << (K ? "," : "") << js::number(F.Marginals[D][K]);
      Out << "]";
    }
    Out << "],\"samples\":[";
    for (size_t S = 0; S < F.Samples.size(); ++S)
      Out << (S ? "," : "") << "[" << F.Samples[S].first << ","
          << js::number(F.Samples[S].second) << "]";
    Out << "]}";
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

std::string perfbench::compareOutput(const std::string &Got,
                                     const std::string &Want) {
  std::istringstream G(Got), W(Want);
  std::string TG, TW;
  while (true) {
    bool HasG = static_cast<bool>(G >> TG), HasW = static_cast<bool>(W >> TW);
    if (!HasG && !HasW)
      return "";
    if (HasG != HasW)
      return "output has a different number of items";
    double VG = 0, VW = 0;
    if (parseNumber(TG, VG) && parseNumber(TW, VW)) {
      if (!near(VG, VW, std::max(1.0, std::fabs(VW))))
        return "printed " + TG + ", oracle " + TW;
    } else if (TG != TW) {
      return "printed '" + TG + "', oracle '" + TW + "'";
    }
  }
}

std::string perfbench::checkRun(driver::Execution &E,
                                const driver::RunReport &R,
                                const ProgramRef &Ref) {
  if (std::string Diff = compareOutput(R.Output, Ref.Output); !Diff.empty())
    return Diff;
  unsigned Checked = 0;
  for (const FieldRef &F : Ref.Fields) {
    int Handle = E.executor().fieldHandle(F.Name);
    if (Handle < 0)
      continue;
    const runtime::PeArray &A = E.runtime().field(Handle);
    if (A.Geo->Extents != F.Extents)
      return F.Name + ": shape differs from the oracle's";
    for (const auto &[Index, Want] : F.Samples) {
      double Got = readLogical(A, coordOf(Index, F.Extents));
      if (!near(Got, Want, 1.0))
        return F.Name + "[" + std::to_string(Index) + "] = " +
               js::number(Got) + ", oracle " + js::number(Want);
    }
    if (F.Marginals.size() != F.Extents.size())
      return F.Name + ": reference has no marginal sums";
    const auto Got = marginalSums(
        F.Extents, [&A](int64_t, const std::vector<int64_t> &Coord) {
          return readLogical(A, Coord);
        });
    const double N = static_cast<double>(A.Geo->totalElements());
    for (size_t D = 0; D < Got.size(); ++D) {
      const double PerSlice = N / static_cast<double>(F.Extents[D]);
      for (size_t K = 0; K < Got[D].size(); ++K)
        if (!near(Got[D][K], F.Marginals[D][K], PerSlice))
          return F.Name + ": sum of slice " + std::to_string(K + 1) +
                 " along dimension " + std::to_string(D + 1) + " is " +
                 js::number(Got[D][K]) + ", oracle " +
                 js::number(F.Marginals[D][K]);
    }
    ++Checked;
  }
  if (Checked == 0 && Ref.Output.empty())
    return "no reference field survived compilation";
  return "";
}

uint64_t perfbench::runDigest(driver::Execution &E, const driver::RunReport &R,
                              const ProgramRef &Ref) {
  uint64_t H = 0xcbf29ce484222325ull;
  fnv(H, R.Output.data(), R.Output.size());
  const runtime::CycleLedger &L = R.Ledger;
  for (double V : {L.NodeCycles, L.CallCycles, L.CommCycles, L.HostCycles,
                   L.OverlappedCycles})
    fnv(H, &V, sizeof V);
  fnv(H, &L.Flops, sizeof L.Flops);
  for (const FieldRef &F : Ref.Fields) {
    int Handle = E.executor().fieldHandle(F.Name);
    if (Handle < 0)
      continue;
    const std::vector<double> &D = E.runtime().field(Handle).Data;
    fnv(H, D.data(), D.size() * sizeof(double));
  }
  return H;
}
