//===- tests/invariance/Invariance.cpp - the determinism contract ---------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "invariance/Invariance.h"

#include "host/HostIR.h"
#include "interp/Interpreter.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "support/FileIO.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string_view>

using namespace f90y;
using namespace f90y::invariance;

namespace {

// A new knob joins the matrix here, once; the knob coverage test fails
// while a driver::knobs() row has no line.
const Axis Axes[] = {
    {"profile", AxisClass::Model, "-profile=cmf|-profile=naive", ""},
    {"cm5", AxisClass::Machine, "-cm5", ""},
    {"pes", AxisClass::Machine,
     "-pes=1|-pes=2|-pes=4|-pes=8|-pes=16|-pes=32|-pes=64|-pes=128|-pes=256",
     ""},
    {"threads", AxisClass::Host, "-threads=1|-threads=8", ""},
    {"exec", AxisClass::Host, "-exec=compiled|-exec=interp", ""},
    {"comm", AxisClass::Model, "-comm=sync|-comm=overlap-unscheduled", ""},
    {"fuse", AxisClass::Model, "-fuse=off", ""},
    {"layout", AxisClass::Model, "-layout=canonical", ""},
    {"faults", AxisClass::Model,
     "-faults=router-drop:0.05,grid-timeout:0.05,corrupt:0.05,pe-trap:0.05,"
     "fpu:0.05 -fault-seed=7",
     ""},
    {"fault-seed", AxisClass::None, "",
     "the seed of a fault schedule: the faults legs set it"},
    {"max-steps", AxisClass::None, "",
     "the watchdog ends the run (the kill/restore variant uses it)"},
};

std::vector<std::string> split(std::string_view S, char Sep) {
  std::vector<std::string> Out;
  while (!S.empty()) {
    const size_t At = S.find(Sep);
    Out.emplace_back(S.substr(0, At));
    S.remove_prefix(At == std::string_view::npos ? S.size() : At + 1);
  }
  return Out;
}

std::vector<Leg> axisLegs(const Axis &A) {
  std::vector<Leg> Out;
  for (const std::string &L : split(A.Legs, '|'))
    Out.push_back({split(L, ' ')});
  return Out;
}

/// Where \p A and \p B first differ, with context from each.
std::string firstDiff(const std::string &A, const std::string &B) {
  const size_t At = static_cast<size_t>(
      std::mismatch(A.begin(), A.end(), B.begin(), B.end()).first -
      A.begin());
  const size_t From = At < 40 ? 0 : At - 40;
  return "byte " + std::to_string(At) + ":\n  " + A.substr(From, 80) +
         "\n  " + B.substr(From, 80);
}

std::string num(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// The first element of field \p Name where \p A and \p B differ bitwise.
std::string diffElements(const std::string &Name,
                         const std::vector<double> &A,
                         const std::vector<double> &B) {
  if (A.size() != B.size())
    return "field '" + Name + "': " + std::to_string(A.size()) + " vs " +
           std::to_string(B.size()) + " elements";
  for (size_t I = 0; I < A.size(); ++I)
    if (std::memcmp(&A[I], &B[I], sizeof(double)) != 0)
      return "field '" + Name + "' element " + std::to_string(I) + ": " +
             num(A[I]) + " vs " + num(B[I]);
  return "";
}

/// True when the last comm flag of \p L is UnscheduledOverlap.
bool unscheduled(const Leg &L) {
  bool On = false;
  for (const std::string &F : L.Flags)
    if (F.rfind("-comm=", 0) == 0)
      On = F == UnscheduledOverlap;
  return On;
}

std::string failure(const Record &R) {
  return R.Ok ? "" : "run failed: " + R.On.str() + "\n" + R.Diags;
}

/// The program's top allocation scope, whose fields and scalars stay
/// allocated after the run.
const host::AllocScopeStmt *topScope(const host::HostStmt *S) {
  if (const auto *A = dyn_cast<host::AllocScopeStmt>(S))
    return A->keepAlive() ? A : nullptr;
  if (const auto *Q = dyn_cast<host::SeqStmt>(S))
    for (const auto &Child : Q->stmts())
      if (const host::AllocScopeStmt *A = topScope(Child.get()))
        return A;
  return nullptr;
}

/// Drops the peac.engine.* lines: the routine cache's history depends on
/// what ran earlier in the process, not on the simulated machine.
std::string stripEngineMetrics(const std::string &Text) {
  std::string Out;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("peac.engine.", 0) != 0)
      Out += Line + "\n";
  return Out;
}

std::map<std::string, double>
valuesOf(const observe::MetricsRegistry &Registry) {
  std::map<std::string, double> Out;
  for (const observe::MetricsRegistry::Sample &S : Registry.snapshot())
    Out[S.Name] = S.Kind == 0 ? static_cast<double>(S.Count) : S.Value;
  return Out;
}

/// A fresh checkpoint path; ctest runs test binaries side by side.
std::string checkpointPath() {
  static std::atomic<unsigned> Next{0};
  return (std::filesystem::temp_directory_path() /
          ("f90y-invariance-" + std::to_string(::getpid()) + "-" +
           std::to_string(Next++) + ".ck"))
      .string();
}

void removeCheckpoints(const std::string &Path, unsigned Keep) {
  std::remove(Path.c_str());
  for (unsigned I = 1; I < Keep; ++I)
    std::remove((Path + "." + std::to_string(I)).c_str());
}

/// Kills \p L's run halfway through its \p Statements statements (the
/// -max-steps watchdog stands in for a crash between statements) while it
/// checkpoints every step, then restores it. Null when the run has no step
/// boundary before its halfway point.
std::optional<Record> killAndRestore(const std::string &Src, const Leg &L,
                                  uint64_t Statements) {
  if (Statements < 4)
    return std::nullopt;
  runtime::ckpt::Options Write;
  Write.Path = checkpointPath();
  const Record Killed =
      run(Src, L + Leg{{"-max-steps=" + std::to_string(Statements / 2)}},
          false, Write);
  std::optional<Record> Restored;
  if (Killed.Ok) {
    Restored = Killed; // The watchdog did not fire: a divergence.
    Restored->Ok = false;
    Restored->Diags = "the run outlived -max-steps=" +
                      std::to_string(Statements / 2);
  } else if (Killed.CheckpointsWritten) {
    runtime::ckpt::Options Restore;
    Restore.RestorePath = Write.Path;
    Restored = run(Src, L, false, Restore);
  }
  removeCheckpoints(Write.Path, Write.Keep);
  return Restored;
}

} // namespace

//===----------------------------------------------------------------------===//
// Legs
//===----------------------------------------------------------------------===//

Leg Leg::operator+(const Leg &O) const {
  Leg Sum = *this;
  Sum.Flags.insert(Sum.Flags.end(), O.Flags.begin(), O.Flags.end());
  return Sum;
}

driver::Config Leg::config() const {
  driver::Config C;
  for (const std::string &F : Flags) {
    std::string Error;
    if (!driver::applyFlag(C, F == UnscheduledOverlap ? "-comm=sync" : F,
                           Error)) {
      std::fprintf(stderr, "invariance: bad leg '%s': %s\n", str().c_str(),
                   Error.c_str());
      std::abort();
    }
  }
  return C;
}

driver::CompileOptions Leg::compileOptions() const {
  return config().compileOptions();
}

driver::ExecutionOptions Leg::executionOptions() const {
  driver::ExecutionOptions E = config().executionOptions();
  E.OverlapComm |= unscheduled(*this);
  return E;
}

std::string Leg::str() const {
  std::string S = "f90yc";
  for (const std::string &F : Flags)
    S += " " + F;
  if (unscheduled(*this))
    S += "  (" + std::string(UnscheduledOverlap) +
         ": embedder API only; compiled as -comm=sync, run with "
         "ExecutionOptions::OverlapComm)";
  return S;
}

std::span<const Axis> invariance::axes() { return Axes; }

std::vector<Leg> invariance::hostLegs() {
  std::vector<Leg> Out = {Leg{}};
  for (const Axis &A : Axes) {
    if (A.Class != AxisClass::Host)
      continue;
    std::vector<Leg> Product;
    for (const Leg &Prefix : Out)
      for (const Leg &L : axisLegs(A))
        Product.push_back(Prefix + L);
    Out = std::move(Product);
  }
  return Out;
}

std::vector<Leg> invariance::modelLegs() {
  std::vector<Leg> Out = {Leg{}};
  for (const Axis &A : Axes)
    if (A.Class == AxisClass::Model)
      for (const Leg &L : axisLegs(A))
        Out.push_back(L);
  return Out;
}

std::vector<Leg> invariance::machineLegs() {
  std::vector<Leg> Out;
  for (const Axis &A : Axes)
    if (A.Class == AxisClass::Machine)
      for (const Leg &L : axisLegs(A))
        Out.push_back(L);
  return Out;
}

//===----------------------------------------------------------------------===//
// Runs
//===----------------------------------------------------------------------===//

double Field::at(const std::vector<int64_t> &Pos) const {
  size_t Index = 0;
  for (size_t D = 0; D < Extents.size(); ++D)
    Index = Index * static_cast<size_t>(Extents[D]) +
            static_cast<size_t>(Pos[D]);
  return Logical.at(Index);
}

double Record::metric(const std::string &Name) const {
  auto It = Metrics.find(Name);
  return It == Metrics.end() ? 0 : It->second;
}

std::unique_ptr<driver::Compilation>
invariance::compile(const std::string &Src, const Leg &L, std::string &Error) {
  auto C = std::make_unique<driver::Compilation>(L.compileOptions());
  if (C->compile(Src))
    return C;
  Error = "compile failed: " + L.str() + "\n" + C->diags().str();
  return nullptr;
}

Record invariance::run(const std::string &Src, const Leg &L, bool Traced,
                    const runtime::ckpt::Options &Checkpoint) {
  observe::TraceRecorder Trace;
  observe::MetricsRegistry Metrics;
  Record R;
  R.On = L;
  driver::Compilation C(L.compileOptions());
  if (Traced)
    C.setObservability(&Trace, &Metrics);
  if (!C.compile(Src)) {
    R.Diags = C.diags().str();
    return R;
  }
  driver::ExecutionOptions EOpts = L.executionOptions();
  EOpts.Checkpoint = Checkpoint;
  if (Traced) {
    EOpts.Trace = &Trace;
    EOpts.Metrics = &Metrics;
  }
  driver::Execution Exec(C.options().Costs, EOpts);
  const host::HostProgram &Program = C.artifacts().Compiled.Program;
  std::optional<driver::RunReport> Report = Exec.run(Program);
  R.Diags = Exec.diags().str();
  R.RestoreFailed = Exec.restoreFailed();
  if (Exec.checkpoint())
    R.CheckpointsWritten = Exec.checkpoint()->writesCompleted();
  if (Traced) {
    R.Metrics = valuesOf(Metrics);
    R.Trace = Trace.exportJson(/*NormalizeWall=*/true);
    R.MetricsText = stripEngineMetrics(Metrics.exportText());
  }
  if (!Report)
    return R;
  R.Ok = true;
  R.Report = *Report;
  const host::AllocScopeStmt *Top = topScope(Program.Body.get());
  if (!Top)
    return R;
  for (const host::AllocScopeStmt::FieldAlloc &F : Top->fields()) {
    const int Handle = Exec.executor().fieldHandle(F.Name);
    if (Handle < 0)
      continue;
    // The element walk of every check: logical coordinates in row-major
    // order, through the layout to the slot that holds each (what
    // readElement does, without charging the ledger a router read).
    const runtime::PeArray &A = Exec.runtime().field(Handle);
    Field &Out = R.Fields[F.Name];
    Out.Extents = A.Geo->Extents;
    Out.Raw = Exec.runtime().snapshotField(Handle);
    std::vector<int64_t> Pos(Out.Extents.size(), 0), Slot;
    for (bool More = A.Geo->totalElements() > 0; More;) {
      A.toSlot(Pos, Slot);
      int64_t PE, Off;
      A.Geo->locate(Slot, PE, Off);
      Out.Logical.push_back(A.peBase(PE)[Off]);
      More = false;
      for (size_t K = Pos.size(); K-- > 0 && !More;)
        if (!(More = ++Pos[K] < Out.Extents[K]))
          Pos[K] = 0;
    }
  }
  for (const host::AllocScopeStmt::ScalarAlloc &S : Top->scalars())
    if (std::optional<interp::RtVal> V = Exec.executor().getScalar(S.Name))
      R.Scalars[S.Name] = V->asReal();
  return R;
}

std::string invariance::sampleProgram(const std::string &Name) {
  std::string Src;
  if (!support::readFile(std::string(F90Y_SOURCE_DIR) + "/examples/programs/" +
                             Name,
                         Src)) {
    std::fprintf(stderr, "invariance: cannot read sample program %s\n",
                 Name.c_str());
    std::abort();
  }
  return Src;
}

//===----------------------------------------------------------------------===//
// Comparisons
//===----------------------------------------------------------------------===//

std::string invariance::diffReport(const driver::RunReport &A,
                                   const driver::RunReport &B) {
  if (A.Output != B.Output)
    return "output differs at " + firstDiff(A.Output, B.Output);
  static_assert(sizeof(runtime::CycleLedger) == 6 * sizeof(double),
                "compare every ledger field, and nothing but them");
  if (std::memcmp(&A.Ledger, &B.Ledger, sizeof A.Ledger) != 0 ||
      !(A.Faults == B.Faults))
    return "ledger or fault counters differ:\n  " + A.json() + "\n  " +
           B.json();
  return "";
}

std::string invariance::diffHost(const Record &A, const Record &B) {
  if (!A.Ok || !B.Ok)
    return failure(A) + failure(B);
  std::string D = diffReport(A.Report, B.Report);
  if (!D.empty())
    return D;
  if (A.Fields.size() != B.Fields.size())
    return "the runs keep different fields";
  for (const auto &[Name, F] : A.Fields) {
    auto It = B.Fields.find(Name);
    if (It == B.Fields.end())
      return "field '" + Name + "' missing";
    if (std::string E = diffElements(Name, F.Raw, It->second.Raw); !E.empty())
      return "raw storage: " + E;
  }
  if (A.Trace.empty() || B.Trace.empty())
    return "";
  if (A.Trace != B.Trace)
    return "normalized traces differ at " + firstDiff(A.Trace, B.Trace);
  if (A.MetricsText != B.MetricsText)
    return "metrics exports differ at " +
           firstDiff(A.MetricsText, B.MetricsText);
  return "";
}

std::string invariance::diffModel(const Record &A, const Record &B) {
  if (!A.Ok || !B.Ok)
    return failure(A) + failure(B);
  if (A.Report.Output != B.Report.Output)
    return "output differs at " +
           firstDiff(A.Report.Output, B.Report.Output);
  for (const auto &[Name, F] : A.Fields) {
    auto It = B.Fields.find(Name);
    if (It == B.Fields.end())
      continue;
    if (std::string E = diffElements(Name, F.Logical, It->second.Logical);
        !E.empty())
      return E;
  }
  return "";
}

std::string invariance::diffOracle(const Record &R, const std::string &Src,
                                   const std::vector<std::string> &Names,
                                   double Tol) {
  if (!R.Ok)
    return failure(R);
  std::string Error;
  const std::unique_ptr<driver::Compilation> C = compile(Src, R.On, Error);
  if (!C)
    return Error;
  DiagnosticEngine Diags;
  interp::Interpreter Interp(Diags);
  if (!Interp.run(C->artifacts().RawNIR))
    return "the interpreter failed:\n" + Diags.str();
  if (R.Report.Output != Interp.output())
    return "output differs from the interpreter's at " +
           firstDiff(R.Report.Output, Interp.output());
  std::vector<std::string> Compared = Names;
  if (Compared.empty())
    for (const auto &[Name, F] : R.Fields)
      if (Interp.getArray(Name))
        Compared.push_back(Name);
  for (const std::string &Name : Compared) {
    auto Near = [&](double Got, double Want) {
      return std::abs(Got - Want) <= Tol; // False on NaN.
    };
    auto It = R.Fields.find(Name);
    if (It == R.Fields.end()) {
      std::optional<interp::RtVal> Want = Interp.getScalar(Name);
      auto Got = R.Scalars.find(Name);
      if (!Want || Got == R.Scalars.end())
        return "'" + Name + "' is not on both the machine and the interpreter";
      if (!Near(Got->second, Want->asReal()))
        return "scalar '" + Name + "': " + num(Got->second) + " vs " +
               num(Want->asReal()) + " from the interpreter";
      continue;
    }
    const interp::ArrayStorage *Want = Interp.getArray(Name);
    if (!Want)
      return "array '" + Name + "' is not in the interpreter's store";
    const std::vector<double> &Got = It->second.Logical;
    if (Got.size() != Want->Data.size())
      return "array '" + Name + "' has " + std::to_string(Got.size()) +
             " elements, the interpreter's " +
             std::to_string(Want->Data.size());
    for (size_t I = 0; I < Got.size(); ++I)
      if (!Near(Got[I], Want->Data[I].asReal()))
        return "array '" + Name + "' element " + std::to_string(I) + ": " +
               num(Got[I]) + " vs " + num(Want->Data[I].asReal()) +
               " from the interpreter (tolerance " + num(Tol) + ")";
  }
  return "";
}

//===----------------------------------------------------------------------===//
// The matrix
//===----------------------------------------------------------------------===//

Matrix invariance::switchMatrix(const char *On, const char *Off) {
  Matrix M;
  M.Model.clear();
  for (const char *Comm : {"-comm=sync", UnscheduledOverlap})
    for (const char *Faults :
         {"-faults=", "-faults=corrupt:0.01,pe-trap:0.005"})
      for (const char *Switch : {On, Off})
        M.Model.push_back({{Comm, Faults, "-fault-seed=7", Switch}});
  return M;
}

Result invariance::check(const std::string &Src, const Matrix &M) {
  Result Res;
  const std::vector<Leg> Hosts = M.Host ? hostLegs() : std::vector<Leg>{{}};
  auto Fail = [&](const std::string &What, const std::string &Detail) {
    if (!Detail.empty())
      Res.Divergence = What + "\n" + Detail;
    return !Detail.empty();
  };
  for (const Leg &Model : M.Model) {
    const Leg L = M.Base + Model;
    Res.Runs.push_back(run(Src, L + Hosts.front(), /*Traced=*/true));
    const Record &Ref = Res.Runs.back();
    const std::string RefLeg = Ref.On.str();
    if (Fail("run " + RefLeg, failure(Ref)) ||
        Fail("model " + Res.Runs.front().On.str() + " vs " + RefLeg,
             diffModel(Res.Runs.front(), Ref)))
      return Res;
    if (!M.Host)
      continue;
    if (Fail("untraced " + RefLeg, diffHost(Ref, run(Src, Ref.On))))
      return Res;
    const auto Statements =
        static_cast<uint64_t>(Ref.metric("exec.statements"));
    for (const Leg &H : Hosts) {
      const Record Other =
          &H == &Hosts.front() ? Ref : run(Src, L + H, /*Traced=*/true);
      if (Fail("host " + RefLeg + " vs " + Other.On.str(),
               diffHost(Ref, Other)))
        return Res;
      if (std::optional<Record> Restored =
              killAndRestore(Src, Other.On, Statements)) {
        ++Res.Restored;
        if (Fail("restore " + Other.On.str(), diffHost(Other, *Restored)))
          return Res;
      }
    }
  }
  if (M.Oracle)
    Fail("oracle " + Res.Runs.front().On.str(),
         diffOracle(Res.Runs.front(), Src, M.Names, *M.Oracle));
  return Res;
}
