//===- perfbench/harness/Layers.cpp - per-layer host-time split -------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "backend/Backend.h"
#include "frontend/Inline.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "lower/Lowering.h"
#include "observe/Json.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace perfbench;
using namespace f90y;
namespace js = f90y::observe::json;

namespace {

double usSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

struct Event {
  std::string Name, Cat;
  bool Wall = false, Span = false;
  double Ts = 0, Dur = 0;
  uint64_t Seq = 0;
  const js::Value *Args = nullptr;
};

bool parseEvents(const observe::TraceRecorder &Trace, js::Value &Root,
                 std::vector<Event> &Out, std::string &Error) {
  if (!js::parse(Trace.exportJson(), Root, Error))
    return false;
  const js::Value *Events = Root.get("traceEvents");
  if (!Events || !Events->isArray()) {
    Error = "trace has no traceEvents array";
    return false;
  }
  for (const js::Value &V : Events->Arr) {
    std::string Ph = V.strOr("ph", "");
    if (Ph != "X" && Ph != "i")
      continue;
    Event E;
    E.Name = V.strOr("name", "");
    E.Cat = V.strOr("cat", "");
    E.Wall = V.numOr("pid", 0) == 1;
    E.Span = Ph == "X";
    E.Ts = V.numOr("ts", 0);
    E.Dur = V.numOr("dur", 0);
    E.Args = V.get("args");
    E.Seq = E.Args ? static_cast<uint64_t>(E.Args->numOr("seq", 0)) : 0;
    Out.push_back(std::move(E));
  }
  std::sort(Out.begin(), Out.end(),
            [](const Event &A, const Event &B) { return A.Seq < B.Seq; });
  return true;
}

std::string dashed(std::string S) {
  std::replace(S.begin(), S.end(), ' ', '-');
  return S;
}

} // namespace

double StageTimes::totalUs() const {
  double T = LexUs + ParseUs + IntegrateUs + LowerUs + BackendUs;
  for (const auto &[Name, Us] : PassUs)
    T += Us;
  return T;
}

void StageTimes::add(const StageTimes &O) {
  LexUs += O.LexUs;
  ParseUs += O.ParseUs;
  IntegrateUs += O.IntegrateUs;
  LowerUs += O.LowerUs;
  BackendUs += O.BackendUs;
  for (const auto &[Name, Us] : O.PassUs)
    PassUs[Name] += Us;
  PeacInstructions += O.PeacInstructions;
}

void StageTimes::scale(double F) {
  LexUs *= F;
  ParseUs *= F;
  IntegrateUs *= F;
  LowerUs *= F;
  BackendUs *= F;
  for (auto &[Name, Us] : PassUs)
    Us *= F;
  PeacInstructions = static_cast<uint64_t>(
      std::llround(static_cast<double>(PeacInstructions) * F));
}

std::optional<StageTimes> perfbench::timeStages(const std::string &Source,
                                                driver::CompileOptions Opts,
                                                std::string &Error) {
  StageTimes T;
  DiagnosticEngine Diags;
  frontend::ast::ASTContext ACtx;
  nir::NIRContext NCtx;
  auto Fail = [&]() -> std::optional<StageTimes> {
    Error = Diags.str();
    return std::nullopt;
  };

  auto T0 = std::chrono::steady_clock::now();
  frontend::Lexer Lexer(Source, Diags);
  std::vector<frontend::Token> Tokens = Lexer.lexAll();
  T.LexUs = usSince(T0);

  T0 = std::chrono::steady_clock::now();
  frontend::Parser Parser(std::move(Tokens), ACtx, Diags);
  auto File = Parser.parseSourceFile();
  T.ParseUs = usSince(T0);
  if (!File)
    return Fail();

  T0 = std::chrono::steady_clock::now();
  auto Unit = frontend::integrateProcedures(*File, ACtx, Diags);
  T.IntegrateUs = usSince(T0);
  if (!Unit)
    return Fail();

  T0 = std::chrono::steady_clock::now();
  auto Lowered = lower::lowerProgram(*Unit, NCtx, Diags);
  T.LowerUs = usSince(T0);
  if (!Lowered)
    return Fail();

  observe::TraceRecorder Passes;
  Opts.Transforms.Trace = &Passes;
  Opts.Transforms.Costs = &Opts.Costs;
  const nir::ProgramImp *Optimized =
      transform::optimize(Lowered->Program, NCtx, Diags, Opts.Transforms);
  if (Diags.hasErrors())
    return Fail();
  js::Value Root;
  std::vector<Event> Events;
  if (!parseEvents(Passes, Root, Events, Error))
    return std::nullopt;
  for (const Event &E : Events)
    if (E.Cat == "pass")
      T.PassUs[E.Name] += E.Dur;

  observe::MetricsRegistry Metrics;
  Opts.Backend.Metrics = &Metrics;
  T0 = std::chrono::steady_clock::now();
  auto Compiled = backend::compileProgram(Optimized, Opts.Backend, Diags);
  T.BackendUs = usSince(T0);
  if (!Compiled)
    return Fail();
  T.PeacInstructions =
      static_cast<uint64_t>(Metrics.value("backend.peac_instructions"));
  return T;
}

void ExecuteSplit::add(const ExecuteSplit &O) {
  ExecuteMs += O.ExecuteMs;
  HostSelfMs += O.HostSelfMs;
  for (const auto &[Name, Op] : O.Comm) {
    OpTime &Mine = Comm[Name];
    Mine.Ms += Op.Ms;
    Mine.Calls += Op.Calls;
    Mine.Elems += Op.Elems;
  }
  Peac.Ms += O.Peac.Ms;
  Peac.Calls += O.Peac.Calls;
  Peac.Elems += O.Peac.Elems;
  ParallelFors += O.ParallelFors;
  for (int I = 0; I < 5; ++I)
    SimCycles[I] += O.SimCycles[I];
}

bool perfbench::joinExecute(const observe::TraceRecorder &Trace,
                            ExecuteSplit &Out, std::string &Error) {
  js::Value Root;
  std::vector<Event> Events;
  if (!parseEvents(Trace, Root, Events, Error))
    return false;

  const Event *Execute = nullptr;
  for (const Event &E : Events)
    if (E.Wall && E.Span && E.Name == "execute") {
      if (Execute) {
        Error = "trace holds more than one execute span";
        return false;
      }
      Execute = &E;
    }
  if (!Execute) {
    Error = "trace has no execute span";
    return false;
  }
  const double Lo = Execute->Ts, Hi = Execute->Ts + Execute->Dur;
  // Wall stamps are whole microseconds apart at worst; allow that slack.
  const double Slack = 1.0;

  double PendingUs = 0, AttributedUs = 0;
  for (const Event &E : Events) {
    if (E.Wall && E.Span && E.Name == "parallel-for") {
      if (E.Ts < Lo - Slack || E.Ts + E.Dur > Hi + Slack) {
        Error = "parallel-for span #" + std::to_string(E.Seq) +
                " lies outside the execute span";
        return false;
      }
      PendingUs += E.Dur;
      ++Out.ParallelFors;
      continue;
    }
    if (E.Wall || !E.Span || (E.Cat != "comm" && E.Cat != "peac"))
      continue;
    OpTime &Op = E.Cat == "peac" ? Out.Peac : Out.Comm[dashed(E.Name)];
    Op.Ms += PendingUs / 1e3;
    Op.Calls += 1;
    if (E.Args && E.Cat == "comm")
      Op.Elems += E.Args->numOr("elems", 0);
    if (E.Args && E.Cat == "peac")
      Op.Elems += E.Args->numOr("subgrid_elems", 0) * E.Args->numOr("pes", 0);
    AttributedUs += PendingUs;
    PendingUs = 0;
  }
  Out.ExecuteMs = Execute->Dur / 1e3;
  Out.HostSelfMs = (Execute->Dur - AttributedUs) / 1e3;
  if (AttributedUs > Execute->Dur + Slack) {
    Error = "attributed pool time exceeds the execute span";
    return false;
  }
  return true;
}

std::string perfbench::checkAttribution(const ExecuteSplit &S,
                                        const observe::MetricsRegistry &M) {
  // Scalar element traffic is counted without spans (too fine-grained),
  // so it is the one comm counter the join cannot see.
  for (const auto &Sample : M.snapshot()) {
    const std::string &N = Sample.Name;
    if (N.rfind("comm.", 0) != 0 || N.size() < 9 ||
        N.compare(N.size() - 4, 4, ".ops") != 0 ||
        N.rfind("comm.element-", 0) == 0)
      continue;
    const std::string Op = N.substr(5, N.size() - 9);
    auto It = S.Comm.find(Op);
    const uint64_t Joined = It == S.Comm.end() ? 0 : It->second.Calls;
    if (Joined != Sample.Count)
      return "comm." + Op + ": " + std::to_string(Joined) +
             " joined spans, counter says " + std::to_string(Sample.Count);
  }
  for (const auto &[Op, T] : S.Comm)
    if (static_cast<uint64_t>(M.value("comm." + Op + ".ops")) != T.Calls)
      return "comm." + Op + ": spans without a counter";
  const auto Dispatches = static_cast<uint64_t>(M.value("peac.dispatches"));
  if (Dispatches != S.Peac.Calls)
    return "peac: " + std::to_string(S.Peac.Calls) +
           " joined spans, peac.dispatches says " + std::to_string(Dispatches);
  return "";
}
