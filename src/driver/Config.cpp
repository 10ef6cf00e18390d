//===- driver/Config.cpp - the knobs f90yc and f90y-serve share --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Config.h"

#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <charconv>

using namespace f90y;
using namespace f90y::driver;
namespace js = f90y::observe::json;

namespace {

// A Choice row lists its values in the order of the enum its setter fills;
// a help text names the default in parentheses.
const Knob Table[] = {
    {"profile", KnobKind::Choice, "f90y|cmf|naive",
     "the paper's compiler (f90y) or a per-statement baseline",
     [](Config &C, const KnobValue &V) { C.Prof = Profile(V.Num); }},
    {"cm5", KnobKind::Switch, "", "simulate the CM/5 machine description",
     [](Config &C, const KnobValue &V) { C.Cm5 = V.Num; }},
    {"pes", KnobKind::Count, "N", "simulated PEs (2048; CM/5: 1024)",
     [](Config &C, const KnobValue &V) { C.Pes = unsigned(V.Num); }},
    {"threads", KnobKind::Count, "N", "host threads (all; serve jobs: 1)",
     [](Config &C, const KnobValue &V) { C.Threads = unsigned(V.Num); },
     support::ThreadPool::MaxThreads},
    {"exec", KnobKind::Choice, "interp|compiled", "PEAC executor (compiled)",
     [](Config &C, const KnobValue &V) { C.Engine = peac::EngineKind(V.Num); }},
    {"comm", KnobKind::Choice, "overlap|sync",
     "hide exchanges under compute, or the paper's sync",
     [](Config &C, const KnobValue &V) { C.OverlapComm = V.Num == 0; }},
    {"fuse", KnobKind::Choice, "on|off", "cross-statement elementwise fusion",
     [](Config &C, const KnobValue &V) { C.Fuse = V.Num == 0; }},
    {"layout", KnobKind::Choice, "infer|canonical", "alignment inference",
     [](Config &C, const KnobValue &V) { C.Layout = V.Num == 0; }},
    {"faults", KnobKind::Faults, "kind:prob[,...]", "inject faults",
     [](Config &C, const KnobValue &V) { C.Faults = V.Faults; }},
    {"fault-seed", KnobKind::Number, "N", "seed of the fault schedule (0)",
     [](Config &C, const KnobValue &V) { C.FaultSeed = V.Num; }},
    {"max-steps", KnobKind::Number, "N", "host-statement watchdog (0: off)",
     [](Config &C, const KnobValue &V) { C.MaxSteps = V.Num; }},
};

/// The row \p S names, reading each '-' of a row's name as \p Dash.
const Knob *find(std::string_view S, char Dash) {
  for (const Knob &K : Table) {
    size_t I = 0;
    while (K.Name[I] && I < S.size() &&
           S[I] == (K.Name[I] == '-' ? Dash : K.Name[I]))
      ++I;
    if (!K.Name[I] && I == S.size())
      return &K;
  }
  return nullptr;
}

/// The index of \p Text among the '|'-separated \p Values.
bool choose(std::string_view Values, std::string_view Text, uint64_t &Index) {
  for (Index = 0;; ++Index) {
    const size_t Bar = Values.find('|');
    if (Values.substr(0, Bar) == Text)
      return true;
    if (Bar == std::string_view::npos)
      return false;
    Values.remove_prefix(Bar + 1);
  }
}

/// Spells a JSON number as a flag carries it (fixed notation: 64, never
/// 6.4e1), so a fraction, a sign or an overflow fails the same digit
/// check. The fixed spelling of any double fits in the buffer.
std::string_view spell(double Num, char (&Buf)[400]) {
  auto [End, Ec] =
      std::to_chars(Buf, Buf + sizeof Buf, Num, std::chars_format::fixed);
  return {Buf, Ec == std::errc() ? static_cast<size_t>(End - Buf) : 0};
}

/// Parses \p Text by K's kind (a Switch takes \p On) and stores it.
/// \p What names the knob as the user spelled it.
bool set(Config &C, const Knob &K, std::string_view What,
         std::string_view Text, bool On, std::string &Error) {
  KnobValue V{On, {}};
  bool Ok = true;
  switch (K.Kind) {
  case KnobKind::Switch:
    break;
  case KnobKind::Choice:
    if (!(Ok = choose(K.Values, Text, V.Num)))
      Error = cat({"'", What, "' must be ", K.Values, ", got '", Text, "'"});
    break;
  case KnobKind::Count:
  case KnobKind::Number: {
    const bool Count = K.Kind == KnobKind::Count;
    const uint64_t Max = K.Max ? K.Max : Count ? UINT32_MAX : UINT64_MAX;
    Ok = parseNumber(What, Text, Count, Max, V.Num, Error);
    break;
  }
  case KnobKind::Faults:
    if (!(Ok = support::FaultSpec::parse(std::string(Text), V.Faults, Error)))
      Error = cat({"'", What, "': ", Error});
    break;
  }
  if (Ok)
    K.Set(C, V);
  return Ok;
}

/// Unset, comm follows the profile: only the paper's compiler schedules
/// and overlaps exchanges; CM Fortran v1.1 and the naive encoding ran
/// them synchronously.
bool overlaps(const Config &C) {
  return C.OverlapComm.value_or(C.Prof == Profile::F90Y);
}

} // namespace

cm2::CostModel Config::machine() const {
  cm2::CostModel M = Cm5 ? cm2::CostModel::cm5() : cm2::CostModel();
  if (Pes)
    M.NumPEs = Pes;
  return M;
}

CompileOptions Config::compileOptions() const {
  CompileOptions O = CompileOptions::forProfile(Prof, machine());
  O.Transforms.CommSchedule = overlaps(*this);
  O.Transforms.Fusion = Fuse.value_or(O.Transforms.Fusion);
  O.Transforms.Layout = Layout.value_or(O.Transforms.Layout);
  return O;
}

ExecutionOptions Config::executionOptions() const {
  ExecutionOptions E;
  E.Threads = Threads;
  E.Faults = Faults;
  E.FaultSeed = FaultSeed;
  E.OverlapComm = overlaps(*this);
  E.MaxSteps = MaxSteps;
  E.Engine = Engine;
  return E;
}

std::span<const Knob> driver::knobs() { return Table; }

bool driver::applyFlag(Config &C, std::string_view Arg, std::string &Error) {
  const size_t Eq = Arg.find('=');
  const std::string_view What = Arg.substr(0, Eq);
  const Knob *K = What.size() > 1 && What[0] == '-' ? find(What.substr(1), '-')
                                                    : nullptr;
  if (!K)
    return Error = cat({"unknown option '", Arg, "'"}), false;
  const bool Switch = K->Kind == KnobKind::Switch;
  if (Switch != (Eq == std::string_view::npos)) {
    Error = Switch ? cat({"'", What, "' takes no value"})
                   : cat({"'", What, "' needs a value: ", What, "=",
                          K->Values});
    return false;
  }
  return set(C, *K, What, Switch ? "" : Arg.substr(Eq + 1), true, Error);
}

bool driver::applyKey(Config &C, std::string_view Key, const js::Value &V,
                      std::string &Error) {
  const Knob *K = find(Key, '_');
  if (!K)
    return Error = cat({"unknown manifest key '", Key, "'"}), false;
  const bool Switch = K->Kind == KnobKind::Switch;
  const bool Numeric =
      K->Kind == KnobKind::Count || K->Kind == KnobKind::Number;
  if (Switch   ? V.K != js::Value::Kind::Bool
      : Numeric ? !V.isNumber()
                : !V.isString()) {
    Error = cat({"'", Key, "' must be a JSON ",
                 Switch ? "boolean" : Numeric ? "number" : "string"});
    return false;
  }
  char Buf[400];
  return set(C, *K, Key, Numeric ? spell(V.Num, Buf) : V.Str, V.B, Error);
}

std::string driver::knobUsage() {
  std::string Out = "compile and run knobs, shared with f90y-serve (a "
                    "manifest key is the flag\nname with '_' for '-'; an "
                    "unset comm, fuse or layout follows the profile):\n";
  for (const Knob &K : Table) {
    std::string Flag = std::string("-") + K.Name +
                       (K.Kind == KnobKind::Switch ? "" : "=") + K.Values;
    Flag.resize(std::max<size_t>(Flag.size() + 1, 26), ' ');
    Out += "  " + Flag + K.Help + "\n";
  }
  return Out;
}

bool driver::parseNumber(std::string_view What, std::string_view Text,
                         uint64_t Min, uint64_t Max, uint64_t &Out,
                         std::string &Error) {
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec == std::errc() && Ptr == End && V >= Min && V <= Max) {
    Out = V;
    return true;
  }
  Error = cat({"'", What, "' must be ",
               Min ? "a positive count" : "a non-negative integer", ", got '",
               Text, "'"});
  if (Max < UINT32_MAX)
    Error.append(" (at most ").append(std::to_string(Max)).append(")");
  return false;
}

bool driver::parseNumber(std::string_view What, const js::Value &V,
                         uint64_t Min, uint64_t Max, uint64_t &Out,
                         std::string &Error) {
  char Buf[400];
  if (V.isNumber())
    return parseNumber(What, spell(V.Num, Buf), Min, Max, Out, Error);
  Error = cat({"'", What, "' must be a JSON number"});
  return false;
}
