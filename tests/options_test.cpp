//===- tests/options_test.cpp - the shared knob table -----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// driver/Config's table is the one definition of every knob f90yc and
/// f90y-serve share. These tests walk its rows: each allowed value (or one
/// in-range number) spelled as an f90yc flag and as a manifest key must
/// give the same artifact fingerprint and the same execution options, and
/// every row must reject a bad value on both surfaces.
///
//===----------------------------------------------------------------------===//

#include "driver/Config.h"
#include "driver/Workloads.h"
#include "serve/ArtifactCache.h"
#include "serve/Scheduler.h"
#include "serve/Serve.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

using namespace f90y;
using namespace f90y::driver;

namespace {

/// The manifest spelling of a row: its flag name with '_' for '-'.
std::string keyOf(const Knob &K) {
  std::string Key = K.Name;
  for (char &C : Key)
    if (C == '-')
      C = '_';
  return Key;
}

/// Valid values of a row as flag text ("" for a Switch's bare flag).
std::vector<std::string> samples(const Knob &K) {
  switch (K.Kind) {
  case KnobKind::Choice: {
    std::vector<std::string> Out(1);
    for (const char *C = K.Values; *C; ++C) {
      if (*C == '|')
        Out.emplace_back();
      else
        Out.back() += *C;
    }
    return Out;
  }
  case KnobKind::Switch:
    return {""};
  case KnobKind::Count:
  case KnobKind::Number:
    return {"64"};
  case KnobKind::Faults:
    return {"corrupt:0.05,pe-trap:0.01"};
  }
  return {};
}

std::string flagOf(const Knob &K, const std::string &Value) {
  return std::string("-") + K.Name +
         (K.Kind == KnobKind::Switch ? "" : "=" + Value);
}

/// \p Value as the JSON a manifest would carry for the row.
std::string jsonOf(const Knob &K, const std::string &Value) {
  switch (K.Kind) {
  case KnobKind::Switch:
    return "true";
  case KnobKind::Count:
  case KnobKind::Number:
    return Value;
  default:
    return "\"" + Value + "\"";
  }
}

/// Parses a one-job manifest whose job sets \p Key to \p Json.
serve::JobSpec jobWith(const std::string &Key, const std::string &Json) {
  auto Jobs = serve::parseManifest(
      "{\"source\":\"x\",\"" + Key + "\":" + Json + "}\n", "");
  EXPECT_EQ(Jobs.size(), 1u);
  return Jobs.empty() ? serve::JobSpec() : Jobs.front();
}

/// Everything a configuration decides: the artifact fingerprint and each
/// ExecutionOptions field the knobs set.
std::string signature(const Config &C) {
  const ExecutionOptions E = C.executionOptions();
  std::string S =
      std::to_string(serve::ArtifactCache::fingerprint(figure12Source(8),
                                                       C.compileOptions())) +
      " threads " + std::to_string(E.Threads) + " engine " +
      std::to_string(static_cast<int>(E.Engine)) + " overlap " +
      std::to_string(E.OverlapComm) + " seed " + std::to_string(E.FaultSeed) +
      " steps " + std::to_string(E.MaxSteps) + " faults";
  for (double P : E.Faults.Prob)
    S.append(" ").append(std::to_string(P));
  return S;
}

TEST(Options, FlagAndManifestKeyAgreeOnEveryRow) {
  for (const Knob &K : knobs()) {
    std::set<std::string> Seen;
    for (const std::string &V : samples(K)) {
      const std::string Flag = flagOf(K, V);
      // The flag side starts from serve's preset, so only the row differs.
      Config FromFlag = serve::JobSpec().Cfg;
      std::string Error;
      ASSERT_TRUE(applyFlag(FromFlag, Flag, Error)) << Flag << ": " << Error;
      serve::JobSpec Job = jobWith(keyOf(K), jsonOf(K, V));
      ASSERT_TRUE(Job.Valid) << Flag << ": " << Job.ParseError;
      EXPECT_EQ(signature(FromFlag), signature(Job.Cfg)) << Flag;
      EXPECT_TRUE(Seen.insert(signature(FromFlag)).second)
          << Flag << " sets nothing another value of its row does not";
      if (K.Kind != KnobKind::Choice) {
        EXPECT_NE(signature(FromFlag), signature(serve::JobSpec().Cfg))
            << Flag << " sets nothing";
      }
    }
  }
}

TEST(Options, EveryRowRejectsABadValueOnBothSurfaces) {
  for (const Knob &K : knobs()) {
    // Bad values as flag text and as manifest JSON.
    std::vector<std::pair<std::string, std::string>> Bad;
    switch (K.Kind) {
    case KnobKind::Choice:
      Bad.push_back({"bogus", "\"bogus\""});
      break;
    case KnobKind::Switch:
      Bad.push_back({"yes", "\"yes\""});
      break;
    case KnobKind::Count:
      Bad.push_back({"0", "0"});
      break;
    case KnobKind::Number:
      Bad.push_back({"-1", "-1"});
      break;
    case KnobKind::Faults:
      Bad.push_back({"bogus:0.5", "\"bogus:0.5\""});
      break;
    }
    // A bounded row also rejects one past its bound. Only parsed: an
    // over-bound thread count is never run.
    if (K.Max)
      Bad.push_back({std::to_string(K.Max + 1), std::to_string(K.Max + 1)});
    for (const auto &[Text, Json] : Bad) {
      const std::string BadFlag = std::string("-") + K.Name + "=" + Text;
      Config C;
      std::string Error;
      EXPECT_FALSE(applyFlag(C, BadFlag, Error)) << BadFlag;
      EXPECT_NE(Error.find(K.Name), std::string::npos) << Error;
      serve::JobSpec Job = jobWith(keyOf(K), Json);
      EXPECT_FALSE(Job.Valid) << keyOf(K) << ": " << Json;
      EXPECT_NE(Job.ParseError.find(keyOf(K)), std::string::npos)
          << Job.ParseError;
      if (K.Max) {
        const std::string Bound =
            "(at most " + std::to_string(K.Max) + ")";
        EXPECT_NE(Error.find(Bound), std::string::npos) << Error;
        EXPECT_NE(Job.ParseError.find(Bound), std::string::npos)
            << Job.ParseError;
      }
    }
  }
}

TEST(Options, ThreadCountsStopAtThePoolBound) {
  // The threads row and f90y-serve's -workers share ThreadPool's bound.
  const unsigned Max = support::ThreadPool::MaxThreads;
  bool Bounded = false;
  for (const Knob &K : knobs())
    Bounded |= std::string(K.Name) == "threads" && K.Max == Max;
  EXPECT_TRUE(Bounded);

  unsigned Workers = 0;
  std::string Error;
  EXPECT_TRUE(serve::parseWorkers(std::to_string(Max), Workers, Error))
      << Error;
  EXPECT_EQ(Workers, Max);
  for (const std::string &Text :
       std::vector<std::string>{"0", std::to_string(Max + 1), "100000"}) {
    Workers = 7;
    EXPECT_FALSE(serve::parseWorkers(Text, Workers, Error)) << Text;
    EXPECT_EQ(Workers, 7u) << Text;
    EXPECT_NE(Error.find("'-workers'"), std::string::npos) << Error;
    EXPECT_NE(Error.find("(at most " + std::to_string(Max) + ")"),
              std::string::npos)
        << Error;
  }
}

TEST(Options, ManifestNumbersMustBeJsonIntegers) {
  EXPECT_TRUE(jobWith("pes", "64").Valid);
  EXPECT_FALSE(jobWith("pes", "\"64\"").Valid);
  EXPECT_FALSE(jobWith("pes", "64.5").Valid);
  EXPECT_FALSE(jobWith("fault_seed", "1e300").Valid);
  EXPECT_TRUE(jobWith("retries", "16").Valid);
  EXPECT_FALSE(jobWith("retries", "17").Valid);
  EXPECT_FALSE(jobWith("deadline_ms", "-1").Valid);
  EXPECT_FALSE(jobWith("deadline_ms", "\"5\"").Valid);
}

TEST(Options, EachSurfaceKeepsItsOwnSpelling) {
  Config C;
  std::string Error;
  for (const char *Arg : {"-fault_seed=1", "--threads=2", "-stats"}) {
    EXPECT_FALSE(applyFlag(C, Arg, Error)) << Arg;
    EXPECT_NE(Error.find("unknown option"), std::string::npos) << Error;
  }
  serve::JobSpec Job = jobWith("fault-seed", "1");
  EXPECT_FALSE(Job.Valid);
  EXPECT_NE(Job.ParseError.find("unknown manifest key"), std::string::npos)
      << Job.ParseError;
  const std::string Usage = knobUsage();
  for (const Knob &K : knobs())
    EXPECT_NE(Usage.find(std::string("-") + K.Name), std::string::npos)
        << K.Name;
}

TEST(Options, MachineIgnoresKnobOrder) {
  Config PesFirst, Cm5First;
  std::string Error;
  for (const char *Arg : {"-pes=64", "-cm5"})
    ASSERT_TRUE(applyFlag(PesFirst, Arg, Error)) << Error;
  for (const char *Arg : {"-cm5", "-pes=64"})
    ASSERT_TRUE(applyFlag(Cm5First, Arg, Error)) << Error;
  for (const Config *C : {&PesFirst, &Cm5First}) {
    EXPECT_EQ(C->machine().NumPEs, 64u);
    EXPECT_EQ(C->machine().ClockMHz, cm2::CostModel::cm5().ClockMHz);
  }
  EXPECT_EQ(signature(PesFirst), signature(Cm5First));
}

TEST(Options, UnsetFuseAndLayoutFollowTheProfile) {
  for (Profile P : {Profile::F90Y, Profile::CMFStyle, Profile::Naive}) {
    Config C;
    C.Prof = P;
    const CompileOptions Base = CompileOptions::forProfile(P);
    // Only the paper's compiler schedules and overlaps its exchanges.
    const bool Overlap = P == Profile::F90Y;
    EXPECT_EQ(C.compileOptions().Transforms.CommSchedule, Overlap);
    EXPECT_EQ(C.executionOptions().OverlapComm, Overlap);
    EXPECT_EQ(C.compileOptions().Transforms.Fusion, Base.Transforms.Fusion);
    EXPECT_EQ(C.compileOptions().Transforms.Layout, Base.Transforms.Layout);
    C.OverlapComm = !Overlap;
    C.Fuse = C.Layout = true;
    EXPECT_EQ(C.compileOptions().Transforms.CommSchedule, !Overlap);
    EXPECT_EQ(C.executionOptions().OverlapComm, !Overlap);
    EXPECT_TRUE(C.compileOptions().Transforms.Fusion);
    EXPECT_TRUE(C.compileOptions().Transforms.Layout);
  }
  // The serve job that sets only its profile compiles and runs the
  // baseline statement by statement with synchronous exchanges, as
  // f90yc -profile=cmf does.
  const serve::JobSpec Job = jobWith("profile", "\"cmf\"");
  const CompileOptions Cmf = Job.Cfg.compileOptions();
  EXPECT_FALSE(Cmf.Transforms.CommSchedule);
  EXPECT_FALSE(Job.Cfg.executionOptions().OverlapComm);
  EXPECT_FALSE(Cmf.Transforms.Fusion);
  EXPECT_FALSE(Cmf.Transforms.Layout);
}

} // namespace
