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
#include "serve/Serve.h"

#include <gtest/gtest.h>

#include <set>

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
    std::string BadFlag, BadJson;
    switch (K.Kind) {
    case KnobKind::Choice:
      BadFlag = flagOf(K, "bogus");
      BadJson = "\"bogus\"";
      break;
    case KnobKind::Switch:
      BadFlag = std::string("-") + K.Name + "=yes";
      BadJson = "\"yes\"";
      break;
    case KnobKind::Count:
      BadFlag = flagOf(K, "0");
      BadJson = "0";
      break;
    case KnobKind::Number:
      BadFlag = flagOf(K, "-1");
      BadJson = "-1";
      break;
    case KnobKind::Faults:
      BadFlag = flagOf(K, "bogus:0.5");
      BadJson = "\"bogus:0.5\"";
      break;
    }
    Config C;
    std::string Error;
    EXPECT_FALSE(applyFlag(C, BadFlag, Error)) << BadFlag;
    EXPECT_NE(Error.find(K.Name), std::string::npos) << Error;
    serve::JobSpec Job = jobWith(keyOf(K), BadJson);
    EXPECT_FALSE(Job.Valid) << keyOf(K) << ": " << BadJson;
    EXPECT_NE(Job.ParseError.find(keyOf(K)), std::string::npos)
        << Job.ParseError;
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
    EXPECT_EQ(C.compileOptions().Transforms.Fusion, Base.Transforms.Fusion);
    EXPECT_EQ(C.compileOptions().Transforms.Layout, Base.Transforms.Layout);
    C.Fuse = C.Layout = true;
    EXPECT_TRUE(C.compileOptions().Transforms.Fusion);
    EXPECT_TRUE(C.compileOptions().Transforms.Layout);
  }
  // The serve job that sets only its profile compiles the baseline
  // statement by statement, as f90yc -profile=cmf does.
  const CompileOptions Cmf =
      jobWith("profile", "\"cmf\"").Cfg.compileOptions();
  EXPECT_FALSE(Cmf.Transforms.Fusion);
  EXPECT_FALSE(Cmf.Transforms.Layout);
}

} // namespace
