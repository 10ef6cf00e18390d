//===- tests/observe_test.cpp - observability subsystem unit tests ----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the observe/ subsystem: JSON rendering/parsing, the metrics
/// registry, dual-clock trace recording (including the cycle-span tiling
/// invariant the f90y-trace summarizer relies on), and the end-to-end
/// determinism contract: a traced run exports byte-identical
/// (wall-normalized) trace and metrics content at every host thread
/// count, and tracing never changes the simulation itself.
///
//===----------------------------------------------------------------------===//

#include "invariance/Invariance.h"
#include "observe/Json.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

using namespace f90y;
using namespace f90y::observe;

//===--------------------------------------------------------------------===//
// JSON rendering
//===--------------------------------------------------------------------===//

TEST(ObserveJson, NumberRendersIntegralDoublesWithoutNoise) {
  EXPECT_EQ(json::number(0.0), "0");
  EXPECT_EQ(json::number(42.0), "42");
  EXPECT_EQ(json::number(1.5), "1.5");
  EXPECT_EQ(json::number(-3.25), "-3.25");
}

TEST(ObserveJson, NumberRoundTripsDoubles) {
  for (double V : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, 1e6, 7.0}) {
    std::string S = json::number(V);
    EXPECT_EQ(std::strtod(S.c_str(), nullptr), V) << S;
    // printf-style three-digit exponents ("1e+006") are not valid in some
    // consumers and never round-trip shorter.
    EXPECT_EQ(S.find("e+0"), std::string::npos) << S;
  }
}

TEST(ObserveJson, NonFiniteRendersAsNull) {
  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(ObserveJson, IntegerOverloadsAreExact) {
  EXPECT_EQ(json::number(std::uint64_t(18446744073709551615ull)),
            "18446744073709551615");
  EXPECT_EQ(json::number(std::int64_t(-9007199254740993ll)),
            "-9007199254740993");
}

TEST(ObserveJson, QuoteEscapes) {
  EXPECT_EQ(json::quote("plain"), "\"plain\"");
  EXPECT_EQ(json::quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json::quote("tab\tnl\n"), "\"tab\\tnl\\n\"");
}

//===--------------------------------------------------------------------===//
// JSON parsing
//===--------------------------------------------------------------------===//

TEST(ObserveJson, ParsesNestedValue) {
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(
      "{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": true, \"d\": null}} ", V,
      Error))
      << Error;
  ASSERT_TRUE(V.isObject());
  const json::Value *A = V.get("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->Arr.size(), 3u);
  EXPECT_EQ(A->Arr[1].Num, 2.5);
  EXPECT_EQ(A->Arr[2].Str, "x");
  const json::Value *B = V.get("b");
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(B->get("d")->isNull());
  EXPECT_EQ(V.numOr("missing", -1.0), -1.0);
  EXPECT_EQ(B->strOr("c", "dflt"), "dflt"); // Bool is not a string.
}

TEST(ObserveJson, ParseRejectsMalformedInput) {
  json::Value V;
  std::string Error;
  for (const char *Bad : {"", "{", "[1,]", "tru", "{\"a\":}", "1 2",
                          "\"unterminated"}) {
    EXPECT_FALSE(json::parse(Bad, V, Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
}

TEST(ObserveJson, ParseRoundTripsRenderedNumbers) {
  json::Value V;
  std::string Error;
  double X = 1.0 / 3.0;
  ASSERT_TRUE(json::parse(json::number(X), V, Error)) << Error;
  ASSERT_TRUE(V.isNumber());
  EXPECT_EQ(V.Num, X);
}

//===--------------------------------------------------------------------===//
// Metrics registry
//===--------------------------------------------------------------------===//

TEST(ObserveMetrics, KindsAccumulateCorrectly) {
  MetricsRegistry M;
  M.count("ops");
  M.count("ops", 4);
  M.countCycles("cyc", 1.5);
  M.countCycles("cyc", 2.5);
  M.gauge("g", 7);
  M.gauge("g", 9); // Last write wins.
  M.observe("h", 3);
  M.observe("h", 5);
  EXPECT_EQ(M.size(), 4u);
  EXPECT_EQ(M.value("ops"), 5.0);
  EXPECT_EQ(M.value("cyc"), 4.0);
  EXPECT_EQ(M.value("g"), 9.0);
  EXPECT_EQ(M.value("h"), 8.0); // Histogram sum.
  EXPECT_EQ(M.value("absent"), 0.0);
}

TEST(ObserveMetrics, ExportIsSortedAndParseable) {
  MetricsRegistry M;
  M.count("z.last");
  M.gauge("a.first", 1);
  M.observe("m.mid", 4);
  std::string Text = M.exportText();
  EXPECT_LT(Text.find("a.first"), Text.find("m.mid"));
  EXPECT_LT(Text.find("m.mid"), Text.find("z.last"));

  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(M.exportJson(), V, Error)) << Error;
  const json::Value *Metrics = V.get("metrics");
  ASSERT_NE(Metrics, nullptr);
  ASSERT_TRUE(Metrics->isObject());
  EXPECT_EQ(Metrics->Obj.size(), 3u);
  EXPECT_EQ(Metrics->get("z.last")->numOr("value", -1), 1.0);
  EXPECT_EQ(Metrics->get("z.last")->strOr("type", ""), "counter");
}

TEST(ObserveMetrics, ClearEmpties) {
  MetricsRegistry M;
  M.count("x");
  M.clear();
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.value("x"), 0.0);
}

//===--------------------------------------------------------------------===//
// Trace recording
//===--------------------------------------------------------------------===//

namespace {

/// Parses an export and returns the non-metadata events.
std::vector<const json::Value *> traceEvents(const std::string &Json,
                                             json::Value &Storage) {
  std::string Error;
  EXPECT_TRUE(json::parse(Json, Storage, Error)) << Error;
  std::vector<const json::Value *> Out;
  const json::Value *Events = Storage.get("traceEvents");
  EXPECT_NE(Events, nullptr);
  if (Events)
    for (const json::Value &E : Events->Arr)
      if (E.strOr("ph", "") != "M")
        Out.push_back(&E);
  return Out;
}

} // namespace

TEST(ObserveTrace, NullRecorderIsSafe) {
  WallSpan S(nullptr, "noop", "test");
  S.addArg(arg("k", std::int64_t(1))); // Must not crash or allocate events.
}

TEST(ObserveTrace, WallSpansNestAndExport) {
  TraceRecorder R;
  {
    WallSpan Outer(&R, "outer", "phase");
    WallSpan Inner(&R, "inner", "phase");
    Inner.addArg(arg("n", std::uint64_t(3)));
  }
  R.wallInstant("mark", "phase");
  EXPECT_EQ(R.eventCount(), 3u);

  json::Value V;
  auto Events = traceEvents(R.exportJson(), V);
  ASSERT_EQ(Events.size(), 3u);
  for (const json::Value *E : Events)
    EXPECT_EQ(E->numOr("pid", -1), 1.0); // All wall-domain.
  // Events export in begin order: outer opened first.
  EXPECT_EQ(Events[0]->strOr("name", ""), "outer");
  EXPECT_EQ(Events[1]->strOr("name", ""), "inner");
  EXPECT_EQ(Events[1]->get("args")->numOr("n", -1), 3.0);
  EXPECT_EQ(Events[2]->strOr("ph", ""), "i");
}

TEST(ObserveTrace, CycleSpansTileTheLedger) {
  TraceRecorder R;
  R.resetCycleCursor();
  R.cycleSpan("a", "peac", 10, 30); // Gap [0,10) becomes a host span.
  R.cycleSpan("b", "comm", 30, 45); // Adjacent: no gap.
  R.cycleInstant("retry", "fault", 45);
  R.cycleSpan("c", "peac", 50, 60); // Gap [45,50).
  R.closeCycles(100);               // Tail [60,100).

  json::Value V;
  auto Events = traceEvents(R.exportJson(), V);
  double Sum = 0;
  unsigned HostSpans = 0;
  for (const json::Value *E : Events) {
    ASSERT_EQ(E->numOr("pid", -1), 2.0);
    if (E->strOr("ph", "") != "X")
      continue;
    Sum += E->numOr("dur", 0);
    if (E->strOr("name", "") == "host")
      ++HostSpans;
  }
  EXPECT_EQ(Sum, 100.0); // Spans tile [0, closeCycles) exactly.
  EXPECT_EQ(HostSpans, 3u);
  EXPECT_EQ(R.cycleCursor(), 100.0);

  R.resetCycleCursor();
  EXPECT_EQ(R.cycleCursor(), 0.0);
}

TEST(ObserveTrace, NormalizedExportHidesWallTimes) {
  // Two recorders doing the same work at different real times must export
  // byte-identically once wall values are normalized.
  auto Record = [](TraceRecorder &R) {
    {
      WallSpan S(&R, "compile", "phase");
      S.addArg(arg("tokens", std::uint64_t(9)));
    }
    R.resetCycleCursor();
    R.cycleSpan("kernel", "peac", 0, 64,
                {arg("pes", std::int64_t(2048))});
    R.closeCycles(80);
  };
  TraceRecorder A, B;
  Record(A);
  Record(B);
  EXPECT_EQ(A.exportJson(/*NormalizeWall=*/true),
            B.exportJson(/*NormalizeWall=*/true));
}

TEST(ObserveTrace, ClearResetsEverything) {
  TraceRecorder R;
  R.wallInstant("x", "t");
  R.cycleSpan("a", "peac", 0, 5);
  R.clear();
  EXPECT_EQ(R.eventCount(), 0u);
  EXPECT_EQ(R.cycleCursor(), 0.0);
}

//===--------------------------------------------------------------------===//
// End-to-end: traced compilation + simulated run
//===--------------------------------------------------------------------===//

namespace {

/// What the cycle-span tiling test reads from one traced compile and run.
struct TracedRun {
  double LedgerTotal = 0;
  double CycleSpanSum = 0;
  bool SawComm = false, SawPeac = false;
};

TracedRun runTraced(const std::string &Source) {
  TracedRun Out;
  invariance::Record R = invariance::run(Source, {{"-threads=1"}}, true);
  EXPECT_TRUE(R.Ok) << R.Diags;
  Out.LedgerTotal = R.Report.Ledger.total();
  json::Value V;
  for (const json::Value *E : traceEvents(R.Trace, V)) {
    if (E->numOr("pid", 0) != 2 || E->strOr("ph", "") != "X")
      continue;
    Out.CycleSpanSum += E->numOr("dur", 0);
    std::string Cat = E->strOr("cat", "");
    Out.SawComm |= Cat == "comm";
    Out.SawPeac |= Cat == "peac";
  }
  return Out;
}

const char *kTracedProgram = "program p\n"
                             "real u(64), v(64)\n"
                             "integer i\n"
                             "u = 1.0\n"
                             "do i = 1, 4\n"
                             "  v = cshift(u, 1, 1)\n"
                             "  u = u + v\n"
                             "end do\n"
                             "print *, sum(u)\n"
                             "end\n";

} // namespace

TEST(ObserveEndToEnd, CycleSpansReconcileWithLedger) {
  TracedRun R = runTraced(kTracedProgram);
  ASSERT_GT(R.LedgerTotal, 0.0);
  // The tiling invariant: cycle-domain span durations sum to the ledger
  // total (what f90y-trace reconciles against -stats).
  EXPECT_NEAR(R.CycleSpanSum, R.LedgerTotal, 1e-9 * R.LedgerTotal);
  EXPECT_TRUE(R.SawComm);
  EXPECT_TRUE(R.SawPeac);
}

TEST(ObserveEndToEnd, TraceAndMetricsDeterministicAcrossThreads) {
  // Every host leg exports byte-identical (wall-normalized) trace and
  // metrics content, compile included, under either comm model.
  invariance::Matrix M;
  M.Model = {invariance::Leg{}, invariance::Leg{{"-comm=sync"}}};
  EXPECT_EQ(invariance::check(kTracedProgram, M).Divergence, "");
}

TEST(ObserveEndToEnd, TracingDoesNotPerturbTheSimulation) {
  const invariance::Leg L{{"-threads=2"}};
  EXPECT_EQ(invariance::diffHost(invariance::run(kTracedProgram, L),
                                 invariance::run(kTracedProgram, L, true)),
            "");
}

TEST(ObserveEndToEnd, RunReportJsonIsValid) {
  cm2::CostModel Machine;
  driver::Compilation C(
      driver::CompileOptions::forProfile(driver::Profile::F90Y, Machine));
  ASSERT_TRUE(C.compile(kTracedProgram)) << C.diags().str();
  driver::Execution Exec(Machine);
  auto Report = Exec.run(C.artifacts().Compiled.Program);
  ASSERT_TRUE(Report.has_value()) << Exec.diags().str();

  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Report->json(), V, Error)) << Error;
  const json::Value *Ledger = V.get("ledger");
  ASSERT_NE(Ledger, nullptr);
  EXPECT_EQ(Ledger->numOr("total_cycles", -1), Report->Ledger.total());
  EXPECT_EQ(Ledger->numOr("flops", -1),
            static_cast<double>(Report->Ledger.Flops));
  ASSERT_NE(V.get("faults"), nullptr);
  EXPECT_EQ(V.get("faults")->numOr("retries", -1), 0.0);
}
