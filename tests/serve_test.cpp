//===- tests/serve_test.cpp - batch service unit tests ----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving subsystem's contracts: strict manifest parsing, the
/// content-addressed artifact cache (compile exactly once, even under
/// concurrent first requests), deterministic job records at any worker
/// count, admission control, timeout/retry classification, and the
/// routine cache's concurrent-engine safety.
///
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"

#include "driver/Workloads.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "peac/Engine.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

using namespace f90y;
using namespace f90y::serve;

namespace {

/// A small valid program (paper Figure 12's statement on a tiny grid).
std::string smallSource() { return driver::figure12Source(8); }

driver::CompileOptions defaultOpts() {
  return driver::CompileOptions::forProfile(driver::Profile::F90Y);
}

//===----------------------------------------------------------------------===//
// Manifest parsing
//===----------------------------------------------------------------------===//

TEST(Manifest, ParsesJobsSkipsCommentsAndBlanks) {
  const std::string Text = "# header comment\n"
                           "\n"
                           "{\"id\":\"a\",\"source\":\"x\"}\n"
                           "   # indented comment\n"
                           "{\"source\":\"y\",\"profile\":\"cmf\","
                           "\"pes\":64,\"cm5\":true,\"exec\":\"interp\","
                           "\"comm\":\"sync\",\"retries\":2,"
                           "\"fault_seed\":7,\"max_steps\":100}\n";
  auto Jobs = parseManifest(Text, "");
  ASSERT_EQ(Jobs.size(), 2u);
  EXPECT_TRUE(Jobs[0].Valid);
  EXPECT_EQ(Jobs[0].Id, "a");
  EXPECT_EQ(Jobs[0].Source, "x");
  EXPECT_EQ(Jobs[0].Cfg.Threads, 1u) << "serve jobs default to 1 host thread";
  EXPECT_TRUE(Jobs[1].Valid);
  EXPECT_EQ(Jobs[1].Id, "job2") << "ids default to the manifest ordinal";
  EXPECT_EQ(Jobs[1].Cfg.Prof, driver::Profile::CMFStyle);
  EXPECT_EQ(Jobs[1].Cfg.Pes, 64u);
  EXPECT_TRUE(Jobs[1].Cfg.Cm5);
  EXPECT_EQ(Jobs[1].Cfg.Engine, peac::EngineKind::Interp);
  EXPECT_FALSE(Jobs[1].Cfg.OverlapComm);
  EXPECT_EQ(Jobs[1].Retries, 2u);
  EXPECT_EQ(Jobs[1].Cfg.FaultSeed, 7u);
  EXPECT_EQ(Jobs[1].Cfg.MaxSteps, 100u);
}

TEST(Manifest, RejectsMalformedLinesWithoutKillingTheBatch) {
  const std::string Text =
      "{\"id\":\"ok\",\"source\":\"x\"}\n"
      "{not json\n"
      "[1,2]\n"
      "{\"id\":\"both\",\"source\":\"x\",\"source_path\":\"y\"}\n"
      "{\"id\":\"neither\"}\n"
      "{\"id\":\"typo\",\"source\":\"x\",\"wallclock\":5}\n"
      "{\"id\":\"badprof\",\"source\":\"x\",\"profile\":\"fast\"}\n"
      "{\"id\":\"badretry\",\"source\":\"x\",\"retries\":99}\n"
      "{\"id\":\"zeropes\",\"source\":\"x\",\"pes\":0}\n";
  auto Jobs = parseManifest(Text, "");
  ASSERT_EQ(Jobs.size(), 9u);
  EXPECT_TRUE(Jobs[0].Valid);
  for (size_t I = 1; I < Jobs.size(); ++I) {
    EXPECT_FALSE(Jobs[I].Valid) << "line " << I + 1;
    EXPECT_NE(Jobs[I].ParseError.find("line " + std::to_string(I + 1)),
              std::string::npos)
        << Jobs[I].ParseError;
  }
  EXPECT_NE(Jobs[5].ParseError.find("wallclock"), std::string::npos);
}

TEST(Manifest, ParsesFuseKeyAndRejectsBadValues) {
  const std::string Text =
      "{\"id\":\"on\",\"source\":\"x\",\"fuse\":\"on\"}\n"
      "{\"id\":\"off\",\"source\":\"x\",\"fuse\":\"off\"}\n"
      "{\"id\":\"default\",\"source\":\"x\"}\n"
      "{\"id\":\"bad\",\"source\":\"x\",\"fuse\":\"maybe\"}\n";
  auto Jobs = parseManifest(Text, "");
  ASSERT_EQ(Jobs.size(), 4u);
  auto Fusion = [&](size_t I) {
    return Jobs[I].Cfg.compileOptions().Transforms.Fusion;
  };
  EXPECT_TRUE(Jobs[0].Valid);
  EXPECT_TRUE(Fusion(0));
  EXPECT_TRUE(Jobs[1].Valid);
  EXPECT_FALSE(Fusion(1));
  EXPECT_TRUE(Jobs[2].Valid);
  EXPECT_TRUE(Fusion(2)) << "fusion defaults to on, like f90yc";
  EXPECT_FALSE(Jobs[3].Valid);
  EXPECT_NE(Jobs[3].ParseError.find("fuse"), std::string::npos)
      << Jobs[3].ParseError;
}

TEST(Manifest, ParsesLayoutKeyAndRejectsBadValues) {
  const std::string Text =
      "{\"id\":\"infer\",\"source\":\"x\",\"layout\":\"infer\"}\n"
      "{\"id\":\"canon\",\"source\":\"x\",\"layout\":\"canonical\"}\n"
      "{\"id\":\"default\",\"source\":\"x\"}\n"
      "{\"id\":\"bad\",\"source\":\"x\",\"layout\":\"auto\"}\n";
  auto Jobs = parseManifest(Text, "");
  ASSERT_EQ(Jobs.size(), 4u);
  auto Infers = [&](size_t I) {
    return Jobs[I].Cfg.compileOptions().Transforms.Layout;
  };
  EXPECT_TRUE(Jobs[0].Valid);
  EXPECT_TRUE(Infers(0));
  EXPECT_TRUE(Jobs[1].Valid);
  EXPECT_FALSE(Infers(1));
  EXPECT_TRUE(Jobs[2].Valid);
  EXPECT_TRUE(Infers(2)) << "layout defaults to infer, like f90yc";
  EXPECT_FALSE(Jobs[3].Valid);
  EXPECT_NE(Jobs[3].ParseError.find("layout"), std::string::npos)
      << Jobs[3].ParseError;
}

TEST(Manifest, UniquifiesDuplicateIdsInOrder) {
  const std::string Text = "{\"id\":\"x\",\"source\":\"1\"}\n"
                           "{\"id\":\"x\",\"source\":\"2\"}\n"
                           "{\"id\":\"x~2\",\"source\":\"3\"}\n"
                           "{\"id\":\"x\",\"source\":\"4\"}\n";
  auto Jobs = parseManifest(Text, "");
  ASSERT_EQ(Jobs.size(), 4u);
  EXPECT_EQ(Jobs[0].Id, "x");
  EXPECT_EQ(Jobs[1].Id, "x~3") << "x~2 was already taken by line 3";
  EXPECT_EQ(Jobs[2].Id, "x~2");
  EXPECT_EQ(Jobs[3].Id, "x~4");
}

TEST(Manifest, ResolvesSourcePathAgainstBaseDir) {
  const std::string Dir = ::testing::TempDir();
  const std::string Src = smallSource();
  ASSERT_TRUE(
      support::atomicWriteFile(Dir + "/serve_manifest_src.f90", Src));
  auto Jobs = parseManifest(
      "{\"id\":\"f\",\"source_path\":\"serve_manifest_src.f90\"}\n"
      "{\"id\":\"missing\",\"source_path\":\"no_such.f90\"}\n",
      Dir);
  ASSERT_EQ(Jobs.size(), 2u);
  EXPECT_TRUE(Jobs[0].Valid);
  EXPECT_EQ(Jobs[0].Source, Src);
  EXPECT_FALSE(Jobs[1].Valid);
  EXPECT_NE(Jobs[1].ParseError.find("source_path"), std::string::npos);
  std::remove((Dir + "/serve_manifest_src.f90").c_str());
}

//===----------------------------------------------------------------------===//
// Fingerprinting and the artifact cache
//===----------------------------------------------------------------------===//

TEST(ArtifactCache, FingerprintCanonicalizesByteNoise) {
  const auto Opts = defaultOpts();
  const uint64_t Base = ArtifactCache::fingerprint("program p\nend\n", Opts);
  EXPECT_EQ(ArtifactCache::fingerprint("program p\r\nend\r\n", Opts), Base);
  EXPECT_EQ(ArtifactCache::fingerprint("program p\nend", Opts), Base);
  EXPECT_EQ(ArtifactCache::fingerprint("program p\nend\n\n\n", Opts), Base);
  EXPECT_NE(ArtifactCache::fingerprint("program q\nend\n", Opts), Base);
}

TEST(ArtifactCache, FingerprintKeysOnOptionsAndMachine) {
  const std::string Src = "program p\nend\n";
  const uint64_t Base = ArtifactCache::fingerprint(Src, defaultOpts());
  EXPECT_NE(ArtifactCache::fingerprint(
                Src, driver::CompileOptions::forProfile(
                         driver::Profile::Naive)),
            Base);
  auto Opts = defaultOpts();
  Opts.Costs.NumPEs *= 2;
  EXPECT_NE(ArtifactCache::fingerprint(Src, Opts), Base);
  Opts = defaultOpts();
  Opts.Costs.VectorMaddCycles += 1;
  EXPECT_NE(ArtifactCache::fingerprint(Src, Opts), Base);
}

TEST(ArtifactCache, FuseOnAndOffNeverShareAnArtifact) {
  // fuse= participates in the fingerprint: a fused and an unfused job for
  // the same source must never be served from one compilation, and the
  // distinction must survive byte noise in the source.
  const std::string Src = smallSource();
  auto On = defaultOpts();
  On.Transforms.Fusion = true;
  auto Off = defaultOpts();
  Off.Transforms.Fusion = false;
  const uint64_t FpOn = ArtifactCache::fingerprint(Src, On);
  const uint64_t FpOff = ArtifactCache::fingerprint(Src, Off);
  EXPECT_NE(FpOn, FpOff);
  // Canonicalization still applies within each setting.
  EXPECT_EQ(ArtifactCache::fingerprint(Src + "\n\n", On), FpOn);
  EXPECT_EQ(ArtifactCache::fingerprint(Src + "\n\n", Off), FpOff);
}

TEST(ArtifactCache, LayoutInferAndCanonicalNeverShareAnArtifact) {
  // layout= participates in the fingerprint: a realigned program's host
  // code stores its fields differently, so an infer and a canonical job
  // for the same source must never be served from one compilation.
  const std::string Src = smallSource();
  auto Infer = defaultOpts();
  Infer.Transforms.Layout = true;
  auto Canon = defaultOpts();
  Canon.Transforms.Layout = false;
  const uint64_t FpInfer = ArtifactCache::fingerprint(Src, Infer);
  const uint64_t FpCanon = ArtifactCache::fingerprint(Src, Canon);
  EXPECT_NE(FpInfer, FpCanon);
  // Canonicalization still applies within each setting.
  EXPECT_EQ(ArtifactCache::fingerprint(Src + "\n\n", Infer), FpInfer);
  EXPECT_EQ(ArtifactCache::fingerprint(Src + "\n\n", Canon), FpCanon);
}

TEST(ArtifactCache, ConcurrentFirstRequestsCompileExactlyOnce) {
  ArtifactCache Cache;
  const std::string Src = smallSource();
  const auto Opts = defaultOpts();
  const uint64_t FP = ArtifactCache::fingerprint(Src, Opts);
  std::atomic<int> Compiles{0};
  std::vector<std::thread> Threads;
  std::vector<ArtifactCache::EntryPtr> Entries(8);
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&, T] {
      Entries[T] = Cache.get(FP, [&] {
        ++Compiles;
        return compileEntry(Src, defaultOpts());
      });
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Compiles.load(), 1);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 7u);
  for (const auto &E : Entries) {
    ASSERT_TRUE(E);
    EXPECT_EQ(E, Entries[0]) << "every requester shares one entry";
    EXPECT_TRUE(E->Ok);
    ASSERT_TRUE(E->Comp);
  }
}

TEST(ArtifactCache, CachesFailedCompilations) {
  ArtifactCache Cache;
  const std::string Bad = "program p\n  x = (\nend\n";
  const uint64_t FP = ArtifactCache::fingerprint(Bad, defaultOpts());
  int Compiles = 0;
  auto Get = [&] {
    return Cache.get(FP, [&] {
      ++Compiles;
      return compileEntry(Bad, defaultOpts());
    });
  };
  auto E1 = Get();
  auto E2 = Get();
  EXPECT_EQ(Compiles, 1) << "the failure is cached, not recompiled";
  EXPECT_FALSE(E1->Ok);
  EXPECT_FALSE(E1->Comp);
  EXPECT_FALSE(E1->DiagText.empty());
  EXPECT_EQ(E1, E2);
}

//===----------------------------------------------------------------------===//
// runBatch
//===----------------------------------------------------------------------===//

/// The mixed workload used by the determinism and classification tests:
/// good jobs sharing one program, a private variant, a compile error, an
/// invalid line, a watchdog timeout, a permanent fault with retries, and
/// a recoverable-fault job.
std::string mixedManifest() {
  auto Quote = [](const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (C == '\n')
        Out += "\\n";
      else if (C == '"')
        Out += "\\\"";
      else
        Out += C;
    }
    return Out;
  };
  const std::string Small = Quote(smallSource());
  const std::string Swe = Quote(driver::sweSource(16, 2));
  std::string M;
  M += "{\"id\":\"a\",\"source\":\"" + Small + "\"}\n";
  M += "{\"id\":\"b\",\"source\":\"" + Small + "\"}\n";
  M += "{\"id\":\"naive\",\"source\":\"" + Small +
       "\",\"profile\":\"naive\"}\n";
  M += "{\"id\":\"bad\",\"source\":\"program p\\n  x = (\\nend\\n\"}\n";
  M += "{malformed\n";
  M += "{\"id\":\"wd\",\"source\":\"" + Swe +
       "\",\"max_steps\":2,\"retries\":3}\n";
  M += "{\"id\":\"fatal\",\"source\":\"" + Small +
       "\",\"faults\":\"oom:1\",\"retries\":2}\n";
  M += "{\"id\":\"flaky\",\"source\":\"" + Swe +
       "\",\"faults\":\"corrupt:0.05\",\"fault_seed\":7,\"retries\":3}\n";
  return M;
}

BatchResult runMixed(unsigned Workers, ArtifactCache *Cache,
                     observe::MetricsRegistry *Metrics,
                     observe::TraceRecorder *Trace) {
  ServeOptions Opts;
  Opts.Workers = Workers;
  Opts.Cache = Cache;
  Opts.Metrics = Metrics;
  Opts.Trace = Trace;
  return runBatch(parseManifest(mixedManifest(), ""), Opts);
}

TEST(RunBatch, ClassifiesTheMixedWorkload) {
  ArtifactCache Cache;
  BatchResult B = runMixed(8, &Cache, nullptr, nullptr);
  ASSERT_EQ(B.Records.size(), 8u);
  EXPECT_EQ(B.Ok, 4u);
  EXPECT_EQ(B.CompileErrors, 1u);
  EXPECT_EQ(B.Invalid, 1u);
  EXPECT_EQ(B.Timeouts, 1u);
  EXPECT_EQ(B.RuntimeErrors, 1u);
  EXPECT_FALSE(B.allOk());

  // "a" and "b" share one fingerprint: a compiles cold, b shared.
  EXPECT_EQ(B.Records[0].Status, JobStatus::Ok);
  EXPECT_STREQ(B.Records[0].Compile, "cold");
  EXPECT_STREQ(B.Records[1].Compile, "shared");
  EXPECT_STREQ(B.Records[2].Compile, "cold") << "naive profile rekeys";
  EXPECT_TRUE(B.Records[0].HasReport);
  EXPECT_EQ(B.Records[0].Output, B.Records[1].Output);

  EXPECT_EQ(B.Records[3].Status, JobStatus::CompileError);
  EXPECT_FALSE(B.Records[3].Error.empty());
  EXPECT_EQ(B.Records[4].Status, JobStatus::Invalid);

  // The watchdog is deterministic: classified timeout, never retried.
  EXPECT_EQ(B.Records[5].Status, JobStatus::Timeout);
  EXPECT_EQ(B.Records[5].Attempts, 1u);
  EXPECT_NE(B.Records[5].Error.find("watchdog"), std::string::npos);

  // A permanent fault burns every retry then lands as a runtime error.
  EXPECT_EQ(B.Records[6].Status, JobStatus::RuntimeError);
  EXPECT_EQ(B.Records[6].Attempts, 3u);

  // Cache totals are a pure function of the job set: 4 distinct
  // fingerprints among the 7 valid jobs, so 4 misses and 3 hits.
  EXPECT_EQ(B.CacheMisses, 4u);
  EXPECT_EQ(B.CacheHits, 3u);
}

TEST(RunBatch, WorkerCountIsUnobservable) {
  // The acceptance bar: a mixed manifest (faults included) produces
  // byte-identical records, outputs, and normalized metric/trace exports
  // at -workers=1 and -workers=8.
  ArtifactCache C1, C8;
  observe::MetricsRegistry M1, M8;
  observe::TraceRecorder T1, T8;
  BatchResult B1 = runMixed(1, &C1, &M1, &T1);
  BatchResult B8 = runMixed(8, &C8, &M8, &T8);
  EXPECT_EQ(B1.resultsJsonl(), B8.resultsJsonl());
  EXPECT_EQ(M1.exportJson(), M8.exportJson());
  EXPECT_EQ(T1.exportJson(/*NormalizeWall=*/true),
            T8.exportJson(/*NormalizeWall=*/true));
  ASSERT_EQ(B1.Records.size(), B8.Records.size());
  for (size_t I = 0; I < B1.Records.size(); ++I) {
    EXPECT_EQ(B1.Records[I].Output, B8.Records[I].Output) << I;
    EXPECT_EQ(B1.Records[I].HasReport, B8.Records[I].HasReport) << I;
    if (B1.Records[I].HasReport) {
      EXPECT_EQ(B1.Records[I].Report.json(), B8.Records[I].Report.json())
          << I;
    }
  }
}

TEST(RunBatch, SharedCacheSurvivesBatches) {
  // A second batch over a warm cache: every good job reuses a resident
  // compilation ("shared"), and the new batch's miss delta is zero for
  // the repeated fingerprints.
  ArtifactCache Cache;
  BatchResult First = runMixed(4, &Cache, nullptr, nullptr);
  EXPECT_EQ(First.CacheMisses, 4u);
  BatchResult Second = runMixed(4, &Cache, nullptr, nullptr);
  EXPECT_EQ(Second.CacheMisses, 0u);
  EXPECT_EQ(Second.CacheHits, 7u);
  EXPECT_STREQ(Second.Records[0].Compile, "shared");
  EXPECT_STREQ(Second.Records[2].Compile, "shared");
  EXPECT_EQ(First.Records[0].Output, Second.Records[0].Output);
}

TEST(RunBatch, NullCacheCompilesPrivately) {
  BatchResult B = runMixed(4, nullptr, nullptr, nullptr);
  EXPECT_EQ(B.Ok, 4u);
  EXPECT_STREQ(B.Records[0].Compile, "private");
  EXPECT_STREQ(B.Records[1].Compile, "private");
  EXPECT_EQ(B.CacheHits, 0u);
  EXPECT_EQ(B.CacheMisses, 0u);
}

TEST(RunBatch, AdmissionControlShedsExcessJobs) {
  ArtifactCache Cache;
  ServeOptions Opts;
  Opts.Workers = 4;
  Opts.Cache = &Cache;
  Opts.QueueLimit = 3;
  BatchResult B = runBatch(parseManifest(mixedManifest(), ""), Opts);
  ASSERT_EQ(B.Records.size(), 8u);
  EXPECT_EQ(B.Admitted, 3u);
  EXPECT_EQ(B.Rejected, 5u);
  EXPECT_EQ(B.Ok, 3u) << "the first three jobs are the good ones";
  for (size_t I = 3; I < 8; ++I) {
    EXPECT_EQ(B.Records[I].Status, JobStatus::Rejected) << I;
    EXPECT_EQ(B.Records[I].Attempts, 0u) << "rejected jobs never execute";
    EXPECT_NE(B.Records[I].Error.find("admission"), std::string::npos);
  }
}

TEST(RunBatch, EmitsServeMetricsAndPerJobSpans) {
  ArtifactCache Cache;
  observe::MetricsRegistry M;
  observe::TraceRecorder T;
  BatchResult B = runMixed(4, &Cache, &M, &T);
  EXPECT_EQ(M.value("serve.jobs.total"), 8.0);
  EXPECT_EQ(M.value("serve.jobs.ok"), 4.0);
  EXPECT_EQ(M.value("serve.jobs.failed"), 2.0)
      << "compile errors + runtime errors";
  EXPECT_EQ(M.value("serve.jobs.timeout"), 1.0);
  EXPECT_EQ(M.value("serve.jobs.invalid"), 1.0);
  EXPECT_EQ(M.value("serve.jobs.retried"), 2.0)
      << "the permanent-fault job retried twice";
  EXPECT_EQ(M.value("serve.cache.misses"), 4.0);
  EXPECT_EQ(M.value("serve.cache.hits"), 3.0);
  EXPECT_EQ(M.value("serve.queue.depth"), 8.0);
  // One span per job plus the batch span.
  EXPECT_EQ(T.eventCount(), B.Records.size() + 1);
  const std::string Json = T.exportJson(/*NormalizeWall=*/true);
  EXPECT_NE(Json.find("\"job:a\""), std::string::npos);
  EXPECT_NE(Json.find("\"serve.batch\""), std::string::npos);
}

TEST(RunBatch, WritesPerJobArtifactsAndResults) {
  const std::string Dir = ::testing::TempDir() + "f90y_serve_out_test";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  ArtifactCache Cache;
  ServeOptions Opts;
  Opts.Workers = 4;
  Opts.Cache = &Cache;
  Opts.OutDir = Dir;
  BatchResult B = runBatch(parseManifest(mixedManifest(), ""), Opts);
  EXPECT_EQ(B.IoFailures, 0u);
  std::string Text;
  ASSERT_TRUE(support::readFile(Dir + "/results.jsonl", Text));
  EXPECT_EQ(Text, B.resultsJsonl());
  ASSERT_TRUE(support::readFile(Dir + "/a.out", Text));
  EXPECT_EQ(Text, B.Records[0].Output);
  ASSERT_TRUE(support::readFile(Dir + "/a.stats.json", Text));
  EXPECT_EQ(Text, B.Records[0].Report.json());
  ASSERT_TRUE(support::readFile(Dir + "/bad.err", Text));
  EXPECT_EQ(Text, B.Records[3].Error + "\n");
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// RoutineCache under concurrent engines (satellite regression)
//===----------------------------------------------------------------------===//

TEST(RoutineCacheStress, ConcurrentEnginesTranslateEachRoutineOnce) {
  // Eight Executions of one shared compilation, first-touching the
  // process routine cache simultaneously. Translation happens under the
  // cache lock, so the miss count equals the routine count exactly - no
  // duplicate translations, no torn map - and every run's output matches.
  const std::string Src = driver::sweSource(16, 2);
  auto Entry = compileEntry(Src, defaultOpts());
  ASSERT_TRUE(Entry->Ok);

  // Learn the routine count from a clean serial run.
  peac::RoutineCache &RC = peac::RoutineCache::process();
  RC.clear();
  const uint64_t Hits0 = RC.hits(), Misses0 = RC.misses();
  driver::ExecutionOptions EOpts;
  EOpts.Threads = 1;
  std::string Expected;
  {
    driver::Execution Exec(Entry->Comp->options().Costs, EOpts);
    auto Report = Exec.run(Entry->Comp->artifacts().Compiled.Program);
    ASSERT_TRUE(Report.has_value());
    Expected = Report->Output;
  }
  // The serial run's cache traffic: Routines distinct translations, and
  // one lookup per dispatch (a routine dispatched every timestep looks
  // up every time).
  const uint64_t Routines = RC.misses() - Misses0;
  const uint64_t LookupsPerRun =
      (RC.hits() - Hits0) + (RC.misses() - Misses0);
  ASSERT_GT(Routines, 0u);

  RC.clear();
  const uint64_t H1 = RC.hits(), M1 = RC.misses();
  constexpr int NumThreads = 8;
  std::vector<std::string> Outputs(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      driver::ExecutionOptions TO;
      TO.Threads = 1;
      driver::Execution Exec(Entry->Comp->options().Costs, TO);
      auto Report = Exec.run(Entry->Comp->artifacts().Compiled.Program);
      if (Report)
        Outputs[T] = Report->Output;
    });
  for (auto &T : Threads)
    T.join();
  for (const std::string &O : Outputs)
    EXPECT_EQ(O, Expected);
  EXPECT_EQ(RC.misses() - M1, Routines)
      << "each routine translated exactly once despite 8 racing engines";
  EXPECT_EQ((RC.hits() - H1) + (RC.misses() - M1),
            LookupsPerRun * NumThreads)
      << "every lookup was either the one translation or a hit";
}

} // namespace
