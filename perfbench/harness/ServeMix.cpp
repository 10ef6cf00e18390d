//===- perfbench/harness/ServeMix.cpp - the serve_mix workload --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded stream of small compile-and-run jobs through f90y-serve's
/// scheduler. The stream is stratified so its cost mix is the same at
/// every seed: each distinct (program, profile, PE count) appears exactly
/// twice, once compiling and once repeating the earlier (source, options)
/// pair. The seed sets the order and which gridops variant each
/// combination uses. Every job spells out profile,
/// fuse, layout, comm, exec and threads, so no default decides what runs.
///
/// A pass runs the whole stream against a fresh serve::ArtifactCache with
/// closed-loop client threads, each submitting one-job serve::runBatch
/// calls. exec_s is a pass with 1 client, exec_s_mt one with min(4,
/// nproc) clients. Before timing, each distinct (source, options) pair is
/// compiled and run once outside serve and checked against the oracle;
/// every job's output and ledger must then equal that run's bit for bit.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Programs.h"

#include "observe/Json.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "peac/Engine.h"
#include "serve/Scheduler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <random>
#include <thread>

using namespace perfbench;
using namespace f90y;
namespace js = f90y::observe::json;

namespace {

constexpr size_t MinPasses = 3;
/// Set-up samples taken before each 1-client pass.
constexpr size_t SetupBlock = 5;
constexpr size_t WindowPairs = 64;
static_assert(serve::ArtifactCache::MaxEntries % WindowPairs == 0,
              "a cache reset must fall between windows");
constexpr unsigned ServePes[3] = {16, 32, 64};

struct Profile {
  driver::Profile P;
  const char *Name;
};
constexpr Profile Profiles[3] = {{driver::Profile::F90Y, "f90y"},
                                 {driver::Profile::CMFStyle, "cmf"},
                                 {driver::Profile::Naive, "naive"}};

/// The generated stream: the manifest text and, per job, the program it
/// runs (its oracle-reference key) and its pinned configuration.
struct Stream {
  std::string Manifest;
  std::vector<std::string> ProgramOf;
  std::vector<const Profile *> ProfileOf;
  std::vector<unsigned> PesOf;
};

Stream generateStream(uint64_t Seed) {
  struct Combo {
    Kind K;
    int64_t N, Steps;
    const Profile *Prof;
    unsigned Pes;
    unsigned Variant;
  };
  // Every distinct (program, profile, PEs) once: the figure 9 and 10
  // programs have a fixed size and figure 12 no timestep loop, so they
  // are not multiplied by the grids or steps they ignore.
  std::mt19937_64 Rng(Seed);
  std::vector<Combo> Distinct;
  for (Kind K : ServeKinds) {
    const bool Sized = K != Kind::Fig9 && K != Kind::Fig10;
    const bool Stepped = Sized && K != Kind::Fig12;
    for (int64_t N : ServeGrids) {
      for (int64_t S : ServeSteps) {
        for (const Profile &P : Profiles)
          for (unsigned Pes : ServePes)
            Distinct.push_back(
                {K, N, S, &P, Pes,
                 static_cast<unsigned>(Rng() % ServeGridopsVariants)});
        if (!Stepped)
          break;
      }
      if (!Sized)
        break;
    }
  }
  // Each pair runs twice, both times within one window of WindowPairs
  // pairs: the artifact cache empties itself when it would pass
  // ArtifactCache::MaxEntries, a multiple of the window, so every repeat
  // finds its compilation and half the jobs compile.
  std::shuffle(Distinct.begin(), Distinct.end(), Rng);
  std::vector<Combo> Jobs;
  for (size_t W = 0; W < Distinct.size(); W += WindowPairs) {
    const size_t End = std::min(Distinct.size(), W + WindowPairs);
    const size_t First = Jobs.size();
    for (size_t I = W; I < End; ++I) {
      Jobs.push_back(Distinct[I]);
      Jobs.push_back(Distinct[I]);
    }
    std::shuffle(Jobs.begin() + static_cast<std::ptrdiff_t>(First), Jobs.end(),
                 Rng);
  }

  Stream St;
  std::map<std::string, std::string> Quoted; // program -> quoted source
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const Combo &C = Jobs[I];
    Program Prog = makeProgram(C.K, C.N, C.Steps, C.Variant);
    auto [It, Fresh] = Quoted.try_emplace(Prog.Name);
    if (Fresh)
      It->second = js::quote(Prog.Source);
    const bool F90Y = C.Prof->P == driver::Profile::F90Y;
    St.Manifest += "{\"id\":\"job" + std::to_string(I + 1) +
                   "\",\"profile\":\"" + C.Prof->Name +
                   "\",\"pes\":" + std::to_string(C.Pes) +
                   ",\"threads\":1,\"exec\":\"compiled\",\"comm\":\"overlap\""
                   ",\"fuse\":\"" + (F90Y ? "on" : "off") +
                   "\",\"layout\":\"" + (F90Y ? "infer" : "canonical") +
                   "\",\"source\":" + It->second + "}\n";
    St.ProgramOf.push_back(Prog.Name);
    St.ProfileOf.push_back(C.Prof);
    St.PesOf.push_back(C.Pes);
  }
  return St;
}

/// One distinct (source, options) pair and what every job running it must
/// reproduce.
struct Pair {
  size_t FirstJob = 0;
  driver::CompileOptions Opts;
  const ProgramRef *Ref = nullptr;
  std::string Output;
  double Cycles = 0;
  double SimSeconds = 0;
};

struct PassResult {
  double WallS = 0;
  std::vector<double> LatMs;
  std::vector<char> Cold; // Not vector<bool>: clients write it concurrently.
  uint64_t Hits = 0, Misses = 0;
};

} // namespace

void perfbench::runServeMix(const Context &Ctx, Result &R) {
  R.stamp("program", "\"serve_mix\"");
  R.stamp("clients", "[1," + js::number(uint64_t(Ctx.ThreadsMt)) + "]");
  R.stamp("grids", "[8,16,24,32]");
  R.stamp("steps", "[1,2]");
  R.stamp("pes", "[16,32,64]");
  R.stamp("profiles", "[\"f90y\",\"cmf\",\"naive\"]");
  R.stamp("comm", "\"overlap\"");
  R.stamp("exec", "\"compiled\"");
  R.stamp("fuse_layout",
          "{\"f90y\":[\"on\",\"infer\"],\"cmf\":[\"off\",\"canonical\"],"
          "\"naive\":[\"off\",\"canonical\"]}");
  const Clock::time_point Start = Clock::now();

  // Set-up: job-stream generation plus manifest parsing. Repeated in a
  // block before every timed 1-client pass, so the samples span the run,
  // and calibrated with that pass.
  std::vector<double> SetupS;
  Stream St;
  std::vector<serve::JobSpec> Jobs;
  auto setup = [&] {
    const Clock::time_point T0 = Clock::now();
    St = generateStream(Ctx.Seed);
    Jobs = serve::parseManifest(St.Manifest, "");
    return secondsSince(T0);
  };
  setup();
  R.stamp("jobs", js::number(uint64_t(Jobs.size())));
  for (const serve::JobSpec &J : Jobs)
    if (!J.Valid) {
      R.attempt("manifest: " + J.ParseError);
      return;
    }

  // Distinct (source, options) pairs, keyed like the artifact cache.
  std::map<uint64_t, Pair> Pairs;
  std::vector<uint64_t> KeyOf(Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    driver::CompileOptions O =
        pinnedCompileOptions(St.ProfileOf[I]->P, St.PesOf[I]);
    KeyOf[I] = serve::ArtifactCache::fingerprint(Jobs[I].Source, O);
    auto [It, Fresh] = Pairs.try_emplace(KeyOf[I]);
    if (Fresh) {
      It->second.FirstJob = I;
      It->second.Opts = O;
      It->second.Ref = Ctx.Refs->find(St.ProgramOf[I]);
      if (!It->second.Ref) {
        R.attempt("no oracle reference for " + St.ProgramOf[I]);
        return;
      }
    }
  }
  R.stamp("distinct_pairs", js::number(uint64_t(Pairs.size())));

  // Verification: compile and run each pair outside serve; check it
  // against the oracle and the multi-thread run against the 1-thread one.
  for (auto &[Key, Pr] : Pairs) {
    const std::string &Name = St.ProgramOf[Pr.FirstJob];
    driver::Compilation C(Pr.Opts);
    if (!C.compile(Jobs[Pr.FirstJob].Source)) {
      R.attempt(Name + ": compile failed: " + C.diags().str());
      return;
    }
    const host::HostProgram &Prog = C.artifacts().Compiled.Program;
    peac::ExecutionEngine(peac::EngineKind::Compiled).warmup(Prog.Routines);
    uint64_t Digest1 = 0;
    for (unsigned Threads : {1u, Ctx.ThreadsMt}) {
      driver::Execution E(Pr.Opts.Costs, pinnedExecOptions(Threads));
      auto Rep = E.run(Prog);
      if (!Rep) {
        R.attempt(Name + ": run failed: " + E.diags().str());
        return;
      }
      const uint64_t D = runDigest(E, *Rep, *Pr.Ref);
      if (Threads == 1) {
        Digest1 = D;
        Pr.Output = Rep->Output;
        Pr.Cycles = Rep->Ledger.total();
        Pr.SimSeconds = Rep->seconds();
        std::string Err = checkRun(E, *Rep, *Pr.Ref);
        R.attempt(Err.empty() ? "" : Name + ": " + Err);
      } else {
        R.attempt(D == Digest1 ? ""
                               : Name + ": multi-thread run differs from "
                                        "the 1-thread run");
      }
    }
  }
  if (!R.correct())
    return;

  // Useful flops over simulated seconds, summed over the stream's jobs.
  double Flops = 0, SimS = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const Pair &Pr = Pairs.at(KeyOf[I]);
    Flops += static_cast<double>(Pr.Ref->Flops);
    SimS += Pr.SimSeconds;
  }

  auto runPass = [&](unsigned Clients) {
    serve::ArtifactCache Cache;
    serve::ServeOptions Opts;
    Opts.Workers = 1;
    Opts.Cache = &Cache;
    PassResult P;
    P.LatMs.assign(Jobs.size(), 0);
    P.Cold.assign(Jobs.size(), false);
    std::vector<std::string> Errors(Jobs.size());
    std::atomic<size_t> Next{0};
    auto client = [&] {
      for (size_t I; (I = Next.fetch_add(1)) < Jobs.size();) {
        const Clock::time_point T0 = Clock::now();
        serve::BatchResult B = serve::runBatch({Jobs[I]}, Opts);
        P.LatMs[I] = secondsSince(T0) * 1e3;
        const serve::JobRecord &Rec = B.Records.front();
        const Pair &Pr = Pairs.at(KeyOf[I]);
        P.Cold[I] = std::string(Rec.Compile) == "cold";
        if (Rec.Status != serve::JobStatus::Ok)
          Errors[I] = std::string(serve::jobStatusName(Rec.Status)) + ": " +
                      Rec.Error;
        else if (Rec.Output != Pr.Output || Rec.Report.Ledger.total() !=
                                                Pr.Cycles)
          Errors[I] = "result differs from the verified run";
      }
    };
    const Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back(client);
    for (std::thread &T : Threads)
      T.join();
    P.WallS = secondsSince(T0);
    P.Hits = Cache.hits();
    P.Misses = Cache.misses();
    for (size_t I = 0; I < Jobs.size(); ++I)
      R.attempt(Errors[I].empty() ? ""
                                  : Jobs[I].Id + " (" + St.ProgramOf[I] +
                                        "): " + Errors[I]);
    return P;
  };

  // Pass walls as measured (Raw*) and calibrated by the mean of a
  // calibration at the pass's client count just before and just after it
  // (see Calibrate.cpp).
  std::vector<double> Pass1S, PassMtS, Raw1S, RawMtS, LatMs, ColdMs, SharedMs;
  PassResult LastMt;
  auto timedPair = [&] {
    PassResult M;
    const double CalMt =
        bracketed(Ctx.ThreadsMt, [&] { M = runPass(Ctx.ThreadsMt); });
    RawMtS.push_back(M.WallS);
    PassMtS.push_back(calibrated(M.WallS, CalMt, Ctx.ThreadsMt));
    for (size_t I = 0; I < M.LatMs.size(); ++I) {
      LatMs.push_back(M.LatMs[I]);
      (M.Cold[I] ? ColdMs : SharedMs).push_back(M.LatMs[I]);
    }
    LastMt = std::move(M);
    PassResult One;
    double Setup[SetupBlock];
    const double Cal1 = bracketed(1, [&] {
      for (double &S : Setup)
        S = setup();
      One = runPass(1);
    });
    for (double S : Setup)
      SetupS.push_back(calibrated(S, Cal1, 1));
    Raw1S.push_back(One.WallS);
    Pass1S.push_back(calibrated(One.WallS, Cal1, 1));
    if (Cal1 <= 0 || CalMt <= 0)
      R.attempt("calibration kernel failed");
    // One client meets every repeat after its first job has compiled.
    R.attempt(One.Misses == Pairs.size() && One.Hits == One.Misses
                  ? ""
                  : "1-client pass compiled " + std::to_string(One.Misses) +
                        " times for " + std::to_string(Pairs.size()) +
                        " distinct pairs");
  };
  const double JobCount = static_cast<double>(Jobs.size());
  auto serveLayers = [&] {
    ServeLayers S;
    S.JobsPerS = JobCount / median(RawMtS);
    S.P50Ms = median(LatMs);
    S.P99Ms = percentile(LatMs, 99);
    S.ColdP50Ms = median(ColdMs);
    S.SharedP50Ms = median(SharedMs);
    const double Lookups = static_cast<double>(LastMt.Hits + LastMt.Misses);
    S.CacheHitRatio =
        Lookups > 0 ? static_cast<double>(LastMt.Hits) / Lookups : 0.0;
    S.Compiles = static_cast<double>(LastMt.Misses);
    return S;
  };

  if (!Ctx.Trace) {
    // Peak RSS after a fixed amount of work, an untimed warm-up pass at
    // each client count: later passes add allocator fragmentation that
    // depends on how many passes the time allowed, and the calibration
    // kernel's grids are not the program's.
    runPass(Ctx.ThreadsMt);
    runPass(1);
    const double PeakRssMb = peakRssMb();
    while ((Pass1S.size() < MinPasses || secondsSince(Start) < Ctx.Seconds) &&
           R.correct())
      timedPair();
    const ServeLayers S = serveLayers();
    printSamples("setup_s", SetupS);
    printSamples("exec_s", Pass1S);
    printSamples("exec_s_mt", PassMtS);
    printSamples("raw exec_s", Raw1S);
    printSamples("raw exec_s_mt", RawMtS);
    R.metric("setup_s", median(SetupS), "s");
    R.metric("exec_s", median(Pass1S), "s");
    R.metric("exec_s_mt", median(PassMtS), "s");
    R.metric("sim_gflops", Flops / SimS / 1e9, "GFLOPS");
    R.metric("peak_rss_mb", PeakRssMb, "MB");
    std::printf("serve: %.1f jobs/s with %u clients; job latency p50 %.3f ms, "
                "p99 %.3f ms over %zu jobs (cold p50 %.3f ms, shared p50 "
                "%.3f ms); artifact-cache hit ratio %.3f, %zu distinct "
                "pairs in %zu jobs\n",
                S.JobsPerS, Ctx.ThreadsMt, S.P50Ms, S.P99Ms, LatMs.size(),
                S.ColdP50Ms, S.SharedP50Ms, S.CacheHitRatio, Pairs.size(),
                Jobs.size());
    R.stamp("passes", js::number(uint64_t(Pass1S.size())));
    return;
  }

  // Traced run: every distinct pair compiled stage by stage and executed
  // once traced, serially and outside serve; then serve passes for the
  // cache and latency figures.
  StageTimes Stages;
  ExecuteSplit Split;
  double Exec1Total = 0, TracedTotal = 0;
  for (auto &[Key, Pr] : Pairs) {
    const std::string &Name = St.ProgramOf[Pr.FirstJob];
    const std::string &Source = Jobs[Pr.FirstJob].Source;
    std::string Error;
    auto T = timeStages(Source, Pr.Opts, Error);
    if (!T) {
      R.attempt(Name + ": staged compile failed: " + Error);
      return;
    }
    Stages.add(*T);
    // An untraced and a traced 1-thread run, back to back on one warm
    // compilation, so the overhead ratio compares like with like.
    driver::Compilation C(Pr.Opts);
    C.compile(Source);
    const host::HostProgram &Prog = C.artifacts().Compiled.Program;
    peac::ExecutionEngine(peac::EngineKind::Compiled).warmup(Prog.Routines);
    {
      driver::Execution U(Pr.Opts.Costs, pinnedExecOptions(1));
      const Clock::time_point T0 = Clock::now();
      auto Rep = U.run(Prog);
      Exec1Total += secondsSince(T0);
      R.attempt(Rep && Rep->Output == Pr.Output &&
                        Rep->Ledger.total() == Pr.Cycles
                    ? ""
                    : Name + ": rerun differs from the verified run");
    }
    observe::TraceRecorder Trace;
    observe::MetricsRegistry Metrics;
    driver::ExecutionOptions EO = pinnedExecOptions(1);
    EO.Trace = &Trace;
    EO.Metrics = &Metrics;
    driver::Execution E(Pr.Opts.Costs, EO);
    const Clock::time_point T0 = Clock::now();
    auto Rep = E.run(Prog);
    TracedTotal += secondsSince(T0);
    ExecuteSplit S;
    if (!Rep)
      Error = "traced run failed: " + E.diags().str();
    else if (Rep->Output != Pr.Output || Rep->Ledger.total() != Pr.Cycles)
      Error = "traced run differs from the untraced run";
    else if (!joinExecute(Trace, S, Error))
      Error = "trace join: " + Error;
    else if (std::string A = checkAttribution(S, Metrics); !A.empty())
      Error = "attribution: " + A;
    R.attempt(Error.empty() ? "" : Name + ": " + Error);
    if (!Error.empty())
      return;
    const runtime::CycleLedger &L = Rep->Ledger;
    const double Sim[5] = {L.NodeCycles, L.CallCycles, L.CommCycles,
                           L.HostCycles, L.OverlappedCycles};
    std::copy(Sim, Sim + 5, S.SimCycles);
    Split.add(S);
  }
  StageTimes PerCompile = Stages; // Per compile, like the other workloads.
  PerCompile.scale(1.0 / static_cast<double>(Pairs.size()));

  while (Pass1S.empty() || (secondsSince(Start) < Ctx.Seconds && R.correct()))
    timedPair();
  ServeLayers S = serveLayers();
  const double CompileUs = Stages.totalUs();
  S.CompileShare = CompileUs / (CompileUs + Exec1Total * 1e6);
  std::printf("serve_mix job split over %zu distinct pairs: compile stages "
              "%.1f ms, execute %.1f ms (%.1f%% compile)\n",
              Pairs.size(), CompileUs / 1e3, Exec1Total * 1e3,
              100 * S.CompileShare);
  reportLayers(R, PerCompile, Split, median(Raw1S) / median(RawMtS),
               TracedTotal / Exec1Total, routineCacheHitRatio(), S);
}
