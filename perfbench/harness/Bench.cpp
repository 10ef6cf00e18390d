//===- perfbench/harness/Bench.cpp - harness entry point and plumbing -------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload W --seed N --seconds S --trace 0|1 --refs DIR
///            [--commit ID]
/// perfbench --regen-refs DIR
///
/// Runs one workload and prints its metrics, a configuration stamp, and
/// as the last line one JSON object {correct, attempted, failed, metrics}.
/// Exits 1 when any output check failed, 2 on bad arguments or missing
/// references. --regen-refs rebuilds the oracle references with the NIR
/// interpreter (about a minute).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Programs.h"

#include "observe/Json.h"
#include "peac/Engine.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>

using namespace perfbench;
using namespace f90y;
namespace js = f90y::observe::json;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, Unit, Value});
}

void Result::attempt(const std::string &Error) {
  ++Attempted;
  if (!Error.empty()) {
    ++Failed;
    Errors.push_back(Error);
  }
}

void Result::stamp(const std::string &Key, const std::string &JsonValue) {
  Config.emplace_back(Key, JsonValue);
}

void Result::print() const {
  for (const std::string &E : Errors)
    std::cout << "FAILED: " << E << "\n";
  const double ErrorRate =
      Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                : 0.0;
  for (const Metric &M : Metrics)
    std::printf("%-34s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("%-34s %16.6f %s (%llu of %llu failed)\n", "error_rate",
              ErrorRate, "fraction", static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  std::cout << "config {";
  for (size_t I = 0; I < Config.size(); ++I)
    std::cout << (I ? "," : "") << js::quote(Config[I].first) << ":"
              << Config[I].second;
  std::cout << "}\n";

  std::string Out = "{\"correct\":";
  Out += correct() ? "true" : "false";
  Out += ",\"attempted\":" + js::number(Attempted);
  Out += ",\"failed\":" + js::number(Failed);
  Out += ",\"metrics\":{";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    Out += I ? "," : "";
    Out += js::quote(Metrics[I].Name);
    Out += ":{\"value\":" + js::number(Metrics[I].Value);
    Out += ",\"unit\":" + js::quote(Metrics[I].Unit) + "}";
  }
  Out += "}}";
  std::cout << Out << std::endl;
}

driver::CompileOptions perfbench::pinnedCompileOptions(driver::Profile P,
                                                       unsigned Pes) {
  cm2::CostModel Machine;
  if (Pes)
    Machine.NumPEs = Pes;
  driver::CompileOptions O = driver::CompileOptions::forProfile(P, Machine);
  const bool F90Y = P == driver::Profile::F90Y;
  O.Transforms.CommSchedule = true; // -comm=overlap
  O.Transforms.Fusion = F90Y;       // -fuse=on under f90y only
  O.Transforms.Layout = F90Y;       // -layout=infer under f90y only
  return O;
}

driver::ExecutionOptions perfbench::pinnedExecOptions(unsigned Threads) {
  driver::ExecutionOptions E;
  E.Threads = Threads;
  E.OverlapComm = true;
  E.Engine = peac::EngineKind::Compiled;
  return E;
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  auto Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

void perfbench::printSamples(const char *Name, const std::vector<double> &V) {
  std::printf("samples %-14s n=%zu min=%.6g p10=%.6g median=%.6g max=%.6g\n",
              Name, V.size(), percentile(V, 0), percentile(V, 10), median(V),
              percentile(V, 100));
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double perfbench::calibrated(double Seconds, double CalSeconds,
                             unsigned Threads) {
  // The kernel's median time on an idle 2.1 GHz Xeon host (4 vCPUs): at
  // more threads the copies share the memory system and take longer.
  constexpr double Nominal1 = 0.035, NominalMt = 0.055;
  return Seconds / CalSeconds * (Threads == 1 ? Nominal1 : NominalMt);
}

double perfbench::routineCacheHitRatio() {
  const peac::RoutineCache &C = peac::RoutineCache::process();
  const double Lookups = static_cast<double>(C.hits() + C.misses());
  return Lookups > 0 ? static_cast<double>(C.hits()) / Lookups : 0.0;
}

void perfbench::reportLayers(Result &R, const StageTimes &Stages,
                             const ExecuteSplit &Split, double PoolSpeedup,
                             double TraceOverhead, double PeacCacheHitRatio,
                             const ServeLayers &Serve) {
  R.metric("compile_ms", Stages.totalUs() / 1e3, "ms");
  R.metric("frontend.lex_us", Stages.LexUs, "us");
  R.metric("frontend.parse_us", Stages.ParseUs, "us");
  R.metric("frontend.integrate_us", Stages.IntegrateUs, "us");
  R.metric("lower.us", Stages.LowerUs, "us");
  for (const char *Pass : {"extract-comm", "mask-sections", "fuse", "layout",
                           "block-domains", "comm-schedule", "verify"}) {
    auto It = Stages.PassUs.find(Pass);
    R.metric(std::string("transform.") + Pass + ".us",
             It == Stages.PassUs.end() ? 0.0 : It->second, "us");
  }
  R.metric("backend.us", Stages.BackendUs, "us");
  R.metric("backend.peac_instructions",
           static_cast<double>(Stages.PeacInstructions), "count");

  R.metric("host.self_ms", Split.HostSelfMs, "ms");
  for (const char *Op : {"cshift", "multi-shift", "eoshift", "transpose",
                         "section-copy", "spread", "reduce-dim", "reduce"}) {
    auto It = Split.Comm.find(Op);
    const OpTime T = It == Split.Comm.end() ? OpTime{} : It->second;
    const std::string P = std::string("runtime.") + Op;
    R.metric(P + ".ms", T.Ms, "ms");
    R.metric(P + ".calls", static_cast<double>(T.Calls), "count");
    R.metric(P + ".ns_per_elem", T.Elems > 0 ? T.Ms * 1e6 / T.Elems : 0.0,
             "ns");
  }
  R.metric("peac.dispatch.ms", Split.Peac.Ms, "ms");
  R.metric("peac.dispatch.calls", static_cast<double>(Split.Peac.Calls),
           "count");
  R.metric("peac.ns_per_elem",
           Split.Peac.Elems > 0 ? Split.Peac.Ms * 1e6 / Split.Peac.Elems : 0.0,
           "ns");
  R.metric("peac.cache.hit_ratio", PeacCacheHitRatio, "fraction");
  R.metric("pool.parallel_for.calls", static_cast<double>(Split.ParallelFors),
           "count");
  R.metric("pool.speedup", PoolSpeedup, "x");

  const char *Sim[5] = {"node", "call", "comm", "host", "overlapped"};
  for (int I = 0; I < 5; ++I)
    R.metric(std::string("sim.") + Sim[I] + "_cycles", Split.SimCycles[I],
             "cycles");

  R.metric("serve.jobs_per_s", Serve.JobsPerS, "jobs/s");
  R.metric("serve.job_ms.p50", Serve.P50Ms, "ms");
  R.metric("serve.job_ms.p99", Serve.P99Ms, "ms");
  R.metric("serve.cache.hit_ratio", Serve.CacheHitRatio, "fraction");
  R.metric("serve.compiles", Serve.Compiles, "count");
  R.metric("serve.job_ms.cold_p50", Serve.ColdP50Ms, "ms");
  R.metric("serve.job_ms.shared_p50", Serve.SharedP50Ms, "ms");
  R.metric("serve.compile_share", Serve.CompileShare, "fraction");
  R.metric("observe.trace_overhead", TraceOverhead, "x");
}

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload swe|mswe|gridops|serve_mix "
               "--seed N --seconds S --trace 0|1 --refs DIR [--commit ID]\n"
               "       perfbench --regen-refs DIR\n";
  return 2;
}

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos ||
      S.size() > 19)
    return false;
  Out = std::stoull(S);
  return true;
}

int regenerate(const std::string &Dir) {
  std::vector<Program> All = {sweWorkload(), msweWorkload()};
  for (unsigned V = 0; V < GridopsVariants; ++V)
    All.push_back(gridopsWorkload(V));
  for (Program &P : serveCatalogue())
    All.push_back(std::move(P));
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  for (const auto &E : std::filesystem::directory_iterator(Dir, EC))
    if (E.path().extension() == ".json")
      std::filesystem::remove(E.path(), EC);
  const RefStore Store(Dir);
  for (const Program &P : All) {
    std::string Error;
    auto Ref = computeReference(P.Source, Error);
    if (!Ref) {
      std::cerr << P.Name << ": " << Error << "\n";
      return 1;
    }
    std::cerr << "reference " << P.Name << ": " << Ref->Flops << " flops, "
              << Ref->Fields.size() << " fields\n";
    if (!Store.save(P.Name, *Ref)) {
      std::cerr << "cannot write the reference of " << P.Name << " in " << Dir
                << "\n";
      return 1;
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Context Ctx;
  std::string RefsPath, RegenPath, Commit = "unknown";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const std::string V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      Ctx.Workload = V;
    } else if (A == "--seed" && parseU64(V, N)) {
      Ctx.Seed = N;
      HaveSeed = true;
    } else if (A == "--seconds" && parseU64(V, N) && N >= 1 && N <= 600) {
      Ctx.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (A == "--trace" && (V == "0" || V == "1")) {
      Ctx.Trace = V == "1";
      HaveTrace = true;
    } else if (A == "--refs") {
      RefsPath = V;
    } else if (A == "--regen-refs") {
      RegenPath = V;
    } else if (A == "--commit") {
      Commit = V;
    } else {
      return usage();
    }
  }
  if (!RegenPath.empty())
    return regenerate(RegenPath);
  if (!HaveSeed || !HaveSeconds || !HaveTrace || RefsPath.empty())
    return usage();

  if (!std::filesystem::is_directory(RefsPath)) {
    std::cerr << "perfbench: no reference directory " << RefsPath << "\n";
    return 2;
  }
  const RefStore Refs(RefsPath);
  Ctx.Refs = &Refs;
  const unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  Ctx.ThreadsMt = std::min(4u, NProc);

  Result R;
  R.stamp("workload", js::quote(Ctx.Workload));
  R.stamp("seed", js::number(Ctx.Seed));
  R.stamp("seconds", js::number(Ctx.Seconds));
  R.stamp("trace", Ctx.Trace ? "true" : "false");
  R.stamp("threads", "[1," + js::number(uint64_t(Ctx.ThreadsMt)) + "]");
  R.stamp("nproc", js::number(uint64_t(NProc)));
  R.stamp("build_type", js::quote(PERFBENCH_BUILD_TYPE));
  R.stamp("commit", js::quote(Commit));
  if (Ctx.Workload == "swe" || Ctx.Workload == "mswe" ||
      Ctx.Workload == "gridops")
    runExec(Ctx, R);
  else if (Ctx.Workload == "serve_mix")
    runServeMix(Ctx, R);
  else
    return usage();
  R.print();
  return R.correct() ? 0 : 1;
}
