//===- tools/f90y-serve.cpp - batch compile-and-run service ------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// f90y-serve: run a batch of compile-and-run jobs concurrently over one
/// process-shared artifact cache.
///
///   f90y-serve -jobs=FILE [options]
///
///   -jobs=FILE       line-delimited JSON job manifest (one job object per
///                    line; '#' comments and blank lines skipped; relative
///                    "source_path" entries resolve against the manifest's
///                    directory)
///   -workers=N       concurrent job workers (default: all hardware
///                    threads; results are byte-identical at any N)
///   -out=DIR         write per-job artifacts (<id>.out, <id>.stats.json
///                    on success, <id>.err on failure) and the batch
///                    results.jsonl into DIR (created if missing)
///   -queue-limit=N   admission control: jobs past the first N are shed
///                    with "rejected" records (default: unlimited)
///   -no-cache        disable the shared artifact cache (every job
///                    compiles privately; the cold baseline)
///   -stats-json=FILE write the batch report (job/cache/queue counts,
///                    wall-clock throughput) to FILE as JSON
///   -metrics=FILE    write the serve.* metrics registry to FILE as JSON
///   -trace=FILE      record one wall span per job (plus the batch span)
///                    and write Chrome trace-event JSON to FILE. Spans are
///                    coordinator-side summary records emitted in manifest
///                    order with normalized timestamps, so the file is
///                    byte-identical at any -workers=N (wall timings live
///                    in -stats-json)
///
/// The per-job results (results.jsonl payload) stream to stdout; the
/// batch summary prints to stderr.
///
/// Exit codes: 0 every job ok, 1 infrastructure/IO error, 2 bad usage,
/// 4 partial failure (the batch ran, but at least one job did not end ok).
///
//===----------------------------------------------------------------------===//

#include "driver/Config.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "serve/Scheduler.h"
#include "support/FileIO.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

using namespace f90y;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: f90y-serve -jobs=FILE [options]\n"
               "  -workers=N   -out=DIR   -queue-limit=N   -no-cache\n"
               "  -stats-json=FILE   -metrics=FILE   -trace=FILE\n");
}

} // namespace

int main(int argc, char **argv) {
  std::string JobsPath, OutDir, StatsJsonPath, MetricsPath, TracePath;
  serve::ServeOptions Opts;
  bool UseCache = true;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Error;
    bool Ok = true;
    if (Arg.rfind("-jobs=", 0) == 0) {
      JobsPath = Arg.substr(6);
      if (JobsPath.empty()) {
        std::fprintf(stderr, "f90y-serve: -jobs needs a file name\n");
        return 2;
      }
    } else if (Arg.rfind("-workers=", 0) == 0) {
      uint64_t Workers = 0;
      Ok = driver::parseNumber("-workers", Arg.substr(9), 1, UINT32_MAX,
                               Workers, Error);
      Opts.Workers = static_cast<unsigned>(Workers);
    } else if (Arg.rfind("-out=", 0) == 0) {
      OutDir = Arg.substr(5);
      if (OutDir.empty()) {
        std::fprintf(stderr, "f90y-serve: -out needs a directory name\n");
        return 2;
      }
    } else if (Arg.rfind("-queue-limit=", 0) == 0) {
      uint64_t Limit = 0;
      Ok = driver::parseNumber("-queue-limit", Arg.substr(13), 1, SIZE_MAX,
                               Limit, Error);
      Opts.QueueLimit = static_cast<size_t>(Limit);
    } else if (Arg == "-no-cache") {
      UseCache = false;
    } else if (Arg.rfind("-stats-json=", 0) == 0) {
      StatsJsonPath = Arg.substr(12);
      if (StatsJsonPath.empty()) {
        std::fprintf(stderr, "f90y-serve: -stats-json needs a file name\n");
        return 2;
      }
    } else if (Arg.rfind("-metrics=", 0) == 0) {
      MetricsPath = Arg.substr(9);
      if (MetricsPath.empty()) {
        std::fprintf(stderr, "f90y-serve: -metrics needs a file name\n");
        return 2;
      }
    } else if (Arg.rfind("-trace=", 0) == 0) {
      TracePath = Arg.substr(7);
      if (TracePath.empty()) {
        std::fprintf(stderr, "f90y-serve: -trace needs a file name\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "f90y-serve: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
    if (!Ok) {
      std::fprintf(stderr, "f90y-serve: %s\n", Error.c_str());
      return 2;
    }
  }
  if (JobsPath.empty()) {
    usage();
    return 2;
  }

  std::string ManifestText;
  std::string Error;
  if (!support::readFile(JobsPath, ManifestText, &Error)) {
    std::fprintf(stderr, "f90y-serve: %s\n", Error.c_str());
    return 1;
  }
  std::string BaseDir =
      std::filesystem::path(JobsPath).parent_path().string();
  std::vector<serve::JobSpec> Jobs =
      serve::parseManifest(ManifestText, BaseDir);
  if (Jobs.empty()) {
    std::fprintf(stderr, "f90y-serve: manifest '%s' contains no jobs\n",
                 JobsPath.c_str());
    return 2;
  }

  if (!OutDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(OutDir, EC);
    if (EC) {
      std::fprintf(stderr, "f90y-serve: cannot create '%s': %s\n",
                   OutDir.c_str(), EC.message().c_str());
      return 1;
    }
  }

  serve::ArtifactCache Cache;
  observe::MetricsRegistry Metrics;
  observe::TraceRecorder Trace;
  Opts.OutDir = OutDir;
  Opts.Cache = UseCache ? &Cache : nullptr;
  Opts.Metrics = MetricsPath.empty() ? nullptr : &Metrics;
  Opts.Trace = TracePath.empty() ? nullptr : &Trace;

  const auto Start = std::chrono::steady_clock::now();
  serve::BatchResult B = serve::runBatch(std::move(Jobs), Opts);
  const double WallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - Start)
                            .count();

  std::fputs(B.resultsJsonl().c_str(), stdout);
  std::fprintf(stderr,
               "f90y-serve: %zu jobs in %.1f ms: ok %llu, invalid %llu, "
               "compile-error %llu, runtime-error %llu, timeout %llu, "
               "rejected %llu (retries %llu; cache %llu hits / %llu "
               "misses)\n",
               B.Records.size(), WallMs,
               static_cast<unsigned long long>(B.Ok),
               static_cast<unsigned long long>(B.Invalid),
               static_cast<unsigned long long>(B.CompileErrors),
               static_cast<unsigned long long>(B.RuntimeErrors),
               static_cast<unsigned long long>(B.Timeouts),
               static_cast<unsigned long long>(B.Rejected),
               static_cast<unsigned long long>(B.Retried),
               static_cast<unsigned long long>(B.CacheHits),
               static_cast<unsigned long long>(B.CacheMisses));
  for (const serve::JobRecord &R : B.Records)
    if (!R.IoError.empty())
      std::fprintf(stderr, "f90y-serve: job '%s': %s\n", R.Id.c_str(),
                   R.IoError.c_str());

  bool IoOk = B.IoFailures == 0;
  if (!StatsJsonPath.empty() &&
      !support::atomicWriteFile(StatsJsonPath, B.statsJson(WallMs),
                                &Error)) {
    std::fprintf(stderr, "f90y-serve: cannot write '%s': %s\n",
                 StatsJsonPath.c_str(), Error.c_str());
    IoOk = false;
  }
  if (!MetricsPath.empty() &&
      !support::atomicWriteFile(MetricsPath, Metrics.exportJson(), &Error)) {
    std::fprintf(stderr, "f90y-serve: cannot write '%s': %s\n",
                 MetricsPath.c_str(), Error.c_str());
    IoOk = false;
  }
  if (!TracePath.empty() &&
      !support::atomicWriteFile(TracePath,
                                Trace.exportJson(/*NormalizeWall=*/true),
                                &Error)) {
    std::fprintf(stderr, "f90y-serve: cannot write '%s': %s\n",
                 TracePath.c_str(), Error.c_str());
    IoOk = false;
  }

  if (!IoOk)
    return 1;
  return B.allOk() ? 0 : 4;
}
