//===- serve/Scheduler.cpp - concurrent batch execution ----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"

#include "observe/Json.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "support/FileIO.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <map>

using namespace f90y;
using namespace f90y::serve;
namespace js = f90y::observe::json;

const char *serve::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::Invalid:
    return "invalid";
  case JobStatus::CompileError:
    return "compile-error";
  case JobStatus::RuntimeError:
    return "runtime-error";
  case JobStatus::Timeout:
    return "timeout";
  case JobStatus::Rejected:
    return "rejected";
  }
  return "unknown";
}

namespace {

std::string trimmed(std::string S) {
  while (!S.empty() && (S.back() == '\n' || S.back() == ' ' ||
                        S.back() == '\t'))
    S.pop_back();
  return S;
}

/// Job ids become file names; anything outside the portable set maps to
/// '_' (ids were already uniquified, so collisions after sanitization
/// would require deliberately adversarial ids - acceptable for a batch
/// tool whose manifest the operator writes).
std::string sanitizeId(const std::string &Id) {
  std::string Out = Id;
  for (char &C : Out)
    if (!(C == '.' || C == '_' || C == '-' || (C >= '0' && C <= '9') ||
          (C >= 'A' && C <= 'Z') || (C >= 'a' && C <= 'z')))
      C = '_';
  return Out;
}

void writeJobFiles(JobRecord &R, const ServeOptions &O) {
  if (O.OutDir.empty())
    return;
  const std::string Base = O.OutDir + "/" + sanitizeId(R.Id);
  std::string Error;
  if (R.Status == JobStatus::Ok) {
    if (!support::atomicWriteFile(Base + ".out", R.Output, &Error) ||
        !support::atomicWriteFile(Base + ".stats.json", R.Report.json(),
                                  &Error))
      R.IoError = Error;
  } else {
    if (!support::atomicWriteFile(Base + ".err", R.Error + "\n", &Error))
      R.IoError = Error;
  }
}

/// Executes one admitted job start to finish. Pure in its JobSpec (plus
/// the shared cache, whose observable effect - the compiled artifacts -
/// is identical whether this job compiled or waited), so records are
/// byte-identical at any worker count.
JobRecord runOne(const JobSpec &S, const ServeOptions &O) {
  JobRecord R;
  R.Id = S.Id;
  if (!S.Valid) {
    R.Status = JobStatus::Invalid;
    R.Error = S.ParseError;
    writeJobFiles(R, O);
    return R;
  }

  const auto Start = std::chrono::steady_clock::now();
  auto ElapsedMs = [&Start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };

  ArtifactCache::EntryPtr E;
  if (O.Cache) {
    R.Compile = S.ColdCompile ? "cold" : "shared";
    E = O.Cache->get(S.Fingerprint, [&S] {
      return compileEntry(S.Source, S.Cfg.compileOptions());
    });
  } else {
    R.Compile = "private";
    E = compileEntry(S.Source, S.Cfg.compileOptions());
  }
  if (!E->Ok) {
    R.Status = JobStatus::CompileError;
    R.Error = trimmed(E->DiagText);
    writeJobFiles(R, O);
    return R;
  }

  for (unsigned Attempt = 0;; ++Attempt) {
    driver::ExecutionOptions EOpts = S.Cfg.executionOptions();
    // The retry schedule is deterministic: attempt k draws a fresh fault
    // schedule from a seed derived by a fixed stride, never from wall
    // clock, so a retried job is the same job at every worker count.
    EOpts.FaultSeed += static_cast<uint64_t>(Attempt) * 1000003ull;
    driver::Execution Exec(S.Cfg.machine(), EOpts);
    auto Report = Exec.run(E->Comp->artifacts().Compiled.Program);
    R.Attempts = Attempt + 1;
    if (Report) {
      if (S.DeadlineMs && ElapsedMs() > static_cast<double>(S.DeadlineMs)) {
        R.Status = JobStatus::Timeout;
        R.Error = "wall deadline of " + std::to_string(S.DeadlineMs) +
                  " ms exceeded (result discarded)";
      } else {
        R.Status = JobStatus::Ok;
        R.Output = Report->Output;
        R.Report = *Report;
        R.HasReport = true;
      }
      break;
    }
    const std::string Diag = trimmed(Exec.diags().str());
    // The step watchdog is a deterministic deadline: the run will exceed
    // it identically on every attempt, so it is a timeout, not a
    // retryable fault.
    if (Diag.find("watchdog:") != std::string::npos) {
      R.Status = JobStatus::Timeout;
      R.Error = Diag;
      break;
    }
    if (S.DeadlineMs && ElapsedMs() > static_cast<double>(S.DeadlineMs)) {
      R.Status = JobStatus::Timeout;
      R.Error = "wall deadline of " + std::to_string(S.DeadlineMs) +
                " ms exceeded: " + Diag;
      break;
    }
    if (Attempt >= S.Retries) {
      R.Status = JobStatus::RuntimeError;
      R.Error = Diag;
      break;
    }
  }
  writeJobFiles(R, O);
  return R;
}

} // namespace

std::string JobRecord::jsonl() const {
  return cat({"{", js::quote("id"), ":", js::quote(Id),
              ",", js::quote("status"), ":", js::quote(jobStatusName(Status)),
              ",", js::quote("attempts"), ":",
              js::number(static_cast<uint64_t>(Attempts)),
              ",", js::quote("compile"), ":", js::quote(Compile),
              ",", js::quote("cycles"), ":",
              js::number(HasReport ? Report.Ledger.total() : 0.0),
              ",", js::quote("flops"), ":",
              js::number(HasReport ? Report.Ledger.Flops : uint64_t(0)),
              ",", js::quote("output_bytes"), ":",
              js::number(static_cast<uint64_t>(Output.size())),
              ",", js::quote("error"), ":", js::quote(Error), "}"});
}

std::string BatchResult::resultsJsonl() const {
  std::string Out;
  for (const JobRecord &R : Records)
    Out += R.jsonl() + "\n";
  return Out;
}

std::string BatchResult::statsJson(double WallMs) const {
  const uint64_t Total = Records.size();
  std::string Out = "{\n";
  Out += "\"jobs\":{";
  Out += "\"total\":" + js::number(Total);
  Out += ",\"ok\":" + js::number(Ok);
  Out += ",\"invalid\":" + js::number(Invalid);
  Out += ",\"compile_errors\":" + js::number(CompileErrors);
  Out += ",\"runtime_errors\":" + js::number(RuntimeErrors);
  Out += ",\"timeouts\":" + js::number(Timeouts);
  Out += ",\"rejected\":" + js::number(Rejected);
  Out += ",\"retried\":" + js::number(Retried);
  Out += "},\n";
  Out += "\"cache\":{\"hits\":" + js::number(CacheHits) +
         ",\"misses\":" + js::number(CacheMisses) + "},\n";
  Out += "\"queue\":{\"admitted\":" + js::number(Admitted) +
         ",\"rejected\":" + js::number(Rejected) + "},\n";
  Out += "\"wall_ms\":" + js::number(WallMs);
  Out += ",\"jobs_per_sec\":" +
         js::number(WallMs > 0 ? 1e3 * static_cast<double>(Total) / WallMs
                               : 0.0);
  Out += "\n}\n";
  return Out;
}

BatchResult serve::runBatch(std::vector<JobSpec> Jobs,
                            const ServeOptions &Opts) {
  BatchResult B;
  B.Records.resize(Jobs.size());

  // Content addresses and the deterministic cold/shared classification:
  // a job is "cold" when it is the first in manifest order to request a
  // fingerprint the cache does not already hold. Which worker actually
  // wins the compile race varies; this classification does not.
  if (Opts.Cache) {
    std::map<uint64_t, bool> SeenInBatch;
    for (JobSpec &J : Jobs) {
      if (!J.Valid)
        continue;
      J.Fingerprint =
          ArtifactCache::fingerprint(J.Source, J.Cfg.compileOptions());
      bool &Seen = SeenInBatch[J.Fingerprint];
      J.ColdCompile = !Seen && !Opts.Cache->contains(J.Fingerprint);
      Seen = true;
    }
  }

  const uint64_t Hits0 = Opts.Cache ? Opts.Cache->hits() : 0;
  const uint64_t Misses0 = Opts.Cache ? Opts.Cache->misses() : 0;

  // Admission control: everything past the queue bound is shed now, in
  // manifest order, with a structured record.
  const size_t Admit = Opts.QueueLimit
                           ? std::min(Jobs.size(), Opts.QueueLimit)
                           : Jobs.size();
  B.Admitted = Admit;
  for (size_t I = Admit; I < Jobs.size(); ++I) {
    JobRecord &R = B.Records[I];
    R.Id = Jobs[I].Id;
    R.Status = JobStatus::Rejected;
    R.Compile = "none";
    R.Error = "rejected by admission control (queue limit " +
              std::to_string(Opts.QueueLimit) + ")";
  }

  uint64_t BatchSpan = 0;
  if (Opts.Trace)
    BatchSpan = Opts.Trace->beginWall("serve.batch", "serve");

  if (Admit > 0) {
    support::ThreadPool Pool(Opts.Workers);
    Pool.parallelChunks(static_cast<int64_t>(Admit),
                        [&](int64_t, int64_t Begin, int64_t End) {
                          for (int64_t I = Begin; I < End; ++I)
                            B.Records[static_cast<size_t>(I)] =
                                runOne(Jobs[static_cast<size_t>(I)], Opts);
                        });
  }

  for (const JobRecord &R : B.Records) {
    switch (R.Status) {
    case JobStatus::Ok:
      ++B.Ok;
      break;
    case JobStatus::Invalid:
      ++B.Invalid;
      break;
    case JobStatus::CompileError:
      ++B.CompileErrors;
      break;
    case JobStatus::RuntimeError:
      ++B.RuntimeErrors;
      break;
    case JobStatus::Timeout:
      ++B.Timeouts;
      break;
    case JobStatus::Rejected:
      ++B.Rejected;
      break;
    }
    if (R.Attempts > 1)
      B.Retried += R.Attempts - 1;
    if (!R.IoError.empty())
      ++B.IoFailures;
  }
  if (Opts.Cache) {
    B.CacheHits = Opts.Cache->hits() - Hits0;
    B.CacheMisses = Opts.Cache->misses() - Misses0;
  }

  // Batch observability, all recorded here on the coordinator thread in
  // manifest order: exports are byte-identical at every -workers=N.
  if (observe::MetricsRegistry *M = Opts.Metrics) {
    M->count("serve.jobs.total", B.Records.size());
    M->count("serve.jobs.ok", B.Ok);
    M->count("serve.jobs.failed", B.CompileErrors + B.RuntimeErrors);
    M->count("serve.jobs.compile_errors", B.CompileErrors);
    M->count("serve.jobs.runtime_errors", B.RuntimeErrors);
    M->count("serve.jobs.timeout", B.Timeouts);
    M->count("serve.jobs.invalid", B.Invalid);
    M->count("serve.jobs.rejected", B.Rejected);
    M->count("serve.jobs.retried", B.Retried);
    M->count("serve.cache.hits", B.CacheHits);
    M->count("serve.cache.misses", B.CacheMisses);
    M->gauge("serve.queue.depth", static_cast<double>(B.Admitted));
    M->gauge("serve.queue.limit", static_cast<double>(Opts.QueueLimit));
  }
  if (observe::TraceRecorder *T = Opts.Trace) {
    for (const JobRecord &R : B.Records) {
      uint64_t Span = T->beginWall("job:" + R.Id, "serve.job");
      T->endWall(Span,
                 {observe::arg("status", jobStatusName(R.Status)),
                  observe::arg("attempts", static_cast<uint64_t>(R.Attempts)),
                  observe::arg("compile", R.Compile),
                  observe::arg("cycles",
                               R.HasReport ? R.Report.Ledger.total() : 0.0)});
    }
    T->endWall(BatchSpan,
               {observe::arg("jobs", static_cast<uint64_t>(B.Records.size())),
                observe::arg("ok", B.Ok)});
  }

  if (!Opts.OutDir.empty()) {
    std::string Error;
    if (!support::atomicWriteFile(Opts.OutDir + "/results.jsonl",
                                  B.resultsJsonl(), &Error))
      ++B.IoFailures;
  }
  return B;
}
