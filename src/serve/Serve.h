//===- serve/Serve.h - batch compile-and-run job service ----------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-session job service: accepts a batch of compile-and-run jobs
/// (a line-delimited JSON manifest), admits them through a bounded queue,
/// executes them concurrently over support::ThreadPool, and returns one
/// structured record per job. A failing, invalid, or timed-out job
/// produces an error record - never takes down the batch.
///
/// Determinism contract (the serving-layer extension of the thread-pool
/// rules): every job is a pure function of its JobSpec - the simulation
/// below is bit-identical at any host thread count, fault schedules are
/// seeded, and retry attempts derive their seeds from the attempt index -
/// and records are assembled per job and emitted in manifest order, so a
/// manifest run at -workers=1 and -workers=8 produces byte-identical
/// per-job outputs, results.jsonl, and metrics exports. Only wall-clock
/// aggregates (the -stats-json throughput report) vary between runs.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_SERVE_SERVE_H
#define F90Y_SERVE_SERVE_H

#include "driver/Config.h"

#include <cstdint>
#include <string>
#include <vector>

namespace f90y {
namespace serve {

/// One job of a batch manifest: which source to compile, under which
/// profile/machine, and how to execute it. Parsed from one manifest line.
struct JobSpec {
  /// Stable identifier; names the job's output files and results record.
  /// Defaults to "job<N>" (1-based manifest ordinal); duplicate ids are
  /// uniquified at parse time ("x", "x~2", ...) so concurrent jobs never
  /// contend for one output path.
  std::string Id;
  /// The Fortran-90 source text. Inline manifests carry it directly
  /// ("source"); file-based manifests ("source_path") are resolved and
  /// read at parse time so every worker sees identical text.
  std::string Source;
  /// Provenance when the source came from a file (diagnostics only).
  std::string SourcePath;

  /// The knobs f90yc shares (driver/Config.h), one manifest key each. The
  /// one serving preset is a single host thread per job: the scheduler
  /// already runs jobs concurrently, and the simulation is bit-identical
  /// at any setting. A run that trips the max_steps watchdog is a
  /// timeout, never retried: the limit is deterministic.
  driver::Config Cfg{.Threads = 1};
  /// Wall deadline in milliseconds (0: none). Best effort: checked when
  /// the job starts and between attempts; a completed-but-late job is
  /// classified as a timeout and its results are discarded. Inherently
  /// wall-clock dependent, so determinism tests leave it unset.
  uint64_t DeadlineMs = 0;
  /// Bounded retry of *recoverable* runtime failures (the RtStatus codes
  /// the runtime's own retry/backoff machinery could not absorb). Attempt
  /// k re-runs with FaultSeed + k * 1000003, so the retry schedule is
  /// itself deterministic.
  uint64_t Retries = 0;

  /// False when the manifest line could not be parsed; ParseError says
  /// why. Invalid jobs become "invalid" records, not batch failures.
  bool Valid = true;
  std::string ParseError;

  /// Filled by the scheduler before execution: the content-addressed
  /// compile key and whether this job is the manifest's first request for
  /// it (the deterministic "cold"/"shared" classification in records).
  uint64_t Fingerprint = 0;
  bool ColdCompile = true;
};

/// Parses a line-delimited JSON manifest: one job object per line, blank
/// lines and '#' comments skipped. Relative "source_path" entries resolve
/// against \p BaseDir (the manifest's directory). Malformed lines yield
/// JobSpecs with Valid=false; the batch always runs.
std::vector<JobSpec> parseManifest(const std::string &Text,
                                   const std::string &BaseDir);

/// Terminal state of one job.
enum class JobStatus {
  Ok,           ///< Compiled and ran to completion.
  Invalid,      ///< Manifest line unparseable or source unreadable.
  CompileError, ///< Front-end / lowering / transform / backend error.
  RuntimeError, ///< Simulated runtime failure past the retry bound.
  Timeout,      ///< Step watchdog tripped or wall deadline exceeded.
  Rejected,     ///< Shed by admission control (queue limit reached).
};

/// "ok", "invalid", "compile-error", ... (the results.jsonl status keys).
const char *jobStatusName(JobStatus S);

/// The structured per-job outcome. Everything except Report wall-clock
/// aggregates is deterministic at any worker count.
struct JobRecord {
  std::string Id;
  JobStatus Status = JobStatus::Ok;
  unsigned Attempts = 0; ///< Execution attempts (0: never executed).
  /// "cold" (this job compiled), "shared" (reused a cached compilation),
  /// or "private" (caching disabled). Derived from manifest order, not
  /// from which worker won the compile race, so it is deterministic.
  const char *Compile = "private";
  std::string Error;          ///< Diagnostics for non-Ok records.
  std::string Output;         ///< Program output (Ok only).
  driver::RunReport Report;   ///< Valid when HasReport.
  bool HasReport = false;
  std::string IoError;        ///< Output-file write failure, if any.

  /// One deterministic JSON line: id, status, attempts, compile class,
  /// simulated cycles/flops, output size, and the error text.
  std::string jsonl() const;
};

} // namespace serve
} // namespace f90y

#endif // F90Y_SERVE_SERVE_H
