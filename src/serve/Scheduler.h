//===- serve/Scheduler.h - concurrent batch execution -------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Admission control and concurrent execution of a parsed manifest.
///
/// Admission: at most QueueLimit jobs (manifest order) enter the run
/// queue; the excess is shed with structured "rejected" records - the
/// overload story of a service that must degrade gracefully instead of
/// queueing without bound. Admitted jobs are swept by a
/// support::ThreadPool (one job per chunk for batches up to 64 jobs, so
/// scheduling is dynamic), each producing its JobRecord independently.
///
/// Failure isolation: a job that fails to parse, compile, run, or meet
/// its deadline yields an error record; nothing a job does can take down
/// the batch. Per-job output files are written from the workers through
/// support::atomicWriteFile (unique temp names make concurrent writers
/// into one directory safe).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_SERVE_SCHEDULER_H
#define F90Y_SERVE_SCHEDULER_H

#include "serve/ArtifactCache.h"
#include "serve/Serve.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace f90y {

namespace observe {
class MetricsRegistry;
class TraceRecorder;
} // namespace observe

namespace serve {

/// Batch-level configuration of one runBatch call.
struct ServeOptions {
  /// Concurrent job workers (0: all hardware threads; at most
  /// support::ThreadPool::MaxThreads). Records are byte-identical at
  /// every setting.
  unsigned Workers = 0;
  /// Admission bound: jobs past this many are rejected (0: unlimited).
  size_t QueueLimit = 0;
  /// Directory for per-job artifacts (<id>.out, <id>.stats.json on
  /// success; <id>.err on failure; results.jsonl for the batch). Empty
  /// writes nothing; the directory must already exist.
  std::string OutDir;
  /// Shared compilation store (null: every job compiles privately - the
  /// cold leg of the serve ratio in tests/wall_test.cpp).
  ArtifactCache *Cache = nullptr;
  /// Batch observability: serve.* metrics and one wall span per job, all
  /// recorded on the coordinator thread in manifest order so exports are
  /// deterministic at any worker count. Per-job Executions deliberately
  /// run unobserved - a shared registry would interleave their gauge
  /// writes nondeterministically.
  observe::MetricsRegistry *Metrics = nullptr;
  observe::TraceRecorder *Trace = nullptr;
};

/// One batch's outcome: records in manifest order plus the aggregate
/// account the CLI renders and exports.
struct BatchResult {
  std::vector<JobRecord> Records;

  uint64_t Ok = 0;
  uint64_t Invalid = 0;
  uint64_t CompileErrors = 0;
  uint64_t RuntimeErrors = 0;
  uint64_t Timeouts = 0;
  uint64_t Rejected = 0;
  uint64_t Retried = 0;  ///< Total retry attempts across all jobs.
  uint64_t Admitted = 0; ///< Jobs that entered the run queue.
  uint64_t CacheHits = 0, CacheMisses = 0; ///< This batch's deltas.
  uint64_t FrontEndHits = 0, FrontEndMisses = 0; ///< The same for front ends.
  uint64_t IoFailures = 0; ///< Per-job output files that failed to write.

  bool allOk() const { return Ok == Records.size(); }

  /// The whole batch as line-delimited JSON, manifest order (the
  /// results.jsonl payload; byte-identical at every worker count).
  std::string resultsJsonl() const;
  /// Aggregate report for -stats-json: job/cache/queue counts plus the
  /// wall-clock throughput of this run (the only nondeterministic part).
  std::string statsJson(double WallMs) const;
};

/// Runs \p Jobs under \p Opts. Never fails as a whole: every job ends as
/// exactly one record.
BatchResult runBatch(std::vector<JobSpec> Jobs, const ServeOptions &Opts);

/// Parses f90y-serve's -workers value into \p Workers: a positive count of
/// at most support::ThreadPool::MaxThreads, the threads knob's bound.
bool parseWorkers(std::string_view Text, unsigned &Workers,
                  std::string &Error);

} // namespace serve
} // namespace f90y

#endif // F90Y_SERVE_SCHEDULER_H
