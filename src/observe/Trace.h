//===- observe/Trace.h - dual-clock trace recording ---------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe trace recorder with scoped spans and instant events in
/// two clock domains, exported as Chrome trace-event JSON (loadable in
/// Perfetto / chrome://tracing):
///
///   - Wall domain (pid 1): host wall-clock microseconds since the
///     recorder's epoch. Compiler phases (lex, parse, lower, each NIR
///     pass, backend) and host thread-pool jobs live here.
///   - Cycle domain (pid 2): simulated sequencer cycles stamped from the
///     CycleLedger. Execution events (communication ops, PEAC dispatches,
///     fault/retry/rollback instants) live here; the viewer's "µs" axis
///     reads as cycles.
///
/// Determinism contract (mirrors support/ThreadPool.h): every event is
/// recorded from the host (sequencer) thread in program order and given a
/// monotone sequence number, so the exported event list - names,
/// categories, cycle timestamps, arguments, and order - is bit-identical
/// at every -threads=N. Only wall-clock timestamp *values* vary between
/// runs; exportJson(/*NormalizeWall=*/true) zeroes them, which is what
/// the determinism tests compare.
///
/// Cycle-domain spans tile the ledger: cycleSpan fills any untraced gap
/// [cursor, Begin) with a synthetic "host" span, and closeCycles flushes
/// the tail, so the durations of all cycle spans sum to the final ledger
/// total (the f90y-trace per-phase breakdown reconciles exactly against
/// -stats).
///
/// A null TraceRecorder* is the disabled fast path everywhere: callers
/// guard each record with one pointer test, and a traced run stays bit-
/// identical to an untraced one (every invariance check compares them).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_OBSERVE_TRACE_H
#define F90Y_OBSERVE_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace f90y {
namespace observe {

/// The two timebases a trace event can be stamped in.
enum class ClockDomain : uint8_t {
  Wall,  ///< Host microseconds since the recorder's epoch.
  Cycles ///< Simulated sequencer cycles (CycleLedger totals).
};

/// One event argument; Json holds an already-rendered JSON fragment
/// (json::number / json::quote), so recording never re-parses.
struct TraceArg {
  std::string Key;
  std::string Json;
};

/// Builds the common argument encodings.
TraceArg arg(std::string Key, const std::string &Str);
TraceArg arg(std::string Key, const char *Str);
TraceArg arg(std::string Key, double Num);
TraceArg arg(std::string Key, int64_t Num);
TraceArg arg(std::string Key, uint64_t Num);

class TraceRecorder {
public:
  TraceRecorder();

  //===--------------------------------------------------------------------===//
  // Wall domain (compiler phases, pool jobs)
  //===--------------------------------------------------------------------===//

  /// Opens a wall-clock span; the returned token closes it via endWall.
  /// Spans may nest (compile > optimize > extract-comm).
  uint64_t beginWall(std::string Name, const char *Cat);
  void endWall(uint64_t Token, std::vector<TraceArg> Args = {});
  void wallInstant(std::string Name, const char *Cat,
                   std::vector<TraceArg> Args = {});

  //===--------------------------------------------------------------------===//
  // Cycle domain (simulated execution)
  //===--------------------------------------------------------------------===//

  /// Rewinds the cycle cursor to 0 (the ledger was reset for a new run).
  void resetCycleCursor();
  double cycleCursor() const;

  /// Records the span [Begin, End) and advances the cursor to End. Any
  /// untraced gap [cursor, Begin) - front-end scalar statements, router
  /// element traffic - is first emitted as a synthetic "host" span so the
  /// cycle timeline tiles exactly.
  void cycleSpan(std::string Name, const char *Cat, double Begin, double End,
                 std::vector<TraceArg> Args = {});
  /// An instant (zero-duration mark) at cycle \p At: retries, rollbacks,
  /// dispatch replays.
  void cycleInstant(std::string Name, const char *Cat, double At,
                    std::vector<TraceArg> Args = {});
  /// Flushes the final untraced gap [cursor, UpTo) at end of run.
  void closeCycles(double UpTo);

  //===--------------------------------------------------------------------===//
  // Export
  //===--------------------------------------------------------------------===//

  size_t eventCount() const;
  /// Drops all recorded events and rewinds clocks/sequence numbers (the
  /// benchmark harness reuses one recorder across reps).
  void clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}). With \p
  /// NormalizeWall, wall-domain ts/dur render as 0 so two runs of the
  /// same program compare byte-identical (the determinism tests).
  std::string exportJson(bool NormalizeWall = false) const;
  /// Writes exportJson to \p Path; false (with errno intact) on I/O
  /// failure.
  bool writeJson(const std::string &Path, bool NormalizeWall = false) const;

private:
  struct Event {
    std::string Name;
    const char *Cat;
    ClockDomain Domain;
    bool Instant = false;
    bool Open = false; ///< beginWall with no endWall yet.
    double Ts = 0;     ///< µs (wall) or cycles.
    double Dur = 0;
    uint64_t Seq = 0;
    std::vector<TraceArg> Args;
  };

  double nowUs() const;

  mutable std::mutex Mutex;
  std::vector<Event> Events;
  std::chrono::steady_clock::time_point Epoch;
  uint64_t NextSeq = 0;
  double CycleCursor = 0;
};

/// RAII wall span, null-safe: a null recorder records nothing.
class WallSpan {
public:
  WallSpan(TraceRecorder *R, std::string Name, const char *Cat)
      : R(R), Token(R ? R->beginWall(std::move(Name), Cat) : 0) {}
  ~WallSpan() {
    if (R)
      R->endWall(Token, std::move(Args));
  }
  WallSpan(const WallSpan &) = delete;
  WallSpan &operator=(const WallSpan &) = delete;

  /// Attaches an argument reported when the span closes.
  void addArg(TraceArg A) {
    if (R)
      Args.push_back(std::move(A));
  }

private:
  TraceRecorder *R;
  uint64_t Token;
  std::vector<TraceArg> Args;
};

} // namespace observe
} // namespace f90y

#endif // F90Y_OBSERVE_TRACE_H
