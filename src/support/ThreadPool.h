//===- support/ThreadPool.h - deterministic host worker pool ------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed pool of host worker threads with a chunked parallel-for and a
/// deterministic ordered reduction. The simulated CM/2 is data-parallel by
/// construction (every PE runs the identical instruction stream over its
/// own subgrid), so the host can sweep PEs concurrently. Determinism is
/// preserved by two rules:
///
///   1. The chunk decomposition of an index space is a function of the
///      problem size only - never of the thread count or the machine.
///   2. Per-chunk partial results are combined in chunk-index order on the
///      calling thread.
///
/// Under these rules a one-thread pool (which runs every chunk inline on
/// the caller, in order, with no synchronization) executes the same
/// arithmetic in the same order as an N-thread pool, so results and cycle
/// ledgers are bit-identical at every thread count.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_SUPPORT_THREADPOOL_H
#define F90Y_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace f90y {

namespace observe {
class TraceRecorder;
} // namespace observe

namespace support {

/// Fixed worker pool. Workers are spawned once at construction and live
/// until destruction; each parallelChunks call is one barrier-synchronized
/// job handed to them.
class ThreadPool {
public:
  /// The most threads a pool runs. A job splits into at most 64 chunks
  /// (chunkSize), so a 65th thread would never get one. The f90yc
  /// `-threads` knob and f90y-serve's `-workers` reject larger counts.
  static constexpr unsigned MaxThreads = 64;

  /// \p Threads host workers (the caller counts as one and participates);
  /// 0 means all hardware threads. Either is capped at MaxThreads.
  explicit ThreadPool(unsigned Threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Attaches a trace recorder: every top-level parallelChunks job is
  /// recorded as one wall-domain span on the calling (host) thread, so
  /// the event stream stays deterministic at any thread count. Null
  /// disables recording (the zero-overhead fast path).
  void setTrace(observe::TraceRecorder *T) { Trace = T; }
  observe::TraceRecorder *trace() const { return Trace; }

  /// Invokes Fn(Chunk, Begin, End) for every chunk of [0, N), blocking
  /// until all chunks complete. Chunk boundaries depend only on N.
  /// Reentrant calls (from inside a chunk body) run inline on the caller.
  void parallelChunks(
      int64_t N, const std::function<void(int64_t, int64_t, int64_t)> &Fn);

  /// The deterministic decomposition: ceil(N / 64) elements per chunk,
  /// independent of the thread count (rule 1 above).
  static int64_t chunkSize(int64_t N);
  static int64_t numChunks(int64_t N);

  /// Worker count substituted for Threads == 0 (1 to MaxThreads).
  static unsigned defaultThreads();

private:
  /// One in-flight job. Held by shared_ptr so a worker that wakes late and
  /// finds the job already drained touches only its own (still live) copy
  /// of the counters, never a reused allocation.
  struct ParallelJob {
    const std::function<void(int64_t, int64_t, int64_t)> *Fn = nullptr;
    int64_t N = 0;
    int64_t Chunks = 0;
    int64_t Chunk = 0;
    std::atomic<int64_t> Next{0};
    std::atomic<int64_t> Left{0};
  };

  void workerLoop();
  void runChunks(ParallelJob &Job);
  void dispatchChunks(
      int64_t N, int64_t Chunks,
      const std::function<void(int64_t, int64_t, int64_t)> &Fn);

  observe::TraceRecorder *Trace = nullptr;
  unsigned NumThreads = 1;
  std::vector<std::thread> Workers;

  std::mutex Mutex;
  std::condition_variable WorkCV;
  std::condition_variable DoneCV;
  std::shared_ptr<ParallelJob> Current; ///< Guarded by Mutex.
  uint64_t Generation = 0;              ///< Guarded by Mutex.
  bool ShuttingDown = false;            ///< Guarded by Mutex.
  bool InParallel = false;              ///< Caller-thread reentrancy flag.
};

/// parallelChunks over \p Pool, or inline (same chunks, same order) when
/// \p Pool is null. Both paths use the identical decomposition.
void parallelChunks(ThreadPool *Pool, int64_t N,
                    const std::function<void(int64_t, int64_t, int64_t)> &Fn);

/// Deterministic ordered reduction (the determinism contract in one
/// primitive): Map(Begin, End) produces one partial result per chunk, with
/// chunks possibly running concurrently; Combine(Acc, Part) then folds the
/// partials in chunk-index order on the calling thread. The result depends
/// on the chunk decomposition alone, so every thread count - including a
/// null pool - produces bit-identical output.
template <typename T, typename MapFn, typename CombineFn>
T reduceChunksOrdered(ThreadPool *Pool, int64_t N, MapFn Map,
                      CombineFn Combine) {
  int64_t Chunks = ThreadPool::numChunks(N);
  std::vector<T> Parts(static_cast<size_t>(Chunks));
  parallelChunks(Pool, N, [&](int64_t Chunk, int64_t Begin, int64_t End) {
    Parts[static_cast<size_t>(Chunk)] = Map(Begin, End);
  });
  T Acc{};
  for (int64_t C = 0; C < Chunks; ++C)
    Combine(Acc, Parts[static_cast<size_t>(C)]);
  return Acc;
}

} // namespace support
} // namespace f90y

#endif // F90Y_SUPPORT_THREADPOOL_H
