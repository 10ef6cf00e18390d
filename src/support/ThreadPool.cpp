//===- support/ThreadPool.cpp - deterministic host worker pool --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "observe/Trace.h"

#include <algorithm>
#include <utility>

using namespace f90y;
using namespace f90y::support;

namespace {

/// Fixed chunk-count target. Part of the determinism contract: ordered
/// reductions depend on the decomposition, so this must never be derived
/// from the thread count or the machine the host happens to run on.
constexpr int64_t TargetChunks = 64;
static_assert(ThreadPool::MaxThreads == TargetChunks,
              "a pool runs no more threads than a job has chunks");

/// The pool whose chunks this thread is running, if any: a parallelChunks
/// call on that pool from inside a chunk is reentrant and runs inline.
thread_local const ThreadPool *RunningChunksOf = nullptr;

} // namespace

int64_t ThreadPool::chunkSize(int64_t N) {
  return N <= 0 ? 0 : (N + TargetChunks - 1) / TargetChunks;
}

int64_t ThreadPool::numChunks(int64_t N) {
  int64_t CS = chunkSize(N);
  return CS == 0 ? 0 : (N + CS - 1) / CS;
}

unsigned ThreadPool::defaultThreads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, MaxThreads);
}

ThreadPool::ThreadPool(unsigned Threads)
    : NumThreads(Threads == 0 ? defaultThreads()
                              : std::min(Threads, MaxThreads)) {
  // The caller participates, so spawn one fewer worker than the total.
  for (unsigned I = 1; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runChunks(ParallelJob &Job) {
  const ThreadPool *Outer = std::exchange(RunningChunksOf, this);
  int64_t CS = chunkSize(Job.N);
  int64_t C;
  while ((C = Job.Next.fetch_add(1)) < Job.Chunks) {
    (*Job.Fn)(C, C * CS, std::min(Job.N, (C + 1) * CS));
    if (Job.Left.fetch_sub(1) == 1) {
      // Last chunk overall: wake the caller blocked in parallelChunks.
      std::lock_guard<std::mutex> Lock(Mutex);
      DoneCV.notify_all();
    }
  }
  RunningChunksOf = Outer;
}

void ThreadPool::workerLoop() {
  uint64_t SeenGeneration = 0;
  while (true) {
    std::shared_ptr<ParallelJob> Job;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkCV.wait(Lock, [&] {
        return ShuttingDown || Generation != SeenGeneration;
      });
      if (ShuttingDown)
        return;
      SeenGeneration = Generation;
      Job = Current;
    }
    if (Job)
      runChunks(*Job);
  }
}

void ThreadPool::parallelChunks(
    int64_t N, const std::function<void(int64_t, int64_t, int64_t)> &Fn) {
  int64_t Chunks = numChunks(N);
  if (Chunks == 0)
    return;
  if (!Trace || RunningChunksOf == this) {
    dispatchChunks(N, Chunks, Fn);
    return;
  }
  // Top-level traced job: one wall span on the calling thread. Reentrant
  // calls are never recorded (they may run on workers, whose interleaving
  // is not deterministic), so the event stream is identical at any thread
  // count.
  observe::WallSpan Span(Trace, "parallel-for", "pool");
  Span.addArg(observe::arg("n", N));
  Span.addArg(observe::arg("chunks", Chunks));
  dispatchChunks(N, Chunks, Fn);
}

void ThreadPool::dispatchChunks(
    int64_t N, int64_t Chunks,
    const std::function<void(int64_t, int64_t, int64_t)> &Fn) {
  // A one-thread pool, a one-chunk job, and reentrant calls all take the
  // inline path: chunks run on the caller in index order. The decomposition
  // is identical either way, so so is the arithmetic.
  if (NumThreads == 1 || Chunks == 1 || RunningChunksOf == this) {
    int64_t CS = chunkSize(N);
    for (int64_t C = 0; C < Chunks; ++C)
      Fn(C, C * CS, std::min(N, (C + 1) * CS));
    return;
  }

  auto Job = std::make_shared<ParallelJob>();
  Job->Fn = &Fn;
  Job->N = N;
  Job->Chunks = Chunks;
  Job->Left.store(Chunks);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Current = Job;
    ++Generation;
  }
  WorkCV.notify_all();
  runChunks(*Job);
  std::unique_lock<std::mutex> Lock(Mutex);
  DoneCV.wait(Lock, [&] { return Job->Left.load() == 0; });
  Current.reset();
}

void support::parallelChunks(
    ThreadPool *Pool, int64_t N,
    const std::function<void(int64_t, int64_t, int64_t)> &Fn) {
  if (Pool) {
    Pool->parallelChunks(N, Fn);
    return;
  }
  int64_t Chunks = ThreadPool::numChunks(N);
  int64_t CS = ThreadPool::chunkSize(N);
  for (int64_t C = 0; C < Chunks; ++C)
    Fn(C, C * CS, std::min(N, (C + 1) * CS));
}
