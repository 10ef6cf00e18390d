//===- peac/Engine.h - compile-once PEAC execution engine ---------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-compiled PEAC execution engine: translates a Routine once into
/// a flat program of pre-resolved ops (peac/Kernels.h), caches the result
/// per process so timestep loops compile each routine exactly once, and
/// sweeps each PE's subgrid op by strip - every op runs over a strip of up
/// to engine::StripLanes elements before the next op starts, the paper's
/// virtual-subgrid loop split and interchanged. Per-thread scratch is
/// reused, so steady-state dispatch allocates nothing.
///
/// The interchange is legal only when no element's work reads another
/// element's: stripLegal() is the check, and a routine or dispatch that
/// fails it runs the reference interpreter's sweep instead.
///
/// This is a *simulator* optimization, not a machine change: the cycle
/// account is a static property of the routine computed by the shared
/// dispatch shell (peac/Executor.h), and the functional semantics are the
/// reference interpreter's bit for bit - output fields, flop counts,
/// fault schedules, and metrics are identical under either engine at any
/// host thread count.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_PEAC_ENGINE_H
#define F90Y_PEAC_ENGINE_H

#include "peac/Executor.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace f90y {

namespace observe {
class MetricsRegistry;
} // namespace observe

namespace peac {

/// Which functional executor sweeps the PEs.
enum class EngineKind {
  Interp,  ///< The reference interpreter (peac::execute).
  Compiled ///< The pre-compiled engine (translate once, cached).
};

namespace engine {
class CompiledRoutine;
} // namespace engine

/// Cache of translated routines, keyed by routine identity. Identity is
/// the Routine's address *and* a structural fingerprint: the address
/// alone could alias a stale entry after a routine is freed and its
/// storage reused, so a hit requires both to match and a fingerprint
/// mismatch recompiles in place (counted as a miss).
///
/// Thread-safe, including concurrent insert: translation runs under the
/// cache lock, so when many Engine instances (the serve scheduler's
/// workers) first touch one shared routine simultaneously, exactly one
/// translation happens and exactly one miss is counted - hit/miss totals
/// are a pure function of the workload, not of thread timing. Returned
/// routines are immutable shared_ptrs, stable across any later insert or
/// clear. One process-wide instance backs every engine by default (so
/// repeated Executions of one compiled program translate each routine
/// exactly once); tests/benches may construct private instances for
/// cold-cache measurement.
class RoutineCache {
public:
  RoutineCache() = default;
  ~RoutineCache();
  RoutineCache(const RoutineCache &) = delete;
  RoutineCache &operator=(const RoutineCache &) = delete;

  /// The process-wide cache.
  static RoutineCache &process();

  /// Returns the translation of \p R, compiling on miss. When \p Metrics
  /// is non-null, bumps `peac.engine.cache.hits` / `.misses`. Note these
  /// counters reflect *host-side* cache history (a fresh run may hit on
  /// routines a previous run compiled), so determinism checks that
  /// compare metrics exports across runs normalize them away.
  std::shared_ptr<const engine::CompiledRoutine>
  get(const Routine &R, observe::MetricsRegistry *Metrics);

  /// Drops every entry (tests and cold-cache benchmarks).
  void clear();
  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

  /// Entry-count bound; reaching it drops the whole map (routines live as
  /// long as their Compilation, so refilling is one translation each).
  static constexpr size_t MaxEntries = 4096;

private:
  struct Entry {
    uint64_t Fingerprint = 0;
    std::shared_ptr<const engine::CompiledRoutine> Compiled;
  };
  mutable std::mutex Mutex;
  std::unordered_map<const Routine *, Entry> Map;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// The compiled engine's legality check. True when \p R may run op by
/// strip: no vector register or spill slot is read in an iteration before
/// that iteration writes it, and every operand of a pointer argument that
/// some instruction writes has offset 0 and stride 1 (read-only pointers
/// keep any offset or stride). Given \p Args, also checks the dispatch's
/// bindings: every written binding is identical to or address-disjoint
/// from every other binding, and an identical one must meet the written
/// pointer's offset-0, stride-1 rule. The compiled engine runs a routine
/// or dispatch that fails through the interpreter's sweep.
bool stripLegal(const Routine &R, const ExecArgs *Args = nullptr);

/// A PEAC executor with a selectable sweep implementation. Interp
/// delegates to peac::execute; Compiled translates through \p Cache and
/// runs the pre-decoded program op by strip, or the interpreter's sweep
/// where stripLegal() fails. Both produce bit-identical results (see
/// tests/exec_engine_test.cpp).
class ExecutionEngine {
public:
  explicit ExecutionEngine(EngineKind Kind = EngineKind::Compiled,
                           RoutineCache *Cache = &RoutineCache::process())
      : Kind(Kind), Cache(Cache) {}

  EngineKind kind() const { return Kind; }
  RoutineCache &cache() { return *Cache; }

  /// Drop-in replacement for peac::execute (same contract).
  ExecResult execute(const Routine &R, const ExecArgs &Args,
                     const cm2::CostModel &Costs,
                     support::ThreadPool *Pool = nullptr,
                     support::FaultInjector *FI = nullptr,
                     observe::MetricsRegistry *Metrics = nullptr);

  /// Pre-translates every routine of a program through the cache (a no-op
  /// for the Interp kind). A restored run calls this before resuming its
  /// timestep loop so the compile cost lands up front, where the original
  /// run paid it, instead of inside the first post-restore dispatches.
  void warmup(const std::vector<Routine> &Routines,
              observe::MetricsRegistry *Metrics = nullptr);

private:
  EngineKind Kind;
  RoutineCache *Cache;
};

} // namespace peac
} // namespace f90y

#endif // F90Y_PEAC_ENGINE_H
