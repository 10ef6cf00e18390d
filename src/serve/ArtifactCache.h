//===- serve/ArtifactCache.h - content-addressed compilations -----*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's compile-once store: a fingerprint over
/// (canonicalized source, the compilation-relevant CompileOptions and
/// cm2::CostModel knobs) maps to one shared, immutable
/// driver::Compilation. N jobs over the same program and options compile
/// once and share the compilation's NIR and PEAC artifacts - and, through
/// the process-wide peac::RoutineCache keyed by those shared Routine
/// objects, its pre-decoded kernels too.
///
/// One level down, the canonicalized source alone maps to one shared
/// driver::FrontEnd: a miss runs lex, parse, integrate and lower only on
/// the first request for its source, and every option set of that program
/// compiles in a layer over the one raw NIR. A front end is requested only
/// on an artifact miss, and the two maps empty together.
///
/// Concurrency: the first requester of a key installs an in-flight slot
/// and builds; every concurrent requester blocks on that slot's
/// shared_future instead of building again. Exactly one compile happens
/// per fingerprint (one front end per source) per cache generation, so
/// hit/miss totals are a pure function of the job set - deterministic at
/// any worker count. Failed compilations are cached too (the diagnostics
/// are as reusable as the artifacts).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_SERVE_ARTIFACTCACHE_H
#define F90Y_SERVE_ARTIFACTCACHE_H

#include "driver/Driver.h"

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace f90y {
namespace serve {

class ArtifactCache {
public:
  /// One cached compilation outcome. Immutable once published; shared by
  /// every job (and worker thread) that requested its fingerprint.
  struct Entry {
    /// The compilation, alive as long as any job references it. Null when
    /// compilation failed.
    std::shared_ptr<const driver::Compilation> Comp;
    bool Ok = false;
    std::string DiagText; ///< Errors (failures) or warnings (successes).
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  ArtifactCache() = default;
  ArtifactCache(const ArtifactCache &) = delete;
  ArtifactCache &operator=(const ArtifactCache &) = delete;

  /// The process-wide cache (long-lived embedders sharing artifacts
  /// across batches). Tools and tests may construct private instances.
  static ArtifactCache &process();

  /// Line-ending/trailing-whitespace canonicalization applied before
  /// fingerprinting, so byte-level noise ("\r\n", a missing final
  /// newline) does not defeat sharing.
  static std::string canonicalize(const std::string &Source);

  /// The content address: FNV-1a over the canonicalized source and every
  /// compilation-relevant option (profile-derived transform and PE-
  /// compiler switches, machine cost model). Observability sinks do not
  /// participate - they never change what is compiled.
  static uint64_t fingerprint(const std::string &Source,
                              const driver::CompileOptions &Opts);

  /// Returns the entry for \p Key, invoking \p Compile exactly once per
  /// fingerprint per generation (concurrent requesters block until the
  /// winner publishes). \p Compile must not throw.
  EntryPtr get(uint64_t Key, const std::function<EntryPtr()> &Compile);

  /// The front end of \p Source, run once per canonicalized source per
  /// generation (concurrent requesters wait as in get()).
  std::shared_ptr<const driver::FrontEnd> frontEnd(const std::string &Source);

  /// True when \p Key is resident (or in flight). The scheduler uses this
  /// before a batch to classify jobs cold/shared deterministically.
  bool contains(uint64_t Key) const;

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t frontEndHits() const;
  uint64_t frontEndMisses() const;
  size_t size() const;
  /// Drops every entry and front end (cold-cache benchmarks; outstanding
  /// shared pointers keep their compilations alive).
  void clear();

  /// Entry-count bound; inserting past it drops both maps first.
  /// Compilations are heavyweight, so the bound is much smaller than the
  /// routine cache's.
  static constexpr size_t MaxEntries = 256;

private:
  template <typename T> struct Slots {
    std::map<uint64_t, std::shared_future<T>> Map;
    uint64_t Hits = 0, Misses = 0;
  };
  template <typename T>
  T once(Slots<T> &In, uint64_t Key, const std::function<T()> &Make);

  mutable std::mutex Mutex;
  Slots<EntryPtr> Entries;
  Slots<std::shared_ptr<const driver::FrontEnd>> FrontEnds;
};

/// Compiles \p FE's program under \p Opts into a cache entry (never
/// throws; failures become Ok=false entries). The one compile path of
/// ArtifactCache misses and cache-disabled jobs, which pass
/// driver::FrontEnd::run(Source).
ArtifactCache::EntryPtr
compileEntry(std::shared_ptr<const driver::FrontEnd> FE,
             driver::CompileOptions Opts);

} // namespace serve
} // namespace f90y

#endif // F90Y_SERVE_ARTIFACTCACHE_H
