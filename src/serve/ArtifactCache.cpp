//===- serve/ArtifactCache.cpp - content-addressed compilations --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/ArtifactCache.h"

#include <cstring>

using namespace f90y;
using namespace f90y::serve;

namespace {

/// FNV-1a, matching the routine-cache fingerprint style.
struct Fnv1a {
  uint64_t H = 1469598103934665603ull;
  void bytes(const void *P, size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ull;
    }
  }
  void str(const std::string &S) {
    uint64_t N = S.size();
    bytes(&N, sizeof N);
    bytes(S.data(), S.size());
  }
  void u64(uint64_t V) { bytes(&V, sizeof V); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    u64(Bits);
  }
};

} // namespace

ArtifactCache &ArtifactCache::process() {
  static ArtifactCache C;
  return C;
}

std::string ArtifactCache::canonicalize(const std::string &Source) {
  std::string Out;
  Out.reserve(Source.size() + 1);
  for (char C : Source)
    if (C != '\r')
      Out.push_back(C);
  // Trailing blank lines never change the program; one final newline is
  // the canonical form.
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == ' ' ||
                          Out.back() == '\t'))
    Out.pop_back();
  Out.push_back('\n');
  return Out;
}

uint64_t ArtifactCache::fingerprint(const std::string &Source,
                                    const driver::CompileOptions &Opts) {
  Fnv1a F;
  F.str(canonicalize(Source));

  // Exhaustive by construction: the structured bindings must name every
  // member, so adding a field to TransformOptions or PEOptions without
  // deciding its place in the content-address fails to compile here.
  // (The observability sinks are the one deliberate omission: they alter
  // what is recorded about a compilation, never its artifacts.)
  {
    const auto &[Fusion, Layout, Blocking, CommSchedule, LayoutCosts, Trace,
                 Metrics] = Opts.Transforms;
    F.u64(Fusion);
    F.u64(Layout);
    F.u64(Blocking);
    F.u64(CommSchedule);
    // The layout cost-model pointer aliases Opts.Costs, hashed wholesale
    // below; hashing the pointer itself would poison the address.
    (void)LayoutCosts;
    (void)Trace;
    (void)Metrics;
  }

  {
    const auto &[Chaining, DualIssue, MaddFusion, CSE, SpillScheduling,
                 VectorRegs] = Opts.Backend.PE;
    F.u64(Chaining);
    F.u64(DualIssue);
    F.u64(MaddFusion);
    F.u64(CSE);
    F.u64(SpillScheduling);
    F.u64(VectorRegs);
  }

  // The cost model participates wholesale: the backend reads machine
  // parameters (vector width, register file) and future knobs may too, so
  // over-keying is the safe direction - a changed machine never reuses a
  // stale compilation. Fields are hashed individually (never the struct's
  // raw bytes) so padding stays out of the address.
  const cm2::CostModel &C = Opts.Costs;
  F.u64(C.VectorAluCycles);
  F.u64(C.VectorMaddCycles);
  F.u64(C.VectorDivCycles);
  F.u64(C.VectorSqrtCycles);
  F.u64(C.VectorTransCycles);
  F.u64(C.VectorMemCycles);
  F.u64(C.SpillRestorePairCycles);
  F.u64(C.LoopOverheadCycles);
  F.u64(C.PeacCallCycles);
  F.u64(C.IFifoPerArgCycles);
  F.u64(C.HostStatementCycles);
  F.f64(C.GridLocalPerElem);
  F.f64(C.GridWirePerElemHop);
  F.f64(C.RouterPerElem);
  F.u64(C.CommStartupCycles);
  F.u64(C.ReduceStepCycles);
  F.u64(C.FaultRetryBackoffCycles);
  F.f64(C.CommOverlapEfficiency);
  F.u64(C.CommIssueCycles);
  F.u64(C.FieldwiseProcessors);
  F.u64(C.FieldwiseFpOpCycles);
  F.u64(C.FieldwiseIntOpCycles);
  F.u64(C.FieldwiseOpOverhead);
  F.u64(C.FieldwiseShiftCyclesPerHop);
  F.u64(C.NumPEs);
  F.u64(C.VectorWidth);
  F.u64(C.VectorRegs);
  F.f64(C.ClockMHz);
  return F.H;
}

template <typename T>
T ArtifactCache::once(Slots<T> &In, uint64_t Key,
                      const std::function<T()> &Make) {
  std::promise<T> Promise;
  std::shared_future<T> Future;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = In.Map.find(Key);
    if (It != In.Map.end()) {
      ++In.Hits;
      Future = It->second;
    } else {
      // Only an artifact insert reaches the bound: a front end is
      // requested only on an artifact miss, so that map is never larger.
      if (In.Map.size() >= MaxEntries) {
        Entries.Map.clear();
        FrontEnds.Map.clear();
      }
      In.Map.emplace(Key, Promise.get_future().share());
      ++In.Misses;
    }
  }
  if (Future.valid())
    return Future.get();
  T Made = Make();
  Promise.set_value(Made);
  return Made;
}

ArtifactCache::EntryPtr
ArtifactCache::get(uint64_t Key, const std::function<EntryPtr()> &Compile) {
  return once(Entries, Key, Compile);
}

std::shared_ptr<const driver::FrontEnd>
ArtifactCache::frontEnd(const std::string &Source) {
  Fnv1a F;
  F.str(canonicalize(Source));
  return once<std::shared_ptr<const driver::FrontEnd>>(
      FrontEnds, F.H, [&Source] { return driver::FrontEnd::run(Source); });
}

bool ArtifactCache::contains(uint64_t Key) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.Map.count(Key) != 0;
}

uint64_t ArtifactCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.Hits;
}

uint64_t ArtifactCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.Misses;
}

uint64_t ArtifactCache::frontEndHits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return FrontEnds.Hits;
}

uint64_t ArtifactCache::frontEndMisses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return FrontEnds.Misses;
}

size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.Map.size();
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.Map.clear();
  FrontEnds.Map.clear();
}

ArtifactCache::EntryPtr
serve::compileEntry(std::shared_ptr<const driver::FrontEnd> FE,
                    driver::CompileOptions Opts) {
  auto E = std::make_shared<ArtifactCache::Entry>();
  auto C = std::make_shared<driver::Compilation>(std::move(Opts));
  E->Ok = C->compile(std::move(FE));
  E->DiagText = C->diags().str();
  if (E->Ok)
    E->Comp = std::move(C);
  return E;
}
