//===- peac/Engine.cpp - compile-once PEAC execution engine -----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "peac/Engine.h"

#include "peac/Kernels.h"

#include "observe/Metrics.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>

using namespace f90y;
using namespace f90y::peac;
using namespace f90y::peac::engine;

//===----------------------------------------------------------------------===//
// Translation and the strip legality check
//===----------------------------------------------------------------------===//

namespace f90y {
namespace peac {
namespace engine {

/// How a routine addresses one pointer argument: what the dispatch-time
/// binding check needs to know.
struct PtrUse {
  static constexpr int64_t Lo = std::numeric_limits<int64_t>::min();
  static constexpr int64_t Hi = std::numeric_limits<int64_t>::max();
  bool Used = false;
  bool Written = false;
  bool Unit = true; ///< Every operand has offset 0 and stride 1.
  int64_t MinOffset = Hi, MaxOffset = Lo, MinStride = Hi, MaxStride = Lo;

  void note(const Operand &O, bool Write) {
    Used = true;
    Written |= Write;
    Unit &= O.Offset == 0 && O.Stride == 1;
    MinOffset = std::min(MinOffset, O.Offset);
    MaxOffset = std::max(MaxOffset, O.Offset);
    MinStride = std::min(MinStride, O.Stride);
    MaxStride = std::max(MaxStride, O.Stride);
  }
};

/// A Routine translated once into a flat program of pre-resolved ops.
/// Immutable after translation; shared by every dispatch (and thread)
/// that executes the routine.
class CompiledRoutine {
public:
  bool Legal = false; ///< Passed the translation half of the strip check.
  std::vector<CompiledOp> Prog;
  std::vector<double> Imms; ///< Distinct immediates, one value each.
  std::vector<PtrUse> Ptrs; ///< Per pointer argument.
  ScratchUse Use;           ///< Registers the body actually touches.

  /// Register-scratch rows: vector registers, then spill slots.
  unsigned regRows() const { return Use.VRegs + Use.SpillSlots; }
  /// Broadcast rows: scalar arguments, then immediates.
  unsigned constRows() const {
    return Use.ScalarArgs + static_cast<unsigned>(Imms.size());
  }

  /// The dispatch half of the strip check: Legal, and every written
  /// binding is identical to or address-disjoint from every other one. An
  /// identical binding counts as the same pointer, so its operands must
  /// be unit too.
  bool admits(const ExecArgs &Args) const;

  /// Sweeps one PE's subgrid strip by strip, each op over the whole strip
  /// before the next. \p Consts holds the dispatch's broadcast rows, all
  /// rows \p Pitch lanes long. Per-thread scratch is grown once and never
  /// cleared: legality means every row is written before it is read.
  void runPE(const ExecArgs &Args, const double *Consts, size_t Pitch,
             unsigned PE) const;
};

} // namespace engine
} // namespace peac
} // namespace f90y

namespace {

/// Reusable per-thread sweep scratch: register, spill and gather rows,
/// and this PE's base pointer per pointer argument.
struct EngineScratch {
  std::vector<double> Rows;
  std::vector<double *> Bases;
};

EngineScratch &tlsScratch() {
  static thread_local EngineScratch S;
  return S;
}

/// Translates \p R and runs the translation half of the strip check in
/// the same walk: each source register or spill slot must already be
/// written by an earlier op of the body, and each pointer some op writes
/// must be addressed at offset 0, stride 1 by all of its operands.
std::shared_ptr<const CompiledRoutine> translate(const Routine &R) {
  auto CR = std::make_shared<CompiledRoutine>();
  CR->Use = R.scratchUse();
  CR->Ptrs.resize(R.NumPtrArgs);
  std::vector<bool> Written(CR->regRows(), false);
  bool Legal = true;
  auto Classify = [&](const Operand &O, bool Write) {
    OperandRef Ref;
    switch (O.K) {
    case Operand::Kind::VReg:
      Ref.Index = O.Reg;
      break;
    case Operand::Kind::SReg:
      Ref.F = OperandRef::Form::Const;
      Ref.Index = O.Reg;
      break;
    case Operand::Kind::Imm: {
      // One broadcast row per distinct immediate (bit pattern).
      std::vector<double> &Imms = CR->Imms;
      auto It = std::find_if(Imms.begin(), Imms.end(), [&](double V) {
        return std::bit_cast<uint64_t>(V) == std::bit_cast<uint64_t>(O.Imm);
      });
      if (It == Imms.end())
        It = Imms.insert(It, O.Imm);
      Ref.F = OperandRef::Form::Const;
      Ref.Index = CR->Use.ScalarArgs +
                  static_cast<uint32_t>(std::distance(Imms.begin(), It));
      break;
    }
    case Operand::Kind::Mem:
      if (O.Reg >= R.NumPtrArgs) {
        Ref.Index = CR->Use.VRegs + (O.Reg - R.NumPtrArgs);
      } else {
        Ref.F = OperandRef::Form::Mem;
        Ref.Index = O.Reg;
        Ref.Offset = O.Offset;
        Ref.Stride = O.Stride;
        CR->Ptrs[O.Reg].note(O, Write);
      }
      break;
    }
    if (Ref.F == OperandRef::Form::Reg) {
      if (!Write && !Written[Ref.Index])
        Legal = false;
      Written[Ref.Index] = Written[Ref.Index] || Write;
    }
    return Ref;
  };

  CR->Prog.reserve(R.Body.size());
  for (const Instruction &I : R.Body) {
    CompiledOp Op;
    const unsigned NSrcs =
        static_cast<unsigned>(std::min<size_t>(I.Srcs.size(), 3));
    Op.Kernel = lookupKernel(I.Op, NSrcs);
    for (unsigned S = 0; S < NSrcs; ++S)
      Op.Srcs[S] = Classify(I.Srcs[S], /*Write=*/false);
    if (!I.HasMemDst)
      Op.Dst = Classify(Operand::vreg(I.DstVReg), /*Write=*/true);
    else if (I.MemDst.isMem())
      Op.Dst = Classify(I.MemDst, /*Write=*/true);
    else
      Legal = false; // Only the interpreter defines a non-memory MemDst.
    CR->Prog.push_back(Op);
  }
  for (const PtrUse &P : CR->Ptrs)
    Legal = Legal && (!P.Written || P.Unit);
  CR->Legal = Legal;
  return CR;
}

} // namespace

bool CompiledRoutine::admits(const ExecArgs &Args) const {
  if (!Legal || Args.Ptrs.size() < Ptrs.size())
    return false;
  const int64_t N = Args.SubgridElems;
  if (N <= 0 || Args.NumPEs == 0)
    return true; // Nothing is swept.
  // The bytes [Lo, Hi) pointer P's operands touch over every PE.
  auto Span = [&](unsigned P) {
    const PtrUse &U = Ptrs[P];
    const PtrBinding &B = Args.Ptrs[P];
    const int64_t First =
        static_cast<int64_t>(B.Offset) + U.MinOffset +
        std::min<int64_t>(0, U.MinStride * (N - 1));
    const int64_t Last =
        static_cast<int64_t>((Args.NumPEs - 1) * B.PEStride + B.Offset) +
        U.MaxOffset + std::max<int64_t>(0, U.MaxStride * (N - 1));
    const intptr_t Base = reinterpret_cast<intptr_t>(B.Data);
    const intptr_t Elem = sizeof(double);
    return std::pair<intptr_t, intptr_t>{Base + First * Elem,
                                         Base + (Last + 1) * Elem};
  };
  for (unsigned W = 0; W < Ptrs.size(); ++W) {
    if (!Ptrs[W].Written)
      continue;
    const auto [WLo, WHi] = Span(W);
    for (unsigned Q = 0; Q < Ptrs.size(); ++Q) {
      if (Q == W || !Ptrs[Q].Used)
        continue;
      const PtrBinding &BW = Args.Ptrs[W], &BQ = Args.Ptrs[Q];
      if (BW.Data == BQ.Data && BW.PEStride == BQ.PEStride &&
          BW.Offset == BQ.Offset) {
        if (!Ptrs[Q].Unit)
          return false;
        continue;
      }
      const auto [QLo, QHi] = Span(Q);
      if (WLo < QHi && QLo < WHi)
        return false;
    }
  }
  return true;
}

bool peac::stripLegal(const Routine &R, const ExecArgs *Args) {
  std::shared_ptr<const CompiledRoutine> CR = translate(R);
  return Args ? CR->admits(*Args) : CR->Legal;
}

//===----------------------------------------------------------------------===//
// Structural fingerprint
//===----------------------------------------------------------------------===//

namespace {

/// One multiply-xorshift mix per 64-bit field. Each step is a bijection of
/// the running state, so changing any one field changes the fingerprint.
struct WordHash {
  uint64_t H = 1469598103934665603ull;
  void u64(uint64_t V) {
    H = (H ^ V) * 0x9E3779B97F4A7C15ull;
    H ^= H >> 29;
  }
  void bytes(const void *P, size_t N) {
    const char *B = static_cast<const char *>(P);
    for (size_t I = 0; I < N; I += 8) {
      uint64_t W = 0;
      std::memcpy(&W, B + I, std::min<size_t>(8, N - I));
      u64(W);
    }
  }
  void f64(double V) { u64(std::bit_cast<uint64_t>(V)); }
};

void hashOperand(WordHash &F, const Operand &O) {
  F.u64(static_cast<uint64_t>(O.K));
  F.u64(O.Reg);
  F.f64(O.Imm);
  F.u64(static_cast<uint64_t>(O.Offset));
  F.u64(static_cast<uint64_t>(O.Stride));
}

uint64_t fingerprint(const Routine &R) {
  WordHash F;
  F.u64(R.Name.size());
  F.bytes(R.Name.data(), R.Name.size());
  F.u64(R.NumPtrArgs);
  F.u64(R.NumScalarArgs);
  F.u64(R.NumSpillSlots);
  F.u64(R.Body.size());
  for (const Instruction &I : R.Body) {
    F.u64(static_cast<uint64_t>(I.Op));
    F.u64(I.Srcs.size());
    for (const Operand &S : I.Srcs)
      hashOperand(F, S);
    F.u64(I.DstVReg);
    F.u64(I.HasMemDst);
    if (I.HasMemDst)
      hashOperand(F, I.MemDst);
    F.u64(I.FusedWithPrev);
    F.u64(I.IsSpill);
  }
  return F.H;
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-PE sweep
//===----------------------------------------------------------------------===//

void CompiledRoutine::runPE(const ExecArgs &Args, const double *Consts,
                            size_t Pitch, unsigned PE) const {
  EngineScratch &S = tlsScratch();
  const size_t Rows = regRows() + 3; // Plus one gather row per source.
  if (S.Rows.size() < Rows * Pitch)
    S.Rows.resize(Rows * Pitch);
  if (S.Bases.size() < Ptrs.size())
    S.Bases.resize(Ptrs.size());
  for (size_t P = 0; P < Ptrs.size(); ++P) {
    const PtrBinding &B = Args.Ptrs[P];
    S.Bases[P] = B.Data + static_cast<size_t>(PE) * B.PEStride + B.Offset;
  }

  Strip St;
  St.Regs = S.Rows.data();
  St.Consts = Consts;
  St.Bases = S.Bases.data();
  St.Pitch = Pitch;
  St.GatherRow = regRows();
  const CompiledOp *Begin = Prog.data();
  const CompiledOp *End = Begin + Prog.size();
  for (int64_t First = 0; First < Args.SubgridElems;
       First += static_cast<int64_t>(Pitch)) {
    St.First = First;
    St.Lanes = static_cast<unsigned>(std::min<int64_t>(
        static_cast<int64_t>(Pitch), Args.SubgridElems - First));
    for (const CompiledOp *Op = Begin; Op != End; ++Op)
      Op->Kernel(*Op, St);
  }
}

//===----------------------------------------------------------------------===//
// RoutineCache
//===----------------------------------------------------------------------===//

RoutineCache::~RoutineCache() = default;

RoutineCache &RoutineCache::process() {
  static RoutineCache C;
  return C;
}

std::shared_ptr<const CompiledRoutine>
RoutineCache::get(const Routine &R, observe::MetricsRegistry *Metrics) {
  const uint64_t FP = fingerprint(R);
  std::shared_ptr<const CompiledRoutine> CR;
  bool Hit = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Map.find(&R);
    if (It != Map.end() && It->second.Fingerprint == FP) {
      ++Hits;
      Hit = true;
      CR = It->second.Compiled;
    } else {
      // Miss (or a stale entry from a freed routine whose address was
      // reused). Translation happens under the lock deliberately: when
      // multiple engines first touch one shared routine concurrently (the
      // serve scheduler's workers over a cached compilation), exactly one
      // translation runs and exactly one miss is counted, so the
      // peac.engine.cache.* totals stay a pure function of the workload.
      // Translation is a short, allocation-bound walk of the routine body;
      // holding the lock across it is cheaper than racing duplicates.
      CR = translate(R);
      if (Map.size() >= MaxEntries && !Map.count(&R))
        Map.clear();
      Map[&R] = Entry{FP, CR};
      ++Misses;
    }
  }
  if (Metrics)
    Metrics->count(Hit ? "peac.engine.cache.hits"
                       : "peac.engine.cache.misses");
  return CR;
}

void RoutineCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Map.clear();
}

size_t RoutineCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Map.size();
}

uint64_t RoutineCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

uint64_t RoutineCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

//===----------------------------------------------------------------------===//
// ExecutionEngine
//===----------------------------------------------------------------------===//

ExecResult ExecutionEngine::execute(const Routine &R, const ExecArgs &Args,
                                    const cm2::CostModel &Costs,
                                    support::ThreadPool *Pool,
                                    support::FaultInjector *FI,
                                    observe::MetricsRegistry *Metrics) {
  if (Kind == EngineKind::Interp)
    return peac::execute(R, Args, Costs, Pool, FI, Metrics);

  std::shared_ptr<const CompiledRoutine> CR = Cache->get(R, Metrics);
  F90Y_CHECK(CR->Use.VRegs <= Costs.VectorRegs,
             "PEAC routine uses more vector registers than the machine");
  F90Y_CHECK(CR->Use.SpillSlots <= R.NumSpillSlots,
             "PEAC routine references undeclared spill slots");
  F90Y_CHECK(CR->Use.ScalarArgs <= Args.Scalars.size(),
             "PEAC routine references unbound scalar arguments");
  F90Y_CHECK(R.NumPtrArgs <= Args.Ptrs.size(),
             "PEAC routine references unbound pointer arguments");
  if (!CR->admits(Args))
    return peac::execute(R, Args, Costs, Pool, FI, Metrics);

  // The strip sweeps the subgrid's real elements; the interpreter's
  // padding lanes compute values its masked stores drop, and no real lane
  // reads one. Scalar arguments and immediates are broadcast to rows of
  // the strip's length once here, on the calling thread before the
  // sweep, so kernels resolve them to plain pointers. Thread-local and
  // grown once, like the sweep scratch.
  const size_t Pitch = static_cast<size_t>(std::clamp<int64_t>(
      Args.SubgridElems, 0, static_cast<int64_t>(StripLanes)));
  static thread_local std::vector<double> ConstRows;
  if (ConstRows.size() < CR->constRows() * Pitch)
    ConstRows.resize(CR->constRows() * Pitch);
  for (unsigned Row = 0; Row < CR->constRows(); ++Row)
    std::fill_n(ConstRows.begin() + Row * Pitch, Pitch,
                Row < CR->Use.ScalarArgs
                    ? Args.Scalars[Row]
                    : CR->Imms[Row - CR->Use.ScalarArgs]);
  const double *Consts = ConstRows.data();

  const CompiledRoutine *Program = CR.get();
  return detail::dispatch(R, Args, Costs, Pool, FI, Metrics,
                          [Program, &Args, Consts, Pitch](unsigned PE) {
                            Program->runPE(Args, Consts, Pitch, PE);
                          });
}

void ExecutionEngine::warmup(const std::vector<Routine> &Routines,
                             observe::MetricsRegistry *Metrics) {
  if (Kind == EngineKind::Interp)
    return;
  for (const Routine &R : Routines)
    (void)Cache->get(R, Metrics);
}
