//===- tests/exec_engine_test.cpp - interp vs compiled engine equivalence ---===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled PEAC execution engine's contract (peac/Engine.h): for any
/// routine, it is bit-identical to the reference interpreter - subgrid
/// memory byte for byte, flops, and the cycle account - at every host
/// thread count, fault schedules included. Exercised by two randomized
/// property tests over all opcodes: one whose routines pass the strip
/// legality check (extents up to 600, so strips cross the cap and end
/// short; identically bound arguments; read-only offsets and strides) and
/// one over every operand form that mostly does not (read-before-write
/// registers, strided and aliased stores, zero divisors, degenerate
/// arities); plus one directed routine per rejection rule, the legality
/// of every routine the compiler emits for the sample programs, the
/// routine cache (compile-once, fingerprint invalidation) and whole
/// compiled programs under -exec=interp vs -exec=compiled.
///
//===----------------------------------------------------------------------===//

#include "driver/Config.h"
#include "driver/Driver.h"
#include "invariance/Invariance.h"
#include "observe/Metrics.h"
#include "peac/Engine.h"
#include "peac/Executor.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>

using namespace f90y;
using namespace f90y::peac;

namespace {

//===--------------------------------------------------------------------===//
// Randomized routine equivalence
//===--------------------------------------------------------------------===//

/// One randomly generated dispatch: a routine plus the storage and
/// argument bindings to run it against. Buffers hold the pristine input
/// state; every run starts from a fresh copy.
struct RandomCase {
  Routine R;
  unsigned NumPEs = 1;
  int64_t SubgridElems = 1;
  size_t PEStride = 0;
  std::vector<unsigned> PtrBuf; ///< Buffer index per pointer arg (aliasing).
  std::vector<size_t> PtrOffset; ///< Binding offset per pointer arg (or 0).
  std::vector<std::vector<double>> Buffers;
  std::vector<double> Scalars;
};

unsigned canonicalArity(Opcode Op) {
  switch (Op) {
  case Opcode::FMAddV:
  case Opcode::FSelV:
    return 3;
  case Opcode::FLodV:
  case Opcode::FStrV:
  case Opcode::FMovV:
  case Opcode::FNegV:
  case Opcode::FAbsV:
  case Opcode::FSqrtV:
  case Opcode::FSinV:
  case Opcode::FCosV:
  case Opcode::FTanV:
  case Opcode::FExpV:
  case Opcode::FLogV:
  case Opcode::FTrncV:
  case Opcode::FNotV:
    return 1;
  default:
    return 2;
  }
}

RandomCase makeCase(std::mt19937_64 &Rng, const cm2::CostModel &Costs) {
  auto Pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };

  RandomCase C;
  C.R.Name = "rand";
  C.R.NumPtrArgs = static_cast<unsigned>(Pick(1, 3));
  C.R.NumScalarArgs = 2;
  C.R.NumSpillSlots = static_cast<unsigned>(Pick(0, 2));
  C.NumPEs = static_cast<unsigned>(Pick(1, 6));
  C.SubgridElems = Pick(1, 20); // Odd extents force masked tails.

  // Worst-case addressable extent: offset <= 2, stride <= 2, at most
  // ceil(20/4)*4 = 20 padded elements. Sized so PE subgrids never
  // overlap (the executor's data-parallel contract).
  C.PEStride = 48;

  // Fewer distinct buffers than pointer args sometimes aliases two args
  // to one array, exercising read-before-write across operands.
  const unsigned NumBuffers = static_cast<unsigned>(
      Pick(1, static_cast<int>(C.R.NumPtrArgs)));
  for (unsigned P = 0; P < C.R.NumPtrArgs; ++P)
    C.PtrBuf.push_back(static_cast<unsigned>(Pick(0, NumBuffers - 1)));

  // Every element initialized (reads of tail padding are defined and
  // identical across engines); ~1 in 6 values is exactly zero so FDivV /
  // FModV hit IEEE zero-divisor lanes.
  std::uniform_real_distribution<double> Val(-8.0, 8.0);
  for (unsigned B = 0; B < NumBuffers; ++B) {
    std::vector<double> Buf(static_cast<size_t>(C.NumPEs) * C.PEStride);
    for (double &V : Buf)
      V = Pick(0, 5) == 0 ? 0.0 : Val(Rng);
    C.Buffers.push_back(std::move(Buf));
  }
  C.Scalars = {Val(Rng), Pick(0, 2) == 0 ? 0.0 : Val(Rng)};

  const unsigned MemRegs = C.R.NumPtrArgs + C.R.NumSpillSlots;
  auto RandomOperand = [&]() {
    switch (Pick(0, 9)) {
    case 0:
    case 1:
    case 2:
    case 3: // Mem (real or spill).
      return Operand::mem(static_cast<unsigned>(Pick(0, MemRegs - 1)),
                          /*Offset=*/Pick(0, 2),
                          /*Stride=*/Pick(0, 9) == 0 ? 0 : Pick(1, 2));
    case 4:
    case 5:
    case 6: // VReg.
      return Operand::vreg(static_cast<unsigned>(
          Pick(0, static_cast<int>(Costs.VectorRegs) - 1)));
    case 7:
    case 8: // SReg.
      return Operand::sreg(static_cast<unsigned>(Pick(0, 1)));
    default: // Imm.
      return Operand::imm(Pick(0, 4) == 0 ? 0.0 : Val(Rng));
    }
  };

  const int BodyLen = Pick(3, 14);
  for (int I = 0; I < BodyLen; ++I) {
    Instruction Ins;
    Ins.Op = static_cast<Opcode>(
        Pick(0, static_cast<int>(Opcode::FSelV)));
    // Mostly the canonical arity, sometimes over- or under-supplied
    // sources (missing ones read as zero; extras are ignored).
    const unsigned NSrcs = Pick(0, 4) == 0
                               ? static_cast<unsigned>(Pick(0, 3))
                               : canonicalArity(Ins.Op);
    for (unsigned S = 0; S < NSrcs; ++S)
      Ins.Srcs.push_back(RandomOperand());
    if (Pick(0, 9) < 3) {
      Ins.HasMemDst = true;
      Ins.MemDst =
          Operand::mem(static_cast<unsigned>(Pick(0, MemRegs - 1)),
                       Pick(0, 2), Pick(0, 9) == 0 ? 0 : Pick(1, 2));
    } else {
      Ins.DstVReg = static_cast<unsigned>(
          Pick(0, static_cast<int>(Costs.VectorRegs) - 1));
    }
    C.R.Body.push_back(Ins);
  }

  // Always end with a real-memory store so the run's effect is visible
  // in subgrid memory.
  Instruction Store;
  Store.Op = Opcode::FStrV;
  Store.Srcs = {Operand::vreg(0)};
  Store.HasMemDst = true;
  Store.MemDst = Operand::mem(
      static_cast<unsigned>(Pick(0, static_cast<int>(C.R.NumPtrArgs) - 1)));
  C.R.Body.push_back(Store);
  return C;
}

/// The post-run state of one execution: final buffer bytes + account.
struct RunOut {
  std::vector<std::vector<double>> Mem;
  ExecResult Res;
};

/// Binds \p C's pointer arguments into \p Mem, a copy of its buffers.
ExecArgs bindCase(const RandomCase &C, std::vector<std::vector<double>> &Mem) {
  ExecArgs Args;
  Args.NumPEs = C.NumPEs;
  Args.SubgridElems = C.SubgridElems;
  Args.Scalars = C.Scalars;
  for (unsigned P = 0; P < C.R.NumPtrArgs; ++P)
    Args.Ptrs.push_back({Mem[C.PtrBuf[P]].data(), C.PEStride,
                         P < C.PtrOffset.size() ? C.PtrOffset[P] : 0});
  return Args;
}

RunOut runCase(const RandomCase &C, const cm2::CostModel &Costs,
               EngineKind Kind, support::ThreadPool *Pool,
               RoutineCache *Cache) {
  RunOut Out;
  Out.Mem = C.Buffers; // Fresh copy of the pristine inputs.
  ExecArgs Args = bindCase(C, Out.Mem);
  if (Kind == EngineKind::Interp) {
    Out.Res = peac::execute(C.R, Args, Costs, Pool);
  } else {
    ExecutionEngine Engine(EngineKind::Compiled, Cache);
    Out.Res = Engine.execute(C.R, Args, Costs, Pool);
  }
  return Out;
}

/// Whether the compiled engine sweeps \p C op by strip.
bool takesStripPath(const RandomCase &C) {
  std::vector<std::vector<double>> Mem = C.Buffers;
  ExecArgs Args = bindCase(C, Mem);
  return stripLegal(C.R, &Args);
}

/// Byte comparison (doubles may be NaN; equality on bits is the
/// contract, not IEEE ==).
bool sameBytes(const std::vector<std::vector<double>> &A,
               const std::vector<std::vector<double>> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I].size() != B[I].size())
      return false;
    if (std::memcmp(A[I].data(), B[I].data(),
                    A[I].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Expects the interpreter on \p Pool and the compiled engine, single-
/// threaded and on \p Pool, to match the single-threaded interpreter on
/// \p C bit for bit.
void expectCompiledMatchesInterp(const RandomCase &C,
                                 const cm2::CostModel &Costs,
                                 support::ThreadPool &Pool,
                                 RoutineCache &Cache, const std::string &What) {
  RunOut Ref = runCase(C, Costs, EngineKind::Interp, nullptr, nullptr);
  struct Variant {
    const char *Name;
    EngineKind Kind;
    support::ThreadPool *Pool;
  } Variants[] = {
      {"interp/threads=8", EngineKind::Interp, &Pool},
      {"compiled/threads=1", EngineKind::Compiled, nullptr},
      {"compiled/threads=8", EngineKind::Compiled, &Pool},
  };
  for (const Variant &V : Variants) {
    RunOut Got = runCase(C, Costs, V.Kind, V.Pool, &Cache);
    EXPECT_TRUE(sameBytes(Ref.Mem, Got.Mem))
        << What << " (" << V.Name << "): subgrid memory diverged\n"
        << C.R.str();
    EXPECT_EQ(Ref.Res.Flops, Got.Res.Flops) << What << " (" << V.Name << ")";
    EXPECT_EQ(Ref.Res.NodeCycles, Got.Res.NodeCycles) << What;
    EXPECT_EQ(Ref.Res.CallCycles, Got.Res.CallCycles) << What;
  }
}

TEST(ExecEngineEquivalence, RandomRoutinesMatchInterpreterBitForBit) {
  cm2::CostModel Costs;
  Costs.NumPEs = 8;
  std::mt19937_64 Rng(0xf90d5eed);
  support::ThreadPool Pool(8);
  RoutineCache Cache;
  for (int Case = 0; Case < 60; ++Case)
    expectCompiledMatchesInterp(makeCase(Rng, Costs), Costs, Pool, Cache,
                                "case " + std::to_string(Case));
}

//===--------------------------------------------------------------------===//
// The strip path and its fallback
//===--------------------------------------------------------------------===//

/// A random dispatch built to pass the strip legality check: every
/// register and spill slot is written before it is read, written pointers
/// are addressed at offset 0 and stride 1, read-only ones at offsets 0-2
/// and strides 0-2, and pointer 1 is sometimes bound to pointer 0's
/// buffer. Extents of 1-600 elements make strips cross the 256-lane cap
/// and end short of a whole vector iteration.
RandomCase makeStripCase(std::mt19937_64 &Rng, const cm2::CostModel &Costs) {
  auto Pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };

  RandomCase C;
  C.R.Name = "strip";
  C.R.NumPtrArgs = static_cast<unsigned>(Pick(2, 4));
  C.R.NumScalarArgs = 2;
  C.R.NumSpillSlots = static_cast<unsigned>(Pick(0, 2));
  C.NumPEs = static_cast<unsigned>(Pick(1, 4));
  C.SubgridElems = Pick(1, 600);
  // Read-only operands reach element 2 + 2 * (padded - 1): the
  // interpreter reads its padding lanes too. PE slices never overlap.
  const int64_t Width = Costs.VectorWidth;
  const int64_t Padded = (C.SubgridElems + Width - 1) / Width * Width;
  C.PEStride = static_cast<size_t>(2 * Padded + 4);

  // Pointer 0 is written. Pointer 1 is bound identically to pointer 0
  // half the time and then must be unit as well; written or not, it is
  // one more view of pointer 0. Later pointers are read-only, sometimes
  // sharing a buffer with the one before them.
  const unsigned N = C.R.NumPtrArgs;
  std::vector<bool> Writable(N, false), Unit(N, false);
  Writable[0] = Unit[0] = true;
  C.PtrBuf = {0};
  unsigned NumBuffers = 1;
  const bool Alias = Pick(0, 1) == 1;
  Writable[1] = Pick(0, 1) == 1;
  Unit[1] = Alias || Writable[1];
  C.PtrBuf.push_back(Alias ? 0 : NumBuffers++);
  for (unsigned P = 2; P < N; ++P)
    C.PtrBuf.push_back(P > 2 && Pick(0, 2) == 0 ? C.PtrBuf.back()
                                                : NumBuffers++);

  std::uniform_real_distribution<double> Val(-8.0, 8.0);
  for (unsigned B = 0; B < NumBuffers; ++B) {
    std::vector<double> Buf(static_cast<size_t>(C.NumPEs) * C.PEStride);
    for (double &V : Buf)
      V = Pick(0, 5) == 0 ? 0.0 : Val(Rng);
    C.Buffers.push_back(std::move(Buf));
  }
  C.Scalars = {Val(Rng), Pick(0, 2) == 0 ? 0.0 : Val(Rng)};

  std::vector<unsigned> LiveRegs, LiveSpills;
  auto PtrOperand = [&](unsigned P) {
    return Unit[P] ? Operand::mem(P)
                   : Operand::mem(P, Pick(0, 2), Pick(0, 2));
  };
  auto PickFrom = [&](const std::vector<unsigned> &V) {
    return V[static_cast<size_t>(Pick(0, static_cast<int>(V.size()) - 1))];
  };
  auto Source = [&]() {
    for (;;) {
      switch (Pick(0, 9)) {
      case 0:
      case 1:
      case 2:
        return PtrOperand(static_cast<unsigned>(Pick(0, N - 1)));
      case 3: // A spill slot ignores the operand's offset and stride.
        if (!LiveSpills.empty())
          return Operand::mem(N + PickFrom(LiveSpills), Pick(0, 2),
                              Pick(0, 2));
        break;
      case 4:
      case 5:
      case 6:
        if (!LiveRegs.empty())
          return Operand::vreg(PickFrom(LiveRegs));
        break;
      case 7:
        return Operand::sreg(static_cast<unsigned>(Pick(0, 1)));
      default:
        return Operand::imm(Pick(0, 4) == 0 ? 0.0 : Val(Rng));
      }
    }
  };
  auto Live = [](std::vector<unsigned> &V, unsigned X) {
    if (std::find(V.begin(), V.end(), X) == V.end())
      V.push_back(X);
  };

  Instruction Load;
  Load.Op = Opcode::FLodV;
  Load.Srcs = {PtrOperand(static_cast<unsigned>(Pick(0, N - 1)))};
  Load.DstVReg = 0;
  C.R.Body.push_back(Load);
  LiveRegs.push_back(0);

  const int BodyLen = Pick(3, 16);
  for (int I = 0; I < BodyLen; ++I) {
    Instruction Ins;
    Ins.Op = static_cast<Opcode>(Pick(0, static_cast<int>(Opcode::FSelV)));
    const unsigned NSrcs = Pick(0, 4) == 0
                               ? static_cast<unsigned>(Pick(0, 3))
                               : canonicalArity(Ins.Op);
    for (unsigned S = 0; S < NSrcs; ++S)
      Ins.Srcs.push_back(Source());
    const int Dst = Pick(0, 9);
    if (Dst < 2 && C.R.NumSpillSlots > 0) {
      const unsigned Slot = static_cast<unsigned>(
          Pick(0, static_cast<int>(C.R.NumSpillSlots) - 1));
      Ins.HasMemDst = true;
      Ins.MemDst = Operand::mem(N + Slot, Pick(0, 2), Pick(0, 2));
      Live(LiveSpills, Slot);
    } else if (Dst < 4) {
      Ins.HasMemDst = true;
      Ins.MemDst = Operand::mem(Writable[1] && Pick(0, 1) ? 1 : 0);
    } else {
      Ins.DstVReg = static_cast<unsigned>(
          Pick(0, static_cast<int>(Costs.VectorRegs) - 1));
      Live(LiveRegs, Ins.DstVReg);
    }
    C.R.Body.push_back(Ins);
  }

  Instruction Store;
  Store.Op = Opcode::FStrV;
  Store.Srcs = {Operand::vreg(PickFrom(LiveRegs))};
  Store.HasMemDst = true;
  Store.MemDst = Operand::mem(0);
  C.R.Body.push_back(Store);
  return C;
}

TEST(StripPath, GeneratedRoutinesMatchInterpreterBitForBit) {
  cm2::CostModel Costs;
  Costs.NumPEs = 8;
  std::mt19937_64 Rng(0x57121b5);
  support::ThreadPool Pool(8);
  RoutineCache Cache;
  bool CrossedCap = false, Aliased = false;
  for (int Case = 0; Case < 80; ++Case) {
    RandomCase C = makeStripCase(Rng, Costs);
    ASSERT_TRUE(takesStripPath(C)) << "case " << Case << "\n" << C.R.str();
    CrossedCap |= C.SubgridElems > 256;
    Aliased |= C.PtrBuf[1] == C.PtrBuf[0];
    expectCompiledMatchesInterp(C, Costs, Pool, Cache,
                                "case " + std::to_string(Case));
  }
  EXPECT_TRUE(CrossedCap);
  EXPECT_TRUE(Aliased);
}

TEST(ExecEngineEquivalence, ManyPEsSpanMultipleChunks) {
  // Enough PEs that the pool splits the sweep into many chunks; the
  // compiled engine's per-thread strip scratch must still keep PEs
  // independent.
  cm2::CostModel Costs;
  std::mt19937_64 Rng(77);
  support::ThreadPool Pool(8);
  RoutineCache Cache;
  for (int Case = 0; Case < 6; ++Case) {
    RandomCase C = makeStripCase(Rng, Costs);
    C.NumPEs = 150;
    for (auto &Buf : C.Buffers) {
      Buf.resize(static_cast<size_t>(C.NumPEs) * C.PEStride);
      std::mt19937_64 Fill(Case * 1000 + 17);
      std::uniform_real_distribution<double> Val(-4.0, 4.0);
      for (double &V : Buf)
        V = Val(Fill);
    }
    ASSERT_TRUE(takesStripPath(C)) << C.R.str();
    RunOut Ref = runCase(C, Costs, EngineKind::Interp, nullptr, nullptr);
    RunOut Got = runCase(C, Costs, EngineKind::Compiled, &Pool, &Cache);
    EXPECT_TRUE(sameBytes(Ref.Mem, Got.Mem)) << C.R.str();
    EXPECT_EQ(Ref.Res.Flops, Got.Res.Flops);
  }
}

/// A straight-line body over two pointers, 300 elements on 3 PEs: one
/// strip past the cap, were the strip path to take it.
RandomCase fallbackCase(std::vector<Instruction> Body, unsigned NumSpill = 0) {
  RandomCase C;
  C.R.Name = "fallback";
  C.R.NumPtrArgs = 2;
  C.R.NumSpillSlots = NumSpill;
  C.R.Body = std::move(Body);
  C.NumPEs = 3;
  C.SubgridElems = 300;
  C.PEStride = 2 * 300 + 8; // Room for a stride-2 store.
  C.PtrBuf = {0, 1};
  for (unsigned B = 0; B < 2; ++B) {
    std::vector<double> Buf(static_cast<size_t>(C.NumPEs) * C.PEStride);
    for (size_t I = 0; I < Buf.size(); ++I)
      Buf[I] = 0.25 * static_cast<double>((I * 7 + B) % 19);
    C.Buffers.push_back(std::move(Buf));
  }
  return C;
}

Instruction op(Opcode Op, std::vector<Operand> Srcs, unsigned Dst) {
  Instruction I;
  I.Op = Op;
  I.Srcs = std::move(Srcs);
  I.DstVReg = Dst;
  return I;
}

Instruction storeTo(Operand Src, Operand Dst) {
  Instruction I;
  I.Op = Opcode::FStrV;
  I.Srcs = {Src};
  I.HasMemDst = true;
  I.MemDst = Dst;
  return I;
}

/// Expects \p C to be refused the strip path and to match the
/// interpreter through the fallback.
void expectFallback(const RandomCase &C, const std::string &What) {
  cm2::CostModel Costs;
  support::ThreadPool Pool(8);
  RoutineCache Cache;
  EXPECT_FALSE(takesStripPath(C)) << What;
  expectCompiledMatchesInterp(C, Costs, Pool, Cache, What);
}

TEST(StripPath, RegisterReadBeforeWriteFallsBack) {
  // aV1 accumulates across iterations: each one reads the last one's.
  RandomCase C = fallbackCase({
      op(Opcode::FAddV, {Operand::vreg(1), Operand::mem(0)}, 1),
      storeTo(Operand::vreg(1), Operand::mem(1)),
  });
  EXPECT_FALSE(stripLegal(C.R));
  expectFallback(C, "register read before write");
}

TEST(StripPath, SpillReloadBeforeStoreFallsBack) {
  // The reload sees the previous iteration's spill.
  RandomCase C = fallbackCase(
      {
          op(Opcode::FLodV, {Operand::mem(2)}, 0),
          op(Opcode::FLodV, {Operand::mem(0)}, 1),
          storeTo(Operand::vreg(1), Operand::mem(2)),
          op(Opcode::FAddV, {Operand::vreg(0), Operand::vreg(1)}, 2),
          storeTo(Operand::vreg(2), Operand::mem(1)),
      },
      /*NumSpill=*/1);
  EXPECT_FALSE(stripLegal(C.R));
  expectFallback(C, "spill reload before store");
}

TEST(StripPath, WrittenPointerOffsetOrStrideFallsBack) {
  // Each iteration reads an element the one before it stored.
  RandomCase Offset = fallbackCase({
      op(Opcode::FLodV, {Operand::mem(0)}, 0),
      op(Opcode::FAddV, {Operand::vreg(0), Operand::imm(1.0)}, 0),
      storeTo(Operand::vreg(0), Operand::mem(0, /*Offset=*/1)),
  });
  EXPECT_FALSE(stripLegal(Offset.R));
  expectFallback(Offset, "written pointer at offset 1");

  RandomCase Stride = fallbackCase({
      op(Opcode::FLodV, {Operand::mem(0)}, 0),
      op(Opcode::FMulV, {Operand::vreg(0), Operand::imm(3.0)}, 0),
      storeTo(Operand::vreg(0), Operand::mem(0, 0, /*Stride=*/2)),
  });
  EXPECT_FALSE(stripLegal(Stride.R));
  expectFallback(Stride, "written pointer at stride 2");
}

TEST(StripPath, OverlappingBindingsFallBack) {
  // A legal routine whose dispatch binds both pointers into one buffer,
  // one element apart: every store lands on the next element's input.
  RandomCase C = fallbackCase({
      op(Opcode::FLodV, {Operand::mem(0)}, 0),
      op(Opcode::FAddV, {Operand::vreg(0), Operand::imm(0.5)}, 1),
      storeTo(Operand::vreg(1), Operand::mem(1)),
  });
  EXPECT_TRUE(stripLegal(C.R));
  C.PtrBuf = {0, 0};
  C.PtrOffset = {0, 1};
  expectFallback(C, "bindings at offsets 0 and 1 of one buffer");
}

//===--------------------------------------------------------------------===//
// Scratch sizing
//===--------------------------------------------------------------------===//

TEST(ScratchUse, ScansRegistersSpillSlotsAndScalars) {
  Routine R;
  R.NumPtrArgs = 2;
  R.NumSpillSlots = 3;
  Instruction I;
  I.Op = Opcode::FMAddV;
  I.Srcs = {Operand::vreg(5), Operand::sreg(3), Operand::mem(1)};
  I.DstVReg = 2;
  R.Body.push_back(I);
  Instruction Sp;
  Sp.Op = Opcode::FStrV;
  Sp.Srcs = {Operand::vreg(0)};
  Sp.HasMemDst = true;
  Sp.MemDst = Operand::mem(4); // Spill slot 2 (4 - NumPtrArgs).
  R.Body.push_back(Sp);

  ScratchUse Use = R.scratchUse();
  EXPECT_EQ(Use.VRegs, 6u);      // aV5 is the max referenced.
  EXPECT_EQ(Use.ScalarArgs, 4u); // aS3.
  EXPECT_EQ(Use.SpillSlots, 3u); // Slot 2.
}

TEST(ScratchUse, EmptyRoutineUsesNothing) {
  Routine R;
  ScratchUse Use = R.scratchUse();
  EXPECT_EQ(Use.VRegs, 0u);
  EXPECT_EQ(Use.ScalarArgs, 0u);
  EXPECT_EQ(Use.SpillSlots, 0u);
}

//===--------------------------------------------------------------------===//
// Routine cache
//===--------------------------------------------------------------------===//

/// z = x + K over 2 PEs; small enough to eyeball.
RandomCase addCase(double K) {
  RandomCase C;
  C.R.Name = "addk";
  C.R.NumPtrArgs = 2;
  C.NumPEs = 2;
  C.SubgridElems = 5;
  C.PEStride = 8;
  Instruction Load;
  Load.Op = Opcode::FLodV;
  Load.Srcs = {Operand::mem(0)};
  Load.DstVReg = 1;
  C.R.Body.push_back(Load);
  Instruction Add;
  Add.Op = Opcode::FAddV;
  Add.Srcs = {Operand::vreg(1), Operand::imm(K)};
  Add.DstVReg = 2;
  C.R.Body.push_back(Add);
  Instruction Store;
  Store.Op = Opcode::FStrV;
  Store.Srcs = {Operand::vreg(2)};
  Store.HasMemDst = true;
  Store.MemDst = Operand::mem(1);
  C.R.Body.push_back(Store);
  C.PtrBuf = {0, 1};
  C.Buffers.resize(2, std::vector<double>(16, 0.0));
  for (int I = 0; I < 16; ++I)
    C.Buffers[0][static_cast<size_t>(I)] = I;
  return C;
}

TEST(RoutineCache, TimestepLoopCompilesOnce) {
  cm2::CostModel Costs;
  RoutineCache Cache;
  observe::MetricsRegistry Metrics;
  ExecutionEngine Engine(EngineKind::Compiled, &Cache);
  RandomCase C = addCase(1.0);

  for (int Step = 0; Step < 5; ++Step) {
    auto Mem = C.Buffers;
    ExecArgs Args;
    Args.NumPEs = C.NumPEs;
    Args.SubgridElems = C.SubgridElems;
    for (unsigned P = 0; P < C.R.NumPtrArgs; ++P)
      Args.Ptrs.push_back({Mem[P].data(), C.PEStride, 0});
    Engine.execute(C.R, Args, Costs, nullptr, nullptr, &Metrics);
  }

  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 4u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Metrics.value("peac.engine.cache.misses"), 1u);
  EXPECT_EQ(Metrics.value("peac.engine.cache.hits"), 4u);
}

TEST(RoutineCache, FingerprintCatchesInPlaceMutation) {
  // Same Routine object, body mutated between dispatches: the address
  // matches but the fingerprint must not, so the cache recompiles and
  // the run reflects the new body.
  cm2::CostModel Costs;
  RoutineCache Cache;
  ExecutionEngine Engine(EngineKind::Compiled, &Cache);
  RandomCase C = addCase(1.0);

  auto RunOnce = [&]() {
    auto Mem = C.Buffers;
    ExecArgs Args;
    Args.NumPEs = C.NumPEs;
    Args.SubgridElems = C.SubgridElems;
    for (unsigned P = 0; P < C.R.NumPtrArgs; ++P)
      Args.Ptrs.push_back({Mem[P].data(), C.PEStride, 0});
    Engine.execute(C.R, Args, Costs);
    return Mem[1];
  };

  std::vector<double> First = RunOnce();
  EXPECT_DOUBLE_EQ(First[0], 1.0); // 0 + 1
  C.R.Body[1].Srcs[1] = Operand::imm(10.0);
  std::vector<double> Second = RunOnce();
  EXPECT_DOUBLE_EQ(Second[0], 10.0); // 0 + 10
  EXPECT_EQ(Cache.misses(), 2u);
  EXPECT_EQ(Cache.hits(), 0u);
}

//===--------------------------------------------------------------------===//
// Whole programs: -exec=interp vs -exec=compiled
//===--------------------------------------------------------------------===//

class ExecEngineProgramTest : public ::testing::TestWithParam<const char *> {
};

TEST_P(ExecEngineProgramTest, CompiledMatchesInterpAtEveryThreadCount) {
  invariance::Matrix M;
  M.Base = {{"-pes=256", "-comm=sync"}};
  EXPECT_EQ(invariance::check(invariance::sampleProgram(GetParam()), M)
                .Divergence,
            "");
}

TEST_P(ExecEngineProgramTest, FaultSchedulesAreEngineIndependent) {
  // A fired PE trap sweeps the PEs before the faulting one and replays
  // after rollback; the partial stores and the recovery account must be
  // identical under either engine.
  invariance::Matrix M;
  M.Base = {{"-pes=64", "-comm=sync",
             "-faults=pe-trap:0.05,fpu:0.05,corrupt:0.03", "-fault-seed=9"}};
  EXPECT_EQ(invariance::check(invariance::sampleProgram(GetParam()), M)
                .Divergence,
            "");
}

INSTANTIATE_TEST_SUITE_P(SamplePrograms, ExecEngineProgramTest,
                         ::testing::Values("fig10.f90", "swe.f90",
                                           "mswe.f90"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           std::string Name = I.param;
                           return Name.substr(0, Name.find('.'));
                         });

TEST(StripPath, EmittedRoutinesPassTheLegalityCheck) {
  // The compiler's own routines never read a register before writing it
  // and store only at offset 0, stride 1, so real traffic takes the strip
  // path under every profile and on either machine.
  for (const char *Name :
       {"fig10.f90", "swe.f90", "mswe.f90", "subroutines.f90"})
    for (driver::Profile P : {driver::Profile::F90Y, driver::Profile::CMFStyle,
                              driver::Profile::Naive})
      for (bool Cm5 : {false, true}) {
        driver::Config Cfg;
        Cfg.Prof = P;
        Cfg.Cm5 = Cm5;
        driver::Compilation C(Cfg.compileOptions());
        ASSERT_TRUE(C.compile(invariance::sampleProgram(Name)))
            << C.diags().str();
        const std::vector<Routine> &Routines =
            C.artifacts().Compiled.Program.Routines;
        EXPECT_FALSE(Routines.empty()) << Name;
        for (const Routine &R : Routines)
          EXPECT_TRUE(stripLegal(R))
              << Name << " (profile " << static_cast<int>(P)
              << (Cm5 ? ", cm5" : "") << ")\n"
              << R.str();
      }
}

} // namespace
