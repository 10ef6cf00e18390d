//===- peac/Peac.h - Processing Element Assembly Code -------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PEAC: the assembly language of the slicewise CM/2 processing element
/// (paper Section 2.2, Figure 12). PEAC programs the Weitek WTL3164 as a
/// four-wide vector processor, supports overlapping memory access with
/// arithmetic (dual issue), chained in-memory operands, and the chained
/// multiply-add.
///
/// A PEAC routine in this prototype is exactly one virtual subgrid loop:
/// a straight-line body executed ceil(VP/4) times, walking every pointer
/// operand with post-increment, closed by `jnz ac2 <label>`. This matches
/// the restriction the CM/PE NIR compiler places on its input (paper
/// Section 5.2).
///
/// Register files:
///   aV0..aV7    four-wide vector registers (the Weitek register file)
///   aS0..       scalar registers, loaded from IFIFO arguments
///   aP0..       pointer registers, one per subgrid operand
///   ac2         the virtual-subgrid loop counter
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_PEAC_PEAC_H
#define F90Y_PEAC_PEAC_H

#include "cm2/CostModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace f90y {
namespace peac {

/// PEAC opcodes. The f...v family is vector (4-wide); every arithmetic op
/// may take one chained in-memory operand in place of a register.
enum class Opcode {
  FLodV,  ///< flodv [aPk+off]s++ aVd      : vector load
  FStrV,  ///< fstrv aVs [aPk+off]s++      : vector store
  FMovV,  ///< fmovv a aVd                 : vector move / broadcast
  FAddV,
  FSubV,
  FMulV,
  FDivV,
  FMinV,
  FMaxV,
  FModV,  ///< Fortran MOD (sign of dividend)
  FPowV,  ///< general power (software)
  FMAddV, ///< fmaddv a b c aVd : d = a*b + c (chained multiply-add)
  FNegV,
  FAbsV,
  FSqrtV,
  FSinV,
  FCosV,
  FTanV,
  FExpV,
  FLogV,
  FTrncV, ///< truncate toward zero (float->int semantics)
  FNotV,  ///< logical negation of a 0/1 mask
  FCmpEqV,
  FCmpNeV,
  FCmpLtV,
  FCmpLeV,
  FCmpGtV,
  FCmpGeV,
  FAndV,
  FOrV,
  FSelV ///< fselv m a b aVd : d = m ? a : b (masked move)
};

/// True for opcodes whose execution performs floating-point arithmetic
/// (the flop-accounting set).
bool isFloatingArith(Opcode Op);
/// Number of flops per *element* for \p Op (2 for fmaddv, else 1/0).
unsigned flopsPerElement(Opcode Op);
/// Mnemonic ("faddv").
const char *opcodeName(Opcode Op);
/// The interned metrics-registry key for \p Op ("peac.op.faddv"). Stable
/// storage for the life of the process, so per-dispatch accounting never
/// rebuilds the string.
const std::string &opcodeMetricName(Opcode Op);

/// One instruction operand.
struct Operand {
  enum class Kind {
    VReg, ///< aVn
    SReg, ///< aSn (scalar broadcast)
    Imm,  ///< immediate scalar (assembled into the instruction stream)
    Mem   ///< [aPn+off]stride++ (chained memory access)
  };

  Kind K = Kind::VReg;
  unsigned Reg = 0;   ///< VReg/SReg/Mem pointer-register number.
  double Imm = 0.0;   ///< Imm payload.
  int64_t Offset = 0; ///< Mem: element offset from the pointer register.
  int64_t Stride = 1; ///< Mem: element stride between lanes.

  static Operand vreg(unsigned N) {
    Operand O;
    O.K = Kind::VReg;
    O.Reg = N;
    return O;
  }
  static Operand sreg(unsigned N) {
    Operand O;
    O.K = Kind::SReg;
    O.Reg = N;
    return O;
  }
  static Operand imm(double V) {
    Operand O;
    O.K = Kind::Imm;
    O.Imm = V;
    return O;
  }
  static Operand mem(unsigned Ptr, int64_t Offset = 0, int64_t Stride = 1) {
    Operand O;
    O.K = Kind::Mem;
    O.Reg = Ptr;
    O.Offset = Offset;
    O.Stride = Stride;
    return O;
  }

  bool isMem() const { return K == Kind::Mem; }

  std::string str() const;
};

/// One PEAC instruction. `FusedWithPrev` marks dual issue: this
/// instruction shares a sequencer slot with the previous one (a memory op
/// overlapped with an ALU op, printed on one line in Figure 12 style).
struct Instruction {
  Opcode Op = Opcode::FMovV;
  std::vector<Operand> Srcs;
  unsigned DstVReg = 0;       ///< Destination vector register.
  Operand MemDst;             ///< FStrV only: destination memory operand.
  bool HasMemDst = false;
  bool FusedWithPrev = false;
  /// Spill traffic (register pressure overflow); costed at half the
  /// published 18-cycle spill/restore pair rather than a plain vector
  /// memory access.
  bool IsSpill = false;

  bool readsMemory() const {
    for (const Operand &S : Srcs)
      if (S.isMem())
        return true;
    return false;
  }
  bool touchesMemory() const { return HasMemDst || readsMemory(); }

  std::string str() const;
};

/// The register-file footprint a routine actually touches, computed by
/// one scan of the body. Executors size per-PE scratch from this (not
/// from the machine's full file sizes) and check it against the machine
/// once per dispatch.
struct ScratchUse {
  unsigned VRegs = 0;      ///< Max vector register referenced, plus one.
  unsigned SpillSlots = 0; ///< Max spill slot referenced, plus one.
  unsigned ScalarArgs = 0; ///< Max scalar register referenced, plus one.
};

/// A complete PEAC routine: one virtual subgrid loop.
struct Routine {
  std::string Name;
  unsigned NumPtrArgs = 0;    ///< aP0..: subgrid base pointers (IFIFO).
  unsigned NumScalarArgs = 0; ///< aS0..: scalar broadcast values (IFIFO).
  unsigned NumSpillSlots = 0; ///< 4-wide scratch slots in PE memory.
  std::vector<Instruction> Body;

  /// Scans the body for the registers it actually references (vector
  /// destinations and sources, scalar sources, and memory operands with
  /// Reg >= NumPtrArgs, which address spill slots).
  ScratchUse scratchUse() const;

  /// Renders the routine in Figure 12 style.
  std::string str() const;

  /// Static instruction count of the loop body (jnz excluded).
  unsigned bodyInstructionCount() const {
    return static_cast<unsigned>(Body.size());
  }

  /// Number of issue slots after dual-issue packing.
  unsigned slotCount() const;

  /// Sequencer cycles for one body iteration under \p Costs (slot cost is
  /// the max over fused instructions; spill traffic is already explicit as
  /// loads/stores of spill slots, charged at the published pair cost).
  double cyclesPerIteration(const cm2::CostModel &Costs) const;
};

/// Cycle cost of a single instruction (its full slot cost when unfused).
double instructionCycles(const Instruction &I, const cm2::CostModel &Costs);

} // namespace peac
} // namespace f90y

#endif // F90Y_PEAC_PEAC_H
