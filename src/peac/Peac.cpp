//===- peac/Peac.cpp - PEAC ISA, printing, and costing ----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "peac/Peac.h"

#include "support/StringUtil.h"

#include <algorithm>

using namespace f90y;
using namespace f90y::peac;

const char *peac::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::FLodV:
    return "flodv";
  case Opcode::FStrV:
    return "fstrv";
  case Opcode::FMovV:
    return "fmovv";
  case Opcode::FAddV:
    return "faddv";
  case Opcode::FSubV:
    return "fsubv";
  case Opcode::FMulV:
    return "fmulv";
  case Opcode::FDivV:
    return "fdivv";
  case Opcode::FMinV:
    return "fminv";
  case Opcode::FMaxV:
    return "fmaxv";
  case Opcode::FModV:
    return "fmodv";
  case Opcode::FPowV:
    return "fpowv";
  case Opcode::FMAddV:
    return "fmaddv";
  case Opcode::FNegV:
    return "fnegv";
  case Opcode::FAbsV:
    return "fabsv";
  case Opcode::FSqrtV:
    return "fsqrtv";
  case Opcode::FSinV:
    return "fsinv";
  case Opcode::FCosV:
    return "fcosv";
  case Opcode::FTanV:
    return "ftanv";
  case Opcode::FExpV:
    return "fexpv";
  case Opcode::FLogV:
    return "flogv";
  case Opcode::FTrncV:
    return "ftrncv";
  case Opcode::FNotV:
    return "fnotv";
  case Opcode::FCmpEqV:
    return "fcmpeqv";
  case Opcode::FCmpNeV:
    return "fcmpnev";
  case Opcode::FCmpLtV:
    return "fcmpltv";
  case Opcode::FCmpLeV:
    return "fcmplev";
  case Opcode::FCmpGtV:
    return "fcmpgtv";
  case Opcode::FCmpGeV:
    return "fcmpgev";
  case Opcode::FAndV:
    return "fandv";
  case Opcode::FOrV:
    return "forv";
  case Opcode::FSelV:
    return "fselv";
  }
  return "f???v";
}

const std::string &peac::opcodeMetricName(Opcode Op) {
  // Interned once per process: dispatch accounting bumps one counter per
  // body instruction, and building "peac.op." + mnemonic there would put
  // a heap allocation on the hot path.
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> V;
    constexpr unsigned NumOpcodes =
        static_cast<unsigned>(Opcode::FSelV) + 1;
    V.reserve(NumOpcodes);
    for (unsigned I = 0; I < NumOpcodes; ++I)
      V.push_back(std::string("peac.op.") +
                  opcodeName(static_cast<Opcode>(I)));
    return V;
  }();
  return Names[static_cast<unsigned>(Op)];
}

bool peac::isFloatingArith(Opcode Op) {
  switch (Op) {
  case Opcode::FAddV:
  case Opcode::FSubV:
  case Opcode::FMulV:
  case Opcode::FDivV:
  case Opcode::FMinV:
  case Opcode::FMaxV:
  case Opcode::FModV:
  case Opcode::FPowV:
  case Opcode::FMAddV:
  case Opcode::FNegV:
  case Opcode::FAbsV:
  case Opcode::FSqrtV:
  case Opcode::FSinV:
  case Opcode::FCosV:
  case Opcode::FTanV:
  case Opcode::FExpV:
  case Opcode::FLogV:
    return true;
  default:
    return false;
  }
}

unsigned peac::flopsPerElement(Opcode Op) {
  if (Op == Opcode::FMAddV)
    return 2;
  return isFloatingArith(Op) ? 1 : 0;
}

std::string Operand::str() const {
  switch (K) {
  case Kind::VReg:
    return "aV" + std::to_string(Reg);
  case Kind::SReg:
    return "aS" + std::to_string(Reg);
  case Kind::Imm:
    return cat({"#", formatDouble(Imm)});
  case Kind::Mem: {
    std::string S = "[aP" + std::to_string(Reg);
    S += Offset >= 0 ? "+" : "";
    S += std::to_string(Offset) + "]";
    S += std::to_string(Stride) + "++";
    return S;
  }
  }
  return "?";
}

std::string Instruction::str() const {
  std::string S = opcodeName(Op);
  for (const Operand &Src : Srcs) {
    S += ' ';
    S += Src.str();
  }
  if (HasMemDst) {
    S += ' ';
    S += MemDst.str();
  } else {
    S += " aV" + std::to_string(DstVReg);
  }
  return S;
}

double peac::instructionCycles(const Instruction &I,
                               const cm2::CostModel &Costs) {
  if (I.IsSpill)
    return Costs.SpillRestorePairCycles / 2.0;
  switch (I.Op) {
  case Opcode::FLodV:
  case Opcode::FStrV:
  case Opcode::FMovV:
    return Costs.VectorMemCycles;
  case Opcode::FDivV:
  case Opcode::FModV:
    return Costs.VectorDivCycles;
  case Opcode::FSqrtV:
    return Costs.VectorSqrtCycles;
  case Opcode::FSinV:
  case Opcode::FCosV:
  case Opcode::FTanV:
  case Opcode::FExpV:
  case Opcode::FLogV:
  case Opcode::FPowV:
    return Costs.VectorTransCycles;
  case Opcode::FMAddV:
    return Costs.VectorMaddCycles;
  default:
    return Costs.VectorAluCycles;
  }
}

ScratchUse Routine::scratchUse() const {
  ScratchUse Use;
  auto NoteOperand = [&](const Operand &O) {
    switch (O.K) {
    case Operand::Kind::VReg:
      Use.VRegs = std::max(Use.VRegs, O.Reg + 1);
      break;
    case Operand::Kind::SReg:
      Use.ScalarArgs = std::max(Use.ScalarArgs, O.Reg + 1);
      break;
    case Operand::Kind::Mem:
      if (O.Reg >= NumPtrArgs)
        Use.SpillSlots = std::max(Use.SpillSlots, O.Reg - NumPtrArgs + 1);
      break;
    case Operand::Kind::Imm:
      break;
    }
  };
  for (const Instruction &I : Body) {
    for (const Operand &S : I.Srcs)
      NoteOperand(S);
    if (I.HasMemDst)
      NoteOperand(I.MemDst);
    else
      Use.VRegs = std::max(Use.VRegs, I.DstVReg + 1);
  }
  return Use;
}

unsigned Routine::slotCount() const {
  unsigned Slots = 0;
  for (const Instruction &I : Body)
    if (!I.FusedWithPrev)
      ++Slots;
  return Slots;
}

double Routine::cyclesPerIteration(const cm2::CostModel &Costs) const {
  double Total = 0;
  double SlotCost = 0;
  for (const Instruction &I : Body) {
    double C = instructionCycles(I, Costs);
    if (I.FusedWithPrev) {
      SlotCost = SlotCost > C ? SlotCost : C;
      continue;
    }
    Total += SlotCost;
    SlotCost = C;
  }
  Total += SlotCost;
  return Total + Costs.LoopOverheadCycles;
}

std::string Routine::str() const {
  std::string S = Name + "_\n";
  for (const Instruction &I : Body) {
    if (I.FusedWithPrev) {
      // Dual issue prints on the previous line, Figure 12 style.
      S.erase(S.end() - 1); // Drop the newline.
      S += ", " + I.str() + "\n";
      continue;
    }
    S += "    " + I.str() + "\n";
  }
  S += "    jnz ac2 " + Name + "_\n";
  return S;
}
